import math
from fractions import Fraction

import numpy as np
import pytest

from helmtrefftz.mesh import (
    build_unit_disk_mesh,
    build_unit_square_mesh,
    mesh_from_triangulation,
)
from helmtrefftz.polyspace import (
    MAX_QUAD_ORDER,
    _element_boundary_grams,
    _element_mass_grams,
    _element_stiffness_grams,
    _monomial_tables,
    bubble_basis,
    dim_poly,
    edge_quadrature_rule,
    map_rule_to_triangle,
    monomial_exponents,
    quadrature_rule,
)
from helpers import element_tables, refine


def make_element(verts):
    return mesh_from_triangulation(
        np.asarray(verts, dtype=float), np.array([[0, 1, 2]])
    )


# 3-4-5 right triangle: rational incenter (1, 1), diameter 5
PYTHAGOREAN = [[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]


@pytest.mark.parametrize("p,expected", [(0, 1), (3, 10), (5, 21)])
def test_dim_poly(p, expected):
    assert dim_poly(p) == expected


def test_exponent_order_graded():
    exps = monomial_exponents(3)
    degrees = exps.sum(axis=1)
    assert list(degrees) == sorted(degrees)
    assert tuple(exps[0]) == (0, 0)


def test_constant_member_values():
    mesh = make_element(PYTHAGOREAN)
    ev = element_tables(mesh, 0, 2, mesh.incenters[0])
    assert ev.values[..., 0] == pytest.approx(1.0)
    assert np.allclose(ev.gradients[..., 0, :], 0.0)
    assert ev.laplacians[..., 0] == pytest.approx(0.0)


def test_pure_square_laplacian():
    mesh = make_element(PYTHAGOREAN)
    p = 2
    exps = monomial_exponents(p)
    idx = [i for i, (a, b) in enumerate(exps) if (a, b) == (2, 0)][0]
    pts = np.array([[0.5, 0.5], [1.5, 0.3]])
    ev = element_tables(mesh, 0, p, pts)
    assert np.allclose(ev.laplacians[..., idx], 2.0 / mesh.diameters[0] ** 2)


def test_linear_gradient_constant():
    mesh = make_element(PYTHAGOREAN)
    exps = monomial_exponents(1)
    idx = [i for i, (a, b) in enumerate(exps) if (a, b) == (1, 0)][0]
    pts = np.array([[0.1, 0.2], [2.0, 0.5], [0.3, 2.5]])
    ev = element_tables(mesh, 0, 1, pts)
    assert np.allclose(ev.gradients[..., idx, 0], 1.0 / mesh.diameters[0])
    assert np.allclose(ev.gradients[..., idx, 1], 0.0)


def closed_form_tables(centers, scales, p, points):
    """X**a * Y**b and its derivative formulas, one float power per entry."""
    exps = monomial_exponents(p)
    a = exps[:, 0].astype(float)
    b = exps[:, 1].astype(float)
    inv_h = 1.0 / np.asarray(scales)[..., None, None]
    X = (points[..., 0] - np.asarray(centers)[..., None, 0])[..., None] * inv_h
    Y = (points[..., 1] - np.asarray(centers)[..., None, 1])[..., None] * inv_h
    xa, yb = X**a, Y**b
    gx = a * X ** np.maximum(a - 1.0, 0.0) * yb * inv_h
    gy = b * xa * Y ** np.maximum(b - 1.0, 0.0) * inv_h
    lap = (
        a * (a - 1.0) * X ** np.maximum(a - 2.0, 0.0) * yb
        + b * (b - 1.0) * xa * Y ** np.maximum(b - 2.0, 0.0)
    ) * inv_h**2
    return xa * yb, np.stack([gx, gy], axis=-1), lap


def assert_tables_bitwise(ev, reference):
    # downstream einsum sums in an order set by the memory layout, so
    # equal values in another layout would still change the results
    for table, expected in zip((ev.values, ev.gradients, ev.laplacians), reference):
        assert table.shape == expected.shape
        assert table.flags.c_contiguous
        assert np.array_equal(table, expected)


DISK = build_unit_disk_mesh(2)


@pytest.mark.parametrize("p", range(15))
def test_monomial_tables_volume_frames_bitwise(p):
    order = min(2 * p + 2, MAX_QUAD_ORDER)
    pts, _ = map_rule_to_triangle(quadrature_rule(order), DISK.tri_coords)
    ev = _monomial_tables(DISK.incenters, DISK.diameters, p, pts)
    assert ev.values.shape == pts.shape[:-1] + (dim_poly(p),)
    assert_tables_bitwise(
        ev, closed_form_tables(DISK.incenters, DISK.diameters, p, pts)
    )


@pytest.mark.parametrize("p", range(15))
def test_monomial_tables_face_frames_bitwise(p):
    fa = DISK.interior_faces
    nodes = edge_quadrature_rule(min(2 * p + 2, MAX_QUAD_ORDER)).nodes
    tangents = (fa["v1"] - fa["v0"])[:, None, :]
    pts = fa["v0"][:, None, :] + nodes[None, :, None] * tangents
    for el in (fa["plus"], fa["minus"]):
        centers, scales = DISK.incenters[el], DISK.diameters[el]
        assert_tables_bitwise(
            _monomial_tables(centers, scales, p, pts),
            closed_form_tables(centers, scales, p, pts),
        )


@pytest.mark.parametrize("p", range(15))
def test_eval_basis_scalar_frame_bitwise(p):
    # (id kept for stability) the one-element frames of the single-element
    # diagnostics, at scattered points and at the incenter itself
    mesh = make_element([[0.2, -0.1], [1.1, 0.3], [0.4, 1.2]])
    rng = np.random.default_rng(p)
    center, scale = mesh.incenters[:1], mesh.diameters[:1]
    for pts in (center + 0.4 * rng.standard_normal((9, 2)), center):
        assert_tables_bitwise(
            _monomial_tables(center, scale, p, pts[None]),
            closed_form_tables(center, scale, p, pts[None]),
        )


def reference_moment(a, b):
    """Exact integral of x^a y^b over the triangle (0,0),(1,0),(0,1)."""
    return Fraction(
        math.factorial(a) * math.factorial(b), math.factorial(a + b + 2)
    )


@pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 13, 20, 30])
def test_triangle_quadrature_moments(order, reference=None):
    rule = quadrature_rule(order)
    assert np.all(rule.weights > 0.0)
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-14)
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pts, w = map_rule_to_triangle(rule, ref)
    for a in range(order + 1):
        for b in range(order + 1 - a):
            val = np.sum(w * pts[:, 0] ** a * pts[:, 1] ** b)
            exact = float(reference_moment(a, b))
            assert val == pytest.approx(exact, rel=1e-13, abs=1e-16)


def test_quadrature_weights_sum_to_area():
    rule = quadrature_rule(4)
    _, w = map_rule_to_triangle(rule, np.asarray(PYTHAGOREAN))
    assert w.sum() == pytest.approx(6.0, rel=1e-14)


def test_quadrature_order_rejected():
    with pytest.raises(ValueError):
        quadrature_rule(0)
    with pytest.raises(ValueError):
        quadrature_rule(31)


def test_scaled_monomial_products_match_exact_moments():
    # quadrature of m_i * m_j against an exact rational expansion
    mesh = make_element(PYTHAGOREAN)
    p = 4  # the Gram rule has order 2p + 2, exact for these products
    gram = _element_mass_grams(mesh, p)[0]
    exps = monomial_exponents(p)
    cx, cy, h = Fraction(1), Fraction(1), Fraction(5)

    def shifted_moment(a, b):
        # integral of ((x-cx)/h)^a ((y-cy)/h)^b over the 3-4-5 triangle
        total = Fraction(0)
        for i in range(a + 1):
            for j in range(b + 1):
                coeff = (
                    math.comb(a, i)
                    * math.comb(b, j)
                    * (-cx) ** (a - i)
                    * (-cy) ** (b - j)
                )
                # map x = 4u, y = 3v with jacobian 12 onto the reference triangle
                total += coeff * 4**i * 3**j * 12 * reference_moment(i, j)
        return total / h ** (a + b)

    for i, (a1, b1) in enumerate(exps):
        for j, (a2, b2) in enumerate(exps):
            exact = float(shifted_moment(a1 + a2, b1 + b2))
            assert gram[i, j] == pytest.approx(exact, rel=1e-13, abs=5e-14)


@pytest.mark.parametrize("order", [1, 4, 9, 17, 30])
def test_edge_quadrature_moments(order):
    rule = edge_quadrature_rule(order)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    for k in range(order + 1):
        assert np.sum(rule.weights * rule.nodes**k) == pytest.approx(
            1.0 / (k + 1), rel=1e-13
        )
    # Gauss nodes sit symmetrically about the midpoint
    assert np.allclose(np.sort(rule.nodes) + np.sort(rule.nodes)[::-1], 1.0)


def test_edge_quadrature_order_rejected():
    with pytest.raises(ValueError):
        edge_quadrature_rule(31)


def test_low_degree_grams_exact():
    # p=1 on the 3-4-5 triangle: basis 1, X, Y with grad X = (1/h, 0)
    mesh = make_element(PYTHAGOREAN)
    area, h = 6.0, 5.0
    stiffness = _element_stiffness_grams(mesh, 1)[0]
    assert np.allclose(stiffness, np.diag([0.0, 1.0, 1.0]) * area / h**2, atol=1e-15)
    values, normal_derivs = (g[0] for g in _element_boundary_grams(mesh, 1))
    assert values[0, 0] == pytest.approx(12.0, rel=1e-14)  # perimeter
    # sum over edges of |F| n_x^2 and |F| n_y^2: bottom 4 (0,-1), left 3
    # (-1,0), hypotenuse 5 (3,4)/5
    assert normal_derivs[1, 1] == pytest.approx((3.0 + 5.0 * 0.36) / h**2, rel=1e-14)
    assert normal_derivs[2, 2] == pytest.approx((4.0 + 5.0 * 0.64) / h**2, rel=1e-14)
    assert np.all(normal_derivs[0] == 0.0)


@pytest.mark.parametrize("p", [0, 3, 6])
def test_element_grams_of_selected_elements_bitwise(p):
    # the diagnostics read one element at a time; the batch rows are the same
    mesh = build_unit_disk_mesh(2)
    picked = np.array([11, 0, 5])
    for build in (
        _element_mass_grams,
        _element_stiffness_grams,
        lambda *args: np.stack(_element_boundary_grams(*args), axis=1),
        bubble_basis,
    ):
        everything = build(mesh, p)
        assert len(everything) == mesh.n_elements
        assert np.array_equal(build(mesh, p, picked), everything[picked])
        for k in picked:
            assert np.array_equal(build(mesh, p, np.array([k]))[0], everything[k])


@pytest.mark.parametrize("p,size", [(0, 0), (1, 0), (2, 1), (3, 3), (5, 10)])
def test_bubble_sizes(p, size):
    mesh = make_element(PYTHAGOREAN)
    assert bubble_basis(mesh, p).shape == (1, dim_poly(p), size)


def test_bubble_vanishes_on_incircle():
    mesh = make_element(PYTHAGOREAN)
    p = 4
    coeffs = bubble_basis(mesh, p)[0]
    angles = 2.0 * np.pi * np.arange(8) / 8.0
    pts = mesh.incenters[0] + mesh.inradii[0] * np.stack(
        [np.cos(angles), np.sin(angles)], axis=1
    )
    vals = element_tables(mesh, 0, p, pts).values @ coeffs
    scale = np.abs(coeffs).max()
    assert np.abs(vals).max() <= 1e-12 * scale


def test_bubble_expansion_is_exact():
    # direct evaluation of (|x-c|^2 - r^2) m(x) matches the P^p expansion
    mesh = make_element([[0.2, -0.1], [1.1, 0.3], [0.4, 1.2]])
    p = 5
    coeffs = bubble_basis(mesh, p)[0]
    rng = np.random.default_rng(5)
    c = mesh.incenters[0]
    pts = c + 0.3 * rng.standard_normal((20, 2))
    ev_low = element_tables(mesh, 0, p - 2, pts).values
    ev_high = element_tables(mesh, 0, p, pts).values
    factor = np.sum((pts - c) ** 2, axis=1) - mesh.inradii[0] ** 2
    direct = factor[:, None] * ev_low
    expanded = ev_high @ coeffs
    assert np.abs(direct - expanded).max() <= 1e-12 * max(np.abs(direct).max(), 1.0)


def test_mass_conditioning_h_independent():
    # the scaled frame keeps element mass conditioning fixed under refinement
    conds = []
    m = build_unit_square_mesh(2)
    for _ in range(3):
        conds.append(np.linalg.cond(_element_mass_grams(m, 4, np.array([0]))[0]))
        m = refine(m)
    assert max(conds) / min(conds) <= 1.01
