import ast
import math
import re
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.special import roots_jacobi

from helmtrefftz.mesh import (
    build_unit_disk_mesh,
    build_unit_square_mesh,
    mesh_from_triangulation,
)
from helmtrefftz import polyspace
from helmtrefftz.polyspace import (
    MAX_QUAD_ORDER,
    _data_order,
    _element_boundary_grams,
    _element_mass_grams,
    _element_stiffness_grams,
    _element_tables,
    _face_quadrature,
    _face_tables,
    _gauss_jacobi_10,
    _gram_order,
    _monomial_tables,
    _volume_tables,
    _weighted_gram,
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
def test_power_tables_bitwise_the_full_power(p):
    # the power runs only for exponents 2..p from p = 3 on; every column
    # must still be bitwise X ** arange(p + 1), at scaled coordinates that
    # are negative, exactly zero and positive.  p = 2 is the case where a
    # lone exponent-2 column, computed by another numpy kernel, moved the
    # last bits (and a golden table); enough points to reach the SIMD loop
    rng = np.random.default_rng(p)
    centers = rng.uniform(-1.0, 1.0, (64, 2))
    scales = rng.uniform(0.05, 2.0, 64)
    pts = centers[:, None, :] + scales[:, None, None] * rng.uniform(
        -0.6, 0.6, (64, 25, 2)
    )
    pts[:, ::4] = centers[:, None, :]  # X = Y = +0.0
    ev = _monomial_tables(centers, scales, p, pts)
    inv_h = 1.0 / scales[:, None, None]
    for c, got in enumerate((ev._x_powers, ev._y_powers)):
        scaled = (pts[..., c] - centers[:, None, c])[..., None] * inv_h
        assert (scaled < 0).any() and (scaled == 0).any() and (scaled > 0).any()
        assert got.flags.c_contiguous
        assert same_bits(got, scaled ** np.arange(p + 1, dtype=float))


@pytest.mark.parametrize("order", [1, 8, MAX_QUAD_ORDER])
def test_face_quadrature_bitwise(order):
    # the points v0 + t (v1 - v0) and weights w |F| of the unit-segment rule,
    # for the mesh's face dicts and for stacked element edges
    rule = edge_quadrature_rule(order)
    for faces in (DISK.interior_faces, DISK.boundary_faces):
        pts, w = _face_quadrature(faces, order)
        v0, v1 = faces["v0"], faces["v1"]
        expected = v0[:, None, :] + rule.nodes[None, :, None] * (v1 - v0)[:, None, :]
        assert same_bits(pts, expected)
        assert same_bits(w, rule.weights[None, :] * faces["length"][:, None])
    tri = DISK.tri_coords
    tang = np.roll(tri, -1, axis=1) - tri
    length = np.hypot(tang[..., 0], tang[..., 1])
    edges = {"v0": tri, "v1": np.roll(tri, -1, axis=1), "length": length}
    pts, w = _face_quadrature(edges, order)
    assert pts.shape == (DISK.n_elements, 3, len(rule.nodes), 2)
    assert same_bits(pts, tri[..., None, :] + rule.nodes[:, None] * tang[..., None, :])
    assert same_bits(w, rule.weights * length[..., None])


@pytest.mark.parametrize("p", [0, 3, 8])
def test_volume_and_element_tables_bitwise(p):
    order = _data_order(p)
    picked = np.array([5, 0, 17])
    for elements in (None, picked):
        sel = slice(None) if elements is None else elements
        ev, pts, w = _volume_tables(DISK, p, order, elements)
        rule = quadrature_rule(order)
        ref_pts, ref_w = map_rule_to_triangle(rule, DISK.tri_coords[sel])
        assert same_bits(pts, ref_pts) and same_bits(w, ref_w)
        ref = _monomial_tables(DISK.incenters[sel], DISK.diameters[sel], p, ref_pts)
        assert same_bits(ev.values, ref.values)
        assert same_bits(ev.laplacians, ref.laplacians)
        lower = _element_tables(DISK, sel, max(p - 2, 0), pts)
        assert lower.values.shape == pts.shape[:-1] + (dim_poly(max(p - 2, 0)),)


def counted_builds(monkeypatch):
    """Record the element count of every power-table build."""
    builds = []

    def spy(centers, scales, p, points):
        builds.append(len(centers))
        return _monomial_tables(centers, scales, p, points)

    monkeypatch.setattr(polyspace, "_monomial_tables", spy)
    return builds


@pytest.mark.parametrize("order", [_gram_order(8), _data_order(3)])
def test_shared_tables_bitwise_at_every_degree(order, monkeypatch):
    # the degree grows and shrinks inside one scope: one build per rise,
    # and every degree reads bitwise the tables an unshared call builds
    degrees = [2, 0, 5, 3, 8, 8, 1]
    alone = {p: _volume_tables(DISK, p, order) for p in degrees}
    sides = {
        side: {p: _face_tables(DISK, side, p, order) for p in degrees}
        for side in ("plus", "minus", "element")
    }
    builds = counted_builds(monkeypatch)
    with polyspace._shared_tables(order):
        for p in degrees:
            for expected, got in [
                (alone[p], _volume_tables(DISK, p, order)),
                *((sides[s][p], _face_tables(DISK, s, p, order)) for s in sides),
            ]:
                for a, b in zip(expected[1:], got[1:]):
                    assert same_bits(a, b)
                for name in ("values", "gx", "gy", "laplacians"):
                    assert same_bits(getattr(expected[0], name), getattr(got[0], name))
    assert len(builds) == 4 * len({2, 5, 8})
    assert polyspace._shared.get() == {}


def test_shared_tables_scope_nests_and_closes_on_error(monkeypatch):
    builds = counted_builds(monkeypatch)
    with pytest.raises(RuntimeError, match="inside"):
        with polyspace._shared_tables(8):
            _volume_tables(DISK, 3, 8)
            with polyspace._shared_tables(8):  # joins the outer scope
                _volume_tables(DISK, 3, 8)
            _volume_tables(DISK, 2, 8)
            assert builds == [DISK.n_elements]
            raise RuntimeError("inside")
    assert polyspace._shared.get() == {}
    _volume_tables(DISK, 3, 8)
    _volume_tables(DISK, 3, 8)
    assert len(builds) == 3  # outside a scope every call builds


def test_shared_tables_scope_shares_its_order_alone(monkeypatch):
    builds = counted_builds(monkeypatch)
    with polyspace._shared_tables(8):
        with polyspace._shared_tables(10):  # independent of the order-8 scope
            _volume_tables(DISK, 3, 10)
            _volume_tables(DISK, 3, 10)
            _volume_tables(DISK, 3, 8)
            with polyspace._shared_tables(8):  # joins the outermost scope
                _volume_tables(DISK, 3, 8)
            assert len(builds) == 2
        assert list(polyspace._shared.get()) == [8]
        _volume_tables(DISK, 3, 10)  # its scope closed: built again
        _volume_tables(DISK, 3, 12)  # no scope of this order: built
        _volume_tables(DISK, 3, 8)
        assert len(builds) == 4
    assert polyspace._shared.get() == {}


def test_shared_tables_scope_is_per_thread():
    seen = []
    with polyspace._shared_tables(8):
        other = threading.Thread(target=lambda: seen.append(polyspace._shared.get()))
        other.start()
        other.join(timeout=10)
    assert not other.is_alive()
    assert seen == [{}]


def test_one_element_grams_get_their_own_tables(monkeypatch):
    # the one-element diagnostics neither read nor fill the shared set
    one = np.array([7])
    expected = _element_mass_grams(DISK, 4, one)
    builds = counted_builds(monkeypatch)
    assert np.array_equal(_element_mass_grams(DISK, 4, one), expected)
    assert builds == [1]
    with polyspace._shared_tables(_gram_order(4)):
        everything = _element_mass_grams(DISK, 4)
        assert np.array_equal(_element_mass_grams(DISK, 4, one), expected)
        assert np.array_equal(everything[one], expected)
        assert len(polyspace._shared.get()[_gram_order(4)]) == 1
    assert builds == [1, DISK.n_elements, 1]


SOURCE = Path(polyspace.__file__).parent
# the basis tables, the quadrature rules and their largest order, and the
# placement of points and element frames behind _volume_tables and
# _face_tables
BASIS_NAMES = (
    "_monomial_tables",
    "_element_tables",
    "_face_quadrature",
    "quadrature_rule",
    "edge_quadrature_rule",
    "map_rule_to_triangle",
    "MAX_QUAD_ORDER",
)


@pytest.mark.parametrize(
    "module", sorted(f.name for f in SOURCE.glob("*.py") if f.name != "polyspace.py")
)
def test_only_polyspace_builds_the_basis_and_its_rules(module):
    # every table and rule order comes from polyspace's helpers; the
    # package __init__ may re-export the public rules by name only
    text = (SOURCE / module).read_text()
    if module == "__init__.py":
        tree = ast.parse(text)
        text = ast.unparse(
            [n for n in tree.body if not isinstance(n, ast.ImportFrom)]
        )
    for name in BASIS_NAMES:
        assert not re.search(rf"\b{name}\b", text), f"{module} names {name}"
    orders = re.findall(r"2\s*\*\s*[\w.]+\s*\+\s*[26]\b", text)
    assert not orders, f"{module} writes out a rule order: {orders}"


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


@pytest.mark.parametrize("n", range(1, 17))
def test_gauss_jacobi_rule_bitwise_scipy(n):
    # the triangle rules of orders 1..30 read n = 1..16 points; the rule
    # is computed without scipy.special, bit for bit its roots_jacobi
    x, w = _gauss_jacobi_10(n)
    x_ref, w_ref = roots_jacobi(n, 1.0, 0.0)
    assert x.tobytes() == x_ref.tobytes()
    assert w.tobytes() == w_ref.tobytes()


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


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("p", range(15))
def test_weighted_gram_bitwise_einsum(p, monkeypatch):
    # the einsum summation order, hence every CSV byte: per point the
    # component products, then the points in order from zero
    ev, _, w = _volume_tables(DISK, p, _gram_order(p))  # 24 elements
    for table in (ev.gx, ev.gy):
        assert table.flags.c_contiguous
    assert np.array_equal(ev.gradients, np.stack([ev.gx, ev.gy], axis=-1))
    n_pairs = dim_poly(p) * (dim_poly(p) + 1) // 2
    n_points = w.shape[1]
    tiles = (
        polyspace._GRAM_TILE,
        5 * n_pairs * n_points,  # 5-element tiles: 24 = 4 * 5 + 4
        3 * n_pairs,  # one element, 3 points per tile
    )
    for cut in (np.s_[:, :], np.s_[:1, :], np.s_[:, :1]):  # all, E=1, Q=1
        values, gx, gy = ev.values[cut], ev.gx[cut], ev.gy[cut]
        grads = ev.gradients[cut]
        mass = np.einsum("eqi,eqj,eq->eij", values, values, w[cut])
        stiffness = np.einsum("eqid,eqjd,eq->eij", grads, grads, w[cut])
        for tile in tiles:
            monkeypatch.setattr(polyspace, "_GRAM_TILE", tile)
            assert same_bits(_weighted_gram((values,), w[cut]), mass)
            assert same_bits(_weighted_gram((gx, gy), w[cut]), stiffness)


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
