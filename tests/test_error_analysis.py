import numpy as np
import pytest
import scipy.linalg

from helmtrefftz import error_analysis
from helmtrefftz.dg_assembly import FormParameters
from helmtrefftz.error_analysis import (
    dg_error,
    dofs_per_wavelength,
    eoc,
    estimate_inverse_trace,
    estimate_local_coercivity,
    estimate_norm_equivalence,
    l2_error,
)
from helmtrefftz.exact_solutions import ManufacturedCase, sinsin_case
from helmtrefftz.mesh import (
    build_unit_disk_mesh,
    build_unit_square_mesh,
    mesh_from_triangulation,
)
from helmtrefftz.harness import solve
from helmtrefftz.polyspace import _data_order, _face_tables, _volume_tables, dim_poly
from helmtrefftz.solve_pipeline import SolutionField
from helpers import (
    element_tables,
    polynomial_problem,
    project,
    reference_broken_grams,
)

REFERENCE_TRIANGLE = mesh_from_triangulation(
    np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]])
)


def constant_case(omega=2.0, value=0.0):
    """Exact solution u = value (constant) with omega fixed."""
    val = complex(value)

    def u(pts):
        return np.full(pts.shape[:-1], val)

    def grad_u(pts):
        return np.zeros(pts.shape[:-1] + (2,), dtype=complex)

    def f(pts):
        return -(omega**2) * u(pts)

    return ManufacturedCase(
        omega=float(omega),
        u=u,
        grad_u=grad_u,
        f=f,
        omega_report=float(omega),
        omega_representative=float(omega),
    )


def field_from_function(mesh, p, func):
    coeffs = project(mesh, p, func)
    return SolutionField(coeffs, p, mesh, coeffs.size)


def test_l2_error_zero_for_projected_polynomial():
    mesh = build_unit_square_mesh(2)
    p, omega = 3, 2.0
    u_cb, _, _ = polynomial_problem(p, omega)
    case = constant_case(omega)
    case = ManufacturedCase(
        omega=omega,
        u=u_cb,
        grad_u=case.grad_u,
        f=case.f,
        omega_report=omega,
        omega_representative=omega,
    )
    field = field_from_function(mesh, p, u_cb)
    assert l2_error(field, case) <= 1e-12


def test_l2_error_shift_bound():
    mesh = build_unit_square_mesh(2)
    case = sinsin_case(1.0)
    field = field_from_function(mesh, 3, case.u)
    base = l2_error(field, case)
    c = 0.37
    shifted = SolutionField(
        field.coefficients
        + np.tile(np.eye(1, 10, 0).ravel() * c, mesh.n_elements),
        3,
        mesh,
        field.dofs,
    )
    assert l2_error(shifted, case) <= base + c * np.sqrt(mesh.domain_area) + 1e-12


def test_l2_error_quadrature_stability(monkeypatch):
    # on a resolved mesh the default error quadrature is already converged:
    # doubling the order of the error rule moves the error by round-off only
    mesh = build_unit_square_mesh(8)
    case = sinsin_case(1.0)
    params = FormParameters(omega=1.0, p=3)
    field = solve(mesh, params, case.f, case.g, methods=("standard",))["standard"]
    e1 = l2_error(field, case)
    data_order = error_analysis._data_order
    assert data_order(3) == 12
    monkeypatch.setattr(error_analysis, "_data_order", lambda p: 2 * data_order(p))
    e2 = l2_error(field, case)
    assert e2 != e1  # the doubled rule was used
    assert abs(e1 - e2) <= 1e-10 * e1


def test_dg_error_zero_for_exact_field():
    mesh = build_unit_square_mesh(2)
    case = constant_case(omega=2.0, value=0.7)
    field = field_from_function(mesh, 2, case.u)
    assert dg_error(field, case) <= 1e-12


def test_dg_error_constant_mass_terms():
    # for e = c: |||e|||^2 = omega^2 c^2 |Omega| + omega c^2 |bdry|
    mesh = build_unit_square_mesh(2)
    omega, c = 2.0, 0.5
    case = constant_case(omega=omega, value=0.0)
    field = field_from_function(mesh, 2, lambda pts: np.full(pts.shape[:-1], c + 0j))
    expected = np.sqrt(omega**2 * c**2 * 1.0 + omega * c**2 * 4.0)
    assert dg_error(field, case) == pytest.approx(expected, rel=1e-12)


def test_dg_error_single_face_jump_additivity():
    # constant j on one of two elements: one interior jump of size j
    mesh = build_unit_square_mesh(1)
    omega, j, p = 2.0, 0.8, 2
    case = constant_case(omega=omega, value=0.0)
    coeffs = np.zeros(2 * 6, dtype=complex)
    coeffs[0] = j  # constant mode of the plus element
    fa, fb = mesh.interior_faces, mesh.boundary_faces
    plus, minus = fa["plus"][0], fa["minus"][0]
    if plus == 1:
        coeffs = np.roll(coeffs, 6)
    field = SolutionField(coeffs, p, mesh, coeffs.size)
    h_face = 0.5 * (mesh.diameters[plus] + mesh.diameters[minus])
    area = mesh.areas[plus]
    bdry_len = fb["length"][fb["element"] == plus].sum()
    expected_sq = (
        omega**2 * j**2 * area
        + omega * j**2 * bdry_len
        + (p**2 / h_face) * j**2 * fa["length"][0]
    )
    assert dg_error(field, case) ** 2 == pytest.approx(expected_sq, rel=1e-12)


def test_eoc_values():
    assert eoc([1e-2, 2.5e-3], [0.1, 0.05]) == [pytest.approx(2.0)]
    assert eoc([1e-3, 1e-3], [0.2, 0.1]) == [pytest.approx(0.0)]


def test_eoc_rejects_bad_input():
    with pytest.raises(ValueError):
        eoc([1e-2, 0.0], [0.1, 0.05])
    with pytest.raises(ValueError):
        eoc([1e-2, 1e-3], [0.1, 0.1])
    with pytest.raises(ValueError):
        eoc([1e-2], [0.1])


def test_dofs_per_wavelength_values():
    assert dofs_per_wavelength(10000, 100.0, np.pi) == pytest.approx(
        2.0 * np.sqrt(np.pi), rel=1e-14
    )
    base = dofs_per_wavelength(5000, 50.0, 1.0)
    assert dofs_per_wavelength(5000, 100.0, 1.0) == pytest.approx(base / 2.0)
    assert dofs_per_wavelength(400, 10.0, 1.0) == pytest.approx(
        2.0 * np.pi * 20.0 / 10.0
    )
    with pytest.raises(ValueError):
        dofs_per_wavelength(0, 1.0, 1.0)


def test_inverse_trace_constant_lower_bound():
    h, area = REFERENCE_TRIANGLE.diameters[0], REFERENCE_TRIANGLE.areas[0]
    perimeter = 2.0 + np.sqrt(2.0)
    for p in (1, 3):
        value = estimate_inverse_trace(REFERENCE_TRIANGLE, 0, p)
        lower = np.sqrt(perimeter * h) / (p * np.sqrt(area))
        assert value >= lower - 1e-12


def test_inverse_trace_bounded_over_degrees():
    # the p=1 endpoint sits ~2.4x above the p=8 value on every triangle
    # shape; past p=1 the constant settles quickly (regression guards)
    values = [
        estimate_inverse_trace(REFERENCE_TRIANGLE, 0, p) for p in range(1, 9)
    ]
    assert max(values) / min(values) <= 2.5
    assert max(values[1:]) / min(values[1:]) <= 2.0


def test_inverse_trace_scale_invariant():
    for scale in (0.1, 7.0):
        verts = scale * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        mesh = mesh_from_triangulation(verts, np.array([[0, 1, 2]]))
        a = estimate_inverse_trace(REFERENCE_TRIANGLE, 0, 4)
        b = estimate_inverse_trace(mesh, 0, 4)
        assert abs(a - b) <= 1e-10 * a


def test_inverse_trace_names_the_element_of_a_singular_mass_gram():
    # at p = 20 the monomial mass Gram is singular in double precision; the
    # eigensolver's bare message used to name no element
    with pytest.raises(np.linalg.LinAlgError, match="element 0"):
        estimate_inverse_trace(build_unit_square_mesh(1), 0, 20)


def test_norm_equivalence_at_least_one():
    mesh = build_unit_square_mesh(2)
    for p in (1, 3):
        assert estimate_norm_equivalence(mesh, p) >= 1.0 - 1e-12


def test_norm_equivalence_bounded_over_degrees():
    mesh = build_unit_square_mesh(2)  # 8 elements
    values = [estimate_norm_equivalence(mesh, p) for p in range(2, 7)]
    assert max(values) / min(values) <= 1.5


@pytest.mark.parametrize(
    "make_mesh",
    [
        lambda: build_unit_square_mesh(2),
        lambda: build_unit_square_mesh(4),
        lambda: build_unit_disk_mesh(2),
    ],
    ids=["square2", "square4", "disk2"],
)
def test_sparse_broken_grams_match_dense_scatter(make_mesh):
    # the block sum of the assembly adds each entry in another order than
    # np.add.at: the Grams agree to 1e-14 of their largest entry, and C*
    # to 1e-11 relative
    mesh = make_mesh()
    for p in range(1, 7):
        for omega in (1.0, 7.0):
            sparse = error_analysis._broken_grams(mesh, p, omega)
            dense = reference_broken_grams(mesh, p, omega)
            for G, R in zip(sparse, dense):
                assert G.format == "bsr" and G.dtype == np.float64
                assert np.abs(G.toarray() - R).max() <= 1e-14 * np.abs(R).max()
            g_dg, g_sharp = (0.5 * (R + R.T) for R in dense)
            lam = scipy.linalg.eigh(g_sharp, g_dg, eigvals_only=True)
            value = estimate_norm_equivalence(mesh, p, omega)
            assert value == pytest.approx(np.sqrt(lam[-1]), rel=1e-11)


def test_norm_equivalence_rejects_large_mesh():
    with pytest.raises(ValueError):
        estimate_norm_equivalence(build_unit_square_mesh(8), 2)


def test_local_coercivity_positive_under_resolution():
    mesh = build_unit_square_mesh(2)  # h_K ~ 0.7
    for p in (2, 3, 4, 5):
        omega = 0.1 / mesh.diameters[0]  # omega h = 0.1
        assert estimate_local_coercivity(mesh, 0, p, omega) > 0.0


def test_local_coercivity_matches_direct_laplace_constraint():
    # at omega = 0 the constraint is the pure scaled-Laplacian pairing
    from helmtrefftz.local_trefftz import constraint_matrices
    from helmtrefftz.polyspace import map_rule_to_triangle, quadrature_rule

    mesh, p = REFERENCE_TRIANGLE, 3
    W = constraint_matrices(mesh, p, 0.0)[0]
    pts, w = map_rule_to_triangle(quadrature_rule(2 * p + 2), mesh.tri_coords[0])
    hi = element_tables(mesh, 0, p, pts)
    lo = element_tables(mesh, 0, p - 2, pts)
    direct = -mesh.diameters[0] * np.einsum("qm,qn,q->mn", lo.values, hi.laplacians, w)
    assert np.abs(W - direct).max() <= 1e-13 * (1.0 + np.abs(direct).max())


def test_local_coercivity_monotone_toward_threshold():
    # the p=3 constraint on this element loses invertibility near
    # omega h ~ 24.6; approaching it the estimate decays monotonically
    mesh = build_unit_square_mesh(2)
    h = mesh.diameters[0]
    values = [
        estimate_local_coercivity(mesh, 0, 3, target / h)
        for target in (13.0, 14.0, 15.0, 16.0, 17.0)
    ]
    assert all(v > 0.0 for v in values)
    assert all(a > b for a, b in zip(values[:-1], values[1:]))


def test_local_coercivity_rejects_low_degree_and_callable():
    mesh = build_unit_square_mesh(1)
    with pytest.raises(ValueError):
        estimate_local_coercivity(mesh, 0, 1, 1.0)
    with pytest.raises(TypeError):
        estimate_local_coercivity(mesh, 0, 3, lambda pts: pts[..., 0])


def test_dg_error_dominates_scaled_l2():
    mesh = build_unit_square_mesh(4)
    case = sinsin_case(1.0)
    params = FormParameters(omega=1.0, p=2)
    field = solve(mesh, params, case.f, case.g, methods=("standard",))["standard"]
    assert dg_error(field, case) >= case.omega_representative * l2_error(field, case)


@pytest.mark.parametrize("p", range(15))
def test_real_contraction_is_bitwise_the_complex_einsum(p):
    # the norms contract every real table with the real and imaginary
    # coefficients apart; each part keeps every bit of the complex einsum,
    # on volume values and gradients and on gathered face coefficients
    mesh = build_unit_disk_mesh(2)
    rng = np.random.default_rng(p)
    shape = (mesh.n_elements, dim_poly(p))
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ev, _, _ = _volume_tables(mesh, p, _data_order(p))
    faces, _, _ = _face_tables(mesh, "minus", p, _data_order(p))
    gathered = coeffs[mesh.interior_faces["minus"]]
    contract = error_analysis._contract
    pairs = [
        (contract(ev.values, coeffs), np.einsum("eqi,ei->eq", ev.values, coeffs)),
        (
            np.stack([contract(ev.gx, coeffs), contract(ev.gy, coeffs)], axis=-1),
            np.einsum("eqid,ei->eqd", ev.gradients, coeffs),
        ),
        (
            contract(faces.values, gathered),
            np.einsum("fmi,fi->fm", faces.values, gathered),
        ),
    ]
    for ours, reference in pairs:
        assert np.array_equal(ours.view(np.int64), reference.view(np.int64))
