import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from helmtrefftz.dg_assembly import (
    FormParameters,
    assemble_rhs,
    assemble_sipdg,
    residual,
)
from helmtrefftz.exact_solutions import plane_wave_case
from helmtrefftz.local_trefftz import (
    LocalTrefftzData,
    all_local_rhs,
    all_local_trefftz,
)
from helmtrefftz.mesh import build_unit_disk_mesh, build_unit_square_mesh, refine
from helmtrefftz.polyspace import dim_poly
from helmtrefftz.solve_pipeline import (
    SingularSystemError,
    _direct_solve,
    _element_block_ordering,
    _element_mass_grams,
    build_global_embedding,
    embedding_preconditioner,
    mass_preconditioner,
    particular_field,
    solve_embedded_trefftz,
    solve_reduced_system,
    solve_standard_dg,
    trefftz_dof_count,
)
from helpers import polynomial_problem, project, zero_f, zero_g


def test_embedding_shape_and_orthogonality():
    mesh = build_unit_square_mesh(2)  # 8 elements
    local = all_local_trefftz(mesh, 3, 1.0)
    emb = build_global_embedding(local)
    assert emb.matrix.shape == (10 * 8, 7 * 8)
    gram = (emb.matrix.T @ emb.matrix).toarray()
    assert np.linalg.norm(gram - np.eye(emb.n_columns)) <= 1e-12


def test_embedding_block_structure():
    mesh = build_unit_square_mesh(2)
    local = all_local_trefftz(mesh, 2, 1.0)
    emb = build_global_embedding(local)
    k = 3
    unit = np.zeros(emb.n_columns)
    unit[emb.column_offsets[k]] = 1.0
    lifted = emb.matrix @ unit
    n = dim_poly(2)
    assert np.allclose(lifted[k * n : (k + 1) * n], local[k].kernel[:, 0])
    mask = np.ones(len(lifted), dtype=bool)
    mask[k * n : (k + 1) * n] = False
    assert np.all(lifted[mask] == 0.0)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_patch_exactness_both_solvers(p):
    mesh = refine(build_unit_square_mesh(2))
    omega = 3.0
    u_cb, f_cb, g_cb = polynomial_problem(p, omega)
    exact = project(mesh, p, u_cb)
    params = FormParameters(omega=omega, p=p)
    for solver in (solve_standard_dg, solve_embedded_trefftz):
        field = solver(mesh, params, f_cb, g_cb)
        err = np.linalg.norm(field.coefficients - exact) / np.linalg.norm(exact)
        assert err <= 1e-9, solver.__name__


def test_zero_data_gives_zero_solution():
    mesh = build_unit_square_mesh(2)
    params = FormParameters(omega=2.0, p=3)
    for solver in (solve_standard_dg, solve_embedded_trefftz):
        field = solver(mesh, params, zero_f, zero_g)
        assert np.abs(field.coefficients).max() <= 1e-12


def test_p1_methods_agree():
    # the Trefftz space equals the broken space at p=1
    mesh = build_unit_square_mesh(3)
    params = FormParameters(omega=2.0, p=1)
    g = lambda pts, normals: np.exp(1j * pts[..., 0])
    a = solve_standard_dg(mesh, params, zero_f, g)
    b = solve_embedded_trefftz(mesh, params, zero_f, g)
    assert b.method == "embedded-trefftz"
    diff = np.linalg.norm(a.coefficients - b.coefficients)
    assert diff <= 1e-9 * np.linalg.norm(a.coefficients)


def test_gauge_freedom_of_particular_solution():
    # shifting u_f by kernel fields must not change the final solution
    mesh = build_unit_square_mesh(2)
    p, omega = 3, 2.0
    params = FormParameters(omega=omega, p=p)
    u_cb, f_cb, g_cb = polynomial_problem(p, omega)
    local = all_local_trefftz(mesh, p, omega)
    emb = build_global_embedding(local)
    u_f = particular_field(mesh, local, f_cb)
    A = assemble_sipdg(mesh, params)
    b = assemble_rhs(mesh, params, f_cb, g_cb)
    base = solve_reduced_system(A, b, emb, u_f)
    rng = np.random.default_rng(17)
    for _ in range(3):
        shift = emb.matrix @ (
            rng.standard_normal(emb.n_columns)
            + 1j * rng.standard_normal(emb.n_columns)
        )
        moved = solve_reduced_system(A, b, emb, u_f + shift)
        assert np.linalg.norm(moved - base) <= 1e-9 * np.linalg.norm(base)


def test_particular_field_merges_residual_warnings():
    # rank-0 constraints: every element's moments fall outside the range
    mesh = build_unit_square_mesh(2)
    W = np.zeros((dim_poly(0), dim_poly(2)))
    u, s, vt = np.linalg.svd(W, full_matrices=True)
    local = [
        LocalTrefftzData(k, 2, W, vt.T, u, s, vt, rank=0, sigma_min=0.0)
        for k in range(mesh.n_elements)
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        u_f = particular_field(mesh, local, lambda pts: np.ones(pts.shape[:-1]))
    assert not np.any(u_f)
    assert len(caught) == 1
    message = str(caught[0].message)
    assert message.startswith("constraint residual")
    assert f"the worst of {mesh.n_elements} elements" in message


def test_two_step_equivalence():
    # the embedded solution satisfies constraints and Galerkin equations
    mesh = build_unit_square_mesh(4)
    p, omega = 3, 2.0
    params = FormParameters(omega=omega, p=p)
    u_cb, f_cb, g_cb = polynomial_problem(p, omega)
    field = solve_embedded_trefftz(mesh, params, f_cb, g_cb)
    local = all_local_trefftz(mesh, p, omega)
    n = dim_poly(p)
    for data, rhs in zip(local, all_local_rhs(mesh, p, f_cb)):
        block = field.coefficients[data.element * n : (data.element + 1) * n]
        resid = np.linalg.norm(data.matrix @ block - rhs.moments)
        assert resid <= 1e-9 * (1.0 + np.linalg.norm(rhs.moments))
    emb = build_global_embedding(local)
    A = assemble_sipdg(mesh, params)
    b = assemble_rhs(mesh, params, f_cb, g_cb)
    galerkin = emb.matrix.T @ (A @ field.coefficients - b)
    assert np.linalg.norm(galerkin) <= 1e-9 * (1.0 + np.linalg.norm(b))


def test_reduced_matrix_complex_symmetric():
    mesh = build_unit_square_mesh(2)
    p = 3
    A = assemble_sipdg(mesh, FormParameters(omega=10.0, p=p))
    emb = build_global_embedding(all_local_trefftz(mesh, p, 10.0))
    reduced = emb.matrix.T @ (A @ emb.matrix)
    assert spla.norm(reduced - reduced.T) <= 1e-12 * spla.norm(reduced)


def test_solver_residual_contract():
    mesh = build_unit_square_mesh(4)
    params = FormParameters(omega=10.0, p=3)
    case_g = lambda pts, normals: np.exp(1j * 10.0 * pts[..., 0])
    A = assemble_sipdg(mesh, params)
    b = assemble_rhs(mesh, params, zero_f, case_g)
    field = solve_standard_dg(mesh, params, zero_f, case_g)
    assert residual(A, b, field.coefficients) <= 1e-10


@pytest.mark.parametrize(
    "p,embedded,standard", [(1, 3, 3), (3, 7, 10), (5, 11, 21)]
)
def test_dof_counts_per_element(p, embedded, standard):
    mesh = build_unit_square_mesh(2)
    assert trefftz_dof_count(mesh, p, "embedded") == 8 * embedded
    assert trefftz_dof_count(mesh, p, "standard") == 8 * standard


def test_dof_reduction_strict_for_p_ge_2():
    mesh = build_unit_square_mesh(2)
    for p in range(2, 9):
        emb = trefftz_dof_count(mesh, p, "embedded")
        std = trefftz_dof_count(mesh, p, "standard")
        assert emb < std


def test_singular_matrix_reported():
    # a zero row makes the factorization fail legibly
    A = sp.identity(10, format="csc", dtype=complex).tolil()
    A[4, 4] = 0.0
    with pytest.raises(SingularSystemError):
        _direct_solve(A.tocsc(), np.ones(10, dtype=complex), context="test")


def test_near_singular_matrix_reported():
    diag = np.ones(20, dtype=complex)
    diag[-1] = 1e-15
    A = sp.diags(diag, format="csc")
    with pytest.raises(SingularSystemError) as info:
        _direct_solve(A, np.ones(20, dtype=complex), context="test")
    assert info.value.sigma_min < 1e-13


@pytest.fixture
def splu_calls(monkeypatch):
    """Record (permc_spec, nnz(L+U)) of every SuperLU factorization."""
    calls = []
    splu = spla.splu

    def spy(*args, **kwargs):
        lu = splu(*args, **kwargs)
        calls.append((kwargs.get("permc_spec", "COLAMD"), lu.nnz))
        return lu

    monkeypatch.setattr(spla, "splu", spy)
    return calls


@pytest.mark.parametrize("method", ["standard", "embedded"])
def test_dissection_ordering_matches_colamd(method, splu_calls):
    # the mesh ordering changes rounding only, and needs less fill
    mesh = build_unit_disk_mesh(6)
    p, omega = 3, 20.0
    case = plane_wave_case(omega)
    params = FormParameters(omega=omega, p=p)
    A = assemble_sipdg(mesh, params)
    b = assemble_rhs(mesh, params, case.f, case.g)
    if method == "standard":
        precond = mass_preconditioner(mesh, p)
        ordered = _direct_solve(
            A, b, "test", precond=precond, ordering=_element_block_ordering(mesh, p)
        )
        reference = _direct_solve(A, b, "test", precond=precond)
    else:
        local = all_local_trefftz(mesh, p, omega)
        emb = build_global_embedding(local)
        u_f = particular_field(mesh, local, case.f)
        precond = embedding_preconditioner(emb, _element_mass_grams(mesh, p))
        ordered = solve_reduced_system(A, b, emb, u_f, precond=precond, mesh=mesh)
        reference = solve_reduced_system(A, b, emb, u_f, precond=precond)
    assert np.linalg.norm(ordered - reference) <= 1e-10 * np.linalg.norm(reference)
    (nd, nd_fill), (colamd, colamd_fill) = splu_calls
    assert (nd, colamd) == ("NATURAL", "COLAMD")
    assert nd_fill < colamd_fill


def test_unpivoted_breakdown_falls_back_to_partial_pivoting(splu_calls):
    # a first pivot that is zero to working precision: the diagonal-pivot
    # factorization loses the matrix, refinement cannot recover it, and
    # the solve must repeat with partial pivoting instead of returning it
    rng = np.random.default_rng(0)
    M = rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
    M = M + M.T
    M[0, 0] = 1e-20
    A = sp.csc_matrix(M, dtype=complex)
    x_true = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    x = _direct_solve(A, A @ x_true, "test", ordering=np.arange(8))
    assert [spec for spec, _ in splu_calls] == ["NATURAL", "COLAMD"]
    assert np.linalg.norm(x - x_true) <= 1e-12 * np.linalg.norm(x_true)
