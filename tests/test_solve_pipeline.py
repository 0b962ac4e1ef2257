import runpy
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from helmtrefftz import solve_pipeline
from helmtrefftz.dg_assembly import (
    FormParameters,
    assemble_rhs,
    assemble_sipdg,
    omega_values,
)
from helmtrefftz.exact_solutions import plane_wave_case, sinsin_case, var_omega_case
from helmtrefftz.harness import RunConfig, run_experiment, solve
from helmtrefftz.local_trefftz import (
    KernelDimensionWarning,
    all_local_rhs,
    all_local_trefftz,
)
from helmtrefftz.mesh import build_unit_disk_mesh, build_unit_square_mesh
from helmtrefftz.polyspace import _element_mass_grams, dim_poly
from helmtrefftz.solve_pipeline import (
    GlobalEmbedding,
    SingularSystemError,
    _basis_apply,
    _basis_transpose_apply,
    _block_congruence,
    _block_ordering,
    _direct_solve,
    _estimate_sigma_max,
    build_global_embedding,
    embedding_preconditioner,
    mass_preconditioner,
    particular_field,
    solve_reduced_system,
)
from helpers import (
    embedding_matrix,
    polynomial_problem,
    project,
    reference_assemble_sipdg,
    reference_block_congruence,
    reference_colamd_solve,
    refine,
    residual,
    shuffled_jittered_disk,
    zero_constraints,
    zero_f,
    zero_g,
)


def test_embedding_shape_and_orthogonality():
    mesh = build_unit_square_mesh(2)  # 8 elements
    local = all_local_trefftz(mesh, 3, 1.0)
    emb = build_global_embedding(local)
    E = embedding_matrix(emb)
    assert E.shape == (10 * 8, 7 * 8)
    gram = (E.T @ E).toarray()
    assert np.linalg.norm(gram - np.eye(emb.n_columns)) <= 1e-12


def test_embedding_block_structure():
    mesh = build_unit_square_mesh(2)
    local = all_local_trefftz(mesh, 2, 1.0)
    emb = build_global_embedding(local)
    k = 3
    unit = np.zeros(emb.n_columns)
    unit[emb.column_offsets[k]] = 1.0
    lifted = embedding_matrix(emb) @ unit
    n = dim_poly(2)
    assert np.allclose(lifted[k * n : (k + 1) * n], local.kernels[k, :, 0])
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
    for method, field in solve(mesh, params, f_cb, g_cb).items():
        err = np.linalg.norm(field.coefficients - exact) / np.linalg.norm(exact)
        assert err <= 1e-9, method


def test_zero_data_gives_zero_solution():
    mesh = build_unit_square_mesh(2)
    params = FormParameters(omega=2.0, p=3)
    for field in solve(mesh, params, zero_f, zero_g).values():
        assert np.abs(field.coefficients).max() <= 1e-12


def _bits(array):
    return np.ascontiguousarray(array).view(np.int64)


@pytest.mark.parametrize("p", [1, 3])
def test_no_source_is_bitwise_the_zero_source(p):
    # f=None skips the load's volume term and the particular field; b,
    # u_f and both solutions keep every bit of a zero callable, signs of
    # zeros included
    mesh = build_unit_disk_mesh(3)
    case = plane_wave_case(20.0)
    params = FormParameters(omega=20.0, p=p)
    b = assemble_rhs(mesh, params, None, case.g)
    assert np.array_equal(_bits(b), _bits(assemble_rhs(mesh, params, zero_f, case.g)))
    if p >= 2:
        local = all_local_trefftz(mesh, p, 20.0)
        u_f = particular_field(mesh, local, None)
        assert np.array_equal(_bits(u_f), _bits(particular_field(mesh, local, zero_f)))
    without = solve(mesh, params, None, case.g)
    with_zero = solve(mesh, params, zero_f, case.g)
    for method in ("embedded", "standard"):
        assert without[method].dofs == with_zero[method].dofs
        assert np.array_equal(
            _bits(without[method].coefficients), _bits(with_zero[method].coefficients)
        )


def test_p1_methods_agree(splu_calls):
    # the Trefftz space equals the broken space at p=1: one factorization,
    # in complex64, and both fields carry the same coefficients and dofs
    mesh = build_unit_square_mesh(3)
    params = FormParameters(omega=2.0, p=1)
    g = lambda pts, normals: np.exp(1j * pts[..., 0])
    fields = solve(mesh, params, zero_f, g)
    assert [call[:2] for call in splu_calls] == [("NATURAL", np.complex64)]
    a, b = fields["standard"], fields["embedded"]
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.dofs == b.dofs == 54


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
    basis = embedding_preconditioner(emb, _element_mass_grams(mesh, p))
    base = solve_reduced_system(A, b, basis, u_f, "test", mesh.dissection_order)
    rng = np.random.default_rng(17)
    for _ in range(3):
        shift = embedding_matrix(emb) @ (
            rng.standard_normal(emb.n_columns)
            + 1j * rng.standard_normal(emb.n_columns)
        )
        moved = solve_reduced_system(
            A, b, basis, u_f + shift, "test", mesh.dissection_order
        )
        assert np.linalg.norm(moved - base) <= 1e-9 * np.linalg.norm(base)


def test_particular_field_merges_residual_warnings(monkeypatch):
    # rank-0 constraints: every element's moments fall outside the range
    mesh = build_unit_square_mesh(2)
    zero_constraints(monkeypatch)
    with pytest.warns(KernelDimensionWarning):
        local = all_local_trefftz(mesh, 2, 1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        u_f = particular_field(mesh, local, lambda pts: np.ones(pts.shape[:-1]))
    assert not np.any(u_f)
    assert len(caught) == 1
    message = str(caught[0].message)
    assert message.startswith("constraint residual")
    assert f"the worst of {mesh.n_elements} elements" in message


@pytest.mark.parametrize("zeroed", [[], [3]], ids=["uniform", "ragged"])
def test_embedding_preconditioner_orthonormalizes(zeroed, monkeypatch):
    # T = E Q has L2-orthonormal columns on every element, also when one
    # element (3, with a zero constraint) has more kernel columns, and
    # spans the kernels in E's column layout
    mesh = build_unit_square_mesh(2)
    p = 3
    zero_constraints(monkeypatch, elements=zeroed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KernelDimensionWarning)
        emb = build_global_embedding(all_local_trefftz(mesh, p, 2.0))
    grams = _element_mass_grams(mesh, p)
    basis = embedding_preconditioner(emb, grams)
    assert np.array_equal(basis.column_offsets, emb.column_offsets)
    assert not basis.clipped
    T, E = embedding_matrix(basis), embedding_matrix(emb)
    gram = (T.T @ sp.block_diag(list(grams)) @ T).toarray()
    assert np.abs(gram - np.eye(emb.n_columns)).max() <= 1e-10
    assert np.abs((E @ (E.T @ T) - T).toarray()).max() <= 1e-10


def _standard_case(mesh, p, omega):
    A = assemble_sipdg(mesh, FormParameters(omega=omega, p=p))
    return A, mass_preconditioner(_element_mass_grams(mesh, p))


def _embedded_case(mesh, p, omega):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KernelDimensionWarning)
        emb = build_global_embedding(all_local_trefftz(mesh, p, omega))
    A = assemble_sipdg(mesh, FormParameters(omega=omega, p=p))
    return A, embedding_preconditioner(emb, _element_mass_grams(mesh, p))


def _assert_bitwise_sparse_products(A, basis):
    """The block congruence and basis maps against the sparse products.

    The reference is what the solver computed before: T^T (A T) with CSR
    matrices, converted to the CSC that SuperLU reads.
    """
    T = embedding_matrix(basis)
    reference = sp.csc_matrix(T.T @ (A @ T), dtype=complex)
    reference.sort_indices()
    M = _block_congruence(A, basis, np.arange(len(basis.column_offsets) - 1))
    assert M.has_sorted_indices
    assert np.array_equal(M.indptr, reference.indptr)
    assert np.array_equal(M.indices, reference.indices)
    assert np.array_equal(M.data, reference.data)

    rng = np.random.default_rng(3)
    b = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    y = rng.standard_normal(M.shape[0]) + 1j * rng.standard_normal(M.shape[0])
    assert np.array_equal(_basis_transpose_apply(basis, b), T.T @ b)
    assert np.array_equal(_basis_apply(basis, y), T @ y)


@pytest.mark.parametrize(
    "mesh,p,omega",
    [(build_unit_disk_mesh(3), 3, 20.0), (build_unit_square_mesh(4), 12, 1.0)],
    ids=["disk-p3", "square-p12"],
)
def test_block_congruence_bitwise_standard(mesh, p, omega):
    # R^T A R of the standard solve, R the mass whiteners
    _assert_bitwise_sparse_products(*_standard_case(mesh, p, omega))


@pytest.mark.parametrize("p", [4, 8])
def test_block_congruence_bitwise_embedded(p, monkeypatch):
    # T^T A T of the embedded solve, T = E Q, with a ragged kernel
    # dimension on element 3 (zero constraint)
    zero_constraints(monkeypatch, elements=[3])
    A, basis = _embedded_case(build_unit_square_mesh(2), p, 2.0)
    assert len(set(np.diff(basis.column_offsets))) == 2
    _assert_bitwise_sparse_products(A, basis)


def _assert_ordered_congruence(A, basis, order):
    """The streamed congruence in element order against the former route:
    the natural congruence, permuted to that order, indices sorted."""
    ordering = _block_ordering(order, np.diff(basis.column_offsets))
    reference = reference_block_congruence(A, basis)
    expected = sp.csc_matrix(reference[ordering][:, ordering])
    expected.sort_indices()
    M = _block_congruence(A, basis, order)
    assert M.has_sorted_indices
    assert np.array_equal(M.indptr, expected.indptr)
    assert np.array_equal(M.indices, expected.indices)
    assert np.array_equal(M.data, expected.data)
    return M


@pytest.mark.parametrize("tile", ["default", "one-block", "uneven"])
@pytest.mark.parametrize(
    "case",
    ["disk-p3", "square-p12", "ragged-p4", "ragged-p8", "shuffled-disk"],
)
def test_ordered_block_congruence_bitwise(case, tile, monkeypatch):
    # every tiling writes the matrix of the former one-shot congruence
    # permuted to the mesh's dissection order, entry for entry
    if case == "disk-p3":
        mesh = build_unit_disk_mesh(3)
        A, basis = _standard_case(mesh, 3, 20.0)
    elif case == "square-p12":
        mesh = build_unit_square_mesh(4)
        A, basis = _standard_case(mesh, 12, 1.0)
    elif case == "shuffled-disk":
        mesh = shuffled_jittered_disk(3, seed=7)
        A, basis = _standard_case(mesh, 3, 20.0)
    else:
        mesh = build_unit_square_mesh(2)
        zero_constraints(monkeypatch, elements=[3])
        A, basis = _embedded_case(mesh, int(case[-1]), 2.0)
        assert len(set(np.diff(basis.column_offsets))) == 2
    n = basis.blocks.shape[1]
    n_blocks = A.tobsr(blocksize=(n, n)).nnz // (n * n)
    if tile == "one-block":
        monkeypatch.setattr(solve_pipeline, "_CONGRUENCE_TILE", 1)
    elif tile == "uneven":
        per_tile = next(k for k in range(2, n_blocks) if n_blocks % k)
        monkeypatch.setattr(solve_pipeline, "_CONGRUENCE_TILE", per_tile * n * n)
    _assert_ordered_congruence(A, basis, mesh.dissection_order)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16), p=st.integers(2, 4))
def test_ordered_reduced_matrix_on_shuffled_disks(seed, p):
    # on perturbed, relabelled meshes the ordered T^T A T is the permuted
    # natural one and complex symmetric
    mesh = shuffled_jittered_disk(2, seed=seed)
    A, basis = _embedded_case(mesh, p, 3.0)
    M = _assert_ordered_congruence(A, basis, mesh.dissection_order)
    assert spla.norm(M - M.T) <= 1e-12 * spla.norm(M)


def test_sigma_max_estimate_without_adjoint_copy():
    # conj(A^T conj(w)) is bitwise A^H w, so the estimate is the Lanczos
    # run on A^H A; in another dof order it moves only by the rounding of
    # the sums
    rng = np.random.default_rng(5)
    A = sp.random(300, 300, density=0.05, format="csc", random_state=rng)
    A = A + 1j * sp.random(300, 300, density=0.05, format="csc", random_state=rng)
    A = sp.csc_matrix(A + 4.0 * sp.identity(300))
    w = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    assert np.array_equal((A.T @ w.conj()).conj(), A.conj().T @ w)

    rng = np.random.default_rng(0)
    v = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    v /= np.linalg.norm(v)
    AH = A.conj().T
    lam = solve_pipeline._largest_ritz_value(lambda v: AH @ (A @ v), v)
    assert _estimate_sigma_max(A, np.arange(300)) == np.sqrt(lam)
    exact = np.linalg.norm(A.toarray(), 2)
    assert exact * 0.9 <= np.sqrt(lam) <= exact * (1.0 + 1e-12)

    ordering = np.random.default_rng(6).permutation(300)
    permuted = sp.csc_matrix(A[ordering][:, ordering])
    sigma = _estimate_sigma_max(permuted, ordering)
    assert abs(sigma - np.sqrt(lam)) <= 1e-12 * np.sqrt(lam)


def test_lanczos_stops_on_an_invariant_krylov_space():
    # two distinct eigenvalues: the second step spans an invariant space,
    # whose largest Ritz value is the largest eigenvalue; a zero operator
    # gives 0, and a non-finite step NaN
    diag = np.ones(50)
    diag[7] = 1e30
    v = np.random.default_rng(2).standard_normal(50) + 0j
    v /= np.linalg.norm(v)
    ritz = solve_pipeline._largest_ritz_value
    assert ritz(lambda v: diag * v, v) == pytest.approx(1e30, rel=1e-14)
    assert ritz(lambda v: 0.0 * v, v) == 0.0
    assert np.isnan(ritz(lambda v: np.full_like(v, np.nan), v))


def _congruence_peak_ratio(A, basis, order):
    """tracemalloc peak of _block_congruence over the bytes of its result."""
    tracemalloc.start()
    try:
        M = _block_congruence(A, basis, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (M.data.nbytes + M.indices.nbytes + M.indptr.nbytes)


def test_block_congruence_memory():
    # the streamed congruence holds at most three times its result at
    # once (the one-shot congruence held 4.6 times), even when it must
    # first copy a CSR matrix into blocks
    mesh = build_unit_square_mesh(4)
    A, basis = _standard_case(mesh, 12, 1.0)
    ratio = _congruence_peak_ratio(A.tocsr(), basis, mesh.dissection_order)
    assert ratio <= 3


def test_block_congruence_memory_on_assembled_blocks():
    # the assembled BSR matrix is read in place: no copy of A
    mesh = build_unit_square_mesh(4)
    A, basis = _standard_case(mesh, 12, 1.0)
    assert A.format == "bsr"
    assert _congruence_peak_ratio(A, basis, mesh.dissection_order) <= 1.5


@pytest.mark.parametrize(
    "mesh,p,omega",
    [
        (build_unit_square_mesh(4), 5, var_omega_case().omega),
        (build_unit_disk_mesh(3), 3, 20.0),
    ],
    ids=["square-p5-varomega", "disk-p3"],
)
def test_reduced_rhs_bitwise_reference(mesh, p, omega):
    # b - A u_f from the BSR matrix is bitwise that of the list-built CSR
    params = FormParameters(omega=omega, p=p)
    case_f = lambda pts: np.exp(1j * pts[..., 0]) * (1.0 + pts[..., 1])
    case_g = lambda pts, normals: np.exp(1j * omega_values(omega, pts) * pts[..., 1])
    A = assemble_sipdg(mesh, params)
    R = reference_assemble_sipdg(mesh, params)
    b = assemble_rhs(mesh, params, case_f, case_g)
    u_f = particular_field(mesh, all_local_trefftz(mesh, p, omega), case_f)
    assert np.any(u_f != 0.0)
    reduced = b - A @ u_f
    assert np.array_equal(reduced.view(np.int64), (b - R @ u_f).view(np.int64))


def test_two_step_equivalence():
    # the embedded solution satisfies constraints and Galerkin equations
    mesh = build_unit_square_mesh(4)
    p, omega = 3, 2.0
    params = FormParameters(omega=omega, p=p)
    u_cb, f_cb, g_cb = polynomial_problem(p, omega)
    field = solve(mesh, params, f_cb, g_cb, methods=("embedded",))["embedded"]
    local = all_local_trefftz(mesh, p, omega)
    blocks = field.coefficients.reshape(mesh.n_elements, dim_poly(p), 1)
    moments = all_local_rhs(mesh, p, f_cb)
    resid = np.linalg.norm((local.matrices @ blocks)[..., 0] - moments, axis=1)
    assert np.all(resid <= 1e-9 * (1.0 + np.linalg.norm(moments, axis=1)))
    emb = build_global_embedding(local)
    A = assemble_sipdg(mesh, params)
    b = assemble_rhs(mesh, params, f_cb, g_cb)
    galerkin = embedding_matrix(emb).T @ (A @ field.coefficients - b)
    assert np.linalg.norm(galerkin) <= 1e-9 * (1.0 + np.linalg.norm(b))


def test_reduced_matrix_complex_symmetric():
    mesh = build_unit_square_mesh(2)
    p = 3
    A = assemble_sipdg(mesh, FormParameters(omega=10.0, p=p))
    emb = build_global_embedding(all_local_trefftz(mesh, p, 10.0))
    E = embedding_matrix(emb)
    reduced = E.T @ (A @ E)
    assert spla.norm(reduced - reduced.T) <= 1e-12 * spla.norm(reduced)


def test_solver_residual_contract():
    mesh = build_unit_square_mesh(4)
    params = FormParameters(omega=10.0, p=3)
    case_g = lambda pts, normals: np.exp(1j * 10.0 * pts[..., 0])
    A = assemble_sipdg(mesh, params)
    b = assemble_rhs(mesh, params, zero_f, case_g)
    field = solve(mesh, params, zero_f, case_g, methods=("standard",))["standard"]
    assert residual(A, b, field.coefficients) <= 1e-10


@pytest.mark.parametrize(
    "p,embedded,standard", [(1, 3, 3), (3, 7, 10), (5, 11, 21)]
)
def test_dof_counts_per_element(p, embedded, standard):
    # the dofs each method solved for, as solve reports them
    mesh = build_unit_square_mesh(2)
    fields = solve(mesh, FormParameters(omega=2.0, p=p), zero_f, zero_g)
    assert fields["embedded"].dofs == 8 * embedded
    assert fields["standard"].dofs == 8 * standard


def test_dof_reduction_strict_for_p_ge_2():
    mesh = build_unit_square_mesh(2)
    for p in range(2, 9):
        fields = solve(mesh, FormParameters(omega=2.0, p=p), zero_f, zero_g)
        assert fields["embedded"].dofs < fields["standard"].dofs


def test_solve_rejects_degree_below_one_and_unknown_methods():
    mesh = build_unit_square_mesh(1)
    with pytest.raises(ValueError, match=r"p >= 1, got p=0"):
        solve(mesh, FormParameters(omega=2.0, p=0), zero_f, zero_g)
    with pytest.raises(ValueError, match="unknown method 'trefftz'"):
        solve(mesh, FormParameters(omega=2.0, p=2), zero_f, zero_g, ("trefftz",))


def test_solve_refuses_repeated_methods_as_run_config_does():
    # four methods used to factor three systems and return two fields
    methods = ("embedded", "embedded", "standard", "standard")
    with pytest.raises(ValueError, match="methods repeat") as from_solve:
        mesh = build_unit_square_mesh(1)
        solve(mesh, FormParameters(omega=2.0, p=2), zero_f, zero_g, methods)
    with pytest.raises(ValueError) as from_config:
        RunConfig(experiment="hankel", methods=methods)
    assert str(from_solve.value) == str(from_config.value)


def _scalar_blocks(size):
    """Basis and order that make every dof an element of its own, with
    T = I."""
    return GlobalEmbedding(np.arange(size + 1), np.ones((size, 1, 1))), np.arange(size)


def test_singular_matrix_reported():
    # a zero row makes the factorization fail legibly
    A = sp.identity(10, format="csc", dtype=complex).tolil()
    A[4, 4] = 0.0
    with pytest.raises(SingularSystemError):
        _direct_solve(
            A.tobsr(blocksize=(1, 1)),
            np.ones(10, dtype=complex),
            "test",
            *_scalar_blocks(10),
        )


def test_near_singular_matrix_reported():
    diag = np.ones(20, dtype=complex)
    diag[-1] = 1e-15
    A = sp.diags(diag).tobsr(blocksize=(1, 1))
    with pytest.raises(SingularSystemError) as info:
        _direct_solve(A, np.ones(20, dtype=complex), "test", *_scalar_blocks(20))
    assert info.value.sigma_min < 1e-13


@pytest.fixture
def splu_calls(monkeypatch):
    """Record (permc_spec, dtype, nnz(L+U), matrix) of every SuperLU
    factorization."""
    calls = []
    splu = spla.splu

    def spy(A, *args, **kwargs):
        matrix = A.copy()
        lu = splu(A, *args, **kwargs)
        spec = kwargs.get("permc_spec", "COLAMD")
        calls.append((spec, matrix.dtype.type, lu.nnz, matrix))
        return lu

    monkeypatch.setattr(spla, "splu", spy)
    return calls


@pytest.mark.parametrize("method", ["standard", "embedded"])
def test_dissection_ordering_matches_colamd(method, splu_calls):
    # the mesh ordering changes rounding only, and needs less fill than
    # COLAMD on the natural-order matrix
    mesh = build_unit_disk_mesh(6)
    p, omega = 3, 20.0
    case = plane_wave_case(omega)
    params = FormParameters(omega=omega, p=p)
    A = assemble_sipdg(mesh, params)
    b = assemble_rhs(mesh, params, case.f, case.g)
    order = mesh.dissection_order
    if method == "standard":
        basis = mass_preconditioner(_element_mass_grams(mesh, p))
        ordered = _direct_solve(A, b, "test", basis, order)
        reference = reference_colamd_solve(A, b, basis)
    else:
        local = all_local_trefftz(mesh, p, omega)
        u_f = particular_field(mesh, local, case.f)
        basis = embedding_preconditioner(
            build_global_embedding(local), _element_mass_grams(mesh, p)
        )
        ordered = solve_reduced_system(A, b, basis, u_f, "test", order)
        reference = reference_colamd_solve(A, b - A @ u_f, basis) + u_f
    assert np.linalg.norm(ordered - reference) <= 1e-10 * np.linalg.norm(reference)
    (nd, nd_dtype, nd_fill, _), (colamd, _, colamd_fill, _) = splu_calls
    assert (nd, nd_dtype, colamd) == ("NATURAL", np.complex64, "COLAMD")
    assert nd_fill < colamd_fill


@pytest.mark.parametrize("method", ["standard", "embedded"])
def test_fallback_refactors_the_dissection_order_matrix(
    method, splu_calls, monkeypatch
):
    # rejected dissection-order solves, in complex64 and then complex128,
    # fall back to COLAMD with partial pivoting on the very matrix they
    # factored, without a permuted copy, and return the natural-order
    # solution
    monkeypatch.setattr(solve_pipeline, "REFINED_BACKWARD_ERROR", -1.0)
    mesh = build_unit_disk_mesh(3)
    p, omega = 3, 20.0
    case = plane_wave_case(omega)
    if method == "standard":
        A, basis = _standard_case(mesh, p, omega)
    else:
        A, basis = _embedded_case(mesh, p, omega)
    b = assemble_rhs(mesh, FormParameters(omega=omega, p=p), case.f, case.g)
    x = _direct_solve(A, b, "test", basis, mesh.dissection_order)
    assert [call[:2] for call in splu_calls] == [
        ("NATURAL", np.complex64),
        ("NATURAL", np.complex128),
        ("COLAMD", np.complex128),
    ]
    single, first, second = (call[-1] for call in splu_calls)
    for other in (single, second):
        assert np.array_equal(other.indptr, first.indptr)
        assert np.array_equal(other.indices, first.indices)
    assert np.array_equal(single.data, first.data.astype(np.complex64))
    assert np.array_equal(second.data.view(np.int64), first.data.view(np.int64))
    reference = reference_colamd_solve(A, b, basis)
    assert np.linalg.norm(x - reference) <= 1e-10 * np.linalg.norm(reference)


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
    x = _direct_solve(
        A.tobsr(blocksize=(1, 1)), A @ x_true, "test", *_scalar_blocks(8)
    )
    assert [call[:2] for call in splu_calls] == [
        ("NATURAL", np.complex64),
        ("NATURAL", np.complex128),
        ("COLAMD", np.complex128),
    ]
    assert np.linalg.norm(x - x_true) <= 1e-12 * np.linalg.norm(x_true)


def _unclipped_rung():
    """A well-resolved standard rung whose whitening clips no eigenvalue:
    the disk of 3 rings at p=3, omega=20."""
    mesh = build_unit_disk_mesh(3)
    p, omega = 3, 20.0
    case = plane_wave_case(omega)
    A, basis = _standard_case(mesh, p, omega)
    assert not basis.clipped
    b = assemble_rhs(mesh, FormParameters(omega=omega, p=p), case.f, case.g)
    return A, b, basis, mesh.dissection_order


def test_unclipped_rung_factors_once_in_single_precision(splu_calls, monkeypatch):
    # one complex64 factorization, refined in complex128 to a backward
    # error within the bar, gives the complex128 solution to 1e-10
    A, b, basis, order = _unclipped_rung()
    backward = []
    factored = solve_pipeline._factored_solve

    def spy(*args, **options):
        x, sigma_min, error = factored(*args, **options)
        backward.append(error)
        return x, sigma_min, error

    monkeypatch.setattr(solve_pipeline, "_factored_solve", spy)
    x = _direct_solve(A, b, "test", basis, order)
    assert [call[:2] for call in splu_calls] == [("NATURAL", np.complex64)]
    assert backward[0] <= solve_pipeline.REFINED_BACKWARD_ERROR
    reference = _direct_solve(A, b, "test", replace(basis, clipped=True), order)
    assert splu_calls[1][:2] == ("NATURAL", np.complex128)
    assert np.linalg.norm(x - reference) <= 1e-10 * np.linalg.norm(reference)


def test_clipped_rungs_factor_only_in_double_precision(splu_calls):
    # at p=12 the whitening of both methods clips an eigenvalue, so both
    # systems of the sinsin rung go straight to complex128
    mesh = build_unit_square_mesh(4)
    case = sinsin_case(1.0)
    solve(mesh, FormParameters(omega=1.0, p=12), case.f, case.g)
    assert [call[:2] for call in splu_calls] == [("NATURAL", np.complex128)] * 2


@pytest.mark.parametrize(
    "setting,value",
    [("SINGLE_PRECISION_RCOND", 1.0), ("_REFINEMENT_STEPS", 1)],
    ids=["bound-above-rcond", "no-refinement"],
)
def test_declined_single_precision_takes_the_double_precision_path(
    setting, value, splu_calls, monkeypatch
):
    # a bound above the rung's rcond, or a single solve with no refinement
    # step, declines the complex64 solve: the rung is factored again in
    # complex128, and its solution is bitwise that of the complex128 path
    # under the same setting
    A, b, basis, order = _unclipped_rung()
    monkeypatch.setattr(solve_pipeline, setting, value)
    reference = _direct_solve(A, b, "test", replace(basis, clipped=True), order)
    splu_calls.clear()
    x = _direct_solve(A, b, "test", basis, order)
    assert [call[:2] for call in splu_calls] == [
        ("NATURAL", np.complex64),
        ("NATURAL", np.complex128),
    ]
    assert np.array_equal(x.view(np.int64), reference.view(np.int64))


@pytest.mark.parametrize("scale", [1e-10, 1e-20])
def test_small_load_factors_once_in_single_precision(scale, splu_calls):
    # the refinement stops relative to ||b||: a load of norm 2.2e-9 used
    # to stop at an absolute floor with a forward error of 4e-10, and one
    # of 2.2e-19 before its first solve, which sent it to complex128
    mesh = build_unit_disk_mesh(6)
    p, omega = 3, 20.0
    params = FormParameters(omega=omega, p=p)
    A, basis = _standard_case(mesh, p, omega)
    b = assemble_rhs(mesh, params, None, plane_wave_case(omega).g)
    unit = _direct_solve(A, b, "test", basis, mesh.dissection_order)
    splu_calls.clear()
    x = _direct_solve(A, scale * b, "test", basis, mesh.dissection_order)
    assert [call[:2] for call in splu_calls] == [("NATURAL", np.complex64)]
    assert np.linalg.norm(x - scale * unit) <= 1e-12 * np.linalg.norm(scale * unit)


def test_nan_sigma_min_estimate_raises(splu_calls, monkeypatch):
    # a NaN estimate passes no rcond bound: every attempt declines and
    # the last raises; the complex128 guard used to let it through
    monkeypatch.setattr(solve_pipeline, "_estimate_sigma_min", lambda *args: np.nan)
    case = sinsin_case(1.0)
    with pytest.raises(SingularSystemError) as info:
        solve(build_unit_square_mesh(2), FormParameters(omega=1.0, p=3), case.f, case.g)
    assert np.isnan(info.value.sigma_min)
    assert [call[:2] for call in splu_calls] == [
        ("NATURAL", np.complex64),
        ("NATURAL", np.complex128),
        ("COLAMD", np.complex128),
    ]


BENCHMARK_WORKLOADS = runpy.run_path(
    str(Path(__file__).resolve().parent.parent / "perfbench" / "run.py")
)["WORKLOADS"]


# the factorizations whose sigma_min and sigma_max estimates are checked
# against a dense SVD
_DENSE_SVD_SIZE = 3000


@pytest.fixture(scope="module", params=sorted(BENCHMARK_WORKLOADS))
def benchmark_factorizations(request):
    """Run one benchmark workload; (workload, (SuperLU column order, dtype)
    of every factorization, [(factor dtype, backward error within the bar,
    sigma_min estimate, sigma_max estimate, dense singular values of the
    factored matrix at most _DENSE_SVD_SIZE dofs or None)] of every
    _factored_solve)."""
    specs, solves = [], []
    splu = spla.splu

    def splu_spy(A, *args, **kwargs):
        specs.append((kwargs.get("permc_spec", "COLAMD"), A.dtype.type))
        return splu(A, *args, **kwargs)

    factored = solve_pipeline._factored_solve

    def factored_spy(M, rhs, sigma_max, dtype, bound, **options):
        x, sigma_min, backward = factored(M, rhs, sigma_max, dtype, bound, **options)
        accepted = backward <= solve_pipeline.REFINED_BACKWARD_ERROR
        small = M.copy() if M.shape[0] <= _DENSE_SVD_SIZE else None
        solves.append((np.dtype(dtype).type, accepted, sigma_min, sigma_max, small))
        return x, sigma_min, backward

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spla, "splu", splu_spy)
        patch.setattr(solve_pipeline, "_factored_solve", factored_spy)
        run_experiment(RunConfig(**BENCHMARK_WORKLOADS[request.param]))
    solves = [
        (*solve[:4], None if solve[4] is None else
         np.linalg.svd(solve[4].toarray(), compute_uv=False))
        for solve in solves
    ]
    return request.param, specs, solves


def test_benchmark_rungs_take_no_fallback(benchmark_factorizations):
    # every benchmark rung is solved in dissection order with diagonal
    # pivots alone, once, in the precision chosen before factoring: no
    # complex64 solve declines and no rung reaches COLAMD
    workload, specs, solves = benchmark_factorizations
    assert specs and {spec for spec, _ in specs} == {"NATURAL"}
    assert len(specs) == len(solves)
    assert all(accepted for _, accepted, *_ in solves)
    rconds = [sigma_min / sigma_max for _, _, sigma_min, sigma_max, _ in solves]
    print(f"{workload}: smallest rcond estimate {min(rconds):.3g}")


def test_sigma_min_estimate_on_benchmark_rungs(benchmark_factorizations):
    # the Lanczos estimate lies within 5 % above the dense SVD's sigma_min
    # on every small factorization, and not below it beyond rounding: the
    # SVD itself is exact only to about eps * sigma_max, and a complex64
    # factor is the factor of a matrix within about eps_32 * sigma_max
    workload, _, solves = benchmark_factorizations
    checked = [solve for solve in solves if solve[-1] is not None]
    assert checked
    for dtype, _, estimate, _, sigma in checked:
        exact, rounding = sigma[-1], np.finfo(float).eps * sigma[0]
        if dtype is np.complex64:
            rounding += np.finfo(np.float32).eps * sigma[0]
        print(f"{workload}: n={sigma.size} {dtype.__name__} sigma_min "
              f"estimate/exact - 1 = {estimate / exact - 1.0:+.2e}")
        assert exact * (1.0 - 1e-12) - rounding <= estimate <= exact * 1.05


def test_sigma_max_estimate_on_benchmark_rungs(benchmark_factorizations):
    # the Lanczos estimate of ||M||_2 lies at most 5 % below the dense
    # SVD's sigma_max on every factorization up to _DENSE_SVD_SIZE dofs,
    # and not above it beyond rounding
    workload, _, solves = benchmark_factorizations
    checked = [solve for solve in solves if solve[-1] is not None]
    assert checked
    for _, _, _, estimate, sigma in checked:
        exact, rounding = sigma[0], np.finfo(float).eps * sigma[0]
        print(f"{workload}: n={sigma.size} sigma_max estimate/exact - 1 = "
              f"{estimate / exact - 1.0:+.2e}")
        assert exact * 0.95 <= estimate <= exact * (1.0 + 1e-12) + rounding
