import tracemalloc
import warnings

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
from helmtrefftz.exact_solutions import plane_wave_case, var_omega_case
from helmtrefftz.harness import solve
from helmtrefftz.local_trefftz import (
    KernelDimensionWarning,
    all_local_rhs,
    all_local_trefftz,
)
from helmtrefftz.mesh import build_unit_disk_mesh, build_unit_square_mesh
from helmtrefftz.polyspace import _element_mass_grams, dim_poly
from helmtrefftz.solve_pipeline import (
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
    block_diag_matrix,
    embedding_matrix,
    polynomial_problem,
    project,
    reference_assemble_sipdg,
    reference_block_congruence,
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


def test_p1_methods_agree(splu_calls):
    # the Trefftz space equals the broken space at p=1: one factorization,
    # and both fields carry the same coefficients and dofs
    mesh = build_unit_square_mesh(3)
    params = FormParameters(omega=2.0, p=1)
    g = lambda pts, normals: np.exp(1j * pts[..., 0])
    fields = solve(mesh, params, zero_f, g)
    assert len(splu_calls) == 1
    a, b = fields["standard"], fields["embedded"]
    assert (a.method, b.method) == ("standard-dg", "embedded-trefftz")
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
    precond = embedding_preconditioner(emb, _element_mass_grams(mesh, p))
    base = solve_reduced_system(A, b, emb, u_f, "test", precond, mesh)
    rng = np.random.default_rng(17)
    for _ in range(3):
        shift = embedding_matrix(emb) @ (
            rng.standard_normal(emb.n_columns)
            + 1j * rng.standard_normal(emb.n_columns)
        )
        moved = solve_reduced_system(A, b, emb, u_f + shift, "test", precond, mesh)
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
    # E P has L2-orthonormal columns on every element, also when one
    # element (3, with a zero constraint) has more kernel columns
    mesh = build_unit_square_mesh(2)
    p = 3
    zero_constraints(monkeypatch, elements=zeroed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KernelDimensionWarning)
        emb = build_global_embedding(all_local_trefftz(mesh, p, 2.0))
    grams = _element_mass_grams(mesh, p)
    dims = np.diff(emb.column_offsets)
    Q = block_diag_matrix(embedding_preconditioner(emb, grams), dims, dims)
    T = embedding_matrix(emb) @ Q
    gram = (T.T @ sp.block_diag(list(grams)) @ T).toarray()
    assert np.abs(gram - np.eye(emb.n_columns)).max() <= 1e-10


def _standard_case(mesh, p, omega):
    A = assemble_sipdg(mesh, FormParameters(omega=omega, p=p))
    sizes = np.full(mesh.n_elements, dim_poly(p))
    return A, [mass_preconditioner(_element_mass_grams(mesh, p))], sizes


def _embedded_case(mesh, p, omega):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KernelDimensionWarning)
        emb = build_global_embedding(all_local_trefftz(mesh, p, omega))
    A = assemble_sipdg(mesh, FormParameters(omega=omega, p=p))
    Q = embedding_preconditioner(emb, _element_mass_grams(mesh, p))
    return A, [emb.blocks, Q], np.diff(emb.column_offsets)


def _assert_bitwise_sparse_products(A, bases, sizes, sparse_bases):
    """The block congruence and basis maps against the sparse products.

    The reference is what the solver computed before: T^T (A T) per basis
    with CSR matrices, converted to the CSC that SuperLU reads.
    """
    reference = A
    for T in sparse_bases:
        reference = T.T @ (reference @ T)
    reference = sp.csc_matrix(reference, dtype=complex)
    reference.sort_indices()
    M = _block_congruence(A, bases, sizes, np.arange(len(sizes)))
    assert M.has_sorted_indices
    assert np.array_equal(M.indptr, reference.indptr)
    assert np.array_equal(M.indices, reference.indices)
    assert np.array_equal(M.data, reference.data)

    rng = np.random.default_rng(3)
    b = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    y = rng.standard_normal(M.shape[0]) + 1j * rng.standard_normal(M.shape[0])
    b_ref, x_ref = b, y
    for T in sparse_bases:
        b_ref = T.T @ b_ref
    for T in reversed(sparse_bases):
        x_ref = T @ x_ref
    assert np.array_equal(_basis_transpose_apply(bases, b, sizes), b_ref)
    assert np.array_equal(_basis_apply(bases, y, sizes), x_ref)


@pytest.mark.parametrize(
    "mesh,p,omega",
    [(build_unit_disk_mesh(3), 3, 20.0), (build_unit_square_mesh(4), 12, 1.0)],
    ids=["disk-p3", "square-p12"],
)
def test_block_congruence_bitwise_standard(mesh, p, omega):
    # P^T A P of the standard solve, P the mass whiteners
    A, bases, sizes = _standard_case(mesh, p, omega)
    P = block_diag_matrix(bases[0], sizes, sizes)
    _assert_bitwise_sparse_products(A, bases, sizes, [P])


@pytest.mark.parametrize("p", [4, 8])
def test_block_congruence_bitwise_embedded(p, monkeypatch):
    # Q^T (E^T A E) Q of the embedded solve, with a ragged kernel dimension
    # on element 3 (zero constraint)
    mesh = build_unit_square_mesh(2)
    zero_constraints(monkeypatch, elements=[3])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KernelDimensionWarning)
        emb = build_global_embedding(all_local_trefftz(mesh, p, 2.0))
    dims = np.diff(emb.column_offsets)
    assert len(set(dims)) == 2
    A = assemble_sipdg(mesh, FormParameters(omega=2.0, p=p))
    Q = embedding_preconditioner(emb, _element_mass_grams(mesh, p))
    sparse = [embedding_matrix(emb), block_diag_matrix(Q, dims, dims)]
    _assert_bitwise_sparse_products(A, [emb.blocks, Q], dims, sparse)


def _assert_ordered_congruence(A, bases, sizes, order):
    """The streamed congruence in element order against the former route:
    the natural congruence, permuted to that order, indices sorted."""
    ordering = _block_ordering(order, sizes)
    reference = reference_block_congruence(A, bases, sizes)
    expected = sp.csc_matrix(reference[ordering][:, ordering])
    expected.sort_indices()
    M = _block_congruence(A, bases, sizes, order)
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
        A, bases, sizes = _standard_case(mesh, 3, 20.0)
    elif case == "square-p12":
        mesh = build_unit_square_mesh(4)
        A, bases, sizes = _standard_case(mesh, 12, 1.0)
    elif case == "shuffled-disk":
        mesh = shuffled_jittered_disk(3, seed=7)
        A, bases, sizes = _standard_case(mesh, 3, 20.0)
    else:
        mesh = build_unit_square_mesh(2)
        zero_constraints(monkeypatch, elements=[3])
        A, bases, sizes = _embedded_case(mesh, int(case[-1]), 2.0)
        assert len(set(sizes)) == 2
    n = bases[0].shape[1]
    n_blocks = A.tobsr(blocksize=(n, n)).nnz // (n * n)
    if tile == "one-block":
        monkeypatch.setattr(solve_pipeline, "_CONGRUENCE_TILE", 1)
    elif tile == "uneven":
        per_tile = next(k for k in range(2, n_blocks) if n_blocks % k)
        monkeypatch.setattr(solve_pipeline, "_CONGRUENCE_TILE", per_tile * n * n)
    _assert_ordered_congruence(A, bases, sizes, mesh.dissection_order)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16), p=st.integers(2, 4))
def test_ordered_reduced_matrix_on_shuffled_disks(seed, p):
    # on perturbed, relabelled meshes the ordered Q^T (E^T A E) Q is the
    # permuted natural one and complex symmetric
    mesh = shuffled_jittered_disk(2, seed=seed)
    A, bases, sizes = _embedded_case(mesh, p, 3.0)
    M = _assert_ordered_congruence(A, bases, sizes, mesh.dissection_order)
    assert spla.norm(M - M.T) <= 1e-12 * spla.norm(M)


def test_sigma_max_estimate_without_adjoint_copy():
    # conj(A^T conj(w)) is bitwise A^H w, so the estimate is unchanged;
    # in another dof order it moves only by the rounding of the sums
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
    for _ in range(8):
        w = AH @ (A @ v)
        lam = np.linalg.norm(w)
        v = w / lam
    assert _estimate_sigma_max(A) == np.sqrt(lam)

    ordering = np.random.default_rng(6).permutation(300)
    permuted = sp.csc_matrix(A[ordering][:, ordering])
    sigma = _estimate_sigma_max(permuted, ordering)
    assert abs(sigma - np.sqrt(lam)) <= 1e-12 * np.sqrt(lam)


def _congruence_peak_ratio(A, bases, sizes, order):
    """tracemalloc peak of _block_congruence over the bytes of its result."""
    tracemalloc.start()
    try:
        M = _block_congruence(A, bases, sizes, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (M.data.nbytes + M.indices.nbytes + M.indptr.nbytes)


def test_block_congruence_memory():
    # the streamed congruence holds at most three times its result at
    # once (the one-shot congruence held 4.6 times), even when it must
    # first copy a CSR matrix into blocks
    mesh = build_unit_square_mesh(4)
    A, bases, sizes = _standard_case(mesh, 12, 1.0)
    ratio = _congruence_peak_ratio(A.tocsr(), bases, sizes, mesh.dissection_order)
    assert ratio <= 3


def test_block_congruence_memory_on_assembled_blocks():
    # the assembled BSR matrix is read in place: no copy of A
    mesh = build_unit_square_mesh(4)
    A, bases, sizes = _standard_case(mesh, 12, 1.0)
    assert A.format == "bsr"
    assert _congruence_peak_ratio(A, bases, sizes, mesh.dissection_order) <= 1.5


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
    """Record (permc_spec, nnz(L+U), matrix) of every SuperLU factorization."""
    calls = []
    splu = spla.splu

    def spy(A, *args, **kwargs):
        matrix = A.copy()
        lu = splu(A, *args, **kwargs)
        calls.append((kwargs.get("permc_spec", "COLAMD"), lu.nnz, matrix))
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
        precond = mass_preconditioner(_element_mass_grams(mesh, p))
        ordered = _direct_solve(
            A, b, "test", bases=[precond], order=mesh.dissection_order
        )
        reference = _direct_solve(A, b, "test", bases=[precond])
    else:
        local = all_local_trefftz(mesh, p, omega)
        emb = build_global_embedding(local)
        u_f = particular_field(mesh, local, case.f)
        precond = embedding_preconditioner(emb, _element_mass_grams(mesh, p))
        ordered = solve_reduced_system(A, b, emb, u_f, "test", precond, mesh)
        bases, dims = [emb.blocks, precond], np.diff(emb.column_offsets)
        reference = _direct_solve(A, b - A @ u_f, "test", bases, dims) + u_f
    assert np.linalg.norm(ordered - reference) <= 1e-10 * np.linalg.norm(reference)
    (nd, nd_fill, _), (colamd, colamd_fill, _) = splu_calls
    assert (nd, colamd) == ("NATURAL", "COLAMD")
    assert nd_fill < colamd_fill


@pytest.mark.parametrize("method", ["standard", "embedded"])
def test_fallback_factors_the_natural_order_matrix(method, splu_calls, monkeypatch):
    # a rejected dissection-order solve falls back to COLAMD on the
    # natural-order matrix, rebuilt from the ordered one bit for bit, and
    # returns the solution of the solve without a mesh order
    monkeypatch.setattr(solve_pipeline, "REFINED_BACKWARD_ERROR", -1.0)
    mesh = build_unit_disk_mesh(3)
    p, omega = 3, 20.0
    case = plane_wave_case(omega)
    if method == "standard":
        A, bases, sizes = _standard_case(mesh, p, omega)
    else:
        A, bases, sizes = _embedded_case(mesh, p, omega)
    b = assemble_rhs(mesh, FormParameters(omega=omega, p=p), case.f, case.g)
    x = _direct_solve(A, b, "test", bases, sizes, order=mesh.dissection_order)
    reference = _direct_solve(A, b, "test", bases, sizes)
    assert [spec for spec, *_ in splu_calls] == ["NATURAL", "COLAMD", "COLAMD"]
    natural = reference_block_congruence(A, bases, sizes)
    natural.sort_indices()
    colamd = splu_calls[1][2]
    colamd.sort_indices()
    assert np.array_equal(colamd.indptr, natural.indptr)
    assert np.array_equal(colamd.indices, natural.indices)
    assert np.array_equal(colamd.data, natural.data)
    assert np.array_equal(x, reference)


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
    x = _direct_solve(A, A @ x_true, "test", order=np.arange(8))
    assert [spec for spec, *_ in splu_calls] == ["NATURAL", "COLAMD"]
    assert np.linalg.norm(x - x_true) <= 1e-12 * np.linalg.norm(x_true)
