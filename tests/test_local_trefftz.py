import warnings

import numpy as np
import pytest

from helmtrefftz import local_trefftz
from helmtrefftz.local_trefftz import (
    KernelDimensionWarning,
    _orthonormalizers,
    _pseudo_inverse_solve,
    all_local_rhs,
    all_local_trefftz,
    constraint_matrices,
)
from helmtrefftz.mesh import (
    build_unit_disk_mesh,
    build_unit_square_mesh,
    mesh_from_triangulation,
)
from helmtrefftz.polyspace import (
    _element_mass_grams,
    dim_poly,
    monomial_exponents,
)
from helmtrefftz.solve_pipeline import build_global_embedding, particular_field
from helpers import element_tables, embedding_matrix, zero_constraints

SQUARE = build_unit_square_mesh(4)


def constraint(mesh, element, p, omega):
    return constraint_matrices(mesh, p, omega, elements=np.array([element]))[0]


def kernel(local, element):
    return local.kernels[element, :, : local.kernel_dims[element]]


def reference_kernel(mesh, element, p, W):
    """Rank and kernel of one element, computed one element at a time.

    The batched path must reproduce these bit for bit: it makes the same
    LAPACK and BLAS calls, stacked.
    """
    _, s, vt = np.linalg.svd(W, full_matrices=True)
    if p < 6:
        rank = int(np.sum(s > local_trefftz.RANK_TOLERANCE * s[0]))
        return rank, vt[rank:].T
    r_trial, r_test = (
        np.linalg.inv(
            np.linalg.cholesky(_element_mass_grams(mesh, q, np.array([element]))[0])
        ).T
        for q in (p, p - 2)
    )
    _, s, vt = np.linalg.svd(r_test.T @ W @ r_trial, full_matrices=True)
    rank = int(np.sum(s > local_trefftz.RANK_TOLERANCE * s[0]))
    pad = min(2, rank)
    subspace, _ = np.linalg.qr(r_trial @ vt[rank - pad :].T)
    _, sb, vbt = np.linalg.svd(W @ subspace, full_matrices=True)
    if pad > 0 and sb[pad - 1] > 100.0 * sb[min(pad, len(sb) - 1)]:
        return rank, subspace @ vbt[pad:].T
    return rank, np.linalg.qr(r_trial @ vt[rank:].T)[0]


def test_matrix_shape():
    W = constraint(SQUARE, 0, 3, 1.0)
    assert W.shape == (dim_poly(1), dim_poly(3))


def test_requires_second_order_degree():
    with pytest.raises(ValueError):
        constraint_matrices(SQUARE, 1, 1.0)


def test_constant_column_laplace_free():
    W = constraint(SQUARE, 0, 2, 0.0)
    assert np.linalg.norm(W[:, 0]) == 0.0


def test_constant_entry_with_mass_term():
    omega = 3.0
    W = constraint(SQUARE, 0, 2, omega)
    expected = -(omega**2) * SQUARE.diameters[0] * SQUARE.areas[0]
    assert W[0, 0] == pytest.approx(expected, rel=1e-14)


def test_harmonic_columns_vanish_at_omega_zero():
    # scaled monomials 1, X, Y, XY are harmonic; so is X^2 - Y^2
    W = constraint(SQUARE, 2, 2, 0.0)
    exps = [tuple(e) for e in monomial_exponents(2)]
    for mono in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        assert np.linalg.norm(W[:, exps.index(mono)]) == 0.0
    combo = W[:, exps.index((2, 0))] - W[:, exps.index((0, 2))]
    assert np.linalg.norm(combo) == 0.0


def test_batched_constraints_match_single_elements():
    W = constraint_matrices(SQUARE, 4, 2.0)
    for k in (0, 7, 31):
        assert np.array_equal(W[k], constraint(SQUARE, k, 4, 2.0))


def test_kernel_dimension_small_wavenumber():
    mesh = mesh_from_triangulation(
        np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]]), np.array([[0, 1, 2]])
    )
    local = all_local_trefftz(mesh, 3, 1.0)
    assert len(local) == 1
    assert local.kernels.shape == (1, 10, 7)


def test_kernel_spans_harmonics_at_omega_zero():
    local = all_local_trefftz(SQUARE, 2, 0.0)
    assert local.kernel_dims[1] == 5
    # span comparison through orthogonal projectors
    exps = [tuple(e) for e in monomial_exponents(2)]
    harm = np.zeros((6, 5))
    for j, mono in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
        harm[exps.index(mono), j] = 1.0
    harm[exps.index((2, 0)), 4] = 1.0
    harm[exps.index((0, 2)), 4] = -1.0
    q, _ = np.linalg.qr(harm)
    diff = q @ q.T - kernel(local, 1) @ kernel(local, 1).T
    assert np.linalg.norm(diff, 2) <= 1e-10


@pytest.mark.parametrize("p", range(2, 13))
def test_kernel_dimension_law(p):
    # for constant omega > 0 the constraint has full row rank in exact
    # arithmetic, so the kernel is 2p+1 even far from resolution
    cases = [(SQUARE, 1.0), (build_unit_disk_mesh(2), 0.5)]
    cases += [(build_unit_square_mesh(1), omega) for omega in (1e3, 1e4, 1e5, 1e6)]
    cases += [(build_unit_square_mesh(2), 2.0)]
    for mesh, omega in cases:
        local = all_local_trefftz(mesh, p, omega)
        assert len(local) == mesh.n_elements
        assert np.all(local.kernel_dims == 2 * p + 1), omega
        assert local.kernels.shape == (mesh.n_elements, dim_poly(p), 2 * p + 1)


@pytest.mark.parametrize("p", [2, 3, 5, 6, 8])
def test_kernel_residual_and_orthonormality(p):
    local = all_local_trefftz(SQUARE, p, 2.0)
    W, K = local.matrices, local.kernels
    resid = np.linalg.norm(W @ K, 2, axis=(1, 2))
    assert np.all(resid <= 1e-12 * (1.0 + np.linalg.norm(W, 2, axis=(1, 2))))
    gram = K.swapaxes(1, 2) @ K
    assert np.linalg.norm(gram - np.eye(2 * p + 1), axis=(1, 2)).max() <= 1e-12


@pytest.mark.parametrize(
    "mesh,p,omega",
    [
        (SQUARE, 3, 1.0),
        (SQUARE, 8, 1.0),
        (build_unit_disk_mesh(2), 6, 20.0),
        (build_unit_disk_mesh(2), 12, 0.5),
    ],
    ids=["square-p3", "square-p8", "disk-p6", "disk-p12"],
)
def test_batched_kernels_match_per_element_reference(mesh, p, omega):
    local = all_local_trefftz(mesh, p, omega)
    for k in range(mesh.n_elements):
        rank, ref = reference_kernel(mesh, k, p, local.matrices[k])
        assert local.ranks[k] == rank
        assert np.array_equal(kernel(local, k), ref)


def test_kernel_warning_on_unexpected_dimension(monkeypatch):
    # rank-0 constraint: the kernel is the whole element space, on both
    # sides of the orthonormalized path
    mesh = build_unit_square_mesh(1)
    zero_constraints(monkeypatch)
    for p in (3, 8):
        with pytest.warns(KernelDimensionWarning, match="kernel dimension"):
            local = all_local_trefftz(mesh, p, 1.0)
        assert np.all(local.kernel_dims == dim_poly(p))
        assert np.all(local.sigma_min == 0.0)
        gram = local.kernels.swapaxes(1, 2) @ local.kernels
        assert np.abs(gram - np.eye(dim_poly(p))).max() <= 1e-12


def test_batched_kernel_warnings_merge_into_one(monkeypatch):
    # a coarse rank tolerance drops genuine singular values on every
    # element, which must yield one summary, not one warning per element
    mesh = build_unit_square_mesh(2)
    monkeypatch.setattr(local_trefftz, "RANK_TOLERANCE", 0.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        local = all_local_trefftz(mesh, 8, 2.0)
    kernel_warnings = [
        w for w in caught if issubclass(w.category, KernelDimensionWarning)
    ]
    assert np.all(local.kernel_dims != 17)
    assert len(kernel_warnings) == 1
    message = str(kernel_warnings[0].message)
    assert f"on {mesh.n_elements} of {mesh.n_elements} elements" in message
    assert "(0, 1, 2, 3, 4, ...)" in message


@pytest.mark.parametrize("p", [3, 8])
def test_one_element_with_a_different_rank(p, monkeypatch):
    # only element 3 loses its constraint: it alone is named, and the
    # embedding gives it all dim P^p columns
    mesh = build_unit_square_mesh(2)
    zero_constraints(monkeypatch, elements=[3])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        local = all_local_trefftz(mesh, p, 2.0)
    assert len(caught) == 1
    assert f"on 1 of {mesh.n_elements} elements (3)" in str(caught[0].message)
    dims = [2 * p + 1] * mesh.n_elements
    dims[3] = dim_poly(p)
    assert list(local.kernel_dims) == dims
    emb = build_global_embedding(local)
    assert list(emb.column_offsets) == list(np.concatenate([[0], np.cumsum(dims)]))
    E = embedding_matrix(emb)
    gram = (E.T @ E).toarray()
    assert np.linalg.norm(gram - np.eye(emb.n_columns)) <= 1e-12
    for k in range(mesh.n_elements):
        rank, ref = reference_kernel(mesh, k, p, local.matrices[k])
        assert local.ranks[k] == rank
        assert np.array_equal(kernel(local, k), ref)


def test_weak_trefftz_residual_of_kernel_functions():
    # P^{p-2} moments of -lap(v) - omega^2 v vanish for kernel members v
    p, omega, k = 4, 2.0, 3
    mesh = SQUARE
    local = all_local_trefftz(mesh, p, omega)
    gram_low = _element_mass_grams(mesh, p - 2, np.array([k]))[0]
    gram_high = _element_mass_grams(mesh, p, np.array([k]))[0]
    for col in kernel(local, k).T:
        moments = local.matrices[k] @ col / mesh.diameters[k]  # <resid, q> per q
        proj_coeffs = np.linalg.solve(gram_low, moments)
        proj_norm = np.sqrt(proj_coeffs @ gram_low @ proj_coeffs)
        v_norm = np.sqrt(col @ gram_high @ col)
        assert proj_norm <= 1e-10 * v_norm


def test_basis_independence_of_kernel(monkeypatch):
    # an orthonormalized test basis must select the same kernel subspaces
    p, omega = 3, 1.5
    local_a = all_local_trefftz(SQUARE, p, omega)
    transform = _orthonormalizers(_element_mass_grams(SQUARE, p - 2))
    original = local_trefftz.constraint_matrices
    monkeypatch.setattr(
        local_trefftz,
        "constraint_matrices",
        lambda *args: transform.swapaxes(1, 2) @ original(*args),
    )
    local_b = all_local_trefftz(SQUARE, p, omega)
    Ka, Kb = local_a.kernels, local_b.kernels
    diff = Ka @ Ka.swapaxes(1, 2) - Kb @ Kb.swapaxes(1, 2)
    assert np.linalg.norm(diff, 2, axis=(1, 2)).max() <= 1e-10


def test_local_rhs_zero_source():
    moments = all_local_rhs(SQUARE, 3, lambda pts: np.zeros(pts.shape[:-1]))
    assert moments.shape == (SQUARE.n_elements, dim_poly(1))
    assert np.all(moments == 0.0)


def test_local_rhs_constant_source():
    moments = all_local_rhs(SQUARE, 2, lambda pts: np.ones(pts.shape[:-1]))
    expected = SQUARE.diameters[0] * SQUARE.areas[0]
    assert moments[0, 0] == pytest.approx(expected, rel=1e-14)


def test_local_rhs_consistent_with_constraint():
    # f = -lap(v) - omega^2 v for v in P^p gives moments W @ coeffs(v)
    p, omega, k = 4, 2.0, 5
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(dim_poly(p))

    def f(pts):
        ev = element_tables(SQUARE, k, p, pts)
        return -(ev.laplacians @ coeffs) - omega**2 * (ev.values @ coeffs)

    local = all_local_trefftz(SQUARE, p, omega)
    moments = all_local_rhs(SQUARE, p, f)[k]
    expected = local.matrices[k] @ coeffs
    assert np.abs(moments - expected).max() <= 1e-12 * (1.0 + np.abs(expected).max())


def test_particular_solution_zero_rhs():
    local = all_local_trefftz(SQUARE, 3, 1.0)
    u_f = particular_field(SQUARE, local, lambda pts: np.zeros(pts.shape[:-1]))
    assert np.all(u_f == 0.0)


def test_particular_solution_consistency():
    p, omega = 3, 2.0
    local = all_local_trefftz(SQUARE, p, omega)
    rng = np.random.default_rng(3)
    for _ in range(5):
        c = rng.standard_normal((SQUARE.n_elements, dim_poly(p)))
        moments = (local.matrices @ c[..., None])[..., 0]
        u_f, resid, incompatible = _pseudo_inverse_solve(local, moments)
        scale = 1.0 + np.linalg.norm(moments, axis=1)
        direct = np.linalg.norm((local.matrices @ u_f[..., None])[..., 0] - moments, axis=1)
        assert np.all(direct <= 1e-10 * scale)
        assert np.allclose(resid, direct, rtol=0.0, atol=1e-14 * scale.max())
        assert not incompatible.any()
        # minimum-norm solutions carry no kernel component
        along = (local.kernels.swapaxes(1, 2) @ u_f[..., None])[..., 0]
        assert np.abs(along).max() <= 1e-12 * (1.0 + np.linalg.norm(u_f, axis=1).max())


def test_particular_solution_warns_on_incompatible_data(monkeypatch):
    # rank-deficient constraint with moments outside its range
    mesh = mesh_from_triangulation(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]])
    )
    zero_constraints(monkeypatch)
    with pytest.warns(KernelDimensionWarning):
        local = all_local_trefftz(mesh, 2, 1.0)
    with pytest.warns(RuntimeWarning, match="constraint residual .* on element 0"):
        u_f = particular_field(mesh, local, lambda pts: np.ones(pts.shape[:-1]))
    assert not np.any(u_f)
