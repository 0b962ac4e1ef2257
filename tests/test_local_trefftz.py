import warnings

import numpy as np
import pytest

from helmtrefftz.local_trefftz import (
    KernelDimensionWarning,
    all_local_trefftz,
    assemble_constraint_matrix,
    local_rhs,
    local_trefftz_data,
    particular_solution,
    trefftz_kernel,
)
from helmtrefftz.mesh import (
    build_unit_disk_mesh,
    build_unit_square_mesh,
    element_geometry,
    mesh_from_triangulation,
)
from helmtrefftz.polyspace import (
    dim_poly,
    element_mass_gram,
    eval_basis,
    monomial_exponents,
)

SQUARE = build_unit_square_mesh(4)


def test_matrix_shape():
    W = assemble_constraint_matrix(SQUARE, 0, 3, 1.0)
    assert W.shape == (dim_poly(1), dim_poly(3))


def test_requires_second_order_degree():
    with pytest.raises(ValueError):
        assemble_constraint_matrix(SQUARE, 0, 1, 1.0)


def test_constant_column_laplace_free():
    W = assemble_constraint_matrix(SQUARE, 0, 2, 0.0)
    assert np.linalg.norm(W[:, 0]) == 0.0


def test_constant_entry_with_mass_term():
    omega = 3.0
    W = assemble_constraint_matrix(SQUARE, 0, 2, omega)
    geom = element_geometry(SQUARE, 0)
    expected = -(omega**2) * geom.diameter * geom.area
    assert W[0, 0] == pytest.approx(expected, rel=1e-14)


def test_harmonic_columns_vanish_at_omega_zero():
    # scaled monomials 1, X, Y, XY are harmonic; so is X^2 - Y^2
    W = assemble_constraint_matrix(SQUARE, 2, 2, 0.0)
    exps = [tuple(e) for e in monomial_exponents(2)]
    for mono in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        assert np.linalg.norm(W[:, exps.index(mono)]) == 0.0
    combo = W[:, exps.index((2, 0))] - W[:, exps.index((0, 2))]
    assert np.linalg.norm(combo) == 0.0


def test_kernel_dimension_small_wavenumber():
    mesh = mesh_from_triangulation(
        np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]]), np.array([[0, 1, 2]])
    )
    W = assemble_constraint_matrix(mesh, 0, 3, 1.0)
    kernel = trefftz_kernel(W, 3)
    assert kernel.shape == (10, 7)


def test_kernel_spans_harmonics_at_omega_zero():
    data = local_trefftz_data(SQUARE, 1, 2, 0.0)
    assert data.kernel_dim == 5
    # span comparison through orthogonal projectors
    exps = [tuple(e) for e in monomial_exponents(2)]
    harm = np.zeros((6, 5))
    for j, mono in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
        harm[exps.index(mono), j] = 1.0
    harm[exps.index((2, 0)), 4] = 1.0
    harm[exps.index((0, 2)), 4] = -1.0
    q, _ = np.linalg.qr(harm)
    diff = q @ q.T - data.kernel @ data.kernel.T
    assert np.linalg.norm(diff, 2) <= 1e-10


@pytest.mark.parametrize("p", range(2, 9))
def test_kernel_dimension_law(p):
    for mesh, omega in [(SQUARE, 1.0), (build_unit_disk_mesh(2), 0.5)]:
        for data in all_local_trefftz(mesh, p, omega):
            assert data.kernel_dim == 2 * p + 1
            assert data.rank + data.kernel_dim == dim_poly(p)


@pytest.mark.parametrize("p", [2, 3, 5, 6, 8])
def test_kernel_residual_and_orthonormality(p):
    for data in all_local_trefftz(SQUARE, p, 2.0):
        resid = np.linalg.norm(data.matrix @ data.kernel, 2)
        assert resid <= 1e-12 * (1.0 + np.linalg.norm(data.matrix, 2))
        eye = np.eye(data.kernel_dim)
        assert np.linalg.norm(data.kernel.T @ data.kernel - eye) <= 1e-12


def test_kernel_warning_on_unexpected_dimension():
    W = np.zeros((3, 10))  # rank-0 constraint: kernel is everything
    with pytest.warns(RuntimeWarning, match="kernel dimension"):
        trefftz_kernel(W, 3)


def test_batched_kernel_warnings_merge_into_one():
    # For constant omega > 0 the kernel dimension is 2p+1 in exact
    # arithmetic; the raw-monomial rank decision at p=8 misses it on every
    # element, which must yield one summary, not one warning per element.
    mesh = build_unit_square_mesh(2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        local = all_local_trefftz(mesh, 8, 2.0, orthonormalize=False)
    kernel_warnings = [
        w for w in caught if issubclass(w.category, KernelDimensionWarning)
    ]
    assert all(d.kernel_dim != 17 for d in local)
    assert len(kernel_warnings) == 1
    message = str(kernel_warnings[0].message)
    assert f"on {mesh.n_elements} of {mesh.n_elements} elements" in message
    assert "(0, 1, 2, 3, 4, ...)" in message


def test_weak_trefftz_residual_of_kernel_functions():
    # P^{p-2} moments of -lap(v) - omega^2 v vanish for kernel members v
    p, omega = 4, 2.0
    mesh = SQUARE
    data = local_trefftz_data(mesh, 3, p, omega)
    geom = element_geometry(mesh, 3)
    gram_low = element_mass_gram(geom, mesh.tri_coords[3], p - 2)
    gram_high = element_mass_gram(geom, mesh.tri_coords[3], p)
    for col in data.kernel.T:
        moments = data.matrix @ col / geom.diameter  # <resid, q> per test basis q
        proj_coeffs = np.linalg.solve(gram_low, moments)
        proj_norm = np.sqrt(proj_coeffs @ gram_low @ proj_coeffs)
        v_norm = np.sqrt(col @ gram_high @ col)
        assert proj_norm <= 1e-10 * v_norm


def test_basis_independence_of_kernel():
    # an orthonormalized test basis must select the same kernel subspace
    p, omega, k = 3, 1.5, 2
    W = assemble_constraint_matrix(SQUARE, k, p, omega)
    geom = element_geometry(SQUARE, k)
    gram = element_mass_gram(geom, SQUARE.tri_coords[k], p - 2)
    transform = np.linalg.inv(np.linalg.cholesky(gram)).T
    kernel_a = trefftz_kernel(W, p)
    kernel_b = trefftz_kernel(transform.T @ W, p)
    diff = kernel_a @ kernel_a.T - kernel_b @ kernel_b.T
    assert np.linalg.norm(diff, 2) <= 1e-10


def test_local_rhs_zero_source():
    rhs = local_rhs(SQUARE, 0, 3, lambda pts: np.zeros(pts.shape[:-1]))
    assert np.all(rhs.moments == 0.0)


def test_local_rhs_constant_source():
    rhs = local_rhs(SQUARE, 0, 2, lambda pts: np.ones(pts.shape[:-1]))
    geom = element_geometry(SQUARE, 0)
    assert rhs.moments[0] == pytest.approx(geom.diameter * geom.area, rel=1e-14)


def test_local_rhs_consistent_with_constraint():
    # f = -lap(v) - omega^2 v for v in P^p gives moments W @ coeffs(v)
    p, omega, k = 4, 2.0, 5
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(dim_poly(p))
    geom = element_geometry(SQUARE, k)

    def f(pts):
        ev = eval_basis(geom, p, pts)
        return -(ev.laplacians @ coeffs) - omega**2 * (ev.values @ coeffs)

    data = local_trefftz_data(SQUARE, k, p, omega)
    rhs = local_rhs(SQUARE, k, p, f)
    expected = data.matrix @ coeffs
    assert np.abs(rhs.moments - expected).max() <= 1e-12 * (
        1.0 + np.abs(expected).max()
    )


def test_particular_solution_zero_rhs():
    data = local_trefftz_data(SQUARE, 0, 3, 1.0)
    rhs = local_rhs(SQUARE, 0, 3, lambda pts: np.zeros(pts.shape[:-1]))
    assert np.all(particular_solution(data, rhs) == 0.0)


def test_particular_solution_consistency():
    p, omega, k = 3, 2.0, 7
    data = local_trefftz_data(SQUARE, k, p, omega)
    rng = np.random.default_rng(3)
    for _ in range(5):
        c = rng.standard_normal(dim_poly(p))
        rhs = local_rhs(SQUARE, k, p, lambda pts: np.zeros(pts.shape[:-1]))
        rhs.moments[:] = data.matrix @ c
        u_f = particular_solution(data, rhs)
        resid = np.linalg.norm(data.matrix @ u_f - rhs.moments)
        assert resid <= 1e-10 * (1.0 + np.linalg.norm(rhs.moments))
        # minimum-norm solutions carry no kernel component
        assert np.abs(data.kernel.T @ u_f).max() <= 1e-12 * (
            1.0 + np.linalg.norm(u_f)
        )


def test_particular_solution_warns_on_incompatible_data():
    # rank-deficient constraint with moments outside its range
    from helmtrefftz.local_trefftz import LocalTrefftzData

    W = np.zeros((2, 6))
    W[0, 0] = 1.0
    u, s, vt = np.linalg.svd(W, full_matrices=True)
    data = LocalTrefftzData(
        element=0,
        degree=2,
        matrix=W,
        kernel=vt[1:].T,
        svd_u=u,
        svd_s=s,
        svd_vt=vt,
        rank=1,
        sigma_min=1.0,
    )
    from helmtrefftz.local_trefftz import LocalRhs

    rhs = LocalRhs(element=0, degree=2, moments=np.array([0.0, 1.0]))
    with pytest.warns(RuntimeWarning, match="constraint residual"):
        particular_solution(data, rhs)


def test_mismatched_inputs_rejected():
    data = local_trefftz_data(SQUARE, 0, 3, 1.0)
    rhs = local_rhs(SQUARE, 1, 3, lambda pts: np.zeros(pts.shape[:-1]))
    with pytest.raises(ValueError):
        particular_solution(data, rhs)
