"""Per-element weak Trefftz constraint and its SVD-based kernel.

On each element K the constraint operator tests the Helmholtz residual
against the lower-degree space:

    W[q, j] = h_K * int_K (-lap(phi_j) - omega^2 phi_j) * q_q dx,

with phi_j the degree-p basis and q_q the degree-(p-2) basis.  The kernel
of W spans the local Trefftz space; its orthonormal basis becomes one
block of the global embedding.  The pseudo-inverse of W yields the
minimum-norm particular solution for inhomogeneous right-hand sides.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import Mesh, element_geometry
from .polyspace import (
    MAX_QUAD_ORDER,
    _monomial_tables,
    element_mass_gram,
    map_rule_to_triangle,
    quadrature_rule,
)

__all__ = [
    "RANK_TOLERANCE",
    "KernelDimensionWarning",
    "LocalTrefftzData",
    "LocalRhs",
    "omega_values",
    "assemble_constraint_matrix",
    "trefftz_kernel",
    "local_trefftz_data",
    "all_local_trefftz",
    "local_rhs",
    "all_local_rhs",
    "particular_solution",
]

# Singular values below RANK_TOLERANCE * sigma_max count as zero.
RANK_TOLERANCE = 1e-10

# merged warnings name at most this many elements
_LISTED_ELEMENTS = 5


class KernelDimensionWarning(RuntimeWarning):
    """Kernel dimension differs from the expected 2p+1."""


def omega_values(omega: float | Callable, points: np.ndarray) -> np.ndarray:
    """Evaluate a constant or spatially varying wavenumber at points (..., 2)."""
    if callable(omega):
        return np.asarray(omega(points))
    return np.broadcast_to(float(omega), np.asarray(points).shape[:-1])


@dataclass
class LocalTrefftzData:
    """Constraint matrix of one element with its SVD byproducts.

    kernel has orthonormal columns spanning ker W; (svd_u, svd_s, svd_vt,
    rank) suffice to apply the pseudo-inverse of W.
    """

    element: int
    degree: int
    matrix: np.ndarray  # W, shape (dim P^{p-2}, dim P^p)
    kernel: np.ndarray  # shape (dim P^p, kernel_dim)
    svd_u: np.ndarray
    svd_s: np.ndarray
    svd_vt: np.ndarray
    rank: int
    sigma_min: float  # smallest retained singular value

    @property
    def kernel_dim(self) -> int:
        return self.kernel.shape[1]


@dataclass
class LocalRhs:
    """Moment vector h_K * <f, q_q>_K over the degree-(p-2) test basis."""

    element: int
    degree: int
    moments: np.ndarray


def _constraint_matrices(
    mesh: Mesh,
    p: int,
    omega: float | Callable,
    order: int | None = None,
    elements: np.ndarray | None = None,
) -> np.ndarray:
    """Constraint matrices for a batch of elements, shape (E, m, n)."""
    if p < 2:
        raise ValueError(f"constraint matrix needs p >= 2, got p={p}")
    if order is None:
        order = min(2 * p + 2, MAX_QUAD_ORDER)
    if elements is None:
        elements = np.arange(mesh.n_elements)
    tri = mesh.tri_coords[elements]
    centers = mesh.incenters[elements]
    scales = mesh.diameters[elements]
    pts, w = map_rule_to_triangle(quadrature_rule(order), tri)

    trial = _monomial_tables(centers, scales, p, pts)
    test_vals = _monomial_tables(centers, scales, p - 2, pts).values
    om2 = omega_values(omega, pts) ** 2
    resid = -trial.laplacians - om2[..., None] * trial.values  # (E, Q, n)
    W = np.einsum("eqm,eqn,eq->emn", test_vals, resid, w)
    return W * scales[:, None, None]


def assemble_constraint_matrix(
    mesh: Mesh, element: int, p: int, omega: float | Callable, order: int | None = None
) -> np.ndarray:
    """Weak Trefftz constraint matrix W of one element."""
    return _constraint_matrices(
        mesh, p, omega, order=order, elements=np.array([element])
    )[0]


def _kernel_from_svd(svd_vt: np.ndarray, rank: int) -> np.ndarray:
    return np.ascontiguousarray(svd_vt[rank:].conj().T)


def trefftz_kernel(W: np.ndarray, p: int) -> np.ndarray:
    """Orthonormal basis of ker W; warns when its dimension is not 2p+1."""
    _, s, vt = np.linalg.svd(W, full_matrices=True)
    smax = s[0] if len(s) else 0.0
    rank = int(np.sum(s > RANK_TOLERANCE * smax))
    kernel = _kernel_from_svd(vt, rank)
    expected = 2 * p + 1
    if kernel.shape[1] != expected:
        warnings.warn(
            f"kernel dimension {kernel.shape[1]} != {expected} at p={p}; "
            "the wavenumber may be under-resolved on this element",
            KernelDimensionWarning,
            stacklevel=2,
        )
    return kernel


def _orthonormalizers(mesh: Mesh, element: int, p: int) -> np.ndarray:
    """Inverse Cholesky factor R with (basis @ R) L2-orthonormal on K."""
    geom = element_geometry(mesh, element)
    gram = element_mass_gram(geom, mesh.tri_coords[element], p)
    chol = np.linalg.cholesky(gram)
    return np.linalg.inv(chol).T


def _orthonormalized_kernel(
    W: np.ndarray, mesh: Mesh, element: int, p: int
) -> tuple[int, np.ndarray]:
    """Rank and kernel of W computed in L2-orthonormal coordinates.

    Raw monomial coordinates lose the spectral gap between genuine and
    zero singular values once p grows; transforming trial and test bases
    to per-element L2-orthonormal ones keeps the rank decision and the
    kernel subspace accurate.  A second small SVD inside the (slightly
    padded) back-mapped subspace then picks the directions with the
    smallest raw residual, so the basis also annihilates W to near
    machine precision.
    """
    r_trial = _orthonormalizers(mesh, element, p)
    r_test = _orthonormalizers(mesh, element, p - 2)
    _, s, vt = np.linalg.svd(r_test.T @ W @ r_trial, full_matrices=True)
    smax = s[0] if len(s) else 0.0
    rank = int(np.sum(s > RANK_TOLERANCE * smax))
    pad = min(2, rank)
    span = r_trial @ vt[rank - pad :].conj().T
    subspace, _ = np.linalg.qr(span)
    _, sb, vbt = np.linalg.svd(W @ subspace, full_matrices=True)
    if pad > 0 and sb[pad - 1] > 100.0 * sb[min(pad, len(sb) - 1)]:
        kernel = subspace @ vbt[pad:].conj().T
    else:
        # no usable gap in the raw metric: keep the back-mapped subspace
        kernel, _ = np.linalg.qr(r_trial @ vt[rank:].conj().T)
    return rank, kernel


def local_trefftz_data(
    mesh: Mesh,
    element: int,
    p: int,
    omega: float | Callable,
    orthonormalize: bool | None = None,
    order: int | None = None,
) -> LocalTrefftzData:
    """Constraint matrix, kernel basis, and pseudo-inverse factors of one element."""
    W = assemble_constraint_matrix(mesh, element, p, omega, order=order)
    data = _finish_local_data(mesh, element, p, W, orthonormalize)
    if data.kernel_dim != 2 * p + 1:
        warnings.warn(
            f"kernel dimension {data.kernel_dim} != {2 * p + 1} on element "
            f"{element} at p={p}",
            KernelDimensionWarning,
            stacklevel=2,
        )
    return data


def _finish_local_data(
    mesh: Mesh,
    element: int,
    p: int,
    W: np.ndarray,
    orthonormalize: bool | None,
) -> LocalTrefftzData:
    if orthonormalize is None:
        orthonormalize = p >= 6
    u, s, vt = np.linalg.svd(W, full_matrices=True)
    if orthonormalize:
        rank, kernel = _orthonormalized_kernel(W, mesh, element, p)
    else:
        smax = s[0] if len(s) else 0.0
        rank = int(np.sum(s > RANK_TOLERANCE * smax))
        kernel = _kernel_from_svd(vt, rank)
    sigma_min = float(s[rank - 1]) if rank > 0 else 0.0
    return LocalTrefftzData(
        element=element,
        degree=p,
        matrix=W,
        kernel=kernel,
        svd_u=u,
        svd_s=s,
        svd_vt=vt,
        rank=rank,
        sigma_min=sigma_min,
    )


def all_local_trefftz(
    mesh: Mesh,
    p: int,
    omega: float | Callable,
    orthonormalize: bool | None = None,
    order: int | None = None,
) -> list[LocalTrefftzData]:
    """Local Trefftz data for every element (batched constraint assembly).

    Elements whose kernel dimension is not 2p+1 are reported together in
    one KernelDimensionWarning.
    """
    W_all = _constraint_matrices(mesh, p, omega, order=order)
    local = [
        _finish_local_data(mesh, k, p, W_all[k], orthonormalize)
        for k in range(mesh.n_elements)
    ]
    bad = [d.element for d in local if d.kernel_dim != 2 * p + 1]
    if bad:
        first = ", ".join(str(k) for k in bad[:_LISTED_ELEMENTS])
        more = ", ..." if len(bad) > _LISTED_ELEMENTS else ""
        warnings.warn(
            f"kernel dimension != {2 * p + 1} at p={p} on {len(bad)} of "
            f"{mesh.n_elements} elements ({first}{more}); the wavenumber may be "
            "under-resolved or the basis ill-conditioned on these elements",
            KernelDimensionWarning,
            stacklevel=2,
        )
    return local


def local_rhs(
    mesh: Mesh, element: int, p: int, f: Callable, order: int | None = None
) -> LocalRhs:
    """Moment vector h_K * <f, q>_K with elevated-order quadrature."""
    if order is None:
        order = min(2 * p + 6, MAX_QUAD_ORDER)
    tri = mesh.tri_coords[element]
    pts, w = map_rule_to_triangle(quadrature_rule(order), tri)
    test_vals = _monomial_tables(
        mesh.incenters[element], mesh.diameters[element], p - 2, pts
    ).values
    fv = np.asarray(f(pts))
    moments = mesh.diameters[element] * np.einsum("qm,q->m", test_vals, fv * w)
    return LocalRhs(element=element, degree=p, moments=moments)


def all_local_rhs(
    mesh: Mesh, p: int, f: Callable, order: int | None = None
) -> list[LocalRhs]:
    """Local right-hand-side moments for every element."""
    if order is None:
        order = min(2 * p + 6, MAX_QUAD_ORDER)
    pts, w = map_rule_to_triangle(quadrature_rule(order), mesh.tri_coords)
    test_vals = _monomial_tables(mesh.incenters, mesh.diameters, p - 2, pts).values
    fv = np.asarray(f(pts))
    moments = mesh.diameters[:, None] * np.einsum("eqm,eq->em", test_vals, fv * w)
    return [LocalRhs(k, p, moments[k]) for k in range(mesh.n_elements)]


def _pseudo_inverse_solve(
    data: LocalTrefftzData, rhs: LocalRhs
) -> tuple[np.ndarray, float, bool]:
    """Minimum-norm solution of W u = rhs via the pseudo-inverse.

    Returns (u, ||W u - rhs||, whether that residual puts the moments
    outside the range of W).
    """
    if data.element != rhs.element or data.degree != rhs.degree:
        raise ValueError("local data and right-hand side from different (K, p)")
    y = data.svd_u.conj().T @ rhs.moments
    coeffs = data.svd_vt[: data.rank].conj().T @ (
        y[: data.rank] / data.svd_s[: data.rank]
    )
    scale = 1.0 + np.linalg.norm(rhs.moments)
    resid = np.linalg.norm(data.matrix @ coeffs - rhs.moments)
    return coeffs, resid, resid > 1e-10 * scale


def particular_solution(data: LocalTrefftzData, rhs: LocalRhs) -> np.ndarray:
    """Minimum-norm solution of W u = rhs via the pseudo-inverse.

    Warns when the moments are not in the range of W (rank-deficient
    constraint with incompatible data).
    """
    coeffs, resid, incompatible = _pseudo_inverse_solve(data, rhs)
    if incompatible:
        warnings.warn(
            f"constraint residual {resid:.3e} on element {data.element}: "
            "moments not in the range of the constraint matrix",
            RuntimeWarning,
            stacklevel=2,
        )
    return coeffs
