"""Per-element weak Trefftz constraint and its SVD-based kernel.

On each element K the constraint operator tests the Helmholtz residual
against the lower-degree space:

    W[q, j] = h_K * int_K (-lap(phi_j) - omega^2 phi_j) * q_q dx,

with phi_j the degree-p basis and q_q the degree-(p-2) basis.  The kernel
of W spans the local Trefftz space; its orthonormal basis becomes one
block of the global embedding.  The pseudo-inverse of W yields the
minimum-norm particular solution for inhomogeneous right-hand sides.

All elements are processed together: every decomposition is one stacked
NumPy call over (E, m, n) arrays, and elements whose constraints have
different ranks are grouped by rank.  Stacked svd, qr, cholesky, inv
and matmul compute each element exactly as a call on that element alone
would.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dg_assembly import _source_values, omega_values
from .mesh import Mesh
from .polyspace import (
    _data_order,
    _element_mass_grams,
    _gram_order,
    _volume_tables,
)

__all__ = [
    "RANK_TOLERANCE",
    "KernelDimensionWarning",
    "LocalTrefftzData",
    "constraint_matrices",
    "all_local_trefftz",
    "all_local_rhs",
]

# Singular values below RANK_TOLERANCE * sigma_max count as zero.
RANK_TOLERANCE = 1e-10

# From this degree on, the rank decision and the kernel are computed in
# L2-orthonormal coordinates: the raw scaled monomials lose the spectral
# gap between genuine and zero singular values (at p = 8 the raw rank
# decision misses the 2p+1 law on every element).
_ORTHONORMALIZE_FROM = 6

# merged warnings name at most this many elements
_LISTED_ELEMENTS = 5


class KernelDimensionWarning(RuntimeWarning):
    """Kernel dimension differs from the expected 2p+1."""


@dataclass
class LocalTrefftzData:
    """Constraint matrices of all elements with their SVD byproducts.

    kernels[k, :, :kernel_dims[k]] has orthonormal columns spanning
    ker W_k; the columns beyond kernel_dims[k] are zero.  (svd_u, svd_s,
    svd_vt, ranks) suffice to apply the pseudo-inverse of each W_k.
    """

    degree: int
    matrices: np.ndarray  # W, (E, dim P^{p-2}, dim P^p)
    kernels: np.ndarray  # (E, dim P^p, largest kernel dimension)
    svd_u: np.ndarray  # (E, m, m)
    svd_s: np.ndarray  # (E, m)
    svd_vt: np.ndarray  # (E, n, n)
    ranks: np.ndarray  # (E,)
    sigma_min: np.ndarray  # (E,), smallest retained singular value

    def __len__(self) -> int:
        return len(self.ranks)

    @property
    def kernel_dims(self) -> np.ndarray:
        return self.matrices.shape[2] - self.ranks


def constraint_matrices(
    mesh: Mesh,
    p: int,
    omega: float | Callable,
    elements: np.ndarray | None = None,
) -> np.ndarray:
    """Constraint matrices for a batch of elements, shape (E, m, n)."""
    if p < 2:
        raise ValueError(f"constraint matrix needs p >= 2, got p={p}")
    trial, pts, w = _volume_tables(mesh, p, _gram_order(p), elements)
    test_vals = trial.lower(p - 2).values
    om2 = omega_values(omega, pts) ** 2
    resid = -trial.laplacians - om2[..., None] * trial.values  # (E, Q, n)
    W = np.einsum("eqm,eqn,eq->emn", test_vals, resid, w)
    sel = slice(None) if elements is None else elements
    return W * mesh.diameters[sel][:, None, None]


def _conj_t(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _ranks(s: np.ndarray) -> np.ndarray:
    """Numerical rank of each row of singular values (largest first)."""
    return np.sum(s > RANK_TOLERANCE * s[:, :1], axis=1)


def _index_groups(values: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(value, indices holding it) for each distinct value of an int array."""
    return [(int(v), np.flatnonzero(values == v)) for v in np.unique(values)]


def _orthonormalizers(mass_grams: np.ndarray) -> np.ndarray:
    """Inverse Cholesky factors R with (basis @ R) L2-orthonormal, (E, n, n)."""
    chol = np.linalg.cholesky(mass_grams)
    return np.linalg.inv(chol).swapaxes(-1, -2)


def _orthonormalized_kernels(
    W: np.ndarray, r_trial: np.ndarray, vt: np.ndarray, rank: int
) -> np.ndarray:
    """Kernels of one rank group, mapped back from orthonormal coordinates.

    vt holds the right singular vectors of W in orthonormal coordinates.
    A second small SVD inside the (slightly padded) back-mapped subspace
    picks the directions with the smallest raw residual, so the basis
    also annihilates W to near machine precision.
    """
    pad = min(2, rank)
    subspace, _ = np.linalg.qr(r_trial @ _conj_t(vt[:, rank - pad :]))
    _, sb, vbt = np.linalg.svd(W @ subspace, full_matrices=True)
    kernels = subspace @ _conj_t(vbt[:, pad:])
    if pad > 0:
        flat = ~(sb[:, pad - 1] > 100.0 * sb[:, min(pad, sb.shape[1] - 1)])
    else:
        flat = np.ones(len(W), dtype=bool)
    if flat.any():
        # no usable gap in the raw metric: keep the back-mapped subspace
        kernels[flat], _ = np.linalg.qr(r_trial[flat] @ _conj_t(vt[flat, rank:]))
    return kernels


def all_local_trefftz(
    mesh: Mesh,
    p: int,
    omega: float | Callable,
    mass_grams: np.ndarray | None = None,
) -> LocalTrefftzData:
    """Constraint matrices, kernel bases and pseudo-inverse factors of all elements.

    For p >= 6 the rank and the kernel come from the constraint in
    per-element L2-orthonormal trial and test coordinates; the degree-p
    element mass Grams are built here unless the caller already has them
    (_element_mass_grams(mesh, p)).  Elements whose kernel dimension is
    not 2p+1 are reported together in one KernelDimensionWarning.
    """
    W = constraint_matrices(mesh, p, omega)
    u, s, vt = np.linalg.svd(W, full_matrices=True)
    n = W.shape[2]
    if p >= _ORTHONORMALIZE_FROM:
        if mass_grams is None:
            mass_grams = _element_mass_grams(mesh, p)
        r_trial = _orthonormalizers(mass_grams)
        r_test = _orthonormalizers(_element_mass_grams(mesh, p - 2))
        _, s_on, vt_on = np.linalg.svd(
            r_test.swapaxes(-1, -2) @ W @ r_trial, full_matrices=True
        )
        ranks = _ranks(s_on)
    else:
        ranks = _ranks(s)
    kernels = np.zeros((len(W), n, n - ranks.min()))
    for rank, idx in _index_groups(ranks):
        if p >= _ORTHONORMALIZE_FROM:
            block = _orthonormalized_kernels(W[idx], r_trial[idx], vt_on[idx], rank)
        else:
            block = _conj_t(vt[idx, rank:])
        kernels[idx, :, : n - rank] = block
    retained = s[np.arange(len(s)), ranks - 1]  # rank 0 reads s[-1], replaced below
    local = LocalTrefftzData(
        degree=p,
        matrices=W,
        kernels=kernels,
        svd_u=u,
        svd_s=s,
        svd_vt=vt,
        ranks=ranks,
        sigma_min=np.where(ranks > 0, retained, 0.0),
    )
    bad = np.flatnonzero(local.kernel_dims != 2 * p + 1)
    if len(bad):
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


def all_local_rhs(mesh: Mesh, p: int, f: Callable) -> np.ndarray:
    """Moments h_K * <f, q_q>_K over the degree-(p-2) test basis, (E, m).

    A non-finite value of f raises a ValueError naming the element.
    """
    test, pts, w = _volume_tables(mesh, p - 2, _data_order(p))
    test_vals = test.values
    del test  # frees unshared power tables before f is evaluated
    fv = _source_values(f, pts)
    return mesh.diameters[:, None] * np.einsum("eqm,eq->em", test_vals, fv * w)


def _pseudo_inverse_solve(
    local: LocalTrefftzData, moments: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-norm solutions of W_k u_k = moments_k via the pseudo-inverse.

    Returns (u (E, n), ||W_k u_k - moments_k|| (E,), whether each residual
    puts the moments outside the range of W_k).
    """
    y = (_conj_t(local.svd_u) @ moments[..., None])[..., 0]
    coeffs = np.zeros((len(local), local.matrices.shape[2]), dtype=y.dtype)
    for rank, idx in _index_groups(local.ranks):
        z = y[idx, :rank] / local.svd_s[idx, :rank]
        coeffs[idx] = (_conj_t(local.svd_vt[idx, :rank]) @ z[..., None])[..., 0]
    scale = 1.0 + np.linalg.norm(moments, axis=1)
    resid = np.linalg.norm((local.matrices @ coeffs[..., None])[..., 0] - moments, axis=1)
    return coeffs, resid, resid > 1e-10 * scale
