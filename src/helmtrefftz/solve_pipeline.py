"""The layers of the two-step embedded Trefftz solve and the DG baseline.

harness.solve runs them in sequence on one assembled system.  The
embedded method never builds Trefftz shape functions explicitly.
Per element it computes a particular solution of the local constraint
via the pseudo-inverse, stacks the orthonormal constraint kernels into a
block-diagonal embedding E, makes each block L2-orthonormal, which gives
the basis T with T_k = E_k Q_k, reduces the global SIPDG system to
T^T A T y = T^T (b - A u_f), and reconstructs u = T y + u_f.  Without
a source (f None) u_f is zero, returned without building anything, and
adds nothing to either sum.  The reduced matrix inherits complex
symmetry from A because T is real.

Each solve changes the basis once: to T for the embedded method, to the
mass whitener R for the standard one.  Either is block diagonal with one
real block per element, kept as a stacked array in a GlobalEmbedding
with its column layout and whether its whitening clipped.  The matrix
that is factored is therefore the block congruence T_r^T A_rc T_c
over the nonzero element-pair blocks A_rc of A.  A arrives from
dg_assembly as a BSR matrix of exactly those blocks, so
_block_congruence reads them in place, a tile at a time, with no copy
of A (another sparse format is converted first).  It forms every
product with stacked einsum, which sums each entry in index order
exactly as a sparse matrix product does, so the result is bitwise the
sparse triple product T^T (A T).  BLAS matmul would sum in another
order; at p = 12 that moves the round-off floor of the errors.  The
Grams that assemble A keep einsum's order by the same rule (see
dg_assembly and polyspace._weighted_gram).

All linear systems use a direct sparse LU factorization in the mesh's
nested-dissection order: the congruence writes each tile straight to its
place in that order, into the CSC arrays that SuperLU factors, and the
COLAMD fallback factors that same matrix.  Every factorization, in
either precision, goes through one routine (_factored_solve): it
estimates sigma_min on the factor, by 5 Lanczos steps with full
reorthogonalization on (A A^H)^-1 (10 solves per factor), against
sigma_max from the same routine on A^H A, and refines from x = 0 with
complex128 residuals.  A system whose whitening clipped an eigenvalue
(see mass_preconditioner) has a basis at the limit of double precision
and is factored in complex128; any other is factored first in
complex64, which halves the factor's memory.  An rcond below
SINGLE_PRECISION_RCOND (1e-6) on a complex64 factor or RCOND_THRESHOLD
(1e-13) on a complex128 one, or a refined backward error above
REFINED_BACKWARD_ERROR, sends the system to the next factorization;
the last, with COLAMD, raises SingularSystemError below 1e-13, which
signals a mesh too coarse for the requested wavenumber.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .local_trefftz import (
    LocalTrefftzData,
    _index_groups,
    _pseudo_inverse_solve,
    all_local_rhs,
)
from .mesh import Mesh

__all__ = [
    "SingularSystemError",
    "GlobalEmbedding",
    "SolutionField",
    "build_global_embedding",
    "particular_field",
    "mass_preconditioner",
    "embedding_preconditioner",
    "solve_reduced_system",
]

RCOND_THRESHOLD = 1e-13
REFINED_BACKWARD_ERROR = 1e-12
# smallest rcond read from a complex64 factor that is refined rather than
# refactored in complex128: kappa * u_32 ~ 0.06 there
SINGLE_PRECISION_RCOND = 1e-6
# largest number of solves, the first included, that refinement takes on
# one factor of either precision
_REFINEMENT_STEPS = 8
# SuperLU options of the dissection-order factorizations: the matrix's own
# order, diagonal pivots
_DISSECTION_OPTIONS = {
    "permc_spec": "NATURAL",
    "diag_pivot_thresh": 0.0,
    "options": {"SymmetricMode": True},
}
# Lanczos steps (operator applications) of the sigma_max and sigma_min
# estimates
_LANCZOS_STEPS = 5


class SingularSystemError(RuntimeError):
    """Direct solve hit a (near-)singular matrix.

    Carries an estimate of the smallest singular value; typically means
    the resolution condition (1 + omega^2) h <= C is violated.
    """

    def __init__(self, sigma_min: float, message: str):
        super().__init__(message)
        self.sigma_min = sigma_min


@dataclass
class GlobalEmbedding:
    """Block-diagonal real basis change from stacked element coefficients.

    column_offsets[k] is the first column of element k (length
    n_elements + 1), and blocks[k, :, :columns of element k] is element
    k's diagonal block (zero beyond it).  clipped records whether the
    whitening that made the blocks raised an eigenvalue to its floor (see
    mass_preconditioner).
    """

    column_offsets: np.ndarray
    blocks: np.ndarray
    clipped: bool = False

    @property
    def n_columns(self) -> int:
        return int(self.column_offsets[-1])


@dataclass
class SolutionField:
    """Complex coefficients over the broken degree-p space.

    dofs is the size of the system the method solved: the Trefftz
    dimension for the embedded method, dim P^p per element for standard.
    """

    coefficients: np.ndarray
    degree: int
    mesh: Mesh
    dofs: int


def build_global_embedding(local: LocalTrefftzData) -> GlobalEmbedding:
    """Stack the orthonormal element kernel bases into the embedding E."""
    if not len(local):
        raise ValueError("no local data supplied")
    return GlobalEmbedding(
        np.concatenate([[0], np.cumsum(local.kernel_dims)]), local.kernels
    )


def particular_field(
    mesh: Mesh, local: LocalTrefftzData, f: Callable | None
) -> np.ndarray:
    """Stack the per-element minimum-norm particular solutions.

    For f None (no source) the field is zero, returned without building
    or evaluating anything.  Elements whose moments lie outside the range
    of their constraint are reported together in one warning naming the
    worst residual.
    """
    if f is None:
        return np.zeros(local.matrices.shape[0] * local.matrices.shape[2], complex)
    moments = all_local_rhs(mesh, local.degree, f)
    coeffs, resid, incompatible = _pseudo_inverse_solve(local, moments)
    if incompatible.any():
        worst = np.flatnonzero(incompatible)[np.argmax(resid[incompatible])]
        warnings.warn(
            f"constraint residual {resid[worst]:.3e} on element {worst}, the worst "
            f"of {np.count_nonzero(incompatible)} elements: moments not in the range "
            "of the constraint matrix",
            RuntimeWarning,
            stacklevel=2,
        )
    return coeffs.astype(complex).ravel()


def mass_preconditioner(mass_grams: np.ndarray) -> GlobalEmbedding:
    """The basis change making each element basis L2-orthonormal.

    Takes the element mass Grams (E, n, n) and returns the stacked
    whiteners R (E, n, n) with R^T G R ~ I, from an eigendecomposition,
    and records whether any eigenvalue was clipped (see below).  Scaled
    monomials are increasingly ill-conditioned with p; solving in the
    orthonormalized coordinates keeps the factorization accuracy and the
    reciprocal-condition diagnostic tied to the operator rather than to
    the basis.  Solutions are mapped back to monomial coefficients.

    Eigenvalues are clipped from below at 1e-14 of the largest one: for
    strongly ill-conditioned Grams (monomial bases at large p) this
    whitens exactly the directions double precision can resolve.  A
    clipped basis is at the limit of double precision, so its system is
    factored in complex128 only (see _direct_solve).
    """
    lam, q = np.linalg.eigh(0.5 * (mass_grams + mass_grams.swapaxes(-1, -2)))
    floor = 1e-14 * np.maximum(lam[..., -1:], np.finfo(float).tiny)
    clipped = bool((lam < floor).any())
    lam = np.maximum(lam, floor)
    whiteners = q * (1.0 / np.sqrt(lam))[..., None, :]
    n = mass_grams.shape[-1]
    return GlobalEmbedding(n * np.arange(len(mass_grams) + 1), whiteners, clipped)


def embedding_preconditioner(
    embedding: GlobalEmbedding, mass_grams: np.ndarray
) -> GlobalEmbedding:
    """The Trefftz basis made orthonormal in the element L2 inner products.

    Block k is E_k Q_k, E_k the embedding's block and Q_k the whitener of
    its mass Gram E_k^T G_k E_k (mass_preconditioner), formed with einsum
    so that its bits do not follow the BLAS thread count.  The result
    keeps the embedding's column_offsets and records whether any
    whitening clipped an eigenvalue.
    """
    blocks = np.zeros_like(embedding.blocks)
    clipped = False
    for dim, idx in _index_groups(np.diff(embedding.column_offsets)):
        ek = embedding.blocks[idx, :, :dim]
        whitener = mass_preconditioner(ek.swapaxes(-1, -2) @ mass_grams[idx] @ ek)
        blocks[idx, :, :dim] = np.einsum("kij,kjl->kil", ek, whitener.blocks)
        clipped |= whitener.clipped
    return GlobalEmbedding(embedding.column_offsets, blocks, clipped)


def _complex(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = imag
    return out


_CONGRUENCE_TILE = 1 << 16  # entries of each stage temporary of one tile


def _block_congruence(
    A: sp.spmatrix, basis: GlobalEmbedding, order: np.ndarray
) -> sp.csc_matrix:
    """T^T A T for the block-diagonal basis T, as CSC.

    A consists of n x n element-pair blocks, n = basis.blocks.shape[1];
    element k has sizes[k] columns in T, read from basis.column_offsets.
    Element order[i] owns the i-th block row and column of the result, so
    order = arange(E) gives T^T A T itself and the mesh's dissection order
    gives it permuted to that order.

    A's nonzero blocks stream through in tiles of at most _CONGRUENCE_TILE
    entries per temporary.  Each block is formed as T_r^T (A_rc T_c),
    with the real and imaginary parts apart (the imaginary part only on
    the blocks that have one, the diagonal blocks of boundary elements);
    einsum with the summed index outside its inner loop adds the terms of
    every entry in index order, so the values equal those of the sparse
    product T^T (A T).  Each tile is written straight to its place in CSC
    arrays allocated once, with the row indices sorted within each column
    and exact zeros dropped.
    """
    sizes = np.diff(basis.column_offsets)
    n = basis.blocks.shape[1]
    bsr = A.tobsr(blocksize=(n, n))  # A itself when assembled as BSR
    rows = np.repeat(np.arange(len(sizes)), np.diff(bsr.indptr))
    cols = bsr.indices
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    # entries per column of each block column, and the first row and
    # column of every element in the result
    counts = np.bincount(cols, sizes[rows], len(sizes)).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes[order])])[rank]
    indptr = np.concatenate([[0], np.cumsum(np.repeat(counts[order], sizes[order]))])
    # first data slot of every block: the start of its block column plus
    # the rows of the blocks above it in that column
    by_column = np.lexsort((rank[rows], rank[cols]))
    heights = sizes[rows[by_column]]
    column_starts = (np.cumsum(counts[order]) - counts[order])[rank[cols[by_column]]]
    first = np.empty_like(heights)
    first[by_column] = np.cumsum(heights) - heights - column_starts
    first += indptr[offsets[cols]]
    index_dtype = np.int32 if indptr[-1] < np.iinfo(np.int32).max else np.int64
    data = np.empty(indptr[-1], dtype=complex)
    indices = np.empty(indptr[-1], dtype=index_dtype)
    T = basis.blocks
    T_t = np.ascontiguousarray(T.swapaxes(1, 2))

    def congruence(D, r, c):
        return np.einsum("bij,bjk->bik", T_t[r], np.einsum("bij,bjk->bik", D, T[c]))

    idx = np.arange(T.shape[2])
    step = max(1, _CONGRUENCE_TILE // (n * n))
    for t in range(0, len(cols), step):
        r, c = rows[t : t + step], cols[t : t + step]
        blocks = bsr.data[t : t + step]
        real = congruence(np.ascontiguousarray(blocks.real), r, c)
        # only the impedance makes a block complex; every stage of a zero
        # block sums its products from +0.0, so its result is +0.0
        imag = np.zeros_like(real)
        complex_blocks = np.flatnonzero(blocks.imag.any(axis=(1, 2)))
        imag[complex_blocks] = congruence(
            blocks.imag[complex_blocks], r[complex_blocks], c[complex_blocks]
        )
        keep = (idx[:, None] < sizes[r, None, None]) & (idx < sizes[c, None, None])
        slots = idx[:, None] + idx * counts[c, None, None]
        slots = (first[t : t + step, None, None] + slots)[keep]
        data.real[slots] = real[keep]
        data.imag[slots] = imag[keep]
        indices[slots] = np.broadcast_to(
            offsets[r, None, None] + idx[:, None], keep.shape
        )[keep]
    M = sp.csc_matrix(
        (data, indices, indptr.astype(index_dtype)), shape=(indptr.size - 1,) * 2
    )
    M.has_sorted_indices = True
    M.eliminate_zeros()
    return M


def _transposed_products(blocks: np.ndarray, v: np.ndarray) -> np.ndarray:
    """out[k] = blocks[k]^T v[k], each entry summed in index order."""
    return _complex(
        np.einsum("kji,kj->ki", blocks, v.real), np.einsum("kji,kj->ki", blocks, v.imag)
    )


def _basis_transpose_apply(basis: GlobalEmbedding, v: np.ndarray) -> np.ndarray:
    """T^T v for T as in _block_congruence; bitwise the sparse product."""
    sizes = np.diff(basis.column_offsets)
    v = np.asarray(v, dtype=complex).reshape(len(sizes), -1)
    v = _transposed_products(basis.blocks, v)
    return v[np.arange(v.shape[1]) < sizes[:, None]]


def _basis_apply(basis: GlobalEmbedding, y: np.ndarray) -> np.ndarray:
    """T y for T as in _block_congruence; bitwise the sparse product."""
    sizes = np.diff(basis.column_offsets)
    v = np.zeros((len(sizes), basis.blocks.shape[2]), dtype=complex)
    v[np.arange(v.shape[1]) < sizes[:, None]] = y
    T_t = np.ascontiguousarray(basis.blocks.swapaxes(1, 2))
    return _transposed_products(T_t, v).ravel()


def _largest_ritz_value(apply: Callable, v: np.ndarray) -> float:
    """Largest Ritz value of a Hermitian positive semidefinite operator.

    Runs _LANCZOS_STEPS Lanczos steps from the unit vector v, with every
    new vector reorthogonalized against all earlier ones (classical
    Gram-Schmidt, twice), and returns the largest eigenvalue of the
    tridiagonal projection: a lower bound of the largest eigenvalue, to
    rounding.  The run stops early once the Krylov space is invariant,
    and a non-finite step gives NaN.
    """
    basis = np.empty((_LANCZOS_STEPS, v.size), dtype=complex)
    alpha, beta = [], []
    for k in range(_LANCZOS_STEPS):
        basis[k] = v
        w = apply(v)
        alpha.append(np.vdot(v, w).real)
        if k == _LANCZOS_STEPS - 1:
            break
        for _ in range(2):
            w -= basis[: k + 1].T @ (basis[: k + 1] @ w.conj()).conj()
        norm = np.linalg.norm(w)
        if not norm > np.finfo(float).eps * max(alpha):
            break
        beta.append(norm)
        v = w / norm
    T = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    if not np.isfinite(T).all():
        return np.nan
    return float(np.linalg.eigvalsh(T)[-1])


def _estimate_sigma_max(A: sp.spmatrix, ordering: np.ndarray) -> float:
    """Lanczos estimate of ||A||_2, from below; A^H w is formed as
    conj(A^T conj(w)), without a conjugated copy of A.  The start vector
    is permuted with the ordering that A is in, so the estimate is that
    of the natural-order matrix up to the rounding of the sums."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    v /= np.linalg.norm(v)
    lam = _largest_ritz_value(lambda v: (A.T @ (A @ v).conj()).conj(), v[ordering])
    return float(np.sqrt(lam))


def _estimate_sigma_min(lu, size: int, dtype) -> float:
    """Lanczos estimate of the smallest singular value of the factored
    matrix, from above, on (A A^H)^-1 with two solves per step.  dtype
    is the factor's; the Lanczos vectors stay complex128."""
    rng = np.random.default_rng(1)
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    v /= np.linalg.norm(v)

    def apply(v):
        w = lu.solve(lu.solve(v.astype(dtype, copy=False), "N"), "H")
        return w.astype(complex, copy=False)

    lam = _largest_ritz_value(apply, v)
    if lam == 0.0:
        return np.inf
    return float(1.0 / np.sqrt(lam))


def _block_ordering(order: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Dof permutation that keeps element blocks whole, in element order.

    sizes[k] is the number of dofs of element k.
    """
    starts = (np.cumsum(sizes) - sizes)[order]
    first = np.cumsum(sizes[order]) - sizes[order]
    return np.repeat(starts - first, sizes[order]) + np.arange(sizes.sum())


def _backward_error(r, x, rhs, sigma_max: float) -> float:
    """||r|| / (sigma_max ||x|| + ||b||) for the residual r = b - A x."""
    return np.linalg.norm(r) / (
        sigma_max * np.linalg.norm(x) + np.linalg.norm(rhs) + np.finfo(float).tiny
    )


def _factored_solve(
    M: sp.csc_matrix, rhs: np.ndarray, sigma_max: float, dtype, bound: float, **options
):
    """Factor M in dtype, apply the rcond bound and refine in complex128.

    Returns (x, sigma_min, backward error ||b - M x|| / (sigma_max ||x||
    + ||b||)); x is None when sigma_min, read from the factor, is not at
    least bound * sigma_max (a NaN estimate included).  SuperLU's
    RuntimeError on an exactly singular factor propagates.  Starting
    from x = 0, each step solves for the residual, formed in complex128
    against M and scaled to unit norm so that it neither underflows nor
    overflows in complex64.  The first solve is always kept; refinement
    stops once ||r|| <= 1e-14 ||b||, after _REFINEMENT_STEPS solves, or
    at a later step that does not halve ||r||, which is dropped.
    """
    lu = spla.splu(M.astype(dtype, copy=False), **options)
    sigma_min = _estimate_sigma_min(lu, M.shape[0], dtype)
    if not sigma_min >= bound * sigma_max:
        return None, sigma_min, np.inf
    x, r = np.zeros_like(rhs), rhs
    norm = np.linalg.norm(rhs)
    stop = 1e-14 * norm
    for step in range(_REFINEMENT_STEPS):
        if not norm > stop:
            break
        x_step = x + norm * lu.solve((r / norm).astype(dtype, copy=False))
        r_step = rhs - M @ x_step
        norm_step = np.linalg.norm(r_step)
        if step and not norm_step <= 0.5 * norm:
            break
        x, r, norm = x_step, r_step, norm_step
    return x, sigma_min, _backward_error(r, x, rhs, sigma_max)


def _direct_solve(
    A: sp.spmatrix, b: np.ndarray, context: str, basis: GlobalEmbedding, order: np.ndarray
) -> np.ndarray:
    """Sparse direct solve guarded by a reciprocal condition estimate.

    Solves T^T A T y = T^T b and returns T y, for the block-diagonal basis
    change T = basis over A's element blocks (see _block_congruence,
    mass_preconditioner, embedding_preconditioner).

    T^T A T is streamed in the element order given (the mesh's dissection
    order) and solved by _factored_solve in up to three attempts, each
    taken when the one before fails to factor, trips its rcond bound or
    leaves a backward error above REFINED_BACKWARD_ERROR: the matrix as
    it is, with diagonal pivots, in complex64 (bound
    SINGLE_PRECISION_RCOND), skipped when basis.clipped says that the
    whitening of T clipped an eigenvalue, which leaves the basis at the
    limit of double precision; the same in complex128 (bound
    RCOND_THRESHOLD); and, as the last resort, SuperLU's COLAMD column
    order with partial pivoting in complex128.  Only the last attempt
    raises SingularSystemError, and its solution is kept whatever its
    backward error.
    """
    ordering = _block_ordering(order, np.diff(basis.column_offsets))
    M = _block_congruence(A, basis, order)
    rhs = _basis_transpose_apply(basis, b)[ordering]
    sigma_max = _estimate_sigma_max(M, ordering)
    attempts = [
        (np.complex64, SINGLE_PRECISION_RCOND, _DISSECTION_OPTIONS),
        (complex, RCOND_THRESHOLD, _DISSECTION_OPTIONS),
        (complex, RCOND_THRESHOLD, {}),
    ]
    for dtype, bound, options in attempts[basis.clipped:]:
        y, failure = None, None
        try:
            y, sigma_min, backward = _factored_solve(
                M, rhs, sigma_max, dtype, bound, **options
            )
        except RuntimeError as exc:
            failure = exc
            continue
        if backward <= REFINED_BACKWARD_ERROR:
            break
    if failure is not None:
        raise SingularSystemError(
            0.0, f"singular matrix ({context}): {failure}"
        ) from failure
    if y is None:
        raise SingularSystemError(
            sigma_min,
            f"near-singular matrix ({context}): sigma_min~{sigma_min:.3e}, "
            f"rcond~{sigma_min / sigma_max:.3e}; the mesh is likely too coarse "
            "for this wavenumber",
        )
    x = np.empty_like(y)
    x[ordering] = y
    return _basis_apply(basis, x)


def solve_reduced_system(
    A: sp.spmatrix,
    b: np.ndarray,
    embedding: GlobalEmbedding,
    u_particular: np.ndarray,
    context: str,
    order: np.ndarray,
) -> np.ndarray:
    """Solve T^T A T y = T^T (b - A u_f) and return T y + u_f.

    T is the L2-orthonormal embedding of embedding_preconditioner.  The
    matrix is factored in the element order given (the mesh's dissection
    order), and in complex128 only when the embedding's whitening clipped
    an eigenvalue (see _direct_solve).
    """
    u_trefftz = _direct_solve(A, b - A @ u_particular, context, embedding, order)
    return u_trefftz + u_particular
