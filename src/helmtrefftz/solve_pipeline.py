"""The layers of the two-step embedded Trefftz solve and the DG baseline.

harness.solve runs them in sequence on one assembled system.  The
embedded method never builds Trefftz shape functions explicitly.
Per element it computes a particular solution of the local constraint
via the pseudo-inverse, stacks the orthonormal constraint kernels into a
block-diagonal embedding E, reduces the global SIPDG system to
E^T A E y = E^T (b - A u_f), and reconstructs u = E y + u_f.  The
reduced matrix inherits complex symmetry from A because E is real.

Every basis change here (the embedding, and the whitening
preconditioners that make each element basis L2-orthonormal) is block
diagonal with one real block per element, kept as a stacked array.  The
matrix that is factored is therefore the block congruence T_r^T A_rc T_c
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

All linear systems use a direct sparse LU factorization, in the mesh's
nested-dissection order when the mesh is known: the congruence writes
each tile straight to its place in that order, into the CSC arrays that
SuperLU factors, and only the COLAMD fallback rebuilds the natural order.
A reciprocal condition estimate below 1e-13 raises SingularSystemError,
which signals a mesh too coarse for the requested wavenumber.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

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
    """Block-diagonal map from stacked Trefftz coefficients to V_h.

    Real with orthonormal columns; column_offsets[k] is the first Trefftz
    column of element k (length n_elements + 1), and
    blocks[k, :, :kernel dimension of k] is element k's diagonal block
    (zero beyond it).
    """

    column_offsets: np.ndarray
    blocks: np.ndarray

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
    method: str  # "embedded-trefftz" | "standard-dg"
    dofs: int


def build_global_embedding(local: LocalTrefftzData) -> GlobalEmbedding:
    """Stack the element kernel bases into the block-diagonal embedding."""
    if not len(local):
        raise ValueError("no local data supplied")
    return GlobalEmbedding(
        np.concatenate([[0], np.cumsum(local.kernel_dims)]), local.kernels
    )


def particular_field(mesh: Mesh, local: LocalTrefftzData, f: Callable) -> np.ndarray:
    """Stack the per-element minimum-norm particular solutions.

    Elements whose moments lie outside the range of their constraint are
    reported together in one warning naming the worst residual.
    """
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


def mass_preconditioner(mass_grams: np.ndarray) -> np.ndarray:
    """Blocks of the basis change making each element basis L2-orthonormal.

    Takes the element mass Grams (E, n, n) and returns the stacked
    whiteners R (E, n, n) with R^T G R ~ I, from an eigendecomposition.
    Scaled monomials are increasingly ill-conditioned with p; solving in
    the orthonormalized coordinates keeps the factorization accuracy and
    the reciprocal-condition diagnostic tied to the operator rather than
    to the basis.  Solutions are mapped back to monomial coefficients.

    Eigenvalues are clipped from below at 1e-14 of the largest one: for
    strongly ill-conditioned Grams (monomial bases at large p) this
    whitens exactly the directions double precision can resolve.
    """
    lam, q = np.linalg.eigh(0.5 * (mass_grams + mass_grams.swapaxes(-1, -2)))
    floor = 1e-14 * np.maximum(lam[..., -1:], np.finfo(float).tiny)
    lam = np.maximum(lam, floor)
    return q * (1.0 / np.sqrt(lam))[..., None, :]


def embedding_preconditioner(
    embedding: GlobalEmbedding, mass_grams: np.ndarray
) -> np.ndarray:
    """Orthonormalizer of the Trefftz basis in the element L2 inner products.

    Returns stacked blocks (E, d, d), d the largest kernel dimension;
    block k is zero beyond element k's kernel dimension.
    """
    dims = np.diff(embedding.column_offsets)
    blocks = np.zeros((len(dims), dims.max(), dims.max()))
    for dim, idx in _index_groups(dims):
        ek = embedding.blocks[idx, :, :dim]
        blocks[idx, :dim, :dim] = mass_preconditioner(
            ek.swapaxes(-1, -2) @ mass_grams[idx] @ ek
        )
    return blocks


def _complex(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = imag
    return out


_CONGRUENCE_TILE = 1 << 16  # entries of each stage temporary of one tile


def _block_congruence(
    A: sp.spmatrix, bases: Sequence[np.ndarray], sizes: np.ndarray, order: np.ndarray
) -> sp.csc_matrix:
    """T^T A T for the block-diagonal T = bases[0] bases[1] ..., as CSC.

    A consists of n x n element-pair blocks, n = A.shape[0] / len(sizes);
    each basis is stacked real blocks (E, rows, columns), zero-padded, and
    sizes[k] is the number of columns of element k after the last one.
    Element order[i] owns the i-th block row and column of the result, so
    order = arange(E) gives T^T A T itself and the mesh's dissection order
    gives it permuted to that order.

    A's nonzero blocks stream through in tiles of at most _CONGRUENCE_TILE
    entries per stage temporary.  The stages run in order, each as
    (T_r^T (A_rc T_c)) on every block of the tile, with the real and
    imaginary parts apart; einsum with the summed index outside its inner
    loop adds the terms of every entry in index order, so the values
    equal those of the sparse product T^T (A T).  Each tile is written
    straight to its place in CSC arrays allocated once, with the row
    indices sorted within each column and exact zeros dropped.
    """
    n = A.shape[0] // len(sizes)
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
    transposed = [np.ascontiguousarray(T.swapaxes(1, 2)) for T in bases]
    idx = np.arange(bases[-1].shape[2] if bases else n)
    step = max(1, _CONGRUENCE_TILE // (n * n))
    for t in range(0, len(cols), step):
        r, c = rows[t : t + step], cols[t : t + step]
        blocks = bsr.data[t : t + step]
        parts = [np.ascontiguousarray(blocks.real), np.ascontiguousarray(blocks.imag)]
        for T, T_t in zip(bases, transposed):
            left, right = T_t[r], T[c]
            parts = [
                np.einsum("bij,bjk->bik", left, np.einsum("bij,bjk->bik", D, right))
                for D in parts
            ]
        keep = (idx[:, None] < sizes[r, None, None]) & (idx < sizes[c, None, None])
        slots = idx[:, None] + idx * counts[c, None, None]
        slots = (first[t : t + step, None, None] + slots)[keep]
        data.real[slots] = parts[0][keep]
        data.imag[slots] = parts[1][keep]
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


def _basis_transpose_apply(
    bases: list[np.ndarray], v: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """T^T v for T as in _block_congruence; bitwise the sparse product."""
    v = np.asarray(v, dtype=complex).reshape(len(sizes), -1)
    for T in bases:
        v = _transposed_products(T, v)
    return v[np.arange(v.shape[1]) < sizes[:, None]]


def _basis_apply(bases: list[np.ndarray], y: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """T y for T as in _block_congruence; bitwise the sparse product."""
    width = bases[-1].shape[2] if bases else 1
    v = np.zeros((len(sizes), width), dtype=complex)
    v[np.arange(width) < sizes[:, None]] = y
    for T in reversed(bases):
        v = _transposed_products(np.ascontiguousarray(T.swapaxes(1, 2)), v)
    return v.ravel()


def _estimate_sigma_max(
    A: sp.spmatrix, ordering: np.ndarray | None = None, iterations: int = 8
) -> float:
    """Power estimate of ||A||_2; A^H w is formed as conj(A^T conj(w)),
    without a conjugated copy of A.  Given the ordering that A is in, the
    start vector is permuted with it, so the estimate is that of the
    natural-order matrix up to the rounding of the sums."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    v /= np.linalg.norm(v)
    if ordering is not None:
        v = v[ordering]
    lam = 0.0
    for _ in range(iterations):
        w = (A.T @ (A @ v).conj()).conj()
        lam = np.linalg.norm(w)
        if lam == 0.0:
            return 0.0
        v = w / lam
    return float(np.sqrt(lam))


def _estimate_sigma_min(lu, size: int, iterations: int = 8) -> float:
    rng = np.random.default_rng(1)
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iterations):
        w = lu.solve(lu.solve(v, "N"), "H")
        lam = np.linalg.norm(w)
        if lam == 0.0:
            return np.inf
        v = w / lam
    return float(1.0 / np.sqrt(lam))


def _block_ordering(order: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Dof permutation that keeps element blocks whole, in element order.

    sizes[k] is the number of dofs of element k.
    """
    starts = (np.cumsum(sizes) - sizes)[order]
    first = np.cumsum(sizes[order]) - sizes[order]
    return np.repeat(starts - first, sizes[order]) + np.arange(sizes.sum())


def _guarded_lu_solve(
    A: sp.csc_matrix, rhs: np.ndarray, sigma_max: float, **splu_options
):
    """Factor A, apply the rcond guard and solve with iterative refinement.

    Returns (x, sigma_min, backward error); x is None when the guard
    trips.  The backward error is ||b - A x|| / (sigma_max ||x|| + ||b||)
    after at most two refinement rounds.  SuperLU's RuntimeError on an
    exactly singular factor propagates.
    """
    lu = spla.splu(A, **splu_options)
    sigma_min = _estimate_sigma_min(lu, A.shape[0])
    if sigma_max > 0.0 and sigma_min / sigma_max < RCOND_THRESHOLD:
        return None, sigma_min, np.inf
    x = lu.solve(rhs)
    scale = 1.0 + np.linalg.norm(rhs)
    for _ in range(2):  # iterative refinement sharpens the forward error
        r = rhs - A @ x
        if np.linalg.norm(r) <= 1e-14 * scale:
            break
        x = x + lu.solve(r)
    else:
        r = rhs - A @ x
    backward = np.linalg.norm(r) / (
        sigma_max * np.linalg.norm(x) + np.linalg.norm(rhs) + np.finfo(float).tiny
    )
    return x, sigma_min, backward


def _direct_solve(
    A: sp.spmatrix,
    b: np.ndarray,
    context: str,
    bases: Sequence[np.ndarray] = (),
    sizes: np.ndarray | None = None,
    order: np.ndarray | None = None,
) -> np.ndarray:
    """Sparse direct solve guarded by a reciprocal condition estimate.

    Solves T^T A T y = T^T b and returns T y, for the block-diagonal basis
    change T = bases[0] bases[1] ... over A's element blocks (see
    _block_congruence, mass_preconditioner, embedding_preconditioner);
    sizes[k] is the number of columns of element k, by default all of
    the last basis.  Without bases every dof is an element of its own
    and T = I.

    Given an element order (the mesh's dissection order), T^T A T is
    streamed in that order and factored as it is, with diagonal pivots.
    Without one, or when that factorization fails, trips the guard or
    leaves a refined backward error above REFINED_BACKWARD_ERROR, SuperLU
    factors the natural-order matrix with its COLAMD ordering and partial
    pivoting; only that guard raises SingularSystemError.  Only this
    fallback rebuilds the natural order, by permuting the ordered matrix.
    """
    if sizes is None and bases:
        sizes = np.full(len(bases[-1]), bases[-1].shape[2])
    elif sizes is None:
        sizes = np.ones(A.shape[0], dtype=int)
    if order is None:
        ordering = None
        M = _block_congruence(A, bases, sizes, np.arange(len(sizes)))
    else:
        ordering = _block_ordering(order, sizes)
        M = _block_congruence(A, bases, sizes, order)
    rhs = _basis_transpose_apply(bases, b, sizes)
    sigma_max = _estimate_sigma_max(M, ordering)
    x = None
    if ordering is not None:
        try:
            y, _, backward = _guarded_lu_solve(
                M,
                rhs[ordering],
                sigma_max,
                permc_spec="NATURAL",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError:
            y = None
        if y is not None and backward <= REFINED_BACKWARD_ERROR:
            x = np.empty_like(y)
            x[ordering] = y
        else:
            inverse = np.empty_like(ordering)
            inverse[ordering] = np.arange(len(ordering))
            M = sp.csc_matrix(M[inverse][:, inverse])
            M.sort_indices()
    if x is None:
        try:
            x, sigma_min, _ = _guarded_lu_solve(M, rhs, sigma_max)
        except RuntimeError as exc:
            raise SingularSystemError(
                0.0, f"singular matrix ({context}): {exc}"
            ) from exc
        if x is None:
            raise SingularSystemError(
                sigma_min,
                f"near-singular matrix ({context}): sigma_min~{sigma_min:.3e}, "
                f"rcond~{sigma_min / sigma_max:.3e}; the mesh is likely too coarse "
                "for this wavenumber",
            )
    return _basis_apply(bases, x, sizes)


def solve_reduced_system(
    A: sp.spmatrix,
    b: np.ndarray,
    embedding: GlobalEmbedding,
    u_particular: np.ndarray,
    context: str,
    precond: np.ndarray,
    mesh: Mesh,
) -> np.ndarray:
    """Solve E^T A E y = E^T (b - A u_f) and return E y + u_f.

    precond (see embedding_preconditioner) changes the Trefftz basis of
    each element once more, to Q: the matrix factored is Q^T (E^T A E) Q,
    in the mesh's nested-dissection order.
    """
    dims = np.diff(embedding.column_offsets)
    u_trefftz = _direct_solve(
        A,
        b - A @ u_particular,
        context,
        [embedding.blocks, precond],
        dims,
        mesh.dissection_order,
    )
    return u_trefftz + u_particular
