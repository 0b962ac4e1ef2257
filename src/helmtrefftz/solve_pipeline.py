"""Two-step embedded Trefftz solve and the standard DG baseline.

The embedded method never builds Trefftz shape functions explicitly.
Per element it computes a particular solution of the local constraint
via the pseudo-inverse, stacks the orthonormal constraint kernels into a
block-diagonal embedding E, reduces the global SIPDG system to
E^T A E y = E^T (b - A u_f), and reconstructs u = E y + u_f.  The
reduced matrix inherits complex symmetry from A because E is real.

Every basis change here (the embedding, and the whitening
preconditioners that make each element basis L2-orthonormal) is block
diagonal with one real block per element, kept as a stacked array.  The
matrix that is factored is therefore the block congruence T_r^T A_rc T_c
over the nonzero element-pair blocks A_rc of A: _block_congruence reads
those blocks once and forms every product with stacked einsum, which
sums each entry in index order exactly as a sparse matrix product does,
so the result is bitwise the sparse triple product T^T (A T).  BLAS
matmul would sum in another order; at p = 12 that moves the round-off
floor of the errors.  The Grams that assemble A keep einsum's order by
the same rule (see dg_assembly and polyspace._weighted_gram).

All linear systems use a direct sparse LU factorization, in the mesh's
nested-dissection order when the mesh is known; a reciprocal condition
estimate below 1e-13 raises SingularSystemError, which signals a mesh
too coarse for the requested wavenumber.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dg_assembly import FormParameters, assemble_rhs, assemble_sipdg
from .local_trefftz import (
    LocalTrefftzData,
    _index_groups,
    _pseudo_inverse_solve,
    all_local_rhs,
    all_local_trefftz,
)
from .mesh import Mesh
from .polyspace import _element_mass_grams, dim_poly

__all__ = [
    "SingularSystemError",
    "GlobalEmbedding",
    "SolutionField",
    "build_global_embedding",
    "particular_field",
    "mass_preconditioner",
    "embedding_preconditioner",
    "solve_reduced_system",
    "solve_embedded_trefftz",
    "solve_standard_dg",
    "trefftz_dof_count",
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
    """Complex coefficients over the broken degree-p space."""

    coefficients: np.ndarray
    degree: int
    mesh: Mesh
    method: str  # "embedded-trefftz" | "standard-dg"


def build_global_embedding(local: LocalTrefftzData) -> GlobalEmbedding:
    """Stack the element kernel bases into the block-diagonal embedding."""
    if not len(local):
        raise ValueError("no local data supplied")
    return GlobalEmbedding(
        np.concatenate([[0], np.cumsum(local.kernel_dims)]), local.kernels
    )


def particular_field(
    mesh: Mesh, local: LocalTrefftzData, f: Callable | None
) -> np.ndarray:
    """Stack the per-element minimum-norm particular solutions.

    Elements whose moments lie outside the range of their constraint are
    reported together in one warning naming the worst residual.
    """
    if f is None:
        return np.zeros(len(local) * dim_poly(local.degree), dtype=complex)
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


def _whitener(gram: np.ndarray) -> np.ndarray:
    """R with R^T G R ~ I via eigendecomposition.

    Eigenvalues are clipped from below at 1e-14 of the largest one: for
    strongly ill-conditioned Grams (monomial bases at large p) this
    whitens exactly the directions double precision can resolve.
    """
    lam, q = np.linalg.eigh(0.5 * (gram + gram.swapaxes(-1, -2)))
    floor = 1e-14 * np.maximum(lam[..., -1:], np.finfo(float).tiny)
    lam = np.maximum(lam, floor)
    return q * (1.0 / np.sqrt(lam))[..., None, :]


def mass_preconditioner(mass_grams: np.ndarray) -> np.ndarray:
    """Blocks of the basis change making each element basis L2-orthonormal.

    Takes the element mass Grams (E, n, n) and returns the stacked
    whiteners (E, n, n).  Scaled monomials are increasingly
    ill-conditioned with p; solving in the orthonormalized coordinates
    keeps the factorization accuracy and the reciprocal-condition
    diagnostic tied to the operator rather than to the basis.  Solutions
    are mapped back to monomial coefficients.
    """
    return _whitener(mass_grams)


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
        blocks[idx, :dim, :dim] = _whitener(ek.swapaxes(-1, -2) @ mass_grams[idx] @ ek)
    return blocks


def _complex(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = imag
    return out


def _block_congruence(
    A: sp.spmatrix, bases: list[np.ndarray], sizes: np.ndarray
) -> sp.csc_matrix:
    """T^T A T for the block-diagonal T = bases[0] bases[1] ..., as CSC.

    A consists of n x n element-pair blocks, n = bases[0].shape[1]; each
    basis is stacked real blocks (E, rows, columns), zero-padded, and
    sizes[k] is the number of columns of element k after the last one.
    The stages run in order, each as (T_r^T (A_rc T_c)) on every nonzero
    block of A, with the real and imaginary parts apart.  einsum with
    the summed index outside its inner loop adds the terms of every entry
    in index order, so the values, the pattern (exact zeros dropped) and
    the sorted indices equal those of the sparse product T^T (A T).
    """
    n = bases[0].shape[1]
    bsr = A.tobsr(blocksize=(n, n))
    rows = np.repeat(np.arange(len(bsr.indptr) - 1), np.diff(bsr.indptr))
    cols = bsr.indices
    parts = [np.ascontiguousarray(bsr.data.real), np.ascontiguousarray(bsr.data.imag)]
    del bsr  # its complex copy of A would raise the peak memory
    for T in bases:
        left = np.ascontiguousarray(T.swapaxes(1, 2))[rows]
        right = T[cols]
        parts = [
            np.einsum("bij,bjk->bik", left, np.einsum("bij,bjk->bik", D, right))
            for D in parts
        ]
    idx = np.arange(parts[0].shape[1])
    keep = (idx[:, None] < sizes[rows, None, None]) & (idx < sizes[cols, None, None])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    r = np.broadcast_to(offsets[rows, None, None] + idx[:, None], keep.shape)[keep]
    c = np.broadcast_to(offsets[cols, None, None] + idx, keep.shape)[keep]
    M = sp.csc_matrix((_complex(*parts)[keep], (r, c)), shape=(offsets[-1],) * 2)
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
    width = bases[-1].shape[2]
    v = np.zeros((len(sizes), width), dtype=complex)
    v[np.arange(width) < sizes[:, None]] = y
    for T in reversed(bases):
        v = _transposed_products(np.ascontiguousarray(T.swapaxes(1, 2)), v)
    return v.ravel()


def _estimate_sigma_max(A: sp.spmatrix, iterations: int = 8) -> float:
    rng = np.random.default_rng(0)
    v = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    v /= np.linalg.norm(v)
    AH = A.conj().T
    lam = 0.0
    for _ in range(iterations):
        w = AH @ (A @ v)
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


def _dissection_ordering(mesh: Mesh, block_offsets: np.ndarray) -> np.ndarray:
    """Dof permutation that keeps element blocks whole, in the mesh's ND order.

    block_offsets[k] is the first dof of element k (length n_elements + 1).
    """
    order = mesh.dissection_order
    sizes = np.diff(block_offsets)[order]
    starts = np.asarray(block_offsets[:-1])[order]
    first = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return np.repeat(starts - first, sizes) + np.arange(sizes.sum())


def _element_block_ordering(mesh: Mesh, p: int) -> np.ndarray:
    """_dissection_ordering of the full broken space, dim P^p dofs per element."""
    return _dissection_ordering(mesh, dim_poly(p) * np.arange(mesh.n_elements + 1))


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
    precond: np.ndarray | None = None,
    ordering: np.ndarray | None = None,
) -> np.ndarray:
    """Sparse direct solve guarded by a reciprocal condition estimate.

    With precond, the stacked blocks T_k (E, n, n) of a block-diagonal
    basis change over A's n x n element blocks (see mass_preconditioner),
    T^T A T y = T^T b is solved and T y returned.

    Given a fill-reducing dof ordering (from the mesh, see
    _dissection_ordering), the matrix is factored in that order with
    diagonal pivots.  Without one, or when that factorization fails,
    trips the guard or leaves a refined backward error above
    REFINED_BACKWARD_ERROR, SuperLU's COLAMD ordering with partial
    pivoting is used, and only its guard raises SingularSystemError.
    """
    if precond is not None:
        sizes = np.full(len(precond), precond.shape[2])
        A = _block_congruence(A, [precond], sizes)
        b = _basis_transpose_apply([precond], b, sizes)
    A_csc = sp.csc_matrix(A, dtype=complex)
    rhs = np.asarray(b, dtype=complex)
    sigma_max = _estimate_sigma_max(A_csc)
    x = None
    if ordering is not None:
        try:
            y, _, backward = _guarded_lu_solve(
                sp.csc_matrix(A_csc[ordering][:, ordering]),
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
    if x is None:
        try:
            x, sigma_min, _ = _guarded_lu_solve(A_csc, rhs, sigma_max)
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
    if precond is not None:
        x = _basis_apply([precond], x, sizes)
    return x


def solve_reduced_system(
    A: sp.spmatrix,
    b: np.ndarray,
    embedding: GlobalEmbedding,
    u_particular: np.ndarray,
    context: str = "reduced system",
    precond: np.ndarray | None = None,
    mesh: Mesh | None = None,
) -> np.ndarray:
    """Solve E^T A E y = E^T (b - A u_f) and return E y + u_f.

    precond (see embedding_preconditioner) changes the Trefftz basis of
    each element once more, to Q: the matrix factored is Q^T (E^T A E) Q.
    Given the mesh, the reduced system is factored in its nested
    dissection order.
    """
    bases = [embedding.blocks] if precond is None else [embedding.blocks, precond]
    dims = np.diff(embedding.column_offsets)
    A_reduced = _block_congruence(A, bases, dims)
    b_reduced = _basis_transpose_apply(bases, b - A @ u_particular, dims)
    ordering = None
    if mesh is not None:
        ordering = _dissection_ordering(mesh, embedding.column_offsets)
    y = _direct_solve(A_reduced, b_reduced, context, ordering=ordering)
    return _basis_apply(bases, y, dims) + u_particular


def solve_embedded_trefftz(
    mesh: Mesh, params: FormParameters, f: Callable | None, g: Callable
) -> SolutionField:
    """Embedded Trefftz DG solution of the impedance Helmholtz problem.

    For p < 2 the Trefftz space equals the full broken space, so the
    standard solver is used verbatim.
    """
    if params.p < 2:
        field = solve_standard_dg(mesh, params, f, g)
        return SolutionField(field.coefficients, field.degree, mesh, "embedded-trefftz")
    mass_grams = _element_mass_grams(mesh, params.p)
    local = all_local_trefftz(mesh, params.p, params.omega, mass_grams)
    embedding = build_global_embedding(local)
    u_f = particular_field(mesh, local, f)
    A = assemble_sipdg(mesh, params)
    b = assemble_rhs(mesh, params, _zero_source if f is None else f, g)
    precond = embedding_preconditioner(embedding, mass_grams)
    coeffs = solve_reduced_system(
        A,
        b,
        embedding,
        u_f,
        context=f"embedded, p={params.p}, h={mesh.max_diameter:.4g}",
        precond=precond,
        mesh=mesh,
    )
    return SolutionField(coeffs, params.p, mesh, "embedded-trefftz")


def solve_standard_dg(
    mesh: Mesh, params: FormParameters, f: Callable | None, g: Callable
) -> SolutionField:
    """Standard SIPDG solution on the full broken polynomial space."""
    if params.p < 1:
        raise ValueError("standard DG solve needs p >= 1")
    A = assemble_sipdg(mesh, params)
    b = assemble_rhs(mesh, params, _zero_source if f is None else f, g)
    coeffs = _direct_solve(
        A,
        b,
        context=f"standard, p={params.p}, h={mesh.max_diameter:.4g}",
        precond=mass_preconditioner(_element_mass_grams(mesh, params.p)),
        ordering=_element_block_ordering(mesh, params.p),
    )
    return SolutionField(coeffs, params.p, mesh, "standard-dg")


def _zero_source(points: np.ndarray) -> np.ndarray:
    return np.zeros(np.asarray(points).shape[:-1], dtype=complex)


def trefftz_dof_count(mesh: Mesh, p: int, method: str = "embedded") -> int:
    """Global dof count: 2p+1 per element embedded, dim P^p standard."""
    if p < 0:
        raise ValueError("degree must be nonnegative")
    if method == "embedded":
        return mesh.n_elements * min(2 * p + 1, dim_poly(p))
    if method == "standard":
        return mesh.n_elements * dim_poly(p)
    raise ValueError(f"unknown method {method!r}")
