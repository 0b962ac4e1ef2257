"""Two-step embedded Trefftz solve and the standard DG baseline.

The embedded method never builds Trefftz shape functions explicitly.
Per element it computes a particular solution of the local constraint
via the pseudo-inverse, stacks the orthonormal constraint kernels into a
block-diagonal embedding E, reduces the global SIPDG system to
E^T A E y = E^T (b - A u_f), and reconstructs u = E y + u_f.  The
reduced matrix inherits complex symmetry from A because E is real.

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
    _pseudo_inverse_solve,
    all_local_rhs,
    all_local_trefftz,
)
from .mesh import Mesh
from .polyspace import (
    MAX_QUAD_ORDER,
    _monomial_tables,
    dim_poly,
    map_rule_to_triangle,
    quadrature_rule,
)

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

    matrix is real with orthonormal columns; column_offsets[k] is the
    first Trefftz column of element k (length n_elements + 1).
    """

    matrix: sp.csr_matrix
    column_offsets: np.ndarray

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]

    def element_columns(self, element: int) -> slice:
        return slice(self.column_offsets[element], self.column_offsets[element + 1])


@dataclass
class SolutionField:
    """Complex coefficients over the broken degree-p space."""

    coefficients: np.ndarray
    degree: int
    mesh: Mesh
    method: str  # "embedded-trefftz" | "standard-dg"

    def element_coefficients(self, element: int) -> np.ndarray:
        n = dim_poly(self.degree)
        return self.coefficients[element * n : (element + 1) * n]


def build_global_embedding(local_data: list[LocalTrefftzData]) -> GlobalEmbedding:
    """Stack per-element kernel bases into the sparse embedding matrix."""
    if not local_data:
        raise ValueError("no local data supplied")
    n = dim_poly(local_data[0].degree)
    kernel_dims = np.array([d.kernel_dim for d in local_data])
    col_offsets = np.concatenate([[0], np.cumsum(kernel_dims)])
    rows, cols, vals = [], [], []
    for k, d in enumerate(local_data):
        r = k * n + np.arange(n)
        c = col_offsets[k] + np.arange(d.kernel_dim)
        rows.append(np.repeat(r, d.kernel_dim))
        cols.append(np.tile(c, n))
        vals.append(d.kernel.ravel())
    E = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(local_data) * n, int(col_offsets[-1])),
    )
    return GlobalEmbedding(E.tocsr(), col_offsets)


def particular_field(
    mesh: Mesh,
    local_data: list[LocalTrefftzData],
    f: Callable | None,
    order: int | None = None,
) -> np.ndarray:
    """Stack the per-element minimum-norm particular solutions.

    Elements whose moments lie outside the range of their constraint are
    reported together in one warning naming the worst residual.
    """
    p = local_data[0].degree
    n = dim_poly(p)
    u_f = np.zeros(mesh.n_elements * n, dtype=complex)
    if f is None:
        return u_f
    incompatible = []
    for data, rhs in zip(local_data, all_local_rhs(mesh, p, f, order=order)):
        if np.any(rhs.moments):
            coeffs, resid, bad = _pseudo_inverse_solve(data, rhs)
            u_f[data.element * n : (data.element + 1) * n] = coeffs
            if bad:
                incompatible.append((resid, data.element))
    if incompatible:
        worst, element = max(incompatible)
        warnings.warn(
            f"constraint residual {worst:.3e} on element {element}, the worst of "
            f"{len(incompatible)} elements: moments not in the range of the "
            "constraint matrix",
            RuntimeWarning,
            stacklevel=2,
        )
    return u_f


def _element_mass_grams(mesh: Mesh, p: int) -> np.ndarray:
    """L2 Gram matrices of the degree-p basis on every element, (E, n, n)."""
    order = min(2 * p + 2, MAX_QUAD_ORDER)
    pts, w = map_rule_to_triangle(quadrature_rule(max(order, 1)), mesh.tri_coords)
    vals = _monomial_tables(mesh.incenters, mesh.diameters, p, pts).values
    return np.einsum("eqi,eqj,eq->eij", vals, vals, w)


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


def _block_diag(blocks: list[np.ndarray] | np.ndarray) -> sp.csr_matrix:
    rows, cols, vals = [], [], []
    row0 = col0 = 0
    for blk in blocks:
        r, c = blk.shape
        rr, cc = np.meshgrid(np.arange(r), np.arange(c), indexing="ij")
        rows.append((row0 + rr).ravel())
        cols.append((col0 + cc).ravel())
        vals.append(blk.ravel())
        row0 += r
        col0 += c
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(row0, col0),
    ).tocsr()


def mass_preconditioner(mesh: Mesh, p: int) -> sp.csr_matrix:
    """Block-diagonal basis change making each element basis L2-orthonormal.

    Scaled monomials are increasingly ill-conditioned with p; solving in
    the orthonormalized coordinates keeps the factorization accuracy and
    the reciprocal-condition diagnostic tied to the operator rather than
    to the basis.  Solutions are mapped back to monomial coefficients.
    """
    return _block_diag(_whitener(_element_mass_grams(mesh, p)))


def embedding_preconditioner(
    embedding: GlobalEmbedding, mass_grams: np.ndarray
) -> sp.csr_matrix:
    """Orthonormalizer of the Trefftz basis in the element L2 inner products."""
    blocks = []
    E = embedding.matrix
    n = mass_grams.shape[1]
    for k in range(len(mass_grams)):
        cols = embedding.element_columns(k)
        ek = E[k * n : (k + 1) * n, cols].toarray()
        blocks.append(_whitener(ek.T @ mass_grams[k] @ ek))
    return _block_diag(blocks)


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
    precond: sp.spmatrix | None = None,
    ordering: np.ndarray | None = None,
) -> np.ndarray:
    """Sparse direct solve guarded by a reciprocal condition estimate.

    Given a fill-reducing dof ordering (from the mesh, see
    _dissection_ordering), the matrix is factored in that order with
    diagonal pivots.  Without one, or when that factorization fails,
    trips the guard or leaves a refined backward error above
    REFINED_BACKWARD_ERROR, SuperLU's COLAMD ordering with partial
    pivoting is used, and only its guard raises SingularSystemError.
    """
    if precond is not None:
        A = precond.T @ (A @ precond)
        b = precond.T @ b
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
        x = precond @ x
    return x


def solve_reduced_system(
    A: sp.spmatrix,
    b: np.ndarray,
    embedding: GlobalEmbedding,
    u_particular: np.ndarray,
    context: str = "reduced system",
    precond: sp.spmatrix | None = None,
    mesh: Mesh | None = None,
) -> np.ndarray:
    """Solve E^T A E y = E^T (b - A u_f) and return E y + u_f.

    Given the mesh, the reduced system is factored in its nested
    dissection order.
    """
    E = embedding.matrix
    A_reduced = E.T @ (A @ E)
    b_reduced = E.T @ (b - A @ u_particular)
    ordering = None
    if mesh is not None:
        ordering = _dissection_ordering(mesh, embedding.column_offsets)
    y = _direct_solve(
        A_reduced, b_reduced, context, precond=precond, ordering=ordering
    )
    return E @ y + u_particular


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
    local = all_local_trefftz(mesh, params.p, params.omega)
    embedding = build_global_embedding(local)
    u_f = particular_field(mesh, local, f)
    A = assemble_sipdg(mesh, params)
    b = assemble_rhs(mesh, params, _zero_source if f is None else f, g)
    precond = embedding_preconditioner(embedding, _element_mass_grams(mesh, params.p))
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
        precond=mass_preconditioner(mesh, params.p),
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
