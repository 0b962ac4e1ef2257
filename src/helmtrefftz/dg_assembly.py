"""Symmetric interior penalty DG assembly for the Helmholtz problem.

The sesquilinear form on the broken polynomial space is

    a_h(u, v) = (grad u, grad v)_T - (omega^2 u, v)_T + i (omega u, v)_dOmega
                - ({grad u . n}, [v])_Fi - ([u], {grad v . n})_Fi
                + (alpha p^2 / h_F) ([u], [v])_Fi

with {v} = (v+ + v-)/2 and [v] = v+ - v- across interior faces, and

    l_h(v) = (f, v)_T + (g, v)_dOmega.

Basis functions are real, so the assembled matrix is complex symmetric
(A = A^T, no conjugation); the impedance term supplies the imaginary
part.  The penalty uses the face-local mesh size
h_F = (h_K+ + h_K-)/2 (h_K on boundary faces), which on quasi-uniform
meshes differs from a global-h scaling only by a bounded factor.

Summation order.  The CSV bytes depend on the rounding of every entry
of A, so each Gram keeps the order of the stacked np.einsum it was
first written with: every quadrature point contributes its product
(a_i b_j) w, and the points are added in order starting from zero.
The gradient Gram comes from polyspace._weighted_gram, which adds the
two gradient terms of a point before the point (einsum's order without
its two-wide inner loop).  On interior faces the term
({grad v . n}, [u]) is the transpose of ([v], {grad u . n}) with the
sides swapped, and the penalty Gram of (-, +) is that of (+, -)
transposed; the products commute, so the transposes are exact.  A
matmul would sum in another order and move the round-off floor of the
errors (sinsin, p = 12).

The matrix is built from stacked element-pair blocks, which stay real
(only the impedance blocks are complex), and is returned as a BSR
matrix with one n x n block per element pair, n = dim P^p: the
diagonal and both (plus, minus) pairs of every interior face, block
columns sorted.  Where blocks meet, scipy's COO to CSR conversion adds
them: within each row it std::sorts the entries by column, an unstable
sort whose result depends only on the sequence of column keys in that
row, then adds equal columns left to right.  The order of the sum is
therefore not the COO order; it is fixed by the row's key sequence.
The blocks are written in the order volume, faces (+, +), (+, -),
(-, +), (-, -), impedance, each segment in face order, so a tile of
whole block rows that keeps that relative order within every row
converts to the same bits as the whole matrix would.  Such tiles of at
most _ROW_TILE entries are converted one at a time and copied into the
BSR data, allocated once; no duplicate-sized array outlives a tile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh
from .polyspace import (
    MAX_QUAD_ORDER,
    _monomial_tables,
    _volume_tables,
    _weighted_gram,
    dim_poly,
    edge_quadrature_rule,
    map_rule_to_triangle,
    quadrature_rule,
)

__all__ = [
    "FormParameters",
    "omega_values",
    "interior_face_h",
    "assemble_sipdg",
    "assemble_rhs",
]


@dataclass(frozen=True)
class FormParameters:
    """Wavenumber (constant or spatial function), penalty, and degree."""

    omega: float | Callable
    p: int
    alpha: float = 10.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(
                f"penalty must be finite and positive, got alpha={self.alpha}"
            )
        if self.p < 0:
            raise ValueError(f"degree must be nonnegative, got p={self.p}")
        if not callable(self.omega) and not (
            math.isfinite(self.omega) and self.omega > 0.0
        ):
            raise ValueError(
                f"wavenumber must be finite and positive, got omega={self.omega}"
            )


def _reject_at_points(
    bad: np.ndarray, values: np.ndarray, points: np.ndarray, what: str, axis: str
) -> None:
    """Raise a ValueError at the first point where bad holds.

    The message gives the offending value, the point and the point's index
    along the first axis of points, which is the element or the face in the
    stacked quadrature arrays of the assembly and error routines.
    """
    if not bad.any():
        return
    bad = np.broadcast_to(bad, points.shape[:-1])
    at = np.unravel_index(np.argmax(bad), bad.shape)
    x, y = points[at]
    where = f", index {at[0]} along the first axis ({axis})" if at else ""
    raise ValueError(
        f"{what}, got {np.broadcast_to(values, bad.shape)[at]} "
        f"at point ({x:.6g}, {y:.6g}){where}"
    )


def omega_values(omega: float | Callable, points: np.ndarray) -> np.ndarray:
    """Evaluate a constant or spatially varying wavenumber at points (..., 2).

    The values of a callable must be finite and positive; otherwise a
    ValueError names the first offending point and its element or face.
    """
    if not callable(omega):
        return np.broadcast_to(float(omega), np.asarray(points).shape[:-1])
    points = np.asarray(points)
    values = np.asarray(omega(points))
    _reject_at_points(
        ~(np.isfinite(values) & (values > 0.0)),
        values,
        points,
        "wavenumber omega(x) must be finite and positive",
        "element or face",
    )
    return values


def _source_values(f: Callable, points: np.ndarray) -> np.ndarray:
    """Values of the source f at stacked element points; must be finite."""
    values = np.asarray(f(points))
    _reject_at_points(
        ~np.isfinite(values), values, points, "source f(x) must be finite", "element"
    )
    return values


def interior_face_h(mesh: Mesh) -> np.ndarray:
    """Face-local mesh size (h_K+ + h_K-)/2 for every interior face."""
    fa = mesh.interior_faces
    return 0.5 * (mesh.diameters[fa["plus"]] + mesh.diameters[fa["minus"]])


def _edge_points(v0, v1, nodes):
    """Quadrature points on segments: (F, M, 2) from endpoints (F, 2)."""
    return v0[:, None, :] + nodes[None, :, None] * (v1 - v0)[:, None, :]


def _block_triplets(segments, n: int, n_dofs: int, dtype):
    """COO rows, columns and data of stacked element-pair blocks.

    segments holds (blocks (k, n, n), row elements (k,), column elements
    (k,)); entry (i, j) of block k sits at row row_elems[k] * n + i and
    column col_elems[k] * n + j.  The entries follow the segments and each
    block's C order.  Every array is allocated once; indices are int32
    while n_dofs < 2**31.
    """
    idx_dtype = np.int32 if n_dofs < 2**31 else np.int64
    total = sum(blocks.size for blocks, _, _ in segments)
    rows = np.empty(total, dtype=idx_dtype)
    cols = np.empty(total, dtype=idx_dtype)
    data = np.empty(total, dtype=dtype)
    idx = np.arange(n, dtype=idx_dtype)
    start = 0
    for blocks, row_elems, col_elems in segments:
        stop = start + blocks.size
        off_r = row_elems.astype(idx_dtype) * idx_dtype(n)
        off_c = col_elems.astype(idx_dtype) * idx_dtype(n)
        shape = blocks.shape
        rows[start:stop].reshape(shape)[...] = off_r[:, None, None] + idx[:, None]
        cols[start:stop].reshape(shape)[...] = off_c[:, None, None] + idx
        data[start:stop].reshape(shape)[...] = blocks
        start = stop
    return rows, cols, data


def _volume_blocks(mesh: Mesh, params: FormParameters) -> np.ndarray:
    """(grad u, grad v) - omega^2 (u, v) on every element, exact quadrature."""
    ev, pts, w = _volume_tables(mesh, params.p)
    vol = _weighted_gram((ev.gx, ev.gy), w)
    om2 = omega_values(params.omega, pts) ** 2
    vol -= np.einsum("eqi,eqj,eq->eij", ev.values, ev.values, w * om2)
    return vol


def _interior_face_blocks(mesh: Mesh, params: FormParameters, edge_rule) -> list:
    """Consistency, symmetry and penalty terms of every interior face.

    Returns the (test side, trial side) blocks (+, +), (+, -), (-, +) and
    (-, -) as segments for _block_triplets.
    """
    p = params.p
    fa = mesh.interior_faces
    pts_f = _edge_points(fa["v0"], fa["v1"], edge_rule.nodes)
    wf = edge_rule.weights[None, :] * fa["length"][:, None]
    nx = fa["normal"][:, 0, None, None]
    ny = fa["normal"][:, 1, None, None]
    owner = {"+": fa["plus"], "-": fa["minus"]}
    vals, dn = {}, {}
    for s, el in owner.items():
        evf = _monomial_tables(mesh.incenters[el], mesh.diameters[el], p, pts_f)
        vals[s] = evf.values
        dn[s] = 0.0 + evf.gx * nx + evf.gy * ny  # einsum's order, from +0.0
    # cross[s, t] = (vals_s, dn_t)_F; (dn_t, vals_s)_F is its transpose
    cross = {
        (s, t): np.einsum("fmi,fmj,fm->fij", vals[s], dn[t], wf)
        for s in "+-"
        for t in "+-"
    }
    pen = {
        (s, t): np.einsum("fmi,fmj,fm->fij", vals[s], vals[t], wf)
        for s, t in (("+", "+"), ("+", "-"), ("-", "-"))
    }
    pen["-", "+"] = pen["+", "-"].swapaxes(1, 2)
    sigma = params.alpha * p**2 / interior_face_h(mesh)
    sign = {"+": 1.0, "-": -1.0}
    segments = []
    for sv in "+-":
        for su in "+-":
            blk = -0.5 * sign[sv] * cross[sv, su]
            blk += -0.5 * sign[su] * cross[su, sv].swapaxes(1, 2)
            blk += (sign[su] * sign[sv] * sigma)[:, None, None] * pen[sv, su]
            segments.append((blk, owner[sv], owner[su]))
    return segments


def _impedance_blocks(mesh: Mesh, params: FormParameters, edge_rule) -> np.ndarray:
    """i (omega u, v) on every boundary face, complex."""
    fb = mesh.boundary_faces
    pts_b = _edge_points(fb["v0"], fb["v1"], edge_rule.nodes)
    wb = edge_rule.weights[None, :] * fb["length"][:, None]
    el = fb["element"]
    evb = _monomial_tables(mesh.incenters[el], mesh.diameters[el], params.p, pts_b)
    om = omega_values(params.omega, pts_b)
    return 1j * np.einsum("fmi,fmj,fm->fij", evb.values, evb.values, wb * om)


# Largest COO tile of _sum_block_rows, in duplicate entries
_ROW_TILE = 1 << 16


def _sum_block_rows(segments, n_elements: int, n: int) -> sp.bsr_matrix:
    """Sum stacked element-pair blocks into a BSR matrix, blocksize (n, n).

    segments is as for _block_triplets.  Block rows are converted in
    tiles of at most _ROW_TILE duplicate entries (at least one block row)
    by scipy's COO to CSR conversion; within a tile every row keeps the
    relative order its entries have in the whole COO, so each sum is
    bitwise that of converting the whole COO at once.  Row a of block
    row k holds deg_k runs of n sorted columns, one per block column, so
    the tile's CSR data moves into the BSR data by index arithmetic.
    """
    n_dofs = n_elements * n
    # each segment's blocks by row element, face order kept among equals
    by_row = [np.argsort(row_elems, kind="stable") for _, row_elems, _ in segments]
    sorted_rows = [row_elems[o] for (_, row_elems, _), o in zip(segments, by_row)]
    # the block pattern: the distinct (row, column) element pairs, sorted
    # (a sort and a mask; np.unique hashes integers first, far slower)
    keys = np.sort(
        np.concatenate([r.astype(np.int64) * n_elements + c for _, r, c in segments])
    )
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    block_rows, block_cols = np.divmod(keys, n_elements)
    idx_dtype = np.int32 if n_dofs < 2**31 else np.int64
    indptr = np.zeros(n_elements + 1, dtype=np.int64)
    np.cumsum(np.bincount(block_rows, minlength=n_elements), out=indptr[1:])
    data = np.empty((len(keys), n, n), dtype=complex)
    # duplicate entries up to the end of each block row
    ends = np.cumsum(
        sum(np.bincount(r, minlength=n_elements) for _, r, _ in segments)
    ) * (n * n)
    k0 = 0
    while k0 < n_elements:
        start = ends[k0 - 1] if k0 else 0
        k1 = max(k0 + 1, int(np.searchsorted(ends, start + _ROW_TILE, "right")))
        tile = []
        for (blocks, _, col_elems), order, rows in zip(segments, by_row, sorted_rows):
            lo, hi = np.searchsorted(rows, (k0, k1))
            sel = order[lo:hi]
            tile.append((blocks[sel], rows[lo:hi] - k0, col_elems[sel]))
        r, c, v = _block_triplets(tile, n, n_dofs, complex)
        csr = sp.coo_matrix((v, (r, c)), shape=((k1 - k0) * n, n_dofs)).tocsr()
        # block t of the tile: block row k, j-th block of that row
        b0, b1 = indptr[k0], indptr[k1]
        k = block_rows[b0:b1]
        first, deg = indptr[k] - b0, indptr[k + 1] - indptr[k]
        j = np.arange(b0, b1) - indptr[k]
        at = (first * n * n + j * n)[:, None, None] + (
            (deg * n)[:, None, None] * np.arange(n)[:, None] + np.arange(n)
        )
        data[b0:b1] = csr.data[at]
        k0 = k1
    A = sp.bsr_matrix(
        (data, block_cols.astype(idx_dtype), indptr.astype(idx_dtype)),
        shape=(n_dofs, n_dofs),
    )
    A.has_sorted_indices = True
    return A


def assemble_sipdg(mesh: Mesh, params: FormParameters) -> sp.bsr_matrix:
    """Assemble the SIPDG matrix A with A[i, j] = a_h(phi_j, phi_i).

    A is a BSR matrix with blocksize (n, n), n = dim P^p: one block per
    element and per (plus, minus) pair of every interior face.
    """
    edge_rule = edge_quadrature_rule(min(2 * params.p + 2, MAX_QUAD_ORDER))
    elems = np.arange(mesh.n_elements)
    el_b = mesh.boundary_faces["element"]
    segments = [
        (_volume_blocks(mesh, params), elems, elems),
        *_interior_face_blocks(mesh, params, edge_rule),
        (_impedance_blocks(mesh, params, edge_rule), el_b, el_b),
    ]
    return _sum_block_rows(segments, mesh.n_elements, dim_poly(params.p))


def assemble_rhs(
    mesh: Mesh, params: FormParameters, f: Callable, g: Callable
) -> np.ndarray:
    """Assemble b[i] = (f, phi_i)_T + (g, phi_i)_dOmega with elevated quadrature.

    f maps points (..., 2) to complex values; g maps (points, unit normals)
    to complex values.  A non-finite value of f or g raises a ValueError
    naming the element or boundary face.
    """
    p = params.p
    n = dim_poly(p)
    order = min(2 * p + 6, MAX_QUAD_ORDER)
    b = np.zeros((mesh.n_elements, n), dtype=complex)

    pts, w = map_rule_to_triangle(quadrature_rule(order), mesh.tri_coords)
    vals = _monomial_tables(mesh.incenters, mesh.diameters, p, pts).values
    fv = _source_values(f, pts).astype(complex)
    b += np.einsum("eqi,eq->ei", vals, fv * w)

    edge_rule = edge_quadrature_rule(order)
    fb = mesh.boundary_faces
    pts_b = _edge_points(fb["v0"], fb["v1"], edge_rule.nodes)
    wb = edge_rule.weights[None, :] * fb["length"][:, None]
    el = fb["element"]
    vals_b = _monomial_tables(mesh.incenters[el], mesh.diameters[el], p, pts_b).values
    normals = np.broadcast_to(fb["normal"][:, None, :], pts_b.shape)
    gv = np.asarray(g(pts_b, normals), dtype=complex)
    _reject_at_points(
        ~np.isfinite(gv),
        gv,
        pts_b,
        "boundary data g(x, n) must be finite",
        "boundary face",
    )
    contrib = np.einsum("fmi,fm->fi", vals_b, gv * wb)
    np.add.at(b, el, contrib)

    return b.ravel()
