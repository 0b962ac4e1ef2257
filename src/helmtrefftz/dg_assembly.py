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
sides swapped, and the penalty Gram of (minus, plus) is that of
(plus, minus) transposed; the products commute, so the transposes are
exact.  A matmul would sum in another order and move the round-off
floor of the errors (sinsin, p = 12).  Every face term reads its
points, weights and element frames from polyspace._face_tables.

The matrix is built from stacked element-pair blocks, which stay real
(only the impedance blocks are complex), and is returned as a BSR
matrix with one n x n block per element pair, n = dim P^p: the
diagonal and both (plus, minus) pairs of every interior face, block
columns sorted.  Where blocks meet, scipy's COO to CSR conversion adds
them: within each row it std::sorts the entries by column, an unstable
sort whose result depends only on the sequence of column keys in that
row, then adds equal columns left to right.  The order of the sum is
therefore not the COO order; it is fixed by the row's key sequence.
The blocks are written in the order volume, faces (plus, plus),
(plus, minus), (minus, plus), (minus, minus), impedance, each segment
in face order, so a tile of whole block rows that keeps that relative
order within every row converts to the same bits as the whole matrix
would.  Such tiles of at most _ROW_TILE entries are converted one at a
time and copied into the BSR data, allocated once; no duplicate-sized
array outlives a tile.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh
from .polyspace import (
    _data_order,
    _face_tables,
    _gram_order,
    _volume_tables,
    _weighted_gram,
    dim_poly,
)

__all__ = [
    "FormParameters",
    "omega_values",
    "interior_face_h",
    "assemble_sipdg",
    "assemble_rhs",
]


def _is_integer(value) -> bool:
    """An int or numpy integer; bool is refused."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_positive_real(name: str, value) -> None:
    """Refuse, naming the field, a value that is not a finite positive real
    number; a bool, a complex number or a string is refused."""
    if not (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0.0
    ):
        raise ValueError(f"{name} must be a finite positive real number, got {value!r}")


@dataclass(frozen=True)
class FormParameters:
    """Wavenumber (constant or spatial function), penalty, and degree.

    p must be an integer (a numpy integer is kept as an int; bool is
    refused); alpha and a constant omega must be finite positive reals.
    """

    omega: float | Callable
    p: int
    alpha: float = 10.0

    def __post_init__(self):
        _check_positive_real("alpha", self.alpha)
        if not (_is_integer(self.p) and self.p >= 0):
            raise ValueError(f"degree must be an integer >= 0, got p={self.p!r}")
        object.__setattr__(self, "p", int(self.p))
        if not callable(self.omega):
            _check_positive_real("omega", self.omega)


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
    ev, pts, w = _volume_tables(mesh, params.p, _gram_order(params.p))
    vol = _weighted_gram((ev.gx, ev.gy), w)
    om2 = omega_values(params.omega, pts) ** 2
    vol -= np.einsum("eqi,eqj,eq->eij", ev.values, ev.values, w * om2)
    return vol


# the sides of an interior face, as the mesh names them, and the sign of
# each side's trace in the jump [v] = v+ - v-
_SIGN = {"plus": 1.0, "minus": -1.0}


def _interior_face_blocks(mesh: Mesh, params: FormParameters) -> list:
    """Consistency, symmetry and penalty terms of every interior face.

    Returns the (test side, trial side) blocks (plus, plus), (plus, minus),
    (minus, plus) and (minus, minus) as segments for _block_triplets.
    """
    p = params.p
    fa = mesh.interior_faces
    nx = fa["normal"][:, 0, None, None]
    ny = fa["normal"][:, 1, None, None]
    vals, dn = {}, {}
    for s in _SIGN:
        evf, _, wf = _face_tables(mesh, s, p, _gram_order(p))
        vals[s] = evf.values
        dn[s] = 0.0 + evf.gx * nx + evf.gy * ny  # einsum's order, from +0.0
    # cross[s, t] = (vals_s, dn_t)_F; (dn_t, vals_s)_F is its transpose
    cross = {
        (s, t): np.einsum("fmi,fmj,fm->fij", vals[s], dn[t], wf)
        for s in _SIGN
        for t in _SIGN
    }
    pen = {
        (s, t): np.einsum("fmi,fmj,fm->fij", vals[s], vals[t], wf)
        for s, t in (("plus", "plus"), ("plus", "minus"), ("minus", "minus"))
    }
    pen["minus", "plus"] = pen["plus", "minus"].swapaxes(1, 2)
    sigma = params.alpha * p**2 / interior_face_h(mesh)
    segments = []
    for sv in _SIGN:
        for su in _SIGN:
            blk = -0.5 * _SIGN[sv] * cross[sv, su]
            blk += -0.5 * _SIGN[su] * cross[su, sv].swapaxes(1, 2)
            blk += (_SIGN[su] * _SIGN[sv] * sigma)[:, None, None] * pen[sv, su]
            segments.append((blk, fa[sv], fa[su]))
    return segments


def _impedance_blocks(mesh: Mesh, params: FormParameters) -> np.ndarray:
    """i (omega u, v) on every boundary face, complex."""
    evb, pts_b, wb = _face_tables(mesh, "element", params.p, _gram_order(params.p))
    om = omega_values(params.omega, pts_b)
    return 1j * np.einsum("fmi,fmj,fm->fij", evb.values, evb.values, wb * om)


# Largest COO tile of _sum_block_rows, in duplicate entries
_ROW_TILE = 1 << 16


def _sum_block_rows(segments, n_elements: int, n: int) -> sp.bsr_matrix:
    """Sum stacked element-pair blocks into a BSR matrix, blocksize (n, n).

    segments is as for _block_triplets; the matrix takes the blocks'
    dtype.  Block rows are converted in tiles of at most _ROW_TILE
    duplicate entries (at least one block row) by scipy's COO to CSR
    conversion; within a tile every row keeps the relative order its
    entries have in the whole COO, so each sum is bitwise that of
    converting the whole COO at once.  The tile's CSR then moves into the
    BSR data by scipy's own CSR to BSR conversion, which adds each entry
    to a zeroed block: a copy, except that a -0.0 would turn into +0.0.
    """
    n_dofs = n_elements * n
    dtype = np.result_type(*(blocks for blocks, _, _ in segments))
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
    data = np.empty((len(keys), n, n), dtype=dtype)
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
        r, c, v = _block_triplets(tile, n, n_dofs, dtype)
        csr = sp.coo_matrix((v, (r, c)), shape=((k1 - k0) * n, n_dofs)).tocsr()
        data[indptr[k0] : indptr[k1]] = csr.tobsr(blocksize=(n, n)).data
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
    element and per (plus, minus) pair of every interior face.  Its
    tables are at the Gram rule and come from the open scope of that
    rule, if there is one (polyspace, "Shared tables").
    """
    elems = np.arange(mesh.n_elements)
    el_b = mesh.boundary_faces["element"]
    segments = [
        (_volume_blocks(mesh, params), elems, elems),
        *_interior_face_blocks(mesh, params),
        (_impedance_blocks(mesh, params), el_b, el_b),
    ]
    return _sum_block_rows(segments, mesh.n_elements, dim_poly(params.p))


def assemble_rhs(
    mesh: Mesh, params: FormParameters, f: Callable | None, g: Callable
) -> np.ndarray:
    """Assemble b[i] = (f, phi_i)_T + (g, phi_i)_dOmega with elevated quadrature.

    f maps points (..., 2) to complex values, or is None for a zero
    source, whose volume term is then neither built nor evaluated (a zero
    source would add only +0.0 to b); g maps (points, unit normals) to
    complex values.  A non-finite value of f or g raises a ValueError
    naming the element or boundary face.
    """
    p = params.p
    order = _data_order(p)
    b = np.zeros((mesh.n_elements, dim_poly(p)), dtype=complex)

    if f is not None:
        ev, pts, w = _volume_tables(mesh, p, order)
        vals = ev.values
        del ev  # frees unshared power tables before f is evaluated
        fv = _source_values(f, pts).astype(complex)
        b += np.einsum("eqi,eq->ei", vals, fv * w)

    fb = mesh.boundary_faces
    evb, pts_b, wb = _face_tables(mesh, "element", p, order)
    normals = np.broadcast_to(fb["normal"][:, None, :], pts_b.shape)
    gv = np.asarray(g(pts_b, normals), dtype=complex)
    _reject_at_points(
        ~np.isfinite(gv),
        gv,
        pts_b,
        "boundary data g(x, n) must be finite",
        "boundary face",
    )
    contrib = np.einsum("fmi,fm->fi", evb.values, gv * wb)
    np.add.at(b, fb["element"], contrib)

    return b.ravel()
