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

The matrix is built from stacked element-pair blocks.  They stay real
(only the impedance blocks are complex) until one pass writes them,
in a fixed order, into COO arrays allocated once; scipy then sums the
duplicates in that order, and every table and block is freed first.
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


def assemble_sipdg(mesh: Mesh, params: FormParameters) -> sp.csr_matrix:
    """Assemble the SIPDG matrix A with A[i, j] = a_h(phi_j, phi_i)."""
    n = dim_poly(params.p)
    n_dofs = mesh.n_elements * n
    edge_rule = edge_quadrature_rule(min(2 * params.p + 2, MAX_QUAD_ORDER))
    elems = np.arange(mesh.n_elements)
    el_b = mesh.boundary_faces["element"]
    segments = [
        (_volume_blocks(mesh, params), elems, elems),
        *_interior_face_blocks(mesh, params, edge_rule),
        (_impedance_blocks(mesh, params, edge_rule), el_b, el_b),
    ]
    rows, cols, data = _block_triplets(segments, n, n_dofs, complex)
    del segments  # the real blocks, before scipy's CSR copy
    return sp.coo_matrix((data, (rows, cols)), shape=(n_dofs, n_dofs)).tocsr()


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
