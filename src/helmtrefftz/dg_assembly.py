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


def _scatter_blocks(blocks, row_elems, col_elems, block_size, rows, cols, data):
    idx = np.arange(block_size)
    off_r = row_elems * block_size
    off_c = col_elems * block_size
    r = off_r[:, None, None] + idx[None, :, None]
    c = off_c[:, None, None] + idx[None, None, :]
    rows.append(np.broadcast_to(r, blocks.shape).ravel())
    cols.append(np.broadcast_to(c, blocks.shape).ravel())
    data.append(blocks.ravel())


def assemble_sipdg(mesh: Mesh, params: FormParameters) -> sp.csr_matrix:
    """Assemble the SIPDG matrix A with A[i, j] = a_h(phi_j, phi_i)."""
    p = params.p
    n = dim_poly(p)
    order = min(2 * p + 2, MAX_QUAD_ORDER)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    data: list[np.ndarray] = []

    # volume: (grad u, grad v) - omega^2 (u, v), exact quadrature
    pts, w = map_rule_to_triangle(quadrature_rule(order), mesh.tri_coords)
    ev = _monomial_tables(mesh.incenters, mesh.diameters, p, pts)
    om2 = omega_values(params.omega, pts) ** 2
    vol = np.einsum("eqid,eqjd,eq->eij", ev.gradients, ev.gradients, w)
    vol -= np.einsum("eqi,eqj,eq->eij", ev.values, ev.values, w * om2)
    elems = np.arange(mesh.n_elements)
    _scatter_blocks(vol.astype(complex), elems, elems, n, rows, cols, data)

    edge_rule = edge_quadrature_rule(order)

    fa = mesh.interior_faces
    pts_f = _edge_points(fa["v0"], fa["v1"], edge_rule.nodes)
    wf = edge_rule.weights[None, :] * fa["length"][:, None]
    sides = {}
    for tag, el in (("+", fa["plus"]), ("-", fa["minus"])):
        evf = _monomial_tables(mesh.incenters[el], mesh.diameters[el], p, pts_f)
        dn = np.einsum("fmnd,fd->fmn", evf.gradients, fa["normal"])
        sides[tag] = (evf.values, dn)
    sigma = params.alpha * p**2 / interior_face_h(mesh)
    sign = {"+": 1.0, "-": -1.0}
    for sv in "+-":
        vals_v, dn_v = sides[sv]
        for su in "+-":
            vals_u, dn_u = sides[su]
            blk = -0.5 * sign[sv] * np.einsum("fmi,fmj,fm->fij", vals_v, dn_u, wf)
            blk += -0.5 * sign[su] * np.einsum("fmi,fmj,fm->fij", dn_v, vals_u, wf)
            pen = np.einsum("fmi,fmj,fm->fij", vals_v, vals_u, wf)
            blk += (sign[su] * sign[sv] * sigma)[:, None, None] * pen
            _scatter_blocks(
                blk.astype(complex),
                fa["plus"] if sv == "+" else fa["minus"],
                fa["plus"] if su == "+" else fa["minus"],
                n,
                rows,
                cols,
                data,
            )

    # boundary: impedance term i (omega u, v)
    fb = mesh.boundary_faces
    pts_b = _edge_points(fb["v0"], fb["v1"], edge_rule.nodes)
    wb = edge_rule.weights[None, :] * fb["length"][:, None]
    el = fb["element"]
    evb = _monomial_tables(mesh.incenters[el], mesh.diameters[el], p, pts_b)
    om = omega_values(params.omega, pts_b)
    blk = 1j * np.einsum("fmi,fmj,fm->fij", evb.values, evb.values, wb * om)
    _scatter_blocks(blk, el, el, n, rows, cols, data)

    A = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.n_elements * n, mesh.n_elements * n),
    )
    return A.tocsr()


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
