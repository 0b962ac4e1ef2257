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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .local_trefftz import omega_values
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
    "DofMap",
    "FormParameters",
    "GlobalSystem",
    "average_jump",
    "interior_face_h",
    "assemble_sipdg",
    "assemble_rhs",
    "assemble_system",
    "residual",
]


@dataclass(frozen=True)
class DofMap:
    """Contiguous per-element blocks into the global coefficient vector."""

    n_elements: int
    block_size: int

    @property
    def total(self) -> int:
        return self.n_elements * self.block_size

    def offset(self, element: int) -> int:
        return element * self.block_size

    def element_slice(self, element: int) -> slice:
        off = self.offset(element)
        return slice(off, off + self.block_size)

    @property
    def offsets(self) -> np.ndarray:
        return np.arange(self.n_elements) * self.block_size


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


@dataclass
class GlobalSystem:
    """Assembled sparse complex-symmetric matrix and right-hand side."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    dofmap: DofMap = field(repr=False)


def average_jump(face, trace_plus, trace_minus):
    """Average and jump of traces across a face: ((v+ + v-)/2, v+ - v-)."""
    trace_plus = np.asarray(trace_plus)
    trace_minus = np.asarray(trace_minus)
    return 0.5 * (trace_plus + trace_minus), trace_plus - trace_minus


def interior_face_h(mesh: Mesh) -> np.ndarray:
    """Face-local mesh size (h_K+ + h_K-)/2 for every interior face."""
    fa = mesh.iface_arrays
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
    dofmap = DofMap(mesh.n_elements, n)
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

    if mesh.interior_faces:
        fa = mesh.iface_arrays
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
    if mesh.boundary_faces:
        fb = mesh.bface_arrays
        pts_b = _edge_points(fb["v0"], fb["v1"], edge_rule.nodes)
        wb = edge_rule.weights[None, :] * fb["length"][:, None]
        el = fb["element"]
        evb = _monomial_tables(mesh.incenters[el], mesh.diameters[el], p, pts_b)
        om = omega_values(params.omega, pts_b)
        blk = 1j * np.einsum("fmi,fmj,fm->fij", evb.values, evb.values, wb * om)
        _scatter_blocks(blk, el, el, n, rows, cols, data)

    A = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dofmap.total, dofmap.total),
    )
    return A.tocsr()


def assemble_rhs(
    mesh: Mesh, params: FormParameters, f: Callable, g: Callable
) -> np.ndarray:
    """Assemble b[i] = (f, phi_i)_T + (g, phi_i)_dOmega with elevated quadrature.

    f maps points (..., 2) to complex values; g maps (points, unit normals)
    to complex values.
    """
    p = params.p
    n = dim_poly(p)
    order = min(2 * p + 6, MAX_QUAD_ORDER)
    b = np.zeros((mesh.n_elements, n), dtype=complex)

    pts, w = map_rule_to_triangle(quadrature_rule(order), mesh.tri_coords)
    vals = _monomial_tables(mesh.incenters, mesh.diameters, p, pts).values
    fv = np.asarray(f(pts), dtype=complex)
    b += np.einsum("eqi,eq->ei", vals, fv * w)

    if mesh.boundary_faces:
        edge_rule = edge_quadrature_rule(order)
        fb = mesh.bface_arrays
        pts_b = _edge_points(fb["v0"], fb["v1"], edge_rule.nodes)
        wb = edge_rule.weights[None, :] * fb["length"][:, None]
        el = fb["element"]
        vals_b = _monomial_tables(mesh.incenters[el], mesh.diameters[el], p, pts_b).values
        normals = np.broadcast_to(fb["normal"][:, None, :], pts_b.shape)
        gv = np.asarray(g(pts_b, normals), dtype=complex)
        contrib = np.einsum("fmi,fm->fi", vals_b, gv * wb)
        np.add.at(b, el, contrib)

    return b.ravel()


def assemble_system(
    mesh: Mesh, params: FormParameters, f: Callable, g: Callable
) -> GlobalSystem:
    """Assemble matrix and right-hand side together."""
    A = assemble_sipdg(mesh, params)
    b = assemble_rhs(mesh, params, f, g)
    return GlobalSystem(A, b, DofMap(mesh.n_elements, dim_poly(params.p)))


def residual(A: sp.spmatrix, b: np.ndarray, u: np.ndarray) -> float:
    """Normalized linear-system residual ||A u - b|| / (1 + ||b||)."""
    return float(np.linalg.norm(A @ u - b) / (1.0 + np.linalg.norm(b)))
