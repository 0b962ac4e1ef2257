"""Shared fixtures-in-spirit: projections and manufactured polynomial data."""

import numpy as np
import scipy.sparse as sp
import sympy

from helmtrefftz import local_trefftz
from helmtrefftz.polyspace import (
    _monomial_tables,
    map_rule_to_triangle,
    quadrature_rule,
)


def zero_f(pts):
    return np.zeros(pts.shape[:-1], dtype=complex)


def zero_g(pts, normals):
    return np.zeros(pts.shape[:-1], dtype=complex)


def zero_constraints(monkeypatch, elements=None):
    """Make the constraint matrices of some elements (default: all) zero.

    A zero constraint has rank 0, so its kernel is the whole element space
    and any nonzero moment lies outside its range.
    """
    original = local_trefftz.constraint_matrices

    def zeroed(*args, **kwargs):
        W = original(*args, **kwargs)
        W[slice(None) if elements is None else elements] = 0.0
        return W

    monkeypatch.setattr(local_trefftz, "constraint_matrices", zeroed)


def block_diag_matrix(blocks, n_rows, n_cols):
    """Sparse (CSR) block-diagonal matrix of blocks[k, :n_rows[k], :n_cols[k]]."""
    r = np.arange(blocks.shape[1])[:, None]
    c = np.arange(blocks.shape[2])[None, :]
    keep = (r < n_rows[:, None, None]) & (c < n_cols[:, None, None])
    row0 = np.cumsum(n_rows) - n_rows
    col0 = np.cumsum(n_cols) - n_cols
    rows = np.broadcast_to(row0[:, None, None] + r, blocks.shape)[keep]
    cols = np.broadcast_to(col0[:, None, None] + c, blocks.shape)[keep]
    return sp.coo_matrix(
        (blocks[keep], (rows, cols)), shape=(n_rows.sum(), n_cols.sum())
    ).tocsr()


def embedding_matrix(embedding):
    """The embedding E as a sparse matrix, dim P^p rows per element."""
    dims = np.diff(embedding.column_offsets)
    rows = np.full(len(dims), embedding.blocks.shape[1])
    return block_diag_matrix(embedding.blocks, rows, dims)


def residual(A, b, u):
    """Normalized linear-system residual ||A u - b|| / (1 + ||b||)."""
    return float(np.linalg.norm(A @ u - b) / (1.0 + np.linalg.norm(b)))


def project(mesh, p, func):
    """Per-element L2 projection onto the broken degree-p space."""
    pts, w = map_rule_to_triangle(quadrature_rule(min(2 * p + 2, 30)), mesh.tri_coords)
    ev = _monomial_tables(mesh.incenters, mesh.diameters, p, pts)
    gram = np.einsum("eqi,eqj,eq->eij", ev.values, ev.values, w)
    rhs = np.einsum("eqi,eq->ei", ev.values, func(pts) * w)
    return np.linalg.solve(gram, rhs[..., None])[..., 0].ravel().astype(complex)


def polynomial_problem(p, omega):
    """Continuous polynomial solution with matching source and impedance data."""
    x, y = sympy.symbols("x y")
    u = (x + 2 * y) ** p + x * y
    f = -sympy.diff(u, x, 2) - sympy.diff(u, y, 2) - omega**2 * u
    lam = lambda e: sympy.lambdify((x, y), e, "numpy")
    uf, ff = lam(u), lam(f)
    gxf, gyf = lam(sympy.diff(u, x)), lam(sympy.diff(u, y))

    def u_cb(pts):
        return np.asarray(uf(pts[..., 0], pts[..., 1]), dtype=complex) * np.ones(
            pts.shape[:-1]
        )

    def f_cb(pts):
        return np.asarray(ff(pts[..., 0], pts[..., 1]), dtype=complex) * np.ones(
            pts.shape[:-1]
        )

    def g_cb(pts, normals):
        grad = np.stack(
            [
                gxf(pts[..., 0], pts[..., 1]) * np.ones(pts.shape[:-1]),
                gyf(pts[..., 0], pts[..., 1]) * np.ones(pts.shape[:-1]),
            ],
            axis=-1,
        )
        return np.einsum("...d,...d->...", grad, normals) + 1j * omega * u_cb(pts)

    return u_cb, f_cb, g_cb
