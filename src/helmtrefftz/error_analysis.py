"""Error norms, convergence rates, and numerical constant diagnostics.

The DG energy norm of a broken function e is

    |||e|||^2 = ||grad e||_T^2 + omega^2 ||e||_T^2
                + sum_Fi (p^2/h_F) ||[e]||_F^2 + sum_Fb omega ||e||_F^2,

with the same face-local h_F convention as the assembled form and no
penalty factor alpha in the jump term.  The sharpened norm adds
sum_K p^-2 h_K ||grad e . n||_{dK}^2.  Exact solutions are continuous,
so jump terms involve the discrete field only.

The three constant estimators are dense generalized eigenvalue
diagnostics on single elements or small meshes; they are not meant for
production-size inputs.  They take their element Grams from the batched
builders of polyspace, on a one-element index array or on all elements.
The Grams of the broken norms are summed sparse by the assembly's own
block sum; only the eigensolve makes them dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .dg_assembly import _SIGN, _sum_block_rows, interior_face_h, omega_values
from .exact_solutions import ManufacturedCase
from .local_trefftz import constraint_matrices
from .mesh import Mesh
from .polyspace import (
    _data_order,
    _element_boundary_grams,
    _element_mass_grams,
    _element_stiffness_grams,
    _face_tables,
    _gram_order,
    _volume_tables,
    bubble_basis,
    dim_poly,
)
from .solve_pipeline import SolutionField, _complex

__all__ = [
    "ErrorReport",
    "l2_error",
    "dg_error",
    "eoc",
    "dofs_per_wavelength",
    "estimate_local_coercivity",
    "estimate_norm_equivalence",
    "estimate_inverse_trace",
]

MAX_DENSE_ELEMENTS = 32


@dataclass(frozen=True)
class ErrorReport:
    """One experiment row, mirroring the CSV columns."""

    method: str  # "etvol" | "dgvol"
    p: int
    h: float
    hnr: int
    dofs: int
    l2error: float
    dgerror: float
    omega: float | str
    dofspwl: float


def _contract(tables: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_i tables[e, q, i] coeffs[e, i] for real tables (E, Q, n) and
    complex coefficients (E, n), in real arithmetic.

    Each part of coeffs is contracted apart, without a complex copy of
    the tables.  The parts are strided views, so einsum adds the terms
    of every entry in index order, as its complex loop does: the result
    is bitwise np.einsum("eqi,ei->eq", tables, coeffs).
    """
    return _complex(
        np.einsum("eqi,ei->eq", tables, coeffs.real),
        np.einsum("eqi,ei->eq", tables, coeffs.imag),
    )


def _field_volume_data(field: SolutionField):
    """Points, weights, tables, values and coefficients of the field at the
    data rule of its degree."""
    mesh = field.mesh
    p = field.degree
    ev, pts, w = _volume_tables(mesh, p, _data_order(p))
    coeffs = field.coefficients.reshape(mesh.n_elements, dim_poly(p))
    return pts, w, ev, _contract(ev.values, coeffs), coeffs


def l2_error(field: SolutionField, case: ManufacturedCase) -> float:
    """Broken L2 distance between the discrete field and the exact solution."""
    pts, w, _, uh, _ = _field_volume_data(field)
    diff = uh - case.u(pts)
    return float(np.sqrt(np.einsum("eq,eq->", np.abs(diff) ** 2, w)))


def dg_error(field: SolutionField, case: ManufacturedCase) -> float:
    """DG energy norm of the error against a continuous exact solution.

    The jump term carries p^2/h_F without the penalty factor alpha.
    """
    mesh = field.mesh
    p = field.degree
    pts, w, ev, uh, coeffs = _field_volume_data(field)
    grad_uh = np.stack([_contract(ev.gx, coeffs), _contract(ev.gy, coeffs)], axis=-1)

    om2 = omega_values(case.omega, pts) ** 2
    diff = uh - case.u(pts)
    grad_diff = grad_uh - case.grad_u(pts)
    total = np.einsum("eqd,eq->", np.abs(grad_diff) ** 2, w)
    total += np.einsum("eq,eq->", om2 * np.abs(diff) ** 2, w)

    fa = mesh.interior_faces
    jump = 0.0
    for sign, side in ((1.0, "plus"), (-1.0, "minus")):
        tables, _, wf = _face_tables(mesh, side, p, _data_order(p))
        jump += sign * _contract(tables.values, coeffs[fa[side]])
    weight = p**2 / interior_face_h(mesh)
    total += np.einsum("f,fm,fm->", weight, np.abs(jump) ** 2, wf)

    tables, pts_b, wb = _face_tables(mesh, "element", p, _data_order(p))
    el = mesh.boundary_faces["element"]
    diff_b = _contract(tables.values, coeffs[el]) - case.u(pts_b)
    om_b = omega_values(case.omega, pts_b)
    total += np.einsum("fm,fm->", om_b * np.abs(diff_b) ** 2, wb)

    return float(np.sqrt(total))


def eoc(errors, hs) -> list[float]:
    """Empirical orders log(e_{i-1}/e_i) / log(h_{i-1}/h_i)."""
    errors = [float(e) for e in errors]
    hs = [float(h) for h in hs]
    if len(errors) != len(hs) or len(errors) < 2:
        raise ValueError("need matching sequences of length >= 2")
    if any(e <= 0.0 for e in errors) or any(h <= 0.0 for h in hs):
        raise ValueError("errors and mesh sizes must be positive")
    if any(h1 <= h2 for h1, h2 in zip(hs[:-1], hs[1:], strict=True)):
        raise ValueError("mesh sizes must decrease strictly")
    return [
        np.log(e0 / e1) / np.log(h0 / h1)
        for (e0, e1, h0, h1) in zip(errors[:-1], errors[1:], hs[:-1], hs[1:])
    ]


def dofs_per_wavelength(dofs: float, omega: float, domain_area: float) -> float:
    """Resolution measure 2 pi dofs^(1/2) / (omega |Omega|^(1/2)) in 2D."""
    if dofs <= 0 or omega <= 0 or domain_area <= 0:
        raise ValueError("all inputs must be positive")
    return float(2.0 * np.pi * dofs**0.5 / (omega * domain_area**0.5))


# ---------------------------------------------------------------------------
# constant diagnostics (dense generalized eigenproblems)
# ---------------------------------------------------------------------------


def _one_element(mesh: Mesh, element: int) -> np.ndarray:
    """Index array of one element, for the batched Gram builders."""
    if not 0 <= element < mesh.n_elements:
        raise IndexError(f"element {element} out of range")
    return np.array([element])


def _pencil_eigenvalues(a: np.ndarray, b: np.ndarray, where: str) -> np.ndarray:
    """Ascending eigenvalues of a x = lam b x, both Grams symmetrized.

    A b that is not positive definite raises a LinAlgError naming where
    it was built: the element or the mesh.
    """
    try:
        return scipy.linalg.eigh(0.5 * (a + a.T), 0.5 * (b + b.T), eigvals_only=True)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"Gram not positive definite on {where}: {exc}"
        ) from exc


def _local_dg_gram(mesh: Mesh, element: int, p: int, omega: float) -> np.ndarray:
    """Gram of ||grad .||_K^2 + omega^2 ||.||_K^2 + (p^2/h_K) ||.||_dK^2."""
    one = _one_element(mesh, element)
    traces, _ = _element_boundary_grams(mesh, p, one)
    gram = _element_stiffness_grams(mesh, p, one)[0]
    gram += omega**2 * _element_mass_grams(mesh, p, one)[0]
    gram += (p**2 / mesh.diameters[element]) * traces[0]
    return gram


def estimate_local_coercivity(mesh: Mesh, element: int, p: int, omega: float) -> float:
    """Smallest singular value of the local constraint on the bubble space.

    Measures the constraint operator from the dual of the weighted test
    norm h^2 ||grad q||^2 + p^2 h ||q||_dK^2 into the local DG norm.
    """
    if p < 2:
        raise ValueError("bubble space is empty for p < 2")
    if callable(omega):
        raise TypeError("coercivity diagnostic needs a constant wavenumber")
    one = _one_element(mesh, element)
    W = constraint_matrices(mesh, p, float(omega), elements=one)[0]
    C_b = bubble_basis(mesh, p, one)[0]
    W_b = W @ C_b

    h = float(mesh.diameters[element])
    traces, _ = _element_boundary_grams(mesh, p - 2, one)
    q_gram = h**2 * _element_stiffness_grams(mesh, p - 2, one)[0]
    q_gram += p**2 * h * traces[0]
    try:
        dual = W_b.T @ np.linalg.solve(q_gram, W_b)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"test-norm Gram not invertible on element {element}: {exc}"
        ) from exc
    dg_gram = C_b.T @ _local_dg_gram(mesh, element, p, float(omega)) @ C_b
    lam = _pencil_eigenvalues(dual, dg_gram, f"element {element}")
    return float(np.sqrt(max(lam[0], 0.0)))


def _broken_grams(mesh: Mesh, p: int, omega: float):
    """Gram matrices of the DG norm and its sharpened variant, as BSR."""
    n = dim_poly(p)
    elements = np.arange(mesh.n_elements)
    vol = _element_stiffness_grams(mesh, p) + omega**2 * _element_mass_grams(mesh, p)

    # (p^2/h_F) ([u], [v])_F in the (test side, trial side) segments of the
    # assembly's interior face blocks
    fa = mesh.interior_faces
    traces = {}
    for side in _SIGN:
        tables, _, w = _face_tables(mesh, side, p, _gram_order(p))
        traces[side] = tables.values
    weight = p**2 / interior_face_h(mesh)
    jumps = []
    for s in _SIGN:
        for t in _SIGN:
            gram = np.einsum("fmi,fmj,fm,f->fij", traces[s], traces[t], w, weight)
            jumps.append((_SIGN[s] * _SIGN[t] * gram, fa[s], fa[t]))
    tr, _, wb = _face_tables(mesh, "element", p, _gram_order(p))
    impedance = omega * np.einsum("fmi,fmj,fm->fij", tr.values, tr.values, wb)
    el = mesh.boundary_faces["element"]
    segments = [(vol, elements, elements), *jumps, (impedance, el, el)]
    g_dg = _sum_block_rows(segments, mesh.n_elements, n)
    _, normal_derivs = _element_boundary_grams(mesh, p)
    extra = (mesh.diameters / p**2)[:, None, None] * normal_derivs
    sharp = sp.bsr_matrix(
        (extra, elements, np.arange(mesh.n_elements + 1)), shape=g_dg.shape
    )
    return g_dg, g_dg + sharp


def estimate_norm_equivalence(mesh: Mesh, p: int, omega: float = 1.0) -> float:
    """Largest ratio of the sharpened norm to the DG norm over V_h.

    Dense eigensolve; meshes beyond 32 elements are rejected.
    """
    if mesh.n_elements > MAX_DENSE_ELEMENTS:
        raise ValueError(
            f"mesh with {mesh.n_elements} elements too large for the dense path"
        )
    if p < 1:
        raise ValueError("need p >= 1")
    g_dg, g_sharp = (G.toarray() for G in _broken_grams(mesh, p, float(omega)))
    lam = _pencil_eigenvalues(g_sharp, g_dg, f"the mesh of {mesh.n_elements} elements")
    return float(np.sqrt(lam[-1]))


def estimate_inverse_trace(mesh: Mesh, element: int, p: int) -> float:
    """Largest value of ||u||_dK sqrt(h_K) / (p ||u||_K) over degree-p u."""
    if p < 1:
        raise ValueError("need p >= 1")
    one = _one_element(mesh, element)
    traces, _ = _element_boundary_grams(mesh, p, one)
    mass = _element_mass_grams(mesh, p, one)[0]
    lam = _pencil_eigenvalues(traces[0], mass, f"element {element}")
    return float(np.sqrt(lam[-1] * mesh.diameters[element]) / p)
