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

from .dg_assembly import _sum_block_rows, interior_face_h, omega_values
from .exact_solutions import ManufacturedCase
from .local_trefftz import constraint_matrices
from .mesh import Mesh
from .polyspace import (
    _data_order,
    _element_boundary_grams,
    _element_mass_grams,
    _element_stiffness_grams,
    _element_tables,
    _face_quadrature,
    _gram_order,
    _volume_tables,
    bubble_basis,
    dim_poly,
)
from .solve_pipeline import SolutionField

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


def _field_volume_data(field: SolutionField):
    """Points, weights, tables, values and coefficients of the field at the
    data rule of its degree."""
    mesh = field.mesh
    p = field.degree
    ev, pts, w = _volume_tables(mesh, p, _data_order(p))
    coeffs = field.coefficients.reshape(mesh.n_elements, dim_poly(p))
    uh = np.einsum("eqi,ei->eq", ev.values, coeffs)
    return pts, w, ev, uh, coeffs


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
    grad_uh = np.einsum("eqid,ei->eqd", ev.gradients, coeffs)

    om2 = omega_values(case.omega, pts) ** 2
    diff = uh - case.u(pts)
    grad_diff = grad_uh - case.grad_u(pts)
    total = np.einsum("eqd,eq->", np.abs(grad_diff) ** 2, w)
    total += np.einsum("eq,eq->", om2 * np.abs(diff) ** 2, w)

    fa = mesh.interior_faces
    pts_f, wf = _face_quadrature(fa, _data_order(p))
    jump = np.zeros(pts_f.shape[:2], dtype=complex)
    for sign, el in ((1.0, fa["plus"]), (-1.0, fa["minus"])):
        vals = _element_tables(mesh, el, p, pts_f).values
        jump += sign * np.einsum("fmi,fi->fm", vals, coeffs[el])
    weight = p**2 / interior_face_h(mesh)
    total += np.einsum("f,fm,fm->", weight, np.abs(jump) ** 2, wf)

    fb = mesh.boundary_faces
    pts_b, wb = _face_quadrature(fb, _data_order(p))
    el = fb["element"]
    vals = _element_tables(mesh, el, p, pts_b).values
    diff_b = np.einsum("fmi,fi->fm", vals, coeffs[el]) - case.u(pts_b)
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
    dual = 0.5 * (dual + dual.T)
    dg_gram = C_b.T @ _local_dg_gram(mesh, element, p, float(omega)) @ C_b
    dg_gram = 0.5 * (dg_gram + dg_gram.T)
    try:
        lam = scipy.linalg.eigh(dual, dg_gram, eigvals_only=True)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise np.linalg.LinAlgError(
            f"local DG Gram not positive definite on element {element}: {exc}"
        ) from exc
    return float(np.sqrt(max(lam[0], 0.0)))


def _broken_grams(mesh: Mesh, p: int, omega: float):
    """Gram matrices of the DG norm and its sharpened variant, as BSR."""
    n = dim_poly(p)
    elements = np.arange(mesh.n_elements)
    vol = _element_stiffness_grams(mesh, p) + omega**2 * _element_mass_grams(mesh, p)

    # jump terms: the four (plus/minus) x (plus/minus) blocks of every face
    fa = mesh.interior_faces
    pts, wts = _face_quadrature(fa, _gram_order(p))
    sides = np.stack([fa["plus"], fa["minus"]], axis=1)  # (F, 2)
    traces = np.stack(
        [_element_tables(mesh, el, p, pts).values for el in sides.T], axis=1
    )  # (F, 2, M, n)
    sign = np.array([1.0, -1.0])
    weight = (p**2 / interior_face_h(mesh))[:, None, None] * sign[:, None] * sign
    jump = np.einsum("fsmi,ftmj,fm->fstij", traces, traces, wts)
    jump *= weight[..., None, None]

    fb = mesh.boundary_faces
    pts, wts = _face_quadrature(fb, _gram_order(p))
    el = fb["element"]
    tr = _element_tables(mesh, el, p, pts).values
    impedance = omega * np.einsum("fmi,fmj,fm->fij", tr, tr, wts)

    rows_of_jump = np.repeat(sides, 2, axis=1).ravel()
    cols_of_jump = np.tile(sides, 2).ravel()
    segments = [
        (vol, elements, elements),
        (jump.reshape(-1, n, n), rows_of_jump, cols_of_jump),
        (impedance, el, el),
    ]
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
    g_dg = 0.5 * (g_dg + g_dg.T)
    g_sharp = 0.5 * (g_sharp + g_sharp.T)
    try:
        lam = scipy.linalg.eigh(g_sharp, g_dg, eigvals_only=True)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise np.linalg.LinAlgError(f"DG-norm Gram not positive definite: {exc}") from exc
    return float(np.sqrt(lam[-1]))


def estimate_inverse_trace(mesh: Mesh, element: int, p: int) -> float:
    """Largest value of ||u||_dK sqrt(h_K) / (p ||u||_K) over degree-p u."""
    if p < 1:
        raise ValueError("need p >= 1")
    one = _one_element(mesh, element)
    traces, _ = _element_boundary_grams(mesh, p, one)
    bdry = traces[0]
    mass = _element_mass_grams(mesh, p, one)[0]
    lam = scipy.linalg.eigh(
        0.5 * (bdry + bdry.T), 0.5 * (mass + mass.T), eigvals_only=True
    )
    return float(np.sqrt(lam[-1] * mesh.diameters[element]) / p)
