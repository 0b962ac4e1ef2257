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
production-size inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dg_assembly import _edge_points, interior_face_h, omega_values
from .exact_solutions import ManufacturedCase
from .local_trefftz import constraint_matrices
from .mesh import Mesh, element_geometry
from .polyspace import (
    MAX_QUAD_ORDER,
    _monomial_tables,
    bubble_basis,
    dim_poly,
    edge_quadrature_rule,
    element_boundary_gram,
    element_mass_gram,
    element_stiffness_gram,
    map_rule_to_triangle,
    quadrature_rule,
)
from .solve_pipeline import SolutionField

__all__ = [
    "ErrorReport",
    "ConstantEstimate",
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


@dataclass(frozen=True)
class ConstantEstimate:
    """Numerically estimated analysis constant."""

    name: str  # "sigma_min_local" | "c_star" | "inverse_trace"
    value: float
    p: int
    omega: float
    h: float


def _error_order(p: int, order: int | None) -> int:
    if order is None:
        order = 2 * p + 6
    return min(order, MAX_QUAD_ORDER)


def _field_volume_data(field: SolutionField, order: int):
    mesh = field.mesh
    p = field.degree
    pts, w = map_rule_to_triangle(quadrature_rule(order), mesh.tri_coords)
    ev = _monomial_tables(mesh.incenters, mesh.diameters, p, pts)
    coeffs = field.coefficients.reshape(mesh.n_elements, dim_poly(p))
    uh = np.einsum("eqi,ei->eq", ev.values, coeffs)
    return pts, w, ev, uh, coeffs


def l2_error(
    field: SolutionField, case: ManufacturedCase, order: int | None = None
) -> float:
    """Broken L2 distance between the discrete field and the exact solution."""
    order = _error_order(field.degree, order)
    pts, w, _, uh, _ = _field_volume_data(field, order)
    diff = uh - case.u(pts)
    return float(np.sqrt(np.einsum("eq,eq->", np.abs(diff) ** 2, w)))


def dg_error(
    field: SolutionField, case: ManufacturedCase, order: int | None = None
) -> float:
    """DG energy norm of the error against a continuous exact solution.

    The jump term carries p^2/h_F without the penalty factor alpha.
    """
    mesh = field.mesh
    p = field.degree
    order = _error_order(p, order)
    pts, w, ev, uh, coeffs = _field_volume_data(field, order)
    grad_uh = np.einsum("eqid,ei->eqd", ev.gradients, coeffs)

    om2 = omega_values(case.omega, pts) ** 2
    diff = uh - case.u(pts)
    grad_diff = grad_uh - case.grad_u(pts)
    total = np.einsum("eqd,eq->", np.abs(grad_diff) ** 2, w)
    total += np.einsum("eq,eq->", om2 * np.abs(diff) ** 2, w)

    edge_rule = edge_quadrature_rule(order)
    if mesh.interior_faces:
        fa = mesh.iface_arrays
        pts_f = _edge_points(fa["v0"], fa["v1"], edge_rule.nodes)
        wf = edge_rule.weights[None, :] * fa["length"][:, None]
        jump = np.zeros(pts_f.shape[:2], dtype=complex)
        for sign, el in ((1.0, fa["plus"]), (-1.0, fa["minus"])):
            vals = _monomial_tables(mesh.incenters[el], mesh.diameters[el], p, pts_f).values
            jump += sign * np.einsum("fmi,fi->fm", vals, coeffs[el])
        weight = p**2 / interior_face_h(mesh)
        total += np.einsum("f,fm,fm->", weight, np.abs(jump) ** 2, wf)

    if mesh.boundary_faces:
        fb = mesh.bface_arrays
        pts_b = _edge_points(fb["v0"], fb["v1"], edge_rule.nodes)
        wb = edge_rule.weights[None, :] * fb["length"][:, None]
        el = fb["element"]
        vals = _monomial_tables(mesh.incenters[el], mesh.diameters[el], p, pts_b).values
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


def dofs_per_wavelength(
    dofs: float, omega: float, domain_area: float, d: int = 2
) -> float:
    """Resolution measure 2 pi dofs^(1/d) / (omega |Omega|^(1/d))."""
    if dofs <= 0 or omega <= 0 or domain_area <= 0:
        raise ValueError("all inputs must be positive")
    return float(2.0 * np.pi * dofs ** (1.0 / d) / (omega * domain_area ** (1.0 / d)))


# ---------------------------------------------------------------------------
# constant diagnostics (dense generalized eigenproblems)
# ---------------------------------------------------------------------------


def _local_dg_gram(mesh: Mesh, element: int, p: int, omega: float) -> np.ndarray:
    """Gram of ||grad .||_K^2 + omega^2 ||.||_K^2 + (p^2/h_K) ||.||_dK^2."""
    geom = element_geometry(mesh, element)
    tri = mesh.tri_coords[element]
    gram = element_stiffness_gram(geom, tri, p)
    gram += omega**2 * element_mass_gram(geom, tri, p)
    gram += (p**2 / geom.diameter) * element_boundary_gram(geom, tri, p)
    return gram


def estimate_local_coercivity(
    mesh: Mesh, element: int, p: int, omega: float
) -> ConstantEstimate:
    """Smallest singular value of the local constraint on the bubble space.

    Measures the constraint operator from the dual of the weighted test
    norm h^2 ||grad q||^2 + p^2 h ||q||_dK^2 into the local DG norm.
    """
    if p < 2:
        raise ValueError("bubble space is empty for p < 2")
    if callable(omega):
        raise TypeError("coercivity diagnostic needs a constant wavenumber")
    geom = element_geometry(mesh, element)
    tri = mesh.tri_coords[element]
    W = constraint_matrices(mesh, p, float(omega), elements=np.array([element]))[0]
    C_b = bubble_basis(geom, p).coefficients
    W_b = W @ C_b

    h = geom.diameter
    q_gram = h**2 * element_stiffness_gram(geom, tri, p - 2)
    q_gram += p**2 * h * element_boundary_gram(geom, tri, p - 2)
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
    return ConstantEstimate(
        name="sigma_min_local",
        value=float(np.sqrt(max(lam[0], 0.0))),
        p=p,
        omega=float(omega),
        h=geom.diameter,
    )


def _broken_grams(mesh: Mesh, p: int, omega: float):
    """Dense Gram matrices of the DG norm and its sharpened variant."""
    n = dim_poly(p)
    total = mesh.n_elements * n
    g_dg = np.zeros((total, total))
    g_extra = np.zeros((total, total))
    for k in range(mesh.n_elements):
        geom = element_geometry(mesh, k)
        tri = mesh.tri_coords[k]
        blk = element_stiffness_gram(geom, tri, p)
        blk += omega**2 * element_mass_gram(geom, tri, p)
        sl = slice(k * n, (k + 1) * n)
        g_dg[sl, sl] += blk
        g_extra[sl, sl] += (geom.diameter / p**2) * element_boundary_gram(
            geom, tri, p, with_normal_derivative=True
        )

    order = min(2 * p + 2, MAX_QUAD_ORDER)
    rule = edge_quadrature_rule(order)
    h_f = interior_face_h(mesh)
    for i, face in enumerate(mesh.interior_faces):
        v0 = mesh.vertices[face.endpoints[0]]
        v1 = mesh.vertices[face.endpoints[1]]
        pts = v0[None, :] + rule.nodes[:, None] * (v1 - v0)[None, :]
        wts = rule.weights * face.length
        traces = []
        for el in (face.plus_element, face.minus_element):
            geom = element_geometry(mesh, el)
            traces.append(_monomial_tables(np.array(geom.center), geom.diameter, p, pts).values)
        weight = p**2 / h_f[i]
        for sv, el_v in ((1.0, face.plus_element), (-1.0, face.minus_element)):
            for su, el_u in ((1.0, face.plus_element), (-1.0, face.minus_element)):
                tv = traces[0] if sv > 0 else traces[1]
                tu = traces[0] if su > 0 else traces[1]
                blk = weight * su * sv * np.einsum("qi,qj,q->ij", tv, tu, wts)
                g_dg[
                    el_v * n : (el_v + 1) * n, el_u * n : (el_u + 1) * n
                ] += blk

    for face in mesh.boundary_faces:
        v0 = mesh.vertices[face.endpoints[0]]
        v1 = mesh.vertices[face.endpoints[1]]
        pts = v0[None, :] + rule.nodes[:, None] * (v1 - v0)[None, :]
        wts = rule.weights * face.length
        geom = element_geometry(mesh, face.element)
        tr = _monomial_tables(np.array(geom.center), geom.diameter, p, pts).values
        blk = omega * np.einsum("qi,qj,q->ij", tr, tr, wts)
        sl = slice(face.element * n, (face.element + 1) * n)
        g_dg[sl, sl] += blk

    return g_dg, g_dg + g_extra


def estimate_norm_equivalence(
    mesh: Mesh, p: int, omega: float = 1.0
) -> ConstantEstimate:
    """Largest ratio of the sharpened norm to the DG norm over V_h.

    Dense eigensolve; meshes beyond 32 elements are rejected.
    """
    if mesh.n_elements > MAX_DENSE_ELEMENTS:
        raise ValueError(
            f"mesh with {mesh.n_elements} elements too large for the dense path"
        )
    if p < 1:
        raise ValueError("need p >= 1")
    g_dg, g_sharp = _broken_grams(mesh, p, float(omega))
    g_dg = 0.5 * (g_dg + g_dg.T)
    g_sharp = 0.5 * (g_sharp + g_sharp.T)
    try:
        lam = scipy.linalg.eigh(g_sharp, g_dg, eigvals_only=True)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise np.linalg.LinAlgError(f"DG-norm Gram not positive definite: {exc}") from exc
    return ConstantEstimate(
        name="c_star",
        value=float(np.sqrt(lam[-1])),
        p=p,
        omega=float(omega),
        h=mesh.max_diameter,
    )


def estimate_inverse_trace(mesh: Mesh, element: int, p: int) -> ConstantEstimate:
    """Largest value of ||u||_dK sqrt(h_K) / (p ||u||_K) over degree-p u."""
    if p < 1:
        raise ValueError("need p >= 1")
    geom = element_geometry(mesh, element)
    tri = mesh.tri_coords[element]
    bdry = element_boundary_gram(geom, tri, p)
    mass = element_mass_gram(geom, tri, p)
    lam = scipy.linalg.eigh(
        0.5 * (bdry + bdry.T), 0.5 * (mass + mass.T), eigvals_only=True
    )
    value = np.sqrt(lam[-1] * geom.diameter) / p
    return ConstantEstimate(
        name="inverse_trace", value=float(value), p=p, omega=0.0, h=geom.diameter
    )
