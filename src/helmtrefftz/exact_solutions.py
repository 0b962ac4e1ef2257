"""Closed-form Helmholtz solutions with derived source and impedance data.

Every case bundles u, grad u, the source f = -lap(u) - omega^2 u (None
when it vanishes identically), and the impedance trace
g = grad(u).n + i omega u.  g is always derived from u and grad u,
never stated independently, so impedance consistency holds by
construction.  All callables are vectorized over point arrays of shape
(..., 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dg_assembly import _check_positive_real, omega_values

__all__ = [
    "ManufacturedCase",
    "hankel_case",
    "plane_wave_case",
    "sinsin_case",
    "var_omega_case",
]


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution with consistent source and impedance data.

    omega is a float for constant wavenumbers or a vectorized callable
    for spatially varying ones; omega_report is the value written to
    experiment tables (a label string for the varying case) and
    omega_representative feeds resolution measures.  f is None for a
    source-free case: the solve then skips the load's volume term and the
    particular field, both zero.
    """

    omega: float | Callable
    u: Callable
    grad_u: Callable
    f: Callable | None
    omega_report: float | str = 0.0
    omega_representative: float = 0.0

    def g(self, points: np.ndarray, normals: np.ndarray) -> np.ndarray:
        """Impedance data grad(u).n + i omega u on the boundary."""
        grad = self.grad_u(points)
        return np.einsum("...d,...d->...", grad, np.asarray(normals)) + (
            1j * omega_values(self.omega, points) * self.u(points)
        )


def hankel_case(omega: float = 10.0, source_point=(-0.25, 0.0)) -> ManufacturedCase:
    """Radiating fundamental-solution benchmark on the unit square.

    u = H0^(1)(omega |x - x0|) = J0 + i Y0, evaluated with scipy.special,
    with the source point x0 outside the closed domain, so u is smooth
    inside and f vanishes identically (f is None).
    """
    # imported here, so that importing the package leaves scipy.special out
    from scipy.special import j0, j1, y0, y1

    _check_positive_real("omega", omega)
    try:
        x0 = np.asarray(source_point)
    except ValueError:  # a ragged sequence
        x0 = np.empty(0)
    if x0.shape != (2,) or x0.dtype.kind not in "iuf" or not np.isfinite(x0).all():
        raise ValueError(f"source_point must be two finite reals, got {source_point!r}")
    if 0.0 <= x0[0] <= 1.0 and 0.0 <= x0[1] <= 1.0:
        raise ValueError(f"source point {source_point} must lie outside the domain")

    def radius(points):
        d = np.asarray(points, dtype=float) - x0
        r = np.hypot(d[..., 0], d[..., 1])
        if np.any(r == 0.0):
            raise ValueError("evaluation at the source point")
        return d, r

    def u(points):
        _, r = radius(points)
        x = omega * r
        return j0(x) + 1j * y0(x)

    def grad_u(points):
        # d/dz H0 = -H1, chain rule through r = |x - x0|
        d, r = radius(points)
        x = omega * r
        dH = -omega * (j1(x) + 1j * y1(x))
        return (dH / r)[..., None] * d

    return ManufacturedCase(
        omega=float(omega),
        u=u,
        grad_u=grad_u,
        f=None,
        omega_report=float(omega),
        omega_representative=float(omega),
    )


def plane_wave_case(omega: float) -> ManufacturedCase:
    """Unit-amplitude plane wave exp(i omega (x - y)/sqrt(2)) on the unit disk.

    It solves the homogeneous equation, so f is None.
    """
    _check_positive_real("omega", omega)
    d = np.array([1.0, -1.0]) / np.sqrt(2.0)

    def u(points):
        pts = np.asarray(points, dtype=float)
        return np.exp(1j * omega * (pts @ d))

    def grad_u(points):
        return (1j * omega * u(points))[..., None] * d

    return ManufacturedCase(
        omega=float(omega),
        u=u,
        grad_u=grad_u,
        f=None,
        omega_report=float(omega),
        omega_representative=float(omega),
    )


def sinsin_case(omega: float = 1.0) -> ManufacturedCase:
    """Smooth standing solution sin(pi x) sin(pi y) on the unit square."""
    _check_positive_real("omega", omega)

    def u(points):
        pts = np.asarray(points, dtype=float)
        return (np.sin(np.pi * pts[..., 0]) * np.sin(np.pi * pts[..., 1])).astype(
            complex
        )

    def grad_u(points):
        pts = np.asarray(points, dtype=float)
        sx, cx = np.sin(np.pi * pts[..., 0]), np.cos(np.pi * pts[..., 0])
        sy, cy = np.sin(np.pi * pts[..., 1]), np.cos(np.pi * pts[..., 1])
        return np.pi * np.stack([cx * sy, sx * cy], axis=-1).astype(complex)

    def f(points):
        return (2.0 * np.pi**2 - omega**2) * u(points)

    return ManufacturedCase(
        omega=float(omega),
        u=u,
        grad_u=grad_u,
        f=f,
        omega_report=float(omega),
        omega_representative=float(omega),
    )


def var_omega_case() -> ManufacturedCase:
    """Smoothly varying wavenumber omega(x, y) = 5 + sin(x) + y^2 on the square.

    u = exp(i omega(x, y) x y).  With phi = omega x y the source is
    f = u (|grad phi|^2 - i lap phi - omega^2); the derivatives of phi
    below follow the full product rule through omega's dependence on x, y.
    """

    def omega(points):
        pts = np.asarray(points, dtype=float)
        return 5.0 + np.sin(pts[..., 0]) + pts[..., 1] ** 2

    def phi_parts(points):
        pts = np.asarray(points, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        om = 5.0 + np.sin(x) + y * y
        phi = om * x * y
        phi_x = y * om + x * y * np.cos(x)
        phi_y = x * om + 2.0 * x * y * y
        phi_xx = 2.0 * y * np.cos(x) - x * y * np.sin(x)
        phi_yy = 6.0 * x * y
        return om, phi, phi_x, phi_y, phi_xx, phi_yy

    def u(points):
        _, phi, *_ = phi_parts(points)
        return np.exp(1j * phi)

    def grad_u(points):
        _, phi, phi_x, phi_y, _, _ = phi_parts(points)
        return 1j * np.exp(1j * phi)[..., None] * np.stack([phi_x, phi_y], axis=-1)

    def f(points):
        om, phi, phi_x, phi_y, phi_xx, phi_yy = phi_parts(points)
        grad_sq = phi_x**2 + phi_y**2
        return np.exp(1j * phi) * (grad_sq - 1j * (phi_xx + phi_yy) - om**2)

    # representative value: omega at the domain center
    omega_center = 5.0 + np.sin(0.5) + 0.25
    return ManufacturedCase(
        omega=omega,
        u=u,
        grad_u=grad_u,
        f=f,
        omega_report="5+sin(x)+y^2",
        omega_representative=float(omega_center),
    )
