"""A tour of the per-element machinery behind the embedded method.

Walks one element: the weak Trefftz constraint matrix, its SVD kernel
(dimension 2p + 1), the minimum-norm particular solution, and the three
numerical constants that quantify when the construction is healthy:
the inverse-trace constant, the norm-equivalence constant, and the
smallest singular value of the constraint on the bubble space.
"""

import numpy as np

from helmtrefftz.error_analysis import (
    estimate_inverse_trace,
    estimate_local_coercivity,
    estimate_norm_equivalence,
)
from helmtrefftz.local_trefftz import all_local_rhs, all_local_trefftz
from helmtrefftz.mesh import build_unit_square_mesh
from helmtrefftz.polyspace import dim_poly
from helmtrefftz.solve_pipeline import particular_field

mesh = build_unit_square_mesh(2)
omega = 2.0

print("== constraint kernels (element 0, omega = 2) ==")
for p in range(2, 7):
    local = all_local_trefftz(mesh, p, omega)
    resid = np.linalg.norm(local.matrices[0] @ local.kernels[0], 2)
    print(
        f"p={p}: dim P^p = {dim_poly(p):3d}, kernel dim = {local.kernel_dims[0]:2d} "
        f"(= 2p+1), sigma_min = {local.sigma_min[0]:.3e}, ||W E|| = {resid:.1e}"
    )

print("\n== particular solution for f = 1 (p = 3) ==")
local = all_local_trefftz(mesh, 3, omega)
source = lambda pts: np.ones(pts.shape[:-1])
u_f = particular_field(mesh, local, source)[: dim_poly(3)].real  # f is real
moments = all_local_rhs(mesh, 3, source)[0]
print(f"moments residual: {np.linalg.norm(local.matrices[0] @ u_f - moments):.2e}")
print(f"kernel component: {np.abs(local.kernels[0].T @ u_f).max():.2e} (min-norm)")

print("\n== constants ==")
for p in (1, 2, 4, 8):
    print(f"inverse trace p={p}: {estimate_inverse_trace(mesh, 0, p):.3f}")
for p in (2, 4, 6):
    print(f"norm equivalence p={p}: {estimate_norm_equivalence(mesh, p):.3f}")
h = mesh.diameters[0]
print("\ncoercivity sweep at p=3 (decays toward the invertibility threshold):")
for target in (0.1, 5.0, 13.0, 17.0, 21.0):
    value = estimate_local_coercivity(mesh, 0, 3, target / h)
    print(f"  omega*h = {target:5.1f}: sigma_min = {value:.4f}")
