"""Embedded Trefftz DG and SIPDG solvers for the 2D Helmholtz problem."""

from .bessel import hankel1_0, hankel1_1, j0_y0, j1_y1
from .dg_assembly import FormParameters, assemble_rhs, assemble_sipdg
from .error_analysis import (
    ConstantEstimate,
    ErrorReport,
    dg_error,
    dofs_per_wavelength,
    eoc,
    estimate_inverse_trace,
    estimate_local_coercivity,
    estimate_norm_equivalence,
    l2_error,
)
from .exact_solutions import (
    ManufacturedCase,
    hankel_case,
    plane_wave_case,
    sinsin_case,
    var_omega_case,
)
from .harness import RunConfig, emit_csv, parse_csv, run_experiment, solve, summarize
from .local_trefftz import KernelDimensionWarning, LocalTrefftzData, all_local_trefftz
from .mesh import (
    Mesh,
    build_unit_disk_mesh,
    build_unit_square_mesh,
    mesh_from_triangulation,
)
from .polyspace import (
    QuadratureRule,
    bubble_basis,
    dim_poly,
    edge_quadrature_rule,
    quadrature_rule,
)
from .solve_pipeline import (
    GlobalEmbedding,
    SingularSystemError,
    SolutionField,
    build_global_embedding,
    particular_field,
    solve_reduced_system,
)

__version__ = "0.1.0"
