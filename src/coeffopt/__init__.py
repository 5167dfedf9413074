"""Optimal coefficient design for -div(a grad u) = f on 2D domains.

Scalar-coefficient compliance and energy problems with convex penalty
families, and the relaxed two-phase control problem over laminated
tensors, plus the finite element plumbing and closed-form radial
solutions used to validate them.
"""

from .fem import (
    IllPosedCoefficientError,
    LinearSystem,
    PointLoad,
    RejectionBound,
    SolverFailure,
    StiffnessAssembler,
    assemble_load,
    assemble_point_load,
    cell_gradient,
    compliance,
    cost_functional,
    grad_norm_sq,
    solve_dirichlet,
)
from .gclosure import (
    clamp_spectrum,
    d2_lambda2_bounds,
    eig_sym_2x2,
    fraction_from_harmonic,
    is_admissible,
    lamination_means,
    optimal_laminate,
    optimal_t,
)
from .mesh import (
    Mesh,
    MeshCorruptionError,
    build_unit_disk_mesh,
    build_unit_square_mesh,
    cell_geometry,
    write_vtk,
)
from .oracles import (
    counterexample_fields,
    ex11_ball,
    ex11_dirac,
    ex13_ball,
    ex14_ball,
    radial_ode_residual,
    upsilon,
)
from .optimize import (
    InternalConsistencyError,
    OptReport,
    compliance_descent,
    energy_relaxed_solve,
    general_relaxed_optimize,
    gradient_check,
)
from .penalty import (
    VARIANTS,
    PenaltySpec,
    counterexample_penalty,
    phi_eval,
    phi_prime,
    project_to_domain,
    psi_conjugate,
    psi_eval,
    psi_prime,
    recover_coefficient,
    recover_from_flux,
)

__version__ = "0.1.0"
