"""Solvers for stationary Hamilton-Jacobi equations on 1-D junction
networks: state-constraint junction solutions, vanishing-viscosity Kirchhoff
approximations, flux-limited junction conditions, and a 2-D domain-fattening
approximation, plus a verification harness and CLI."""

from .edge import (
    Dirichlet,
    EdgeSpec,
    GridFunction1D,
    Neumann,
    SolveReport,
    SolverParams,
    StateConstraint,
    check_dirichlet_structure,
    node_slope,
    one_sided_quotients,
    solve_edge,
)
from .fatten2d import (
    FatDomain,
    GridFunction2D,
    build_fat_domain,
    build_rectangle_domain,
    extract_axis_trace,
    fattening_study,
    solve_fat_state_constraint,
)
from .hamiltonians import (
    FluxLimiter,
    Hamiltonian,
    Hamiltonian2D,
    find_minima,
    make_builtin,
    make_flux_limiter,
    make_hamiltonian2d,
    max_form_2d,
    nonincreasing_part,
    parse_expression,
    parse_expression_2d,
    probe_coercivity,
    reduce_2d,
    rightward_min_threshold,
)
from .junction import (
    FluxLimited,
    JunctionGridFunction,
    JunctionProblem,
    NodeDiagnostics,
    compare_grid_functions,
    make_junction_problem,
    node_diagnostics,
    solve_flux_limited,
    solve_junction_constructive,
    solve_junction_direct,
    subsolution_slope_bound_check,
)
from .problems import ProblemFile, ProblemValidationError, load_problem
from .viscous import (
    VanishingViscosityReport,
    ViscousParams,
    classify_limit,
    epsilon_sweep,
    predict_selection,
    solve_viscous_kirchhoff,
)

__version__ = "0.1.0"
