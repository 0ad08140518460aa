"""doifbp: a compressible rod-suspension simulator with a congestion-limit lab.

A finite-volume solver for a barotropic fluid (pressure rho^gamma + eta +
eta^2) coupled to a spectral Fokker-Planck equation for the rod orientation
distribution on the unit sphere, plus diagnostics that probe the stiff
pressure limit gamma -> infinity where the flow approaches a free-boundary,
congestion-constrained regime.
"""

from .config import RunConfig, config_text, load_config, parse_config
from .errors import ConfigError, DoifbpError, NumericalError, SnapshotError
from .grid import (
    DIRICHLET,
    PERIODIC,
    Grid,
    ScalarField,
    VectorField,
    div,
    grad,
    integral,
    laplacian,
    lp_norm,
    upwind_divergence,
    velocity_gradient,
)
from .hydro import (
    PhysCoeffs,
    PressureLaw,
    cfl_dt,
    fluid_pressure,
    momentum_step,
    total_pressure,
    transport_step,
)
from .integrator import (
    DiagnosticsRecord,
    FluidState,
    energy_total,
    renormalized_residual,
    run,
    step,
)
from .kinetics import (
    entropy_and_fisher,
    eta_moment,
    fp_rhs,
    stress_moment,
)
from .limits import (
    GammaDiagnostics,
    SweepResult,
    complementarity_residual,
    excess_density_norms,
    gamma_sweep,
    incompressibility_defect,
)
from .persist import load_snapshot, read_diagnostics, snapshot, write_diagnostics, write_sweep
from .presets import build_initial_state
from .sphere import (
    EPS_POS,
    OrientationField,
    SphereBasis,
    make_sphere_basis,
    uniform_orientation,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DIRICHLET",
    "DiagnosticsRecord",
    "DoifbpError",
    "EPS_POS",
    "FluidState",
    "GammaDiagnostics",
    "Grid",
    "NumericalError",
    "OrientationField",
    "PERIODIC",
    "PhysCoeffs",
    "PressureLaw",
    "RunConfig",
    "ScalarField",
    "SnapshotError",
    "SphereBasis",
    "SweepResult",
    "VectorField",
    "build_initial_state",
    "cfl_dt",
    "complementarity_residual",
    "config_text",
    "div",
    "energy_total",
    "entropy_and_fisher",
    "eta_moment",
    "excess_density_norms",
    "fluid_pressure",
    "fp_rhs",
    "gamma_sweep",
    "grad",
    "incompressibility_defect",
    "integral",
    "laplacian",
    "load_config",
    "load_snapshot",
    "lp_norm",
    "make_sphere_basis",
    "momentum_step",
    "parse_config",
    "read_diagnostics",
    "renormalized_residual",
    "run",
    "snapshot",
    "step",
    "stress_moment",
    "total_pressure",
    "transport_step",
    "uniform_orientation",
    "upwind_divergence",
    "velocity_gradient",
    "write_diagnostics",
    "write_sweep",
]
