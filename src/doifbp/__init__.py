"""doifbp: a compressible rod-suspension simulator with a congestion-limit lab.

A finite-volume solver for a barotropic fluid (pressure rho^gamma + eta +
eta^2) coupled to a spectral Fokker-Planck equation for the rod orientation
distribution on the unit sphere, plus diagnostics that probe the stiff
pressure limit gamma -> infinity where the flow approaches a free-boundary,
congestion-constrained regime.
"""

from .config import RunConfig, load_config
from .errors import ConfigError, DoifbpError, NumericalError, SnapshotError
from .grid import Grid, ScalarField, VectorField, integral
from .hydro import PhysCoeffs, PressureLaw
from .integrator import run
from .kinetics import eta_moment
from .limits import gamma_sweep
from .persist import load_snapshot, snapshot
from .presets import build_initial_state
from .sphere import EPS_POS, OrientationField, make_sphere_basis

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DoifbpError",
    "EPS_POS",
    "Grid",
    "NumericalError",
    "OrientationField",
    "PhysCoeffs",
    "PressureLaw",
    "RunConfig",
    "ScalarField",
    "SnapshotError",
    "VectorField",
    "build_initial_state",
    "eta_moment",
    "gamma_sweep",
    "integral",
    "load_config",
    "load_snapshot",
    "make_sphere_basis",
    "run",
    "snapshot",
]
