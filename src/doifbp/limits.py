"""The stiff-pressure limit laboratory.

Runs the coupled system for an increasing sequence of adiabatic exponents
gamma on identical initial data and measures the free-boundary diagnostics:
L^p norms of the density excess (rho - 1)_+, the time-integrated L^1 mass of
rho^gamma (trapezoid rule over samples taken at the initial state and after
every step through the run's observer, so the energy ledger runs only at the
end points), the complementarity residual int |rho^gamma (rho - 1)|, and the
incompressibility defect ||div u||_{L^2} on the congested set {rho >= 1-eps}.
A least-squares log-log fit of the L^2 excess norm against gamma over the
largest three gamma values estimates the decay rate (the expected order is
gamma^(-1/2)).

The cost of a rung no longer grows with the sound speed: the momentum update
linearizes the fluid pressure implicitly beyond the sound speed the step
resolves (`hydro.momentum_step`), so no acoustic bound caps the step.  What
still grows with gamma is the compression step of the pressure bound of
`hydro.cfl_dt`, 1 / (gamma max div_h(rho u) / rho) over compressing cells; on
the criterion-6 colliding streams it binds only from gamma ~ 80 on (91, 99,
103, 104, 114, 217, 338, 936 steps at gamma = 5, 10, ..., 640; the stiffest
rung is sensitive to roundoff: on Gauss nodes and weights that differ from
these by a few ulps it takes 851 steps).

Per-gamma runs are independent and may execute concurrently (process pool
of at most one worker per gamma, capped by the DOIFBP_THREADS environment
variable; `multiprocessing` is imported only by a sweep that uses more than
one worker); results are aggregated in gamma order regardless of completion
order.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .config import RunConfig
from .errors import ConfigError, NumericalError
from .grid import as_integer, div, lp_norm
from .hydro import fluid_pressure
from .integrator import FluidState, pressure_energy, run
from .presets import build_initial_state


@dataclass(frozen=True)
class GammaDiagnostics:
    """Free-boundary diagnostics of one finite-gamma run (final time T)."""

    gamma: float
    excess_l1: float
    excess_l2: float
    excess_l4: float
    excess_linf: float
    pressure_time_integral: float
    complementarity: float
    incompressibility_defect: float
    congested_volume: float

    def row(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELDS)


#: the CSV columns: the fields in declaration order
GammaDiagnostics.FIELDS = tuple(f.name for f in fields(GammaDiagnostics))


@dataclass(frozen=True)
class SweepResult:
    """Aggregated diagnostics of a gamma sweep, in increasing gamma order."""

    rows: tuple
    l2_slope: object  # float, or None when the fit is undefined

    def __post_init__(self):
        gammas = [r.gamma for r in self.rows]
        if any(b <= a for a, b in zip(gammas, gammas[1:])):
            raise ValueError("sweep rows must have strictly increasing gamma")
        for r in self.rows:
            if min(r.row()[1:]) < 0.0:
                raise ValueError("sweep diagnostics must be nonnegative")


def excess_density_norms(state: FluidState) -> dict:
    """L^p norms of the density excess (rho - 1)_+ for p = 1, 2, 4 and inf."""
    excess = np.maximum(state.rho.values - 1.0, 0.0)
    return {p: lp_norm(state.grid, excess, p) for p in (1, 2, 4, math.inf)}


def complementarity_residual(state: FluidState) -> float:
    """int |rho^gamma (rho - 1)| dx, the finite-gamma constraint defect."""
    rho = state.rho.values
    resid = fluid_pressure(rho, state.law) * np.abs(rho - 1.0)
    return float(np.sum(resid)) * state.grid.cell_volume


def incompressibility_defect(state: FluidState, eps: float) -> tuple:
    """(||div u||_{L^2({rho >= 1-eps})}, volume of that congested set); both
    are 0 on an empty set, whose sum is 0."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"congestion threshold must lie in (0, 1), got {eps}")
    mask = state.rho.values >= 1.0 - eps
    volume = float(np.count_nonzero(mask)) * state.grid.cell_volume
    defect = math.sqrt(float(np.sum(div(state.u)[mask] ** 2)) * state.grid.cell_volume)
    return defect, volume


def _run_one_gamma(cfg: RunConfig, gamma: float) -> GammaDiagnostics:
    """One rung of a sweep: the coupled run at `gamma`, diagnosed at its final
    time.  A NumericalError is re-raised as "sweep run at gamma=G failed:
    <cause>"; any other exception leaves with its own type."""
    cfg_g = replace(cfg, gamma=gamma)
    try:
        state = build_initial_state(cfg_g)
        # (gamma - 1) x the ledger's pressure entry is the integrand int
        # rho^gamma, sampled at the initial state and after every step; the
        # ledger itself records only the end points.
        samples = [(state.t, pressure_energy(state))]
        _, final = run(
            state,
            cfg_g.t_final,
            record_every=sys.maxsize,
            safety=cfg_g.cfl_safety,
            freeze_velocity=cfg_g.freeze_velocity,
            observer=lambda k, s: samples.append((s.t, pressure_energy(s))),
        )
        ts = np.array([t for t, _ in samples])
        pg = (gamma - 1.0) * np.array([e for _, e in samples])
        pressure_integral = float(np.trapezoid(pg, ts))

        norms = excess_density_norms(final)
        defect, volume = incompressibility_defect(final, cfg_g.eps_congestion)
        return GammaDiagnostics(
            gamma=gamma,
            excess_l1=norms[1],
            excess_l2=norms[2],
            excess_l4=norms[4],
            excess_linf=norms[math.inf],
            pressure_time_integral=pressure_integral,
            complementarity=complementarity_residual(final),
            incompressibility_defect=defect,
            congested_volume=volume,
        )
    except NumericalError as err:
        raise NumericalError(f"sweep run at gamma={gamma} failed: {err}") from err


def _resolve_workers(n_tasks: int, workers) -> int:
    """The sweep's worker count, at most one per task: `workers` (an integer
    by `grid.as_integer`, >= 1), else DOIFBP_THREADS, else the CPU count.  A
    process pool starts all its workers at once, so a count past the number
    of tasks would only start idle processes."""
    if workers is not None:
        try:
            count = as_integer(workers)
        except TypeError:
            raise ValueError(f"workers must be an integer, got {workers!r}") from None
        if count < 1:
            raise ValueError(f"workers must be at least 1, got {workers!r}")
    elif (env := os.environ.get("DOIFBP_THREADS")) is None:
        count = os.cpu_count() or 1
    else:
        try:
            count = int(env)
        except ValueError:
            count = 0
        if count < 1:
            raise ConfigError(f"DOIFBP_THREADS must be a positive integer, got {env!r}")
    return min(count, n_tasks)


def fit_l2_slope(rows) -> object:
    """Log-log slope of the L^2 excess norm over the largest three gammas.

    Returns None when fewer than three rows exist or any of the three norms
    has underflowed to zero.
    """
    if len(rows) < 3:
        return None
    top = rows[-3:]
    if any(r.excess_l2 <= 0.0 for r in top):
        return None
    return loglog_slope([r.gamma for r in top], [r.excess_l2 for r in top])


def loglog_slope(x, y) -> float:
    """Least-squares slope of ln y against ln x, in closed form: np.polyfit
    would page in LAPACK's least-squares solver for one 2-parameter fit."""
    lx, ly = np.log(x), np.log(y)
    dx = lx - lx.mean()
    return float(dx @ (ly - ly.mean()) / (dx @ dx))


def gamma_sweep(template_config: RunConfig, gamma_list=None, t_final=None, workers=None) -> SweepResult:
    """Run the coupled integrator once per gamma and aggregate diagnostics.

    gamma_list and t_final, when given, replace the template's `gammas` and
    `t_final`, so `RunConfig` validates them before any run.  Runs execute
    concurrently when more than one worker is available; the result is
    identical to the sequential one.  A rung's NumericalError is tagged with
    its gamma (`_run_one_gamma`); any other exception leaves with its own
    type.
    """
    cfg = template_config
    if gamma_list is not None:
        cfg = replace(cfg, gammas=tuple(gamma_list))
    if t_final is not None:
        cfg = replace(cfg, t_final=t_final)

    n_workers = _resolve_workers(len(cfg.gammas), workers)
    rungs = ([cfg] * len(cfg.gammas), cfg.gammas)
    if n_workers == 1:
        rows = list(map(_run_one_gamma, *rungs))
    else:
        # multiprocessing loads only here, for a sweep that uses it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            rows = list(pool.map(_run_one_gamma, *rungs))
    return SweepResult(rows=tuple(rows), l2_slope=fit_l2_slope(rows))
