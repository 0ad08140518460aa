"""Operator-split time stepping of the coupled system and its energy ledger.

One step applies Lie splitting in a fixed order: density transport, the
Fokker-Planck substep for the orientation distribution, and finally the
momentum update of the old velocity, handed the transported density and
distribution beside the state it advances (`hydro.momentum_step`); every
`FluidState` holds a single instant.  The Fokker-Planck substep is
an explicit step of physical transport and sphere drift (`fp_rhs`), then the
translational-diffusion substep `grid.heat_step` of its result, then exact
rotational diffusion through the integrating factor exp(-dt d_rot l(l+1))
per harmonic degree.  Translational diffusion is exact on periodic grids
(so `cfl_dt` has no diffusive bound there) and an explicit Euler substep on
Dirichlet grids, under the diffusive CFL bound.  The rod number density eta
is not a state field: it is always the zeroth moment int f dtau of the
orientation distribution.  The energy ledger records

    E = int rho |u|^2 / 2 + rho^gamma / (gamma - 1) + eta^2 + psi

together with the dissipation functionals (Fisher information of f, viscous
gradients, eta gradients); the discrete scheme satisfies the energy
inequality up to a first-order splitting slack, and exactly (monotonically)
in the pure-diffusion regime with frozen velocity.

`renormalized_residual` measures how well a nonlinear function b(rho)
satisfies its transport identity

    d_t b(rho) + div(b(rho) u) + (b'(rho) rho - b(rho)) div u = 0

under the same donor-cell discretization the density step uses; for b(z) = z
it reproduces the discrete continuity residual, which vanishes to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .config import RunConfig
from .errors import NumericalError
from .grid import (
    ScalarField,
    VectorField,
    as_integer,
    div,
    grad,
    heat_step,
    integral,
    lp_norm,
    upwind_divergence,
    velocity_gradient,
)
from .hydro import PhysCoeffs, PressureLaw, cfl_dt, fluid_pressure, momentum_step, transport_step
from .kinetics import entropy_and_fisher, eta_moment, fp_rhs
from .sphere import OrientationField

#: tries of one step under the velocity-change rule of `run` before it fails
_STEP_TRIES = 10


@dataclass(frozen=True)
class FluidState:
    """The unknown tuple (rho, u, f) at one time, plus its parameters."""

    rho: ScalarField
    u: VectorField
    f: OrientationField
    t: float
    law: PressureLaw
    coeffs: PhysCoeffs

    def __post_init__(self):
        if self.u.grid != self.rho.grid or self.f.grid != self.rho.grid:
            raise ValueError("state fields live on different grids")
        if self.rho.values.min() < 0.0:
            raise ValueError("state density is negative")
        if not np.isfinite(self.t):
            raise ValueError("state time is not finite")

    @property
    def grid(self):
        return self.rho.grid

    @property
    def eta(self) -> ScalarField:
        """Rod number density, the zeroth orientation moment of f."""
        return eta_moment(self.f)

    @cached_property
    def density_flux(self) -> np.ndarray:
        """div_h(rho u), the donor divergence of the density substep.

        Read by both the pressure bound of `cfl_dt` and `step`, so it is
        computed once per state, and is read-only.
        """
        flux = upwind_divergence(self.rho.values, self.u, "density")
        flux.flags.writeable = False
        return flux


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Energy ledger entries and conserved totals at one instant."""

    t: float
    e_total: float
    e_kinetic: float
    e_pressure: float
    e_eta: float
    e_entropy: float
    diss_fisher_tau: float
    diss_fisher_x: float
    diss_grad_u: float
    diss_div_u: float
    diss_grad_eta: float
    mass: float
    rod_mass: float

    def row(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELDS)

    @property
    def dissipation(self) -> float:
        """Total dissipation functional entering the energy inequality."""
        return (
            self.diss_fisher_tau
            + self.diss_fisher_x
            + self.diss_grad_u
            + self.diss_div_u
            + self.diss_grad_eta
        )


#: the CSV columns: the fields in declaration order
DiagnosticsRecord.FIELDS = tuple(f.name for f in fields(DiagnosticsRecord))


def pressure_energy(state: FluidState) -> float:
    """The ledger's pressure entry int rho^gamma / (gamma - 1) dx."""
    pi = fluid_pressure(state.rho.values, state.law)
    return float(pi.sum()) * state.grid.cell_volume / (state.law.gamma - 1.0)


def energy_total(state: FluidState) -> DiagnosticsRecord:
    """Evaluate the energy ledger on one state.

    Dissipation entries carry their coefficient weights: 4 D_tau and 4 D on
    the Fisher terms, mu and lambda on the velocity gradients, 2 D on the eta
    gradient; with the normalized unit coefficients these reduce to the plain
    dissipation functionals of the energy inequality.
    """
    g = state.grid
    vol = g.cell_volume
    c = state.coeffs
    eta = state.eta
    rho, u = state.rho.values, state.u.values

    e_kin = 0.5 * float(np.sum(rho * np.sum(u * u, axis=0))) * vol
    e_press = pressure_energy(state)
    e_eta = float(np.sum(eta.values * eta.values)) * vol
    psi, fisher_tau, fisher_x = entropy_and_fisher(state.f)
    e_entropy = integral(psi)

    gv = velocity_gradient(state.u)
    diss_grad_u = c.mu * float(np.sum(gv * gv)) * vol
    divu = div(state.u)
    diss_div_u = c.lam * float(np.sum(divu * divu)) * vol
    geta = grad(g, eta.values, "rods")
    diss_grad_eta = 2.0 * c.d_trans * float(np.sum(geta * geta)) * vol

    return DiagnosticsRecord(
        t=state.t,
        e_total=e_kin + e_press + e_eta + e_entropy,
        e_kinetic=e_kin,
        e_pressure=e_press,
        e_eta=e_eta,
        e_entropy=e_entropy,
        diss_fisher_tau=4.0 * c.d_rot * fisher_tau,
        diss_fisher_x=4.0 * c.d_trans * fisher_x,
        diss_grad_u=diss_grad_u,
        diss_div_u=diss_div_u,
        diss_grad_eta=diss_grad_eta,
        mass=integral(state.rho),
        rod_mass=integral(eta),
    )


def step(state: FluidState, dt: float, freeze_velocity: bool = False) -> FluidState:
    """One Lie-split step: rho, f, then the momentum update.

    The orientation update is f -> heat_step(f + dt fp_rhs(f, u), dt d_trans)
    times the rotational factor exp(dt d_rot Lap_tau).  The momentum substep
    `momentum_step(state, rho1, f1, dt)` advances this state's velocity with
    the density rho1 and distribution f1 just transported; the one
    `FluidState` a step builds is its result.  With `freeze_velocity`
    the velocity is held fixed (the pure-diffusion configuration used by the
    energy-monotonicity checks).

    A ValueError or NumericalError raised inside a substep is re-raised as
    NumericalError("substep '<name>' failed at t=<t>: <cause>"), naming
    'density transport', 'orientation fokker-planck' or 'momentum'.  A dip
    of the new f also states the alignment number Wi and the highest
    harmonic degree held: it is a truncation the basis cannot hold.
    """
    if not 0.0 < dt < np.inf:
        raise ValueError(f"step size must be positive and finite, got {dt}")
    t, f, u, law, coeffs = state.t, state.f, state.u, state.law, state.coeffs
    f1 = None  # once built, only its positivity check can fail: a dip
    try:
        substep = "density transport"
        rho1 = transport_step(state.rho, u, dt, state.density_flux)

        substep = "orientation fokker-planck"
        decay = np.exp(dt * coeffs.d_rot * f.basis.lap_eig)  # exactly 1 on the l = 0 mode
        f_coeffs = heat_step(f.grid, f.coeffs + dt * fp_rhs(f, u), dt * coeffs.d_trans)
        f1 = OrientationField(f.grid, f.basis, f_coeffs * decay)
        f1.check_positive()

        substep = "momentum"
        u1 = u if freeze_velocity else momentum_step(state, rho1, f1, dt)
    except (ValueError, NumericalError) as err:
        cause = f"substep '{substep}' failed at t={t:.9g}: {err}"
        if substep == "orientation fokker-planck" and f1 is not None:
            gv = velocity_gradient(u)  # the Frobenius norm the drift bound of `cfl_dt` reads
            wi = float(np.sqrt((gv * gv).sum(axis=(-2, -1))).max()) / coeffs.d_rot
            cause += (f"; alignment number Wi = max|grad u| / d_rot = {wi:.3g} with harmonics "
                      f"up to degree {int(f.basis.l_index[-1])}: raise sphere_degree by 2")
        raise NumericalError(cause) from err
    # FluidState's checks cannot fail here: the fields share one grid,
    # transport_step has checked rho1 >= 0, and t + dt is finite (short of overflow)
    return FluidState(rho1, u1, f1, t + dt, law, coeffs)


def run(
    initial: FluidState,
    t_final: float,
    record_every: int = 1,
    safety: float = RunConfig.cfl_safety,
    freeze_velocity: bool = False,
    observer=None,
):
    """Advance to t_final with adaptive CFL steps, recording diagnostics.

    Returns (records, final_state).  A record is appended for the initial
    state, after every `record_every`-th step (an integer >= 1 by
    `grid.as_integer`), and for the final state;
    the whole trajectory is a deterministic function of the inputs.  An
    optional `observer(step_index, state)` is called after every step; it
    never influences the trajectory.

    A step of the `cfl_dt` size whose velocity change has dt max|du| >
    safety h_min (a fluid at rest has no finite bound) is redone with dt
    times 0.9 sqrt(safety h_min / (dt max|du|)); after `_STEP_TRIES` tries
    it is a NumericalError naming dt and max|du|.
    """
    if not np.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final}")
    if t_final < initial.t:
        raise ValueError("t_final precedes the initial time")
    try:
        every = as_integer(record_every)
    except TypeError:
        every = 0  # refused below, in the form given
    if every < 1:
        raise ValueError(f"record_every must be a positive integer, got {record_every!r}")
    records = [energy_total(initial)]
    state = initial
    k = 0
    recorded = True
    eps_t = 1e-12 * max(1.0, abs(t_final))
    reach = safety * min(initial.grid.h)
    while t_final - state.t > eps_t:
        dt = min(cfl_dt(state, safety), t_final - state.t)
        for tries in range(1, _STEP_TRIES + 1):
            new = step(state, dt, freeze_velocity=freeze_velocity)
            du = float(np.abs(new.u.values - state.u.values).max())
            if dt * du <= reach:
                break
            if tries == _STEP_TRIES:
                raise NumericalError(f"step at t={state.t:.9g} still moves u by max|du| = {du:.3e} "
                                     f"at dt = {dt:.3e} after {tries} tries")
            dt *= 0.9 * (reach / (dt * du)) ** 0.5
        state = new
        k += 1
        if observer is not None:
            observer(k, state)
        recorded = k % every == 0
        if recorded:
            records.append(energy_total(state))
    if not recorded:
        records.append(energy_total(state))
    return records, state


def renormalized_residual(s0: FluidState, s1: FluidState, b, db) -> float:
    """L1 residual of the renormalized continuity identity across one step.

    `b` and `db` are vectorized callables (b and its derivative) bounded on
    [0, max rho].  The flux term uses the same donor-cell divergence as the
    density substep evaluated at the earlier state, so b(z) = z reproduces
    the discrete continuity residual exactly (zero up to roundoff); nonlinear
    b measures the genuine O(dt + h) commutation defect.
    """
    dt = s1.t - s0.t
    if dt <= 0.0:
        raise ValueError("states must be ordered in time")
    g = s0.grid
    rho0 = s0.rho.values
    rho1 = s1.rho.values
    flux_div = upwind_divergence(b(rho0), s0.u, "density")
    resid = (b(rho1) - b(rho0)) / dt + flux_div + (db(rho0) * rho0 - b(rho0)) * div(s0.u)
    return lp_norm(g, np.abs(resid), 1)
