"""Pressure laws, conservative transport, and the viscous momentum update.

The barotropic fluid pressure is the stiff power law rho^gamma (gamma > 3/2);
the total pressure adds the polymer contributions eta + eta^2, where eta is
the zeroth orientation moment of f.  Scalars are transported with donor-cell
upwind fluxes plus translational diffusion by the 3-point Laplacian: exact
(`grid.heat_step`, no step-size bound) on periodic grids, explicit and bounded
by the diffusive CFL term on Dirichlet grids.  Both keep them nonnegative, and
exactly conservative on periodic grids.

The momentum update is split: explicit conservative advection of m = rho u,
explicit pressure-gradient and kinetic-stress forces, then a backward
(implicit) viscous solve

    (rho I - dt K) u_new = m_star,    K = mu Lap + lambda grad div,

with K assembled once per grid from the grid's stencil matrices.  Its `grad div`
is the wide centered-of-centered stencil, which decouples odd and even modes and
is kept on purpose.  The system is SPD for rho >= RHO_FLOOR; it is solved by
Jacobi-preconditioned CG to relative residual 1e-13 and accepted only at a true
residual below 1e-10.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NumericalError
from .grid import (
    PERIODIC,
    ScalarField,
    VectorField,
    _centered_diff,
    _diff_matrix,
    _second_diff,
    grad,
    heat_step,
    upwind_divergence,
)
from .kinetics import _gradient_block, eta_moment, stress_moment

#: densities below this are treated as vacuum; velocity is forced to zero there
RHO_FLOOR = 1e-10

_CFL_SLACK = 1.0 + 1e-12
_CG_MAX_ITER = 2000


@dataclass(frozen=True)
class PressureLaw:
    """Barotropic law pi = rho^gamma with the standing constraint gamma > 3/2."""

    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", float(self.gamma))
        if not self.gamma > 1.5:
            raise ValueError(f"gamma must exceed 3/2, got {self.gamma}")


@dataclass(frozen=True)
class PhysCoeffs:
    """Viscosities and diffusivities; the normalized default is 1 for all."""

    mu: float = 1.0
    lam: float = 1.0
    d_trans: float = 1.0
    d_rot: float = 1.0

    def __post_init__(self):
        for name in ("mu", "lam", "d_trans", "d_rot"):
            val = float(getattr(self, name))
            object.__setattr__(self, name, val)
            if not val > 0.0:
                raise ValueError(f"coefficient {name} must be positive, got {val}")


def fluid_pressure(rho: ScalarField, law: PressureLaw) -> ScalarField:
    """pi = rho^gamma computed as exp(gamma ln rho), with pi = 0 where rho = 0."""
    r = rho.values
    if np.any(r < 0.0):
        raise ValueError("fluid pressure of a negative density")
    out = np.zeros_like(r)
    pos = r > 0.0
    out[pos] = np.exp(law.gamma * np.log(r[pos]))
    return ScalarField(rho.grid, out)


def total_pressure(pi: ScalarField, eta: ScalarField) -> ScalarField:
    """Total pressure pi + eta + eta^2 (fluid plus polymer parts)."""
    if pi.grid != eta.grid:
        raise ValueError("pressure contributions live on different grids")
    e = eta.values
    if np.any(e < 0.0):
        raise ValueError("total pressure of a negative number density")
    return ScalarField(pi.grid, pi.values + e + e * e)


def _advective_ok(grid, u: np.ndarray, dt: float) -> bool:
    for a in range(grid.dim):
        vmax = float(np.max(np.abs(u[a])))
        if dt * vmax > grid.h[a] * _CFL_SLACK:
            return False
    return True


def transport_step(
    s: ScalarField, u: VectorField, dt: float, diffusivity: float = 0.0, ghost: str = "zero"
) -> ScalarField:
    """One step of d_t s + div(s u) = diffusivity * Lap s.

    An explicit donor-cell upwind step, then the 3-point diffusion.  On
    periodic grids the diffusion is exact, s* -> exp(dt diffusivity Lap_h) s*
    (`grid.heat_step`, the composition the integrator applies to f), and needs
    no step-size bound; on Dirichlet grids it is the explicit centered term of
    the old state and needs the diffusive CFL bound.  Conservative (exact cell
    sum on periodic grids), monotone for pure advection, and
    nonnegativity-preserving under the advective (and, on Dirichlet grids,
    diffusive) CFL bound.
    """
    if s.grid != u.grid:
        raise ValueError("transported field and velocity live on different grids")
    if np.any(s.values < 0.0):
        raise ValueError("transport of a negative field")
    g = s.grid
    if not _advective_ok(g, u.values, dt):
        raise NumericalError(f"advective CFL violated for dt={dt:.3e}")
    out = s.values - dt * upwind_divergence(g, s.values, u.values, ghost=ghost)
    if diffusivity > 0.0 and g.bc == PERIODIC:
        out = heat_step(g, out, dt * diffusivity)
    elif diffusivity > 0.0:
        stiff = dt * diffusivity * sum(2.0 / h**2 for h in g.h)
        if stiff > _CFL_SLACK:
            raise NumericalError(f"explicit diffusion unstable for dt={dt:.3e}")
        lap = np.zeros_like(s.values)
        for a in range(g.dim):
            lap += _second_diff(s.values, a, g.h[a], g.bc, ghost)
        out = out + dt * diffusivity * lap
    # roundoff guard: the update is nonnegative in exact arithmetic under the
    # CFL bound, but mixed-sign rounding can land 1 ulp below zero
    tiny = 1e-13 * max(float(np.max(s.values)), 1.0)
    low = float(np.min(out))
    if low < 0.0:
        if low < -tiny:
            raise NumericalError(f"transport produced negative values ({low:.3e})")
        out = np.maximum(out, 0.0)
    return ScalarField(g, out)


@functools.lru_cache(maxsize=16)
def _viscous_operator(grid, mu: float, lam: float) -> sp.csr_matrix:
    """K = mu Lap + lambda grad div on the stacked velocity components: the
    grid's zero-ghost `laplacian` and `grad(div(.))` stencils as one matrix,
    symmetric because the centered matrices are antisymmetric and commute."""
    d = [_diff_matrix(grid, a, second=False) for a in range(grid.dim)]
    lap = sum(_diff_matrix(grid, a, second=True) for a in range(grid.dim))
    grad_div = sp.bmat([[d[i] @ d[j] for j in range(grid.dim)] for i in range(grid.dim)])
    return (mu * sp.block_diag([lap] * grid.dim) + lam * grad_div).tocsr()


def _viscous_solve(grid, rho_hat, b, dt, mu, lam):
    """Jacobi-preconditioned CG on (rho_hat I - dt K) x = b, K = `_viscous_operator`.

    Iterates to recursive relative residual 1e-13 (so conservation sums stay
    at roundoff) or `_CG_MAX_ITER` steps, stopping at once on a NaN residual,
    then accepts x only if its true residual is below 1e-10 ||b||; anything
    else is a numerical failure.
    """
    k = _viscous_operator(grid, mu, lam)
    w = np.broadcast_to(rho_hat, b.shape).ravel()
    b = b.ravel()

    def apply(v):
        return w * v - dt * (k @ v)

    inv_diag = 1.0 / (w - dt * k.diagonal())
    b_norm = np.linalg.norm(b)
    x = b / w  # exact solution for dt -> 0
    r = b - apply(x)
    p, rz = np.zeros_like(b), 1.0  # so the first search direction is z
    for _ in range(_CG_MAX_ITER):
        if not np.linalg.norm(r) > 1e-13 * b_norm:  # converged, or NaN
            break
        z = inv_diag * r
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
        ap = apply(p)
        alpha = rz / (p @ ap)
        x = x + alpha * p
        r = r - alpha * ap
    res = np.linalg.norm(b - apply(x))
    if not res <= 1e-10 * b_norm:
        raise NumericalError(f"viscous solve failed at relative residual {res / b_norm:.3e}")
    return x.reshape((grid.dim,) + grid.cells)


def momentum_step(state, dt: float, coeffs: PhysCoeffs, law: PressureLaw) -> VectorField:
    """Advance m = rho u by advection, pressure, stress, and implicit viscosity.

    Uses the state's density for both the momentum and the viscous operator,
    and the zeroth moment of its distribution f as the number density in the
    pressure (the coupled integrator passes the freshest rho and f).  Total
    momentum is conserved on periodic grids to the 1e-13 solve residual: fluxes
    telescope, and centered gradients and viscous-operator columns sum to zero.
    """
    g = state.rho.grid
    rho = state.rho.values
    u = state.u.values
    m = np.moveaxis(rho * u, 0, -1)  # channels-last for the shared donor flux
    m = m - dt * upwind_divergence(g, m, u, ghost="zero")

    pressure = total_pressure(fluid_pressure(state.rho, law), eta_moment(state.f))
    gp = grad(pressure, ghost="edge").values
    sigma = stress_moment(state.f)
    for i in range(g.dim):
        force = -gp[i]
        for j in range(g.dim):
            force += _centered_diff(sigma[..., i, j], j, g.h[j], g.bc, "zero")
        m[..., i] += dt * force

    m = np.moveaxis(m, -1, 0)
    rho_hat = np.maximum(rho, RHO_FLOOR)
    vacuum = rho < RHO_FLOOR
    if np.any(vacuum):
        m = np.where(vacuum, 0.0, m)
    u_new = _viscous_solve(g, rho_hat, m, dt, coeffs.mu, coeffs.lam)
    if np.any(vacuum):
        u_new = np.where(vacuum, 0.0, u_new)
    return VectorField(g, u_new)


def cfl_dt(state, coeffs: PhysCoeffs, law: PressureLaw, safety: float) -> float:
    """Stable step size: safety x min(advective, acoustic, diffusive, drift).

    advective  h / max|u|            (per axis)
    acoustic   h / sqrt(gamma max rho^(gamma-1))
    diffusive  h^2 / (2 d max(D, 1))   Dirichlet grids only
    drift      1 / (L(L+1) max|grad u|)  for the spectral sphere drift

    The diffusive bound guards the explicit translational diffusion of f,
    which only Dirichlet grids still take; periodic grids diffuse exactly and
    have no such bound.  The acoustic bound shrinks like gamma^(-1/2) at
    rho = 1: the documented cost of the stiff pressure.  A bound whose speed
    is zero drops out, so a periodic state with zero velocity and zero
    density has no finite bound and returns `math.inf`; `integrator.run`
    then steps straight to its end time.  On Dirichlet grids the result is
    always finite.
    """
    if not 0.0 < safety <= 1.0:
        raise ValueError(f"safety factor must lie in (0, 1], got {safety}")
    g = state.rho.grid
    bounds = []
    for a in range(g.dim):
        vmax = float(np.max(np.abs(state.u.values[a])))
        if vmax > 0.0:
            bounds.append(g.h[a] / vmax)
    h_min = min(g.h)
    rho_max = float(np.max(state.rho.values))
    if rho_max > 0.0:
        speed2 = law.gamma * math.exp((law.gamma - 1.0) * math.log(rho_max))
        bounds.append(h_min / math.sqrt(speed2))
    if g.bc != PERIODIC:
        bounds.append(h_min**2 / (2.0 * g.dim * max(coeffs.d_trans, 1.0)))
    gv = _gradient_block(g, state.u.values)
    g_max = float(np.max(np.sqrt(np.sum(gv * gv, axis=(-2, -1)))))
    if g_max > 0.0:
        L = state.f.basis.degree
        bounds.append(1.0 / (L * (L + 1) * g_max))
    return safety * min(bounds, default=math.inf)
