"""Pressure laws, conservative transport, and the viscous momentum update.

The barotropic fluid pressure is the stiff power law rho^gamma (gamma > 3/2);
the total pressure adds the polymer contributions eta + eta^2, where eta is
the zeroth orientation moment of f.  Scalars are transported with donor-cell
upwind fluxes, which keep them nonnegative under the advective CFL bound and
exactly conservative on periodic grids.  `transport_step` can follow the
flux with the translational-diffusion substep `grid.heat_step` that f
shares, but the density substep passes diffusivity 0: only the `eta`
reference of check suite 3 is diffused.

The momentum update is split: explicit conservative advection of m = rho u,
explicit pressure-gradient and kinetic-stress forces, then a backward
(implicit) viscous solve in which the part of the stiff fluid pressure that
the step does not resolve is linearized about the density of the next step,

    (rho I - dt [mu Lap + grad((lambda + dt c) div .)]) u_new = m_star,
    c = (gamma rho^gamma - rho / (dt^2 sum_a h_a^-2))_+ ,

so c <= gamma rho^gamma = rho p'(rho) acts as a variable bulk viscosity
beside lambda (the all-speed route of Degond-Tang).  A step that resolves
sound has c = 0 and is the explicit-pressure scheme; a longer one needs no
acoustic bound.  The polymer pressure eta + eta^2 stays explicit.  The matrix
is assembled per step as data on a CSR pattern cached per grid, built from
the grid's stencil matrices.  Its `grad div` is the wide
centered-of-centered stencil, which decouples odd and even modes and is kept
on purpose.  The system is SPD for rho >= RHO_FLOOR.  On 1D grids it is
solved directly, by static condensation of blocks of the pentadiagonal (with
the periodic wrap) matrix onto a small interface; on 2D grids by
Jacobi-preconditioned CG to relative residual 1e-13, restarted from the true
residual when the recursive one has drifted from it.  Either result is
accepted only at a true residual below 1e-10.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NumericalError
from .grid import (
    _CFL_SLACK,
    PERIODIC,
    ScalarField,
    VectorField,
    _centered_diff,
    _diff_matrix,
    grad,
    heat_step,
    upwind_divergence,
)
from .kinetics import eta_moment, stress_moment, velocity_gradient

#: densities below this are treated as vacuum; velocity is forced to zero there
RHO_FLOOR = 1e-10

_CG_MAX_ITER = 2000
#: interior cells per block of the 1D direct solve (`_substructure_plan`)
_BLOCK = 14


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
    s: ScalarField,
    u: VectorField,
    dt: float,
    diffusivity: float = 0.0,
    ghost: str = "zero",
    flux: np.ndarray | None = None,
) -> ScalarField:
    """One step of d_t s + div(s u) = diffusivity * Lap s.

    An explicit donor-cell upwind step s*, then, for a positive diffusivity,
    the translational-diffusion substep `grid.heat_step(s*, dt diffusivity)`,
    the composition the integrator applies to f: exact on periodic grids, and
    explicit under the diffusive CFL bound (with the zero ghost) on Dirichlet
    grids.  `ghost` is the ghost policy of the donor flux; `flux`, if given,
    is the donor divergence upwind_divergence(s, u, ghost) already computed
    for these fields.  Conservative (exact cell sum on periodic grids),
    monotone for pure advection, and nonnegativity-preserving under the
    advective (and, on Dirichlet grids, diffusive) CFL bound.
    """
    if s.grid != u.grid:
        raise ValueError("transported field and velocity live on different grids")
    if np.any(s.values < 0.0):
        raise ValueError("transport of a negative field")
    g = s.grid
    if not _advective_ok(g, u.values, dt):
        raise NumericalError(f"advective CFL violated for dt={dt:.3e}")
    if flux is None:
        flux = upwind_divergence(g, s.values, u.values, ghost=ghost)
    out = s.values - dt * flux
    if diffusivity > 0.0:
        out = heat_step(g, out, dt * diffusivity)
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
def _viscous_pattern(grid):
    """The per-grid structure of the momentum matrix `_viscous_matrix`.

    Returns (indptr, indices, to_data): one CSR pattern on the stacked
    velocity components and a sparse map from the weights
    (w per cell, nu, rho_hat per cell) to the data of

        divT diag(w) div - nu Lap + diag(rho_hat)

    on it, where `div` and `Lap` are the grid's zero-ghost centered
    divergence and 3-point Laplacian.  The zero ghost makes grad = -divT, so
    -divT diag(w) div is grad(w div .), the wide centered-of-centered stencil.
    Contributions to one position are summed, also where the +-2 offsets of
    that stencil wrap onto each other (4 periodic cells).
    """
    dim, n = grid.dim, grid.n_cells
    size = dim * n
    lap = sp.block_diag([sum(_diff_matrix(grid, a, second=True) for a in range(dim))] * dim).tocoo()
    dv = sp.hstack([_diff_matrix(grid, a, second=False) for a in range(dim)]).tocsr()
    dv.eliminate_zeros()
    start, count = dv.indptr[:-1], np.diff(dv.indptr)
    # every contribution: its (row, column) key, its value, and the column of
    # the weight it scales with
    keys, vals, wcol = [lap.row * np.int64(size) + lap.col], [-lap.data], [np.full(lap.nnz, n)]
    # divT diag(w) div = sum_k w_k d_k d_kT over the rows d_k of div: every
    # ordered pair of stored entries of row k adds w_k d_kr d_ks at (r, s)
    for i in range(count.max()):
        for j in range(count.max()):
            k = np.flatnonzero(count > max(i, j))
            p, q = start[k] + i, start[k] + j
            keys.append(dv.indices[p] * np.int64(size) + dv.indices[q])
            vals.append(dv.data[p] * dv.data[q])
            wcol.append(k)
    diag = np.arange(size)
    keys.append(diag * np.int64(size + 1))
    vals.append(np.ones(size))
    wcol.append(n + 1 + diag % n)
    keys, slot = np.unique(np.concatenate(keys), return_inverse=True)
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // size, minlength=size), out=indptr[1:])
    to_data = sp.csr_matrix(
        (np.concatenate(vals), (slot, np.concatenate(wcol))), shape=(keys.size, 2 * n + 1)
    )
    return indptr, (keys % size).astype(np.int32), to_data


def _viscous_matrix(grid, rho_hat, dt, mu, lam, c) -> sp.csr_matrix:
    """rho_hat I - dt (mu Lap + grad((lam + dt c) div .)) on the stacked components.

    `c` is the per-cell linearized part of rho p'(rho) (`momentum_step`); at
    c = 0 this is the plain implicit-viscosity matrix.  Symmetric, and
    positive definite for rho_hat > 0 and c >= 0.  Assembled as data on the
    cached `_viscous_pattern` by one sparse product.
    """
    indptr, indices, to_data = _viscous_pattern(grid)
    weights = np.concatenate((dt * lam + (dt * dt) * c.ravel(), [dt * mu], rho_hat.ravel()))
    size = indptr.size - 1
    return sp.csr_matrix((to_data @ weights, indices, indptr), shape=(size, size))


@functools.lru_cache(maxsize=16)
def _substructure_plan(grid):
    """The per-grid index plan of `_substructured_solve` on a 1D grid.

    The n cells are cut into m = n // (_BLOCK + 2) interior blocks of
    _BLOCK cells, each followed by 2 interface cells; the cells left over at
    the end join the interface too (all of them when m = 0).  The matrix has
    bandwidth 2 (with the periodic wrap), so a block couples only to its
    window: the 2 cells before it and the 2 after, all interface cells, and
    the blocks are mutually decoupled.  Returns (interior, iface, window,
    take_block, take_window, ss_take, ss_at, wz_at):

        interior     the m _BLOCK block cells, block by block
        iface        the k interface cells
        window       (m, 4) interface numbers of each block's window
        take_block   (m, _BLOCK, _BLOCK + 4) block rows, in the columns of
                     the 2 window cells before, the block, the 2 after
        take_window  (m, 4, _BLOCK) window rows, block columns
        ss_take      interface-interface entries
        ss_at        their flat positions in the (k, k) Schur complement
        wz_at        the flat (k, k) positions of each block's (4, 4) window

    The take_* and ss_take arrays index the data of the `_viscous_pattern`
    CSR matrix with one zero appended (entries outside the pattern read it).
    """
    n, size = grid.n_cells, _BLOCK + 2
    indptr, indices, _ = _viscous_pattern(grid)
    nnz = indices.size
    m = n // size
    start = np.arange(m) * size
    interior = (start[:, None] + np.arange(_BLOCK)).ravel()
    block = np.full(n, -1)
    block[interior] = np.repeat(np.arange(m), _BLOCK)
    iface = np.flatnonzero(block < 0)
    k = iface.size
    number = np.zeros(n, dtype=np.intp)
    number[iface] = np.arange(k)
    window = number[(start[:, None] + np.array([-2, -1, _BLOCK, _BLOCK + 1])) % n]

    def offset(cell, j):
        # place in block j's run of window and block cells: 0, 1 the window
        # before, 2.._BLOCK+1 the block, _BLOCK+2, _BLOCK+3 the window after
        return (cell - start[j] + 2) % n

    rows = np.repeat(np.arange(n), np.diff(indptr))
    in_block = block[rows] >= 0
    take_block = np.full((m, _BLOCK, _BLOCK + 4), nnz)
    e = np.flatnonzero(in_block)
    j = block[rows[e]]
    take_block[j, rows[e] - start[j], offset(indices[e], j)] = e
    take_window = np.full((m, 4, _BLOCK), nnz)
    e = np.flatnonzero(~in_block & (block[indices] >= 0))
    j = block[indices[e]]
    o = offset(rows[e], j)
    take_window[j, np.where(o < 2, o, o - _BLOCK), indices[e] - start[j]] = e
    ss_take = np.flatnonzero(~in_block & (block[indices] < 0))
    ss_at = number[rows[ss_take]] * k + number[indices[ss_take]]
    wz_at = (window[:, :, None] * k + window[:, None, :]).ravel()
    return interior, iface, window, take_block, take_window, ss_take, ss_at, wz_at


def _substructured_solve(grid, a, b: np.ndarray) -> np.ndarray:
    """Exact solve of a x = b on a 1D grid by static condensation.

    With the `_substructure_plan` of the grid: one batched LU solve of every
    interior block against its right-hand side and its 4 window columns,
    a dense solve of the interface Schur complement (about n/8 unknowns),
    then back-substitution into the blocks.  Reads the blocks from the data
    of `a`, which must carry the `_viscous_pattern` of the grid; it assumes
    no symmetry.
    """
    interior, iface, window, take_block, take_window, ss_take, ss_at, wz_at = _substructure_plan(grid)
    k = iface.size
    data = np.append(a.data, 0.0)
    rows = data[take_block]
    rhs = (rows[..., :2], rows[..., _BLOCK + 2 :], b[interior].reshape(-1, _BLOCK, 1))
    y = np.linalg.solve(rows[..., 2 : _BLOCK + 2], np.concatenate(rhs, axis=2))
    wy = data[take_window] @ y
    schur = np.bincount(
        np.concatenate((ss_at, wz_at)),
        np.concatenate((data[ss_take], -wy[..., :4].ravel())),
        minlength=k * k,
    ).reshape(k, k)
    g = b[iface] - np.bincount(window.ravel(), wy[..., 4].ravel(), minlength=k)
    x = np.empty_like(b)
    x[iface] = xs = np.linalg.solve(schur, g)
    x[interior] = (y[..., 4] - (y[..., :4] @ xs[window][..., None])[..., 0]).ravel()
    return x


def _viscous_solve(grid, a, b: np.ndarray, rho_hat: np.ndarray) -> np.ndarray:
    """Solve a x = b, a = `_viscous_matrix` on `grid`, to a checked true residual.

    `b` is shaped like a velocity array and is flattened to the matrix
    ordering.  On 1D grids the solve is direct (`_substructured_solve`).  On
    2D grids it is Jacobi-preconditioned CG, started from b / rho_hat (exact
    for dt -> 0), iterated to recursive relative residual 1e-13 (so
    conservation sums stay at roundoff) or `_CG_MAX_ITER` steps in all, and
    stopped at once on a NaN residual; where the recursive residual has
    drifted from the true one (stiff, badly scaled systems), CG restarts from
    the true residual.  Either way x is accepted only if its true residual is
    below 1e-10 ||b||; anything else is a numerical failure that names the
    path and, for CG, its iteration count.
    """
    shape = b.shape
    b = b.ravel()
    b_norm = np.linalg.norm(b)
    if grid.dim == 1:
        x = _substructured_solve(grid, a, b)
        res = np.linalg.norm(b - a @ x)
        path = "direct 1D"
    else:
        x = b / np.broadcast_to(rho_hat, shape).ravel()
        inv_diag = 1.0 / a.diagonal()
        r = b - a @ x
        budget = _CG_MAX_ITER
        while True:
            p, rz = np.zeros_like(b), 1.0  # so the first search direction is z
            while budget > 0 and np.linalg.norm(r) > 1e-13 * b_norm:  # stops on NaN too
                budget -= 1
                z = inv_diag * r
                rz, rz_old = r @ z, rz
                p = z + (rz / rz_old) * p
                ap = a @ p
                alpha = rz / (p @ ap)
                x = x + alpha * p
                r = r - alpha * ap
            r = b - a @ x
            res = np.linalg.norm(r)
            if res <= 1e-10 * b_norm or budget == 0 or not np.isfinite(res):
                break
        path = f"CG, {_CG_MAX_ITER - budget} iterations"
    if not res <= 1e-10 * b_norm:
        raise NumericalError(f"viscous solve failed at relative residual {res / b_norm:.3e} ({path})")
    return x.reshape(shape)


def momentum_step(state, dt: float, coeffs: PhysCoeffs, law: PressureLaw) -> VectorField:
    """Advance m = rho u by advection, pressure, stress, and implicit viscosity.

    Uses the state's density for both the momentum and the viscous operator,
    and the zeroth moment of its distribution f as the number density in the
    pressure (the coupled integrator passes the freshest rho and f).  The
    explicit force is the edge-ghost gradient of the whole total pressure at
    rho, plus the stress divergence.  The stiff fluid pressure is then
    corrected toward the density the next step will carry,

        p(rho - dt div(rho u_new)) ~ p(rho) - dt c div u_new,

    which keeps only the compression part rho div u of div(rho u); the part
    u . grad rho, which carries density rather than compressing it, is left
    to the next step's explicit pressure (and to the pressure bound of
    `cfl_dt`).  Only the part of rho p'(rho) = gamma rho^gamma whose sound
    speed the step does not resolve is linearized,

        c = (gamma rho^gamma - rho / (dt^2 sum_a h_a^-2))_+ ,

    and it enters the implicit solve as a variable bulk viscosity dt c beside
    lambda (`_viscous_matrix`).  At a step that resolves sound everywhere
    (dt^2 gamma rho^(gamma-1) sum_a h_a^-2 <= 1) c vanishes, and the update is
    the explicit-pressure scheme with no numerical bulk viscosity.  Beyond
    it, the von Neumann analysis of the linearized acoustics of this split
    (density moved by the old velocity, momentum pushed by the new density,
    centered stencils of symbol k) has amplification determinant
    1 / (1 + dt^2 c k^2 / rho) and is stable for any dt, because the explicit
    remainder has Courant number at most 1; so no acoustic bound caps the
    step.  The polymer pressure eta + eta^2 stays explicit.  Total momentum is
    conserved on periodic grids to the solve residual (roundoff in 1D, the
    1e-13 CG rule in 2D): fluxes telescope, and centered gradients and the
    columns of mu Lap + grad((lambda + dt c) div .) sum to zero.
    """
    g = state.rho.grid
    rho = state.rho.values
    u = state.u.values
    m = np.moveaxis(rho * u, 0, -1)  # channels-last for the shared donor flux
    m = m - dt * upwind_divergence(g, m, u, ghost="zero")

    pi = fluid_pressure(state.rho, law)
    gp = grad(total_pressure(pi, eta_moment(state.f)), ghost="edge").values
    sigma = stress_moment(state.f)[..., : g.dim, : g.dim]
    force = -gp.transpose(tuple(range(1, g.dim + 1)) + (0,))  # channels-last, like m
    for j in range(g.dim):
        force += _centered_diff(g, sigma[..., j], j, "zero")  # column j of div sigma, every row
    m += dt * force

    m = np.moveaxis(m, -1, 0)
    rho_hat = np.maximum(rho, RHO_FLOOR)
    vacuum = rho < RHO_FLOOR
    if np.any(vacuum):
        m = np.where(vacuum, 0.0, m)
    resolved = rho_hat / (dt * dt * sum(1.0 / h**2 for h in g.h))
    c = np.maximum(law.gamma * pi.values - resolved, 0.0)
    u_new = _viscous_solve(g, _viscous_matrix(g, rho_hat, dt, coeffs.mu, coeffs.lam, c), m, rho_hat)
    if np.any(vacuum):
        u_new = np.where(vacuum, 0.0, u_new)
    return VectorField(g, u_new)


def _cfl_bounds(state, coeffs: PhysCoeffs, law: PressureLaw) -> dict:
    """The finite step-size bounds of `cfl_dt`, by name, before the safety factor.

    advective  min_a h_a / max|u_a|
    polymer    h_min / c_p,  c_p^2 = max eta (1 + 2 eta) / rho
    pressure   max(1 / (gamma max (div_h(rho u) / rho)_+),
                   1 / (a sqrt(sum_a h_a^-2))),  a^2 = gamma max rho^(gamma-1)
    diffusive  h^2 / (2 d max(D, 1))   Dirichlet grids only
    drift      1 / (L(L+1) max|grad u|)  for the spectral sphere drift

    The polymer and pressure bounds read only cells with rho >= RHO_FLOOR
    (the momentum update forces u = 0 below it); div_h(rho u) is the
    state's `density_flux`, the donor divergence the density substep applies
    next.  A bound whose speed or rate is zero is left out.
    """
    g = state.rho.grid
    rho, u = state.rho.values, state.u.values
    bounds = {}
    vmax = [float(np.max(np.abs(u[a]))) for a in range(g.dim)]
    advective = [h / v for h, v in zip(g.h, vmax) if v > 0.0]
    if advective:
        bounds["advective"] = min(advective)
    h_min = min(g.h)
    rho_live = np.where(rho >= RHO_FLOOR, rho, math.inf)  # vacuum cells add nothing
    eta = eta_moment(state.f).values
    c2 = float(np.max(eta * (1.0 + 2.0 * eta) / rho_live))
    if c2 > 0.0:
        bounds["polymer"] = h_min / math.sqrt(c2)
    rate = float(np.max(state.density_flux / rho_live))
    if rate > 0.0:
        # gamma rho^(gamma-1) grows with rho, so the fastest sound is at max rho
        a2 = law.gamma * float(np.max(rho)) ** (law.gamma - 1.0)
        acoustic = 1.0 / math.sqrt(a2 * sum(1.0 / h**2 for h in g.h))
        bounds["pressure"] = max(1.0 / (law.gamma * rate), acoustic)
    if g.bc != PERIODIC:
        bounds["diffusive"] = h_min**2 / (2.0 * g.dim * max(coeffs.d_trans, 1.0))
    gv = velocity_gradient(state.u)
    g_max = float(np.max(np.sqrt(np.sum(gv * gv, axis=(-2, -1)))))
    if g_max > 0.0:
        L = state.f.basis.degree
        bounds["drift"] = 1.0 / (L * (L + 1) * g_max)
    return bounds


def cfl_dt(state, coeffs: PhysCoeffs, law: PressureLaw, safety: float) -> float:
    """Stable step size: safety x the smallest of the `_cfl_bounds`.

    The stiff fluid pressure is implicit beyond the sound speed the step
    resolves (`momentum_step`), so no acoustic bound caps the step.  The
    polymer bound is the speed of the wave that the explicit gradient of
    eta + eta^2 carries with the transported rods.  The pressure bound is the
    larger of two steps.  At the acoustic step the pressure update is wholly
    explicit, as in a scheme without the linearization.  The compression
    step 1 / (gamma max div_h(rho u) / rho) limits the relative density
    change per step to 1 / gamma where the linearization is active.  It is an
    empirical bound: nothing guarantees p(rho) - dt c div u_new >= 0, and the
    linearization leaves out u . grad rho; without it the criterion-6 streams
    passed gamma <= 80 but blew up at gamma = 320 and 640 (pressure time
    integrals 409 and 3.0e8, against about 1.4).  The diffusive bound guards
    the translational-diffusion substep `grid.heat_step`, which is explicit
    on Dirichlet grids only; periodic grids diffuse exactly and have no such
    bound.  A state with no finite bound (periodic, no velocity, no rods)
    returns `math.inf`; `integrator.run` then steps straight to its end time.
    On Dirichlet grids the result is always finite.
    """
    if not 0.0 < safety <= 1.0:
        raise ValueError(f"safety factor must lie in (0, 1], got {safety}")
    return safety * min(_cfl_bounds(state, coeffs, law).values(), default=math.inf)
