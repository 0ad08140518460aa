"""Pressure laws, conservative transport, and the viscous momentum update.

The barotropic fluid pressure is the stiff power law rho^gamma (gamma > 3/2);
the total pressure adds the polymer contributions eta + eta^2, where eta is
the zeroth orientation moment of f.  Both laws take and return arrays, and a
rho^gamma past the float range is a NumericalError that names gamma and max
rho; the substeps build fields only for the state fields they return (the
density of `transport_step`, the velocity of `momentum_step`).  Scalars are
transported with donor-cell
upwind fluxes, which keep them nonnegative under the advective CFL bound and
exactly conservative on periodic grids.  `transport_step` is the pure
donor-cell step; a caller that diffuses (the `eta` reference of check suite
3) follows it with the translational-diffusion substep `grid.heat_step`, the
composition the integrator applies to f.

The momentum update `momentum_step` is two halves.  The explicit
`_momentum_predictor` advects the momentum and adds the pressure and stress
forces; the implicit `_viscous_correction` solves for the new velocity, with
the part of the stiff fluid pressure that the step does not resolve as a
variable bulk viscosity.  Its `_ViscousOperator` is applied matrix-free and
solved by `_viscous_solve`: directly on 1D grids (`_substructured_solve`), by
CG under one spectral preconditioner (`_spectral_preconditioner`) on 2D
grids.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .grid import (
    _CFL_SLACK,
    PERIODIC,
    WALL_GHOST,
    ScalarField,
    VectorField,
    _centered_diff,
    _fill_ghosts,
    _ghost_frame,
    _pad_axis,
    as_real,
    grad,
    upwind_divergence,
    velocity_gradient,
)
from .kinetics import eta_moment, stress_moment

#: densities below this are treated as vacuum; velocity is forced to zero there
RHO_FLOOR = 1e-10

_CG_MAX_ITER = 2000
#: interior cells per block of the 1D direct solve (`_substructure_plan`)
_BLOCK = 14


@dataclass(frozen=True)
class PressureLaw:
    """Barotropic law pi = rho^gamma with the standing constraint gamma > 3/2.

    gamma is a real number by `grid.as_real`, stored as a Python float."""

    gamma: float

    def __post_init__(self):
        try:
            object.__setattr__(self, "gamma", as_real(self.gamma))
        except TypeError:
            raise ValueError(f"gamma must be a real number, got {self.gamma!r}") from None
        if not 1.5 < self.gamma < math.inf:  # rejects NaN too
            raise ValueError(f"gamma must be finite and exceed 3/2, got {self.gamma}")


@dataclass(frozen=True)
class PhysCoeffs:
    """Viscosities and diffusivities; the normalized default is 1 for all.

    Each is a real number by `grid.as_real`, stored as a Python float."""

    mu: float = 1.0
    lam: float = 1.0
    d_trans: float = 1.0
    d_rot: float = 1.0

    def __post_init__(self):
        for name in ("mu", "lam", "d_trans", "d_rot"):
            try:
                object.__setattr__(self, name, val := as_real(getattr(self, name)))
            except TypeError:
                raise ValueError(f"coefficient {name} must be a real number, got {getattr(self, name)!r}") from None
            if not 0.0 < val < math.inf:  # rejects NaN too
                raise ValueError(f"coefficient {name} must be positive and finite, got {val}")


def fluid_pressure(rho: np.ndarray, law: PressureLaw) -> np.ndarray:
    """pi = rho^gamma computed as exp(gamma ln rho), with pi = 0 where rho = 0:
    ln 0 = -inf, and exp(-inf) is exactly 0.  NumericalError if rho^gamma
    overflows."""
    if rho.min() < 0.0:
        raise ValueError("fluid pressure of a negative density")
    with np.errstate(divide="ignore", over="ignore"):
        pi = np.exp(law.gamma * np.log(rho))
    if not np.isfinite(pi).all():
        raise NumericalError(f"fluid pressure rho^gamma overflows at gamma = {law.gamma:g}, max rho = {rho.max():.6g}")
    return pi


def total_pressure(pi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Total pressure pi + eta + eta^2 (fluid plus polymer parts)."""
    if eta.min() < 0.0:
        raise ValueError("total pressure of a negative number density")
    return pi + eta + eta * eta


def transport_step(s: ScalarField, u: VectorField, dt: float, flux: np.ndarray) -> ScalarField:
    """One explicit donor-cell upwind step of d_t s + div(s u) = 0.

    `flux` is the donor divergence upwind_divergence(s.values, u, quantity)
    of these fields, computed by the caller; it reads the donor faces cached
    on `u`, which the step's other fluxes share.  Conservative (exact cell sum
    on periodic grids), monotone, and nonnegativity-preserving under the
    advective CFL bound.
    """
    if s.grid != u.grid:
        raise ValueError("transported field and velocity live on different grids")
    if s.values.min() < 0.0:
        raise ValueError("transport of a negative field")
    g = s.grid
    if any(dt * float(np.abs(u.values[a]).max()) > h * _CFL_SLACK for a, h in enumerate(g.h)):
        raise NumericalError(f"advective CFL violated for dt={dt:.3e}")
    out = s.values - dt * flux
    # roundoff guard: the update is nonnegative in exact arithmetic under the
    # CFL bound, but mixed-sign rounding can land 1 ulp below zero
    tiny = 1e-13 * max(float(s.values.max()), 1.0)
    low = float(out.min())
    if low < 0.0:
        if low < -tiny:
            raise NumericalError(f"transport produced negative values ({low:.3e})")
        out = np.maximum(out, 0.0)
    return ScalarField(g, out)


@functools.lru_cache(maxsize=16)
def _apply_workspace(grid) -> tuple:
    """The scratch arrays of `_ViscousOperator.__matmul__` on one grid, shared
    by every operator on it (an apply runs to its end before the next begins):
    the `grid._ghost_frame` of the velocity and that of w div u, then two
    pairs of cell arrays for the neighbour sums and differences."""
    return (_ghost_frame(grid, (grid.dim,)), _ghost_frame(grid),
            tuple(np.empty((2, grid.dim) + grid.cells)), tuple(np.empty((2,) + grid.cells)))


class _ViscousOperator:
    """rho_hat I - dt (mu Lap + grad((lam + dt c) div .)) on the stacked components.

    `c` is the per-cell linearized part of rho p'(rho) (`_viscous_correction`).
    In the grid's stencils this is rho_hat - nu Lap - D'_a w D_b with
    nu = dt mu, w = dt lam + dt^2 c, D and D' by the "velocity" and "bulk
    stress" ghosts: symmetric when their signs are opposite (D' = -D^T), and
    positive definite for rho_hat > 0 and c >= 0.  Its grad div is this wide
    centered-of-centered stencil, which decouples odd and even modes and is
    kept on purpose.
    `a @ x` applies it matrix-free to a flat velocity.  It copies the
    velocity into the interior of one buffer with a ghost frame on every
    cell axis, which `grid._fill_ghosts` fills by the "velocity" ghost, and
    reads each neighbour sum and difference as shifted slices of it; w div u
    takes a second such buffer, filled by the "bulk stress" ghost.  Both
    buffers, their views and the apply's temporaries are allocated once per
    grid (`_apply_workspace`).  In 1D, `bands` gives its entries in closed
    form.  It keeps `rho_hat` and bulk = dt (lam + dt mean(c)), which with
    `nu` set the constant-coefficient preconditioner of `_viscous_solve`.
    """

    def __init__(self, grid, rho_hat, dt, mu, lam, c):
        self.grid = grid
        self.rho_hat = rho_hat
        self.nu = dt * mu
        self.bulk = dt * (lam + dt * (float(c.sum()) / c.size))  # np.mean's value
        self.w = dt * lam + (dt * dt) * c
        self._centre = rho_hat + self.nu * sum(2.0 / (h * h) for h in grid.h)
        self._w_quarter = self.w * (0.25 / grid.h[0] ** 2)
        self._work = _apply_workspace(grid)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        # side sums neighbours in units of 1 / h_0^2, dv = 2 h_0 div u and
        # q = w div u / (2 h_0); unit rescalings (square cells) are skipped
        g, h0 = self.grid, self.grid.h[0]
        (u_pad, u_inner, u_shifted), (q_pad, q_inner, q_shifted), (side, side_a), (dv, d_a) = self._work
        u = x.reshape((g.dim,) + g.cells)
        u_inner[...] = u
        _fill_ghosts(g, u_pad, "velocity")
        for a, (h, (u_up, u_down)) in enumerate(zip(g.h, u_shifted)):
            s = np.add(u_up, u_down, out=side_a if a else side)
            d = np.subtract(u_up[a], u_down[a], out=d_a if a else dv)  # component a alone
            if h != h0:
                s *= (h0 / h) ** 2
                d *= h0 / h
            if a:
                side += s
                dv += d
        side *= self.nu / (h0 * h0)
        out = self._centre * u
        out -= side
        np.multiply(self._w_quarter, dv, out=q_inner)
        _fill_ghosts(g, q_pad, "bulk stress")
        for a, (h, (q_up, q_down)) in enumerate(zip(g.h, q_shifted)):
            gq = np.subtract(q_up, q_down, out=d_a)
            if h != h0:
                gq *= h0 / h
            out[a] -= gq
        return out.ravel()

    def bands(self) -> np.ndarray:
        """(5, n) on a 1D grid: row k holds the entries (i, i + k - 2 mod n), zero
        past a Dirichlet end; on 4 periodic cells the +-2 entries share a column.
        At a Dirichlet end the entries past it fold back onto the cells by the
        apply's ghosts: u_-1 = s u_0 (s the "velocity" sign), and w div u's
        ghost, signed by the padded w, reads u_1 - s u_0 for u_0 - u_-2.  Symmetric entry for entry when
        the "bulk stress" sign is -s: band 4 at row i and band 0 at row i + 2
        are the same floats, as are bands 3 and 1, and the Dirichlet zeros come
        in pairs.  Its flat `base` ends in the zero `_substructured_solve`
        reads off the bands."""
        (h,), n = self.grid.h, self.grid.n_cells
        w = _pad_axis(self.grid, self.w, 0, "bulk stress")
        bands = np.zeros(5 * n + 1)[:-1].reshape(5, n)
        bands[0], bands[4] = -w[:-2] / (4.0 * h * h), -w[2:] / (4.0 * h * h)
        bands[1] = bands[3] = -self.nu / (h * h)
        bands[2] = self._centre + (w[2:] + w[:-2]) / (4.0 * h * h)
        if self.grid.bc != PERIODIC:
            s = WALL_GHOST["velocity"]
            for b in (bands, bands[::-1, ::-1]):  # the lower end, then the upper one in mirror
                b[2, 0] += s * b[1, 0] + (1.0 + s) * b[0, 0]  # columns -1 and -2 of row 0
                b[3, 0] -= b[0, 0]
                b[1, 1] += s * b[0, 1]  # column -1 of row 1
            bands[(0, 0, 1, 3, 4, 4), (0, 1, 0, -1, -2, -1)] = 0.0  # (band, row) of each column past an end
        return bands


@functools.lru_cache(maxsize=16)
def _substructure_plan(grid):
    """The per-grid index plan of `_substructured_solve` on a 1D grid.

    The n cells are cut into m = n // (_BLOCK + 2) interior blocks of
    _BLOCK cells, block j starting at cell (_BLOCK + 2) j, each followed by 2
    interface cells; the cells left over at the end join the interface too
    (all of them when m = 0).  The operator has bandwidth 2 (with the
    periodic wrap), so a block couples only to its window: the 2 cells
    before it and the 2 after, all interface cells, and the blocks are
    mutually decoupled.  Returns (interior, iface, window, take_block,
    ss_take, schur_at):

        interior     the m _BLOCK block cells, block by block
        iface        the k interface cells
        window       (m, 4) interface numbers of each block's window
        take_block   (m, _BLOCK, _BLOCK + 4) block rows in the layout [2
                     window cells before, the block, 2 window cells after]:
                     row r holds band d in column r + d
        ss_take      the interface rows' entries in interface columns
        schur_at     the flat positions in the (k, k) Schur complement of
                     those entries, then of each block's (4, 4) window

    take_block and ss_take index the flat `_ViscousOperator.bands` with its
    trailing zero (entries outside the 5 bands read it).  The window rows
    need no plan: `_substructured_solve` reads them as the window columns
    transposed.
    """
    n, size = grid.n_cells, _BLOCK + 2
    m = n // size
    cell = np.arange(n)
    is_iface = (cell >= m * size) | (cell % size >= _BLOCK)
    interior, iface = np.flatnonzero(~is_iface), np.flatnonzero(is_iface)
    k = iface.size
    number = np.cumsum(is_iface) - 1  # of each interface cell
    window = number[(np.arange(m)[:, None] * size + np.array([-2, -1, _BLOCK, _BLOCK + 1])) % n]
    band = np.arange(_BLOCK + 4) - np.arange(_BLOCK)[:, None]  # of row r in layout column c: c - r
    take_block = np.where((band >= 0) & (band < 5), band * n + interior.reshape(m, _BLOCK, 1), 5 * n)
    cols = (iface[:, None] + np.arange(5) - 2) % n  # of the interface rows' 5 bands
    ss = is_iface[cols]
    ss_take = (np.arange(5) * n + iface[:, None])[ss]
    ss_at = (np.arange(k)[:, None] * k + number[cols])[ss]
    wz_at = (window[:, :, None] * k + window[:, None, :]).ravel()
    plan = (interior, iface, window, take_block, ss_take, np.concatenate((ss_at, wz_at)))
    for arr in plan:
        arr.flags.writeable = False  # shared by every solve on the grid
    return plan


def _substructured_solve(a, b: np.ndarray) -> np.ndarray:
    """Exact solve of a x = b on a 1D grid by static condensation.

    With the `_substructure_plan` of the grid of `a`: one batched LU solve of
    every interior block against its 4 window columns and its right-hand
    side, a dense solve of the interface Schur complement (about n/8
    unknowns), then back-substitution into the blocks.  Reads the blocks
    from the bands of `a` (`_ViscousOperator.bands`), which are symmetric
    entry for entry, so each window's rows are its columns transposed.
    """
    interior, iface, window, take_block, ss_take, schur_at = _substructure_plan(a.grid)
    k = iface.size
    data = a.bands().base
    rows = data[take_block]
    rhs = np.concatenate((rows[..., :2], rows[..., _BLOCK + 2 :], b[interior].reshape(-1, _BLOCK, 1)), axis=2)
    y = np.linalg.solve(rows[..., 2 : _BLOCK + 2], rhs)
    wy = rhs[..., :4].transpose(0, 2, 1) @ y
    schur = np.bincount(
        schur_at, np.concatenate((data[ss_take], -wy[..., :4].ravel())), minlength=k * k
    ).reshape(k, k)
    g = b[iface] - np.bincount(window.ravel(), wy[..., 4].ravel(), minlength=k)
    x = np.empty_like(b)
    x[iface] = xs = np.linalg.solve(schur, g)
    x[interior] = (y[..., 4] - (y[..., :4] @ xs[window][..., None])[..., 0]).ravel()
    return x


@functools.lru_cache(maxsize=16)
def _spectral_symbols(grid):
    """The tables of `_spectral_preconditioner` on a 2D grid: (lap, s, sines).

    lap(k) = -sum_a 4 sin^2(theta_a / 2) / h_a^2 is the 3-point Laplacian's
    symbol; s, stacked over the axes in front, holds the centered differences'
    s_a(k) = sin(theta_a) / h_a.  Periodic grids: rfft2 wavenumbers k_a,
    theta_a = 2 pi k_a / n_a, no sines.  Dirichlet grids: sine modes k_a = 1..n_a,
    theta_a = pi k_a / (n_a + 1), and per axis the orthonormal DST-I matrix
    sqrt(2 / (n + 1)) sin(pi k j / (n + 1)), k, j = 1..n, its own inverse.
    """
    if grid.bc == PERIODIC:
        freq, sines = [np.fft.fftfreq(grid.cells[0]), np.fft.rfftfreq(grid.cells[1])], ()
        theta = [2.0 * np.pi * ka for ka in np.meshgrid(*freq, indexing="ij")]
    else:
        k = [np.arange(1, n + 1) for n in grid.cells]
        sines = tuple(math.sqrt(2.0 / (ka.size + 1)) * np.sin(np.pi * np.outer(ka, ka) / (ka.size + 1)) for ka in k)
        theta = np.meshgrid(*(np.pi * ka / (ka.size + 1) for ka in k), indexing="ij")
    lap = -sum(4.0 * np.sin(0.5 * ta) ** 2 / h**2 for ta, h in zip(theta, grid.h))
    s = np.stack([np.sin(ta) / h for ta, h in zip(theta, grid.h)])
    for table in (lap, s, *sines):
        table.flags.writeable = False  # shared by every caller
    return lap, s, sines


def _spectral_preconditioner(a):
    """r -> (rbar I - nu Lap - bulk grad div)^-1 r on a 2D grid, by its symbol.

    rbar = mean(rho_hat), with grid, rho_hat, nu and bulk those of the
    `_ViscousOperator` a; r is a flat velocity array in the matrix ordering.
    With the zero-ghost stencils of a, alpha = rbar - nu lap(k) > 0 and s from
    `_spectral_symbols`, this operator has on periodic grids the symbol
    alpha(k) I + bulk s s^T, which Sherman-Morrison inverts exactly:

        I / alpha - bulk s s^T / (alpha (alpha + bulk |s|^2)).

    On Dirichlet grids the sine transform of component a is divided by
    alpha(k) + bulk s_a(k)^2; the cross terms of grad div are dropped.  Either
    map is real, symmetric and positive definite, as CG needs.
    """
    grid, bulk = a.grid, a.bulk
    lap, s, sines = _spectral_symbols(grid)
    alpha = float(np.mean(a.rho_hat)) - a.nu * lap
    shape = (grid.dim,) + grid.cells
    if sines:
        inv_symbol = 1.0 / (alpha + bulk * s**2)
        return lambda r: (sines[0] @ ((sines[0] @ r.reshape(shape) @ sines[1]) * inv_symbol) @ sines[1]).ravel()
    beta = bulk / (alpha * (alpha + bulk * np.sum(s * s, axis=0)))
    inv_alpha = 1.0 / alpha

    def apply(r: np.ndarray) -> np.ndarray:
        r_hat = np.fft.rfft2(r.reshape(shape))
        z_hat = r_hat * inv_alpha - s * (beta * np.sum(s * r_hat, axis=0))
        return np.fft.irfft2(z_hat, s=grid.cells).ravel()

    return apply


def _viscous_solve(a, b: np.ndarray) -> np.ndarray:
    """Solve a x = b, a = `_ViscousOperator`, to a checked true residual.

    `b` is shaped like a velocity array and is flattened to the matrix
    ordering; the grid and rho_hat are those of `a`.  On 1D grids the solve
    is direct (`_substructured_solve`).  On 2D grids it is CG preconditioned
    by `_spectral_preconditioner`, Fourier on periodic grids and sine on
    Dirichlet ones.  CG starts from b / rho_hat (exact for
    dt -> 0), iterates to recursive relative residual 1e-13 (so conservation
    sums stay at roundoff) or `_CG_MAX_ITER` steps in all, and stops at once
    on a NaN residual; where the recursive residual has drifted from the true
    one (stiff, badly scaled systems), CG restarts from the true residual.
    Either way x is accepted only if its true residual is below 1e-10 ||b||;
    anything else is a numerical failure that names the path and, for CG,
    its iteration count.
    """
    grid, shape = a.grid, b.shape
    b = b.ravel()
    b_norm = math.sqrt(b.dot(b))  # np.linalg.norm, without its wrapper
    if grid.dim == 1:
        x = _substructured_solve(a, b)
        r = b - a @ x
        res = math.sqrt(r.dot(r))
        path = "direct 1D"
    else:
        precondition = _spectral_preconditioner(a)
        x = b / np.broadcast_to(a.rho_hat, shape).ravel()
        r = b - a @ x
        work = np.empty_like(b)  # alpha p, then alpha a p: x and r are updated in place
        budget = _CG_MAX_ITER
        while True:
            p, rz = np.zeros_like(b), 1.0  # so the first search direction is z
            while budget > 0 and r @ r > (1e-13 * b_norm) ** 2:  # stops on NaN too
                budget -= 1
                z = precondition(r)
                rz, rz_old = r @ z, rz
                p *= rz / rz_old
                p += z
                ap = a @ p
                alpha = rz / (p @ ap)
                x += np.multiply(alpha, p, out=work)
                r -= np.multiply(alpha, ap, out=work)
            r = b - a @ x
            res = math.sqrt(r.dot(r))
            if res <= 1e-10 * b_norm or budget == 0 or not np.isfinite(res):
                break
        path = f"CG, {_CG_MAX_ITER - budget} iterations"
    if not res <= 1e-10 * b_norm:
        raise NumericalError(f"viscous solve failed at relative residual {res / b_norm:.3e} ({path})")
    return x.reshape(shape)


def _momentum_predictor(state, rho1: ScalarField, f1, dt: float) -> tuple:
    """The explicit half of `momentum_step`: (m_star, pi), both component-first.

    m_star is the donor-advected momentum plus dt times the explicit forces,
    built from the velocity u of `state` and the density rho = `rho1` and
    distribution `f1` the step has transported.  It advects
    rho^{n+1} u^n - dt div_h(rho^{n+1} u^n (x) u^n), which does not keep a
    uniform translation over a varying density (ROADMAP item 19, whose fix is
    local to this predictor); rho^n would be `state.rho`.  The force is the
    edge-ghost gradient of the whole total pressure p = pi + eta + eta^2 at
    rho, with eta the zeroth moment of `f1`, plus the divergence of the
    kinetic stress of `f1`; the polymer pressure eta + eta^2 stays explicit.
    pi = rho^gamma is returned for the correction to linearize.
    """
    g = state.grid
    rho = rho1.values
    last = tuple(range(1, g.dim + 1)) + (0,)  # channels-last for the shared donor flux
    m = (rho * state.u.values).transpose(last)
    m = m - dt * upwind_divergence(m, state.u, "velocity")
    pi = fluid_pressure(rho, state.law)
    p = total_pressure(pi, eta_moment(f1).values)
    force = np.negative(grad(g, p, "pressure").transpose(last), order="C")  # C order: strided in-place adds are slow
    sigma = stress_moment(f1)[..., : g.dim, : g.dim]
    for j in range(g.dim):
        force += _centered_diff(g, sigma[..., j], j, "stress")  # column j of div sigma, every row
    m += dt * force
    return m.transpose((g.dim,) + tuple(range(g.dim))), pi


def _viscous_correction(state, rho: np.ndarray, pi: np.ndarray, m_star: np.ndarray, dt: float) -> VectorField:
    """The implicit half of `momentum_step`: the new velocity from m_star.

    rho weights the solve as rho_hat = max(rho, RHO_FLOOR); cells below the
    floor are vacuum, where m_star and the new velocity are set to zero.  The
    stiff fluid pressure pi = rho^gamma of the predictor is corrected toward
    the density the next step will carry,

        p(rho - dt div(rho u_new)) ~ p(rho) - dt c div u_new,

    which keeps only the compression part rho div u of div(rho u); the part
    u . grad rho, which carries density rather than compressing it, is left
    to the next step's explicit pressure (and to the pressure bound of
    `cfl_dt`).  Only the part of rho p'(rho) = gamma rho^gamma whose sound
    speed the step does not resolve is linearized,

        c = (gamma rho^gamma - rho / (dt^2 sum_a h_a^-2))_+ ,

    so c acts as a variable bulk viscosity dt c beside lambda (the all-speed
    route of Degond-Tang) in

        (rho_hat I - dt [mu Lap + grad((lambda + dt c) div .)]) u_new = m_star,

    the `_ViscousOperator` that `_viscous_solve` solves.  At a step that
    resolves sound everywhere (dt^2 gamma rho^(gamma-1) sum_a h_a^-2 <= 1) c
    vanishes, and the update is the explicit-pressure scheme with no
    numerical bulk viscosity.  Beyond it, the von Neumann analysis of the
    linearized acoustics of the split (density moved by the old velocity,
    momentum pushed by the new density, centered stencils of symbol k) has
    amplification determinant 1 / (1 + dt^2 c k^2 / rho) and is stable for
    any dt, because the explicit remainder has Courant number at most 1; so
    no acoustic bound caps the step.
    """
    g, law, coeffs = state.grid, state.law, state.coeffs
    rho_hat = np.maximum(rho, RHO_FLOOR)
    vacuum = rho < RHO_FLOOR
    if vacuum.any():
        m_star = np.where(vacuum, 0.0, m_star)
    resolved = rho_hat / (dt * dt * sum(1.0 / h**2 for h in g.h))
    c = np.maximum(law.gamma * pi - resolved, 0.0)
    u_new = _viscous_solve(_ViscousOperator(g, rho_hat, dt, coeffs.mu, coeffs.lam, c), m_star)
    if vacuum.any():
        u_new = np.where(vacuum, 0.0, u_new)
    return VectorField(g, u_new)


def momentum_step(state, rho1: ScalarField, f1, dt: float) -> VectorField:
    """Advance m = rho u by advection, pressure, stress, and implicit viscosity.

    `state` is the state being advanced: its velocity u, pressure law,
    coefficients and grid.  `rho1` and `f1` are the density and distribution
    the step has transported (`integrator.step`).  The update is the explicit
    `_momentum_predictor` followed by the `_viscous_correction` of its m_star
    at rho = `rho1`.  Total momentum is conserved on periodic grids to the
    solve residual (roundoff in 1D, the 1e-13 CG rule in 2D): fluxes
    telescope, and centered gradients and the columns of
    mu Lap + grad((lambda + dt c) div .) sum to zero.
    """
    m_star, pi = _momentum_predictor(state, rho1, f1, dt)
    return _viscous_correction(state, rho1.values, pi, m_star, dt)


def _cfl_bounds(state) -> dict:
    """The finite step-size bounds of `cfl_dt`, by name, before the safety factor.

    advective  min_a h_a / max|u_a|
    polymer    h_min / c_p,  c_p^2 = max eta (1 + 2 eta) / rho
    pressure   max(1 / (gamma max (div_h(rho u) / rho)_+),
                   1 / (a sqrt(sum_a h_a^-2))),  a^2 = gamma max rho^(gamma-1)
    diffusive  h^2 / (2 d max(D, 1))   Dirichlet grids only
    drift      1 / (L(L+1) max|grad u|), L the highest even degree the basis
               holds (L-1 for an odd basis degree L)

    The polymer and pressure bounds read only cells with rho >= RHO_FLOOR
    (the momentum update forces u = 0 below it); div_h(rho u) is the
    state's `density_flux`, the donor divergence the density substep applies
    next.  The state's pressure law and coefficients give gamma and D.  Each
    bound is its formula in float64, and only the finite ones are returned:
    a zero speed or rate gives an infinite step, and so does an a^2 that
    underflows to 0 (its limit: an infinite acoustic step, so no pressure
    bound); an a^2 that overflows gives an acoustic step of 0, which leaves
    the compression step alone.
    """
    g = state.rho.grid
    rho, u, gamma = state.rho.values, state.u.values, np.float64(state.law.gamma)
    h_min = min(g.h)
    rho_live = np.where(rho >= RHO_FLOOR, rho, math.inf)  # vacuum cells add nothing
    eta = eta_moment(state.f).values
    # the positive part: max keeps its first argument on a tie, so -0.0 reads +0.0
    rate = max(0.0, (state.density_flux / rho_live).max())
    gv = velocity_gradient(state.u)
    L = int(state.f.basis.l_index[-1])  # the highest degree held, last in order
    with np.errstate(divide="ignore", over="ignore"):
        # gamma rho^(gamma-1) grows with rho, so the fastest sound is at max rho
        a2_h2 = gamma * rho.max() ** (gamma - 1.0) * sum(1.0 / h**2 for h in g.h)
        bounds = {
            "advective": min(h / np.abs(u[a]).max() for a, h in enumerate(g.h)),
            "polymer": h_min / np.sqrt((eta * (1.0 + 2.0 * eta) / rho_live).max()),
            "pressure": max(1.0 / (gamma * rate), 1.0 / np.sqrt(a2_h2)),
            "diffusive": h_min**2 / (2.0 * g.dim * max(state.coeffs.d_trans, 1.0)) if g.bc != PERIODIC else math.inf,
            "drift": 1.0 / (L * (L + 1) * np.sqrt((gv * gv).sum(axis=(-2, -1))).max()),
        }
    return {name: float(b) for name, b in bounds.items() if math.isfinite(b)}


def cfl_dt(state, safety: float) -> float:
    """Stable step size: safety x the smallest of the `_cfl_bounds` of `state`.

    The bounds read gamma and d_trans from the state's own `law` and
    `coeffs`.  The stiff fluid pressure is implicit beyond the sound speed
    the step resolves (`_viscous_correction`), so no acoustic bound caps the
    step.  The polymer bound is the speed of the wave that the explicit
    gradient of eta + eta^2 carries with the transported rods.  The pressure bound is the
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
    bound.  Every bound `_cfl_bounds` returns is finite, so a speed that
    rounds to 0 or a step that overflows simply has no bound, and a state
    with no finite bound (periodic, no velocity, no rods) returns `math.inf`;
    `integrator.run` then steps straight to its end time.  On Dirichlet grids
    the result is always finite.
    """
    if not 0.0 < safety <= 1.0:
        raise ValueError(f"safety factor must lie in (0, 1], got {safety}")
    return safety * min(_cfl_bounds(state).values(), default=math.inf)
