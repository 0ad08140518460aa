"""Pressure laws, the momentum update, and the stable-step computation."""

import math
import re
from dataclasses import replace
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doifbp import (
    EPS_POS,
    Grid,
    NumericalError,
    OrientationField,
    PhysCoeffs,
    PressureLaw,
    RunConfig,
    ScalarField,
    VectorField,
    build_initial_state,
    eta_moment,
    integral,
    make_sphere_basis,
    run,
)
from doifbp import hydro
from doifbp.grid import _pad_axis, div, grad, laplacian, velocity_gradient
from doifbp.hydro import cfl_dt, fluid_pressure, momentum_step, total_pressure
from doifbp.integrator import FluidState, step
from doifbp.sphere import uniform_orientation


def _uniform_state(grid, basis, rho=0.8, eta=0.1, gamma=5.0, u=None, coeffs=None):
    if u is None:
        u = np.zeros((grid.dim,) + grid.cells)
    return FluidState(
        rho=ScalarField(grid, np.full(grid.cells, rho)),
        u=VectorField(grid, u),
        f=uniform_orientation(grid, basis, eta),
        t=0.0,
        law=PressureLaw(gamma),
        coeffs=coeffs if coeffs is not None else PhysCoeffs(),
    )


# ---------------------------------------------------------------------------
# pressure laws


def test_fluid_pressure_unit_and_vacuum():
    law = PressureLaw(7.0)
    assert np.array_equal(fluid_pressure(np.ones(8), law), np.ones(8))
    assert np.array_equal(fluid_pressure(np.zeros(8), law), np.zeros(8))


def test_fluid_pressure_high_precision_power():
    # independent oracle: Decimal arithmetic at 50 digits for 1.1^40
    getcontext().prec = 50
    oracle = float(Decimal("1.1") ** 40)
    got = fluid_pressure(np.full(4, 1.1), PressureLaw(40.0))
    assert np.max(np.abs(got - oracle)) < 1e-12 * oracle
    assert oracle == pytest.approx(45.259256, rel=1e-7)


def test_fluid_pressure_rejects_negative_density():
    with pytest.raises(ValueError, match="negative"):
        fluid_pressure(np.full(4, -0.1), PressureLaw(2.0))


def test_fluid_pressure_overflow_is_a_named_numerical_error():
    # rho^gamma past the float range is a stiff state, not invalid input: the
    # error names gamma and the density that overflowed (and numpy's overflow
    # warning, an error under the suite's filterwarnings, is not raised)
    rho = np.array([0.4, 1.0, 2.0, 0.0])
    with pytest.raises(NumericalError, match=r"overflows at gamma = 1280, max rho = 2$"):
        fluid_pressure(rho, PressureLaw(1280.0))
    assert fluid_pressure(rho, PressureLaw(1000.0))[0] == 0.0  # 0.4^1000 underflows to 0


def test_pressure_monotonicity():
    rhos = np.array([0.2, 0.6, 0.9, 1.0, 1.3])
    p5 = fluid_pressure(rhos, PressureLaw(5.0))
    p9 = fluid_pressure(rhos, PressureLaw(9.0))
    assert np.all(np.diff(p5) > 0.0)  # nondecreasing in rho
    assert p9[-1] > p5[-1]  # rho > 1: increasing in gamma
    assert np.all(p9[:3] < p5[:3])  # rho < 1: decreasing in gamma


def test_total_pressure_values_and_validation():
    zero, one, two = np.zeros(4), np.ones(4), np.full(4, 2.0)
    assert np.array_equal(total_pressure(zero, zero), np.zeros(4))
    assert np.array_equal(total_pressure(one, one), np.full(4, 3.0))
    assert np.array_equal(total_pressure(zero, two), np.full(4, 6.0))
    with pytest.raises(ValueError, match="negative"):
        total_pressure(one, np.full(4, -1.0))


def test_law_and_coefficient_validation():
    with pytest.raises(ValueError, match="3/2"):
        PressureLaw(1.5)
    with pytest.raises(ValueError, match="positive"):
        PhysCoeffs(mu=0.0)
    with pytest.raises(ValueError, match="positive"):
        PhysCoeffs(d_rot=-1.0)
    for gamma in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="3/2"):
            PressureLaw(gamma)
    for name in ("mu", "lam", "d_trans", "d_rot"):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"coefficient {name} must be positive and finite"):
                PhysCoeffs(**{name: value})


def test_law_and_coefficients_take_real_numbers_by_the_one_rule():
    # float() would parse "10" and read True as 1.0; like `Grid`, the law and
    # the coefficients refuse anything but a real number and name the field
    for gamma in ("10", True, None, 3.0 + 0.0j):
        with pytest.raises(ValueError, match=rf"^gamma must be a real number, got {re.escape(repr(gamma))}$"):
            PressureLaw(gamma)
    for name in ("mu", "lam", "d_trans", "d_rot"):
        for value in (True, "2", None):
            with pytest.raises(ValueError, match=rf"^coefficient {name} must be a real number, got {value!r}$"):
                PhysCoeffs(**{name: value})
    # numpy scalars are real numbers, stored as Python floats
    law = PressureLaw(np.float32(10.0))
    assert law.gamma == 10.0 and type(law.gamma) is float
    assert type(PressureLaw(np.int64(7)).gamma) is float
    coeffs = PhysCoeffs(mu=np.float64(0.5), lam=np.int32(2), d_trans=3, d_rot=np.float16(0.25))
    assert (coeffs.mu, coeffs.lam, coeffs.d_trans, coeffs.d_rot) == (0.5, 2.0, 3.0, 0.25)
    assert all(type(getattr(coeffs, name)) is float for name in ("mu", "lam", "d_trans", "d_rot"))


# ---------------------------------------------------------------------------
# momentum update


def test_momentum_uniform_equilibrium_stays_at_rest():
    basis = make_sphere_basis(2)
    g = Grid(cells=(16,), lengths=(1.0,))
    state = _uniform_state(g, basis)
    u1 = momentum_step(state, state.rho, state.f, 1e-3)
    assert np.max(np.abs(u1.values)) == 0.0


@pytest.mark.parametrize("cells", [(64,), (32, 24)], ids=["1d", "2d"])
def test_momentum_conserved_per_step_periodic(cells):
    # gamma = 2 gas, no rods (sigma = 0), smooth periodic fields: the donor
    # fluxes telescope, centered gradients of periodic scalars sum to zero, and
    # so do the columns of the viscous operator
    basis = make_sphere_basis(2)
    g = Grid(cells=cells, lengths=(1.0, 1.5)[: len(cells)])
    x = g.meshes()
    phase = sum(2.0 * np.pi * xa / ell for xa, ell in zip(x, g.lengths))
    rho = 0.9 + 0.2 * np.sin(phase)
    u = np.stack([0.3 + 0.15 * np.cos(phase + a) for a in range(g.dim)])
    state = FluidState(
        rho=ScalarField(g, rho),
        u=VectorField(g, u),
        f=uniform_orientation(g, basis, 0.0),
        t=0.0,
        law=PressureLaw(2.0),
        coeffs=PhysCoeffs(),
    )
    dt = cfl_dt(state, 0.45)
    u1 = momentum_step(state, state.rho, state.f, dt)
    rho1 = rho  # the momentum step does not move the density
    for a in range(g.dim):
        m0 = integral(ScalarField(g, rho * u[a]))
        m1 = integral(ScalarField(g, rho1 * u1.values[a]))
        assert abs(m1 - m0) <= 1e-12 * max(1.0, abs(m0))


def test_momentum_zeroes_vacuum_cells():
    basis = make_sphere_basis(2)
    g = Grid(cells=(16,), lengths=(1.0,))
    rho = np.full(16, 0.5)
    rho[5:8] = 0.0
    u = np.full((1, 16), 0.1)
    state = FluidState(
        rho=ScalarField(g, rho),
        u=VectorField(g, u),
        f=uniform_orientation(g, basis, 0.0),
        t=0.0,
        law=PressureLaw(2.0),
        coeffs=PhysCoeffs(),
    )
    u1 = momentum_step(state, state.rho, state.f, 1e-4)
    assert np.max(np.abs(u1.values[0, 5:8])) == 0.0


def test_momentum_one_step_consistency_first_order():
    # manufactured smooth 1D data with a hand-derived momentum derivative;
    # the isolated momentum operator advances m = rho u at frozen rho, so its
    # consistency target is u + dt [ -d_x(rho u^2) - d_x(rho^2 + eta + eta^2)
    # + d_x sigma_11 + (mu + lambda) u'' ] / rho (the density update belongs
    # to the transport substep of the split scheme).  The one-step error per
    # unit time is O(dt + h); with dt proportional to h it halves per level.
    mu, lam = 0.05, 0.05
    law = PressureLaw(2.0)
    coeffs = PhysCoeffs(mu=mu, lam=lam)
    basis = make_sphere_basis(2)
    errs = []
    for n in (64, 128, 256):
        g = Grid(cells=(n,), lengths=(1.0,))
        x = g.axis_centers(0)
        k = 2.0 * np.pi
        rho = 1.0 + 0.3 * np.sin(k * x)
        u = 0.2 + 0.1 * np.cos(k * x)
        eta = 0.1 + 0.05 * np.sin(2.0 * k * x)
        c_x = 0.05 * np.sin(k * x)
        # eta_moment(f) = eta; the l = 2 part leaves sigma_11 = -(2/5) c(x)
        p2 = 3.0 * basis.nodes[:, 2] ** 2 - 1.0
        nodal_shape = (eta[:, None] + np.outer(c_x, p2)) / (4.0 * np.pi)
        f = OrientationField(g, basis, basis.analyze(nodal_shape))

        rho_x = 0.3 * k * np.cos(k * x)
        u_x = -0.1 * k * np.sin(k * x)
        u_xx = -0.1 * k * k * np.cos(k * x)
        eta_x = 0.05 * 2.0 * k * np.cos(2.0 * k * x)
        sigma11_x = -0.4 * 0.05 * k * np.cos(k * x)  # sigma_11 = -(2/5) c(x)

        adv = rho_x * u * u + 2.0 * rho * u * u_x
        press = 2.0 * rho * rho_x + eta_x + 2.0 * eta * eta_x
        u_t = (-adv - press + sigma11_x + (mu + lam) * u_xx) / rho

        state = FluidState(
            rho=ScalarField(g, rho),
            u=VectorField(g, u.reshape(1, -1)),
            f=f,
            t=0.0,
            law=law,
            coeffs=coeffs,
        )
        dt = 0.2 * g.h[0]
        u1 = momentum_step(state, state.rho, state.f, dt)
        errs.append(float(np.max(np.abs(u1.values[0] - (u + dt * u_t)))) / dt)
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    assert 1.6 <= r1 <= 2.6 and 1.6 <= r2 <= 2.6, f"ratios {r1:.2f}, {r2:.2f}"


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from((1, 2)),
    n=st.integers(4, 16),
    gamma=st.floats(2.0, 60.0),
    dt=st.floats(1e-4, 0.1),
    mu=st.floats(1e-3, 10.0),
    lam=st.floats(1e-3, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_viscous_correction_keeps_a_uniform_velocity(dim, n, gamma, dt, mu, lam, seed):
    # the implicit half of the momentum step, which the coupled step of
    # ROADMAP item 20 iterates: a uniform u0 has no Laplacian and no
    # divergence on a periodic grid, so m_star = rho u0 over any density
    # solves to u0 whatever the linearized pressure c (item 19's fault is in
    # the predictor)
    rng = np.random.default_rng(seed)
    g = Grid(cells=(n,) * dim, lengths=tuple(rng.uniform(0.5, 2.0, dim)))
    state = _uniform_state(g, make_sphere_basis(2), gamma=gamma, coeffs=PhysCoeffs(mu=mu, lam=lam))
    rho = rng.uniform(0.2, 1.1, g.cells)
    u0 = np.broadcast_to(rng.uniform(-1.0, 1.0, (dim,) + (1,) * dim), (dim,) + g.cells)
    u = hydro._viscous_correction(state, rho, fluid_pressure(rho, state.law), rho * u0, dt)
    assert np.max(np.abs(u.values - u0)) <= 1e-12 * np.max(np.abs(u0))


# ---------------------------------------------------------------------------
# the implicit viscous operator and its solve


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from((1, 2)),
    bc=st.sampled_from(("periodic", "dirichlet")),
    nx=st.integers(4, 12),
    ny=st.integers(4, 12),
    mu=st.floats(0.01, 10.0),
    lam=st.floats(0.01, 10.0),
    dt=st.floats(1e-4, 1.0),
    c_scale=st.sampled_from((0.0, 1.0, 1e3)),
    seed=st.integers(0, 2**32 - 1),
)
# on 4 periodic cells the +-2 offsets of the wide grad-div stencil wrap onto
# each other, so their pattern positions coincide
@example(dim=1, bc="periodic", nx=4, ny=4, mu=1.0, lam=1.0, dt=0.1, c_scale=1.0, seed=0)
@example(dim=2, bc="periodic", nx=4, ny=4, mu=1.0, lam=1.0, dt=0.1, c_scale=1.0, seed=1)
def test_viscous_matrix_matches_grid_stencils_and_is_symmetric(dim, bc, nx, ny, mu, lam, dt, c_scale, seed):
    # the operator must apply rho_hat - dt (mu Lap + grad((lam + dt c) div))
    # from the grid's own zero-ghost stencils, and be symmetric, which is the
    # premise of the conjugate-gradient solve; on 1D grids its five bands
    # must be the entries of that same matrix
    rng = np.random.default_rng(seed)
    g = Grid(cells=(nx, ny)[:dim], lengths=tuple(rng.uniform(0.5, 2.0, dim)), bc=bc)
    rho_hat = rng.uniform(0.1, 2.0, g.cells)
    c = c_scale * rng.uniform(0.0, 1.0, g.cells)
    u = VectorField(g, rng.standard_normal((dim,) + g.cells))
    a = hydro._ViscousOperator(g, rho_hat, dt, mu, lam, c)
    got = (a @ u.values.ravel()).reshape(u.values.shape)
    gd = grad(g, (lam + dt * c) * div(u), "bulk stress")
    lap = [laplacian(g, comp, "velocity") for comp in u.values]
    want = np.stack([rho_hat * u.values[i] - dt * (mu * lap[i] + gd[i]) for i in range(dim)])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    dense = _dense(a)
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(dense - dense.T)) <= 1e-12 * scale
    if dim == 1:
        # entry (i, i + k - 2) of band k, the column wrapped; on 4 periodic
        # cells the +-2 offsets are one column and their entries add
        n = g.n_cells
        banded = np.zeros((n, n))
        for k, band in enumerate(a.bands()):
            np.add.at(banded, (np.arange(n), (np.arange(n) + k - 2) % n), band)
        assert np.max(np.abs(banded - dense)) <= 1e-12 * scale
        # entry for entry, as the 1D direct solve reads each window's rows
        # as its columns transposed
        assert np.array_equal(banded, banded.T)


def _dense(a):
    """The matrix of a viscous operator, one identity column at a time."""
    size = a.grid.dim * a.grid.n_cells
    return np.array([a @ e for e in np.eye(size)]).T


def _per_axis_apply(a, x):
    """The viscous apply as one `_pad_axis` gather per axis, operation for operation."""
    g, h0 = a.grid, a.grid.h[0]
    u = x.reshape((g.dim,) + g.cells)
    for ax, h in enumerate(g.h):
        p = _pad_axis(g, u, ax + 1, "velocity")
        s = (p[2:] + p[:-2]).swapaxes(0, ax + 1)
        pa = p.swapaxes(0, ax + 1)[ax].swapaxes(0, ax)
        d = (pa[2:] - pa[:-2]).swapaxes(0, ax)
        if h != h0:
            s *= (h0 / h) ** 2
            d *= h0 / h
        side, dv = (s, d) if ax == 0 else (side + s, dv + d)
    side *= a.nu / (h0 * h0)
    out = a._centre * u
    out -= side
    q = a._w_quarter * dv
    for ax, h in enumerate(g.h):
        p = _pad_axis(g, q, ax, "bulk stress")
        gq = (p[2:] - p[:-2]).swapaxes(0, ax)
        if h != h0:
            gq *= h0 / h
        out[ax] -= gq
    return out.ravel()


@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
@pytest.mark.parametrize("cells,lengths", [
    ((9,), (1.3,)),
    ((6, 6), (1.0, 1.0)),  # square cells: no rescaling
    ((7, 5), (1.0, 2.0)),  # h != h0 on axis 1
    ((5, 8), (2.0, 0.7)),
])
def test_the_buffered_apply_equals_the_per_axis_gather_bit_for_bit(bc, cells, lengths):
    # shifted slices of one ghost-framed buffer read the same neighbours as a
    # `_pad_axis` gather per axis, and every operation keeps its order
    rng = np.random.default_rng(len(cells) * 10 + cells[0])
    g = Grid(cells=cells, lengths=lengths, bc=bc)
    a = hydro._ViscousOperator(g, rng.uniform(0.1, 2.0, cells), 0.01, 0.7, 1.3, rng.uniform(0.0, 1e3, cells))
    xs = [rng.standard_normal(g.dim * g.n_cells) for _ in range(3)]
    got = [a @ x for x in xs + xs[:1]]  # the buffers are reused: a repeat reads no stale ghost
    for x, y in zip(xs + xs[:1], got):
        assert np.array_equal(y, _per_axis_apply(a, x))
    assert got[0] is not got[3]


@settings(max_examples=80, deadline=None)
@given(
    bc=st.sampled_from(("periodic", "dirichlet")),
    n=st.integers(4, 48),
    mu=st.floats(0.01, 10.0),
    lam=st.floats(0.01, 10.0),
    dt=st.floats(1e-4, 1.0),
    c_scale=st.sampled_from((0.0, 1.0, 1e3)),
    seed=st.integers(0, 2**32 - 1),
)
# no interior block (dense interface only), one block whose two windows are
# the same two cells, one whose windows share one cell, the first size whose
# windows are distinct, exactly two blocks, and two blocks plus 15 leftover cells
@example(bc="periodic", n=4, mu=1.0, lam=1.0, dt=0.1, c_scale=1.0, seed=0)
@example(bc="dirichlet", n=4, mu=1.0, lam=1.0, dt=0.1, c_scale=1.0, seed=0)
@example(bc="periodic", n=16, mu=1.0, lam=1.0, dt=0.1, c_scale=1.0, seed=2)
@example(bc="periodic", n=17, mu=1.0, lam=1.0, dt=0.1, c_scale=1.0, seed=5)
@example(bc="periodic", n=18, mu=1.0, lam=1.0, dt=0.1, c_scale=1.0, seed=6)
@example(bc="periodic", n=32, mu=1.0, lam=1.0, dt=0.1, c_scale=1e3, seed=3)
@example(bc="dirichlet", n=47, mu=1.0, lam=1.0, dt=0.1, c_scale=1.0, seed=4)
def test_1d_viscous_solve_is_the_exact_solution(bc, n, mu, lam, dt, c_scale, seed):
    # the 1D direct solve must agree with a dense LAPACK solve of the same
    # system to 1e-12, or where the system is ill-conditioned to its
    # forward-error bound cond(a) eps, which any backward-stable solve has
    # (dense LAPACK itself misses a manufactured solution by up to 0.4 cond(a)
    # eps on these draws); the right-hand side is a applied to a velocity,
    # the form of the momentum, so the true residual sits at roundoff
    rng = np.random.default_rng(seed)
    g = Grid(cells=(n,), lengths=(rng.uniform(0.5, 2.0),), bc=bc)
    rho_hat = rng.uniform(0.1, 2.0, n)
    rho_hat[rng.random(n) < 0.3] = hydro.RHO_FLOOR
    c = c_scale * rng.uniform(0.0, 1.0, n)
    a = hydro._ViscousOperator(g, rho_hat, dt, mu, lam, c)
    b = (a @ rng.standard_normal(n)).reshape(1, n)
    x = hydro._viscous_solve(a, b)
    dense = _dense(a)
    want = np.linalg.solve(dense, b[0])
    tol = max(1e-12, np.linalg.cond(dense) * np.finfo(float).eps)
    assert np.max(np.abs(x[0] - want)) <= tol * np.max(np.abs(want))
    assert np.linalg.norm(b[0] - a @ x[0]) <= 1e-13 * np.linalg.norm(b)


@settings(max_examples=60, deadline=None)
@given(
    bc=st.sampled_from(("periodic", "dirichlet")),
    nx=st.integers(4, 12),
    ny=st.integers(4, 12),
    mu=st.floats(0.01, 10.0),
    lam=st.floats(0.01, 10.0),
    dt=st.floats(1e-4, 1.0),
    c_scale=st.sampled_from((0.0, 1.0, 1e3)),
    seed=st.integers(0, 2**32 - 1),
)
# the 4-cell wrap, where the +-2 offsets of the grad-div stencil coincide,
# and odd sizes, whose rfft has no Nyquist line; on Dirichlet grids the
# smallest box and odd sizes, whose sine tables differ per axis
@example(bc="periodic", nx=4, ny=4, mu=1.0, lam=1.0, dt=0.1, c_scale=1.0, seed=0)
@example(bc="periodic", nx=5, ny=7, mu=1.0, lam=1.0, dt=0.1, c_scale=1e3, seed=1)
@example(bc="periodic", nx=4, ny=9, mu=0.01, lam=10.0, dt=1.0, c_scale=0.0, seed=2)
@example(bc="dirichlet", nx=4, ny=4, mu=1.0, lam=1.0, dt=0.1, c_scale=1.0, seed=3)
@example(bc="dirichlet", nx=5, ny=7, mu=1.0, lam=1.0, dt=0.1, c_scale=1e3, seed=4)
def test_2d_preconditioner_is_spd_and_the_solve_is_exact(bc, nx, ny, mu, lam, dt, c_scale, seed):
    # the spectral preconditioner, Fourier on periodic grids and sine on
    # Dirichlet ones, must be a symmetric positive definite map of real
    # vectors, for CG; with it the 2D solve must agree with a dense LAPACK
    # solve as closely as its true residual allows, cond(a) times the
    # relative residual (or eps).  The eps-level tolerance of the 1D direct
    # solve does not apply to CG: the residual is accepted up to 1e-10
    rng = np.random.default_rng(seed)
    g = Grid(cells=(nx, ny), lengths=tuple(rng.uniform(0.5, 2.0, 2)), bc=bc)
    rho_hat = rng.uniform(0.1, 2.0, g.cells)
    rho_hat[rng.random(g.cells) < 0.3] = hydro.RHO_FLOOR
    c = c_scale * rng.uniform(0.0, 1.0, g.cells)
    a = hydro._ViscousOperator(g, rho_hat, dt, mu, lam, c)
    precondition = hydro._spectral_preconditioner(a)
    size = 2 * g.n_cells
    cols = [precondition(e) for e in np.eye(size)]
    assert all(col.dtype == np.float64 and col.shape == (size,) for col in cols)
    m = np.array(cols).T
    assert np.max(np.abs(m - m.T)) <= 1e-12 * np.max(np.abs(m))
    assert np.min(np.linalg.eigvalsh(0.5 * (m + m.T))) > 0.0

    b = (a @ rng.standard_normal(size)).reshape((2,) + g.cells)
    x = hydro._viscous_solve(a, b).ravel()
    dense = _dense(a)
    want = np.linalg.solve(dense, b.ravel())
    res = np.linalg.norm(b.ravel() - a @ x) / np.linalg.norm(b)
    tol = max(1e-12, np.linalg.cond(dense) * max(res, np.finfo(float).eps))
    assert np.linalg.norm(x - want) <= tol * np.linalg.norm(want)


def test_periodic_64x64_vortex_solve_needs_few_cg_iterations(monkeypatch):
    # the momentum solve of the 64x64 periodic Taylor vortex takes Jacobi-CG
    # about 80 iterations; the spectral preconditioner must meet a budget
    # of 15
    cfg = RunConfig(
        dim=2, cells=(64, 64), lengths=(1.0, 1.0), preset="taylor_vortex", gamma=5.0,
        sphere_degree=2, perturbation=0.05, seed=1,
    )
    state = build_initial_state(cfg)
    dt = cfl_dt(state, cfg.cfl_safety)
    monkeypatch.setattr(hydro, "_CG_MAX_ITER", 15)
    u_new = momentum_step(state, state.rho, state.f, dt)
    assert np.all(np.isfinite(u_new.values))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dirichlet_32x32_vortex_solve_needs_few_cg_iterations(monkeypatch, seed):
    # the first momentum solve of the 32x32 Dirichlet Taylor vortex takes
    # Jacobi-CG 13-14 iterations; the sine preconditioner must meet a budget
    # of 12
    cfg = RunConfig(
        dim=2, cells=(32, 32), lengths=(1.0, 1.0), bc="dirichlet", preset="taylor_vortex", gamma=10.0,
        rho0=0.6, amplitude=1.0, sphere_degree=2, perturbation=0.05, seed=seed,
    )
    state = build_initial_state(cfg)
    dt = cfl_dt(state, cfg.cfl_safety)
    monkeypatch.setattr(hydro, "_CG_MAX_ITER", 12)
    u_new = momentum_step(state, state.rho, state.f, dt)
    assert np.all(np.isfinite(u_new.values))


def test_viscous_solve_failure_names_residual_and_momentum_substep(monkeypatch):
    # a non-finite right-hand side fails the true-residual check of the 1D
    # direct solve, and a matrix whose strong skew band breaks the symmetry
    # that CG needs fails it on a 2D grid; each message names its path
    g = Grid(cells=(16,), lengths=(1.0,))
    u = 0.1 * np.cos(2.0 * np.pi * g.axis_centers(0)).reshape(1, -1)
    state = _uniform_state(g, make_sphere_basis(2), u=u)
    dt = cfl_dt(state, 0.45)
    rho = state.rho.values
    c = state.law.gamma * fluid_pressure(rho, state.law)
    a = hydro._ViscousOperator(g, rho, dt, 1.0, 1.0, c)
    nan = np.full((1,) + g.cells, np.nan)
    with pytest.raises(NumericalError, match=r"relative residual nan \(direct 1D\)"):
        hydro._viscous_solve(a, nan)
    operator = hydro._ViscousOperator
    monkeypatch.setattr(hydro, "_ViscousOperator", lambda g, rho_hat, *rest: operator(g, rho_hat * np.nan, *rest))
    failed = r"substep 'momentum' failed at t=.*relative residual nan \(direct 1D\)"
    with pytest.raises(NumericalError, match=failed):
        step(state, dt)
    g2 = Grid(cells=(6, 5), lengths=(1.0, 1.0))
    rho2 = np.full(g2.cells, 0.8)
    a2 = operator(g2, rho2, dt, 1.0, 1.0, np.zeros(g2.cells))

    class Skewed:  # a2 plus the band 1e4 at (i, i + 1) and -1e4 at (i, i - 1)
        grid, rho_hat, nu, bulk = a2.grid, a2.rho_hat, a2.nu, a2.bulk

        def __matmul__(self, v):
            out = a2 @ v
            out[:-1] += 1e4 * v[1:]
            out[1:] -= 1e4 * v[:-1]
            return out

    b2 = np.random.default_rng(0).standard_normal((2,) + g2.cells)
    with pytest.raises(NumericalError, match=r"relative residual \S+ \(CG, \d+ iterations\)"):
        hydro._viscous_solve(Skewed(), b2)


def test_viscous_solve_stops_at_once_on_a_nan_right_hand_side():
    # one application for the initial residual and one for the true-residual
    # check; none for CG iterations on NaNs
    g = Grid(cells=(64, 64), lengths=(1.0, 1.0))
    rho = np.full(g.cells, 0.8)
    a = hydro._ViscousOperator(g, rho, 1e-3, 1.0, 1.0, np.zeros(g.cells))
    applied = []

    class CountingOperator:
        grid, rho_hat, nu, bulk = a.grid, a.rho_hat, a.nu, a.bulk

        def __matmul__(self, v):
            applied.append(v.shape)
            return a @ v

    b = np.full((2, 64, 64), np.nan)
    with pytest.raises(NumericalError, match="relative residual nan"):
        hydro._viscous_solve(CountingOperator(), b)
    assert len(applied) <= 3


def test_dense_stiff_state_at_rest_completes_through_a_cg_restart():
    # 4x4 periodic, rho from 0.515 up to 1.425, gamma = 28.27, at rest: only
    # the polymer bound sets dt, dt^2 gamma rho^gamma / (rho h^2) reaches
    # ~4e5.  Under Jacobi, CG's recursive residual converged while the true
    # one stayed at 1.1e-10, and only a restart from the true residual
    # completed the step; the spectral preconditioner restarts once here too,
    # in the first solve (the vacuum cells of
    # test_2d_preconditioner_is_spd_and_the_solve_is_exact also make it restart)
    cfg = RunConfig(
        dim=2, cells=(4, 4), lengths=(1.0, 1.0), preset="uniform", rho0=0.95,
        gamma=28.266985956595992, amplitude=1.0821542335388885, d_trans=1e-3, d_rot=0.1,
        mu=0.1, lam=0.1, sphere_degree=3, perturbation=0.475, seed=14,
    )
    state = build_initial_state(cfg)
    dt = cfl_dt(state, cfg.cfl_safety)
    assert dt == cfg.cfl_safety * hydro._cfl_bounds(state)["polymer"]
    _, final = run(state, 4.0 * dt, safety=cfg.cfl_safety)
    assert final.t == pytest.approx(4.0 * dt, rel=1e-12)
    assert final.f.min_nodal() >= -EPS_POS
    assert integral(final.rho) == pytest.approx(integral(state.rho), rel=1e-12)


# ---------------------------------------------------------------------------
# stable step size


def test_cfl_direct_evaluation():
    # periodic, u = 0, eta = 0.1, h = 1/64, 1D, safety 1: the rods' polymer
    # wave alone binds, c_p^2 = eta (1 + 2 eta) / rho = 0.12 over the cells with
    # rho >= RHO_FLOOR; the vacuum cell, where u is forced to 0, does not count
    basis = make_sphere_basis(2)
    g = Grid(cells=(64,), lengths=(1.0,))
    state = _uniform_state(g, basis, rho=1.0, gamma=2.0)
    rho = np.ones(64)
    rho[7] = 0.5 * hydro.RHO_FLOOR
    state = replace(state, rho=ScalarField(g, rho))
    bounds = hydro._cfl_bounds(state)
    assert list(bounds) == ["polymer"]
    assert bounds["polymer"] == pytest.approx(1.0 / (64.0 * math.sqrt(0.12)), rel=1e-14)
    dt = cfl_dt(state, 1.0)
    assert dt == pytest.approx(1.0 / (64.0 * math.sqrt(0.12)), rel=1e-14)


def test_pressure_bound_takes_its_limit_when_the_sound_speed_leaves_the_float_range():
    # a^2 = gamma max rho^(gamma - 1): 0.4^999 underflows to 0 (an infinite
    # acoustic step, so no pressure bound) and 2^1279 overflows (an acoustic
    # step of 0, so the compression step alone); neither is an arithmetic error
    g = Grid(cells=(16,), lengths=(1.0,))
    u = -0.1 * np.sin(2.0 * np.pi * g.axis_centers(0)).reshape(1, -1)  # compressing at x = 1/2
    basis = make_sphere_basis(2)
    dilute = _uniform_state(g, basis, rho=0.4, gamma=1000.0, u=u)
    assert "pressure" not in hydro._cfl_bounds(dilute)
    dense = _uniform_state(g, basis, rho=2.0, gamma=1280.0, u=u)
    rate = float(np.max(dense.density_flux / dense.rho.values))
    assert rate > 0.0
    assert hydro._cfl_bounds(dense)["pressure"] == 1.0 / (1280.0 * rate)


def test_cfl_bounds_are_finite_when_a_speed_overflows_its_step():
    # u = 1e-310 is a subnormal speed: h / max|u| overflows, so the advective
    # step is infinite, which is no bound; the polymer wave alone binds,
    # h / sqrt(eta (1 + 2 eta) / rho) = 0.125 / sqrt(0.24)
    g = Grid(cells=(8,), lengths=(1.0,))
    state = _uniform_state(g, make_sphere_basis(2), rho=0.5, u=np.full((1, 8), 1e-310))
    bounds = hydro._cfl_bounds(state)
    assert all(math.isfinite(b) for b in bounds.values()), bounds
    assert bounds == {"polymer": pytest.approx(0.125 / math.sqrt(0.24), rel=1e-14)}
    assert cfl_dt(state, 0.45) == 0.45 * bounds["polymer"]
    assert cfl_dt(state, 0.45) == pytest.approx(0.11482, abs=5e-6)


def test_cfl_direct_evaluation_dirichlet():
    # the same state on a Dirichlet grid, whose translational diffusion is explicit:
    # min(polymer 1/(64 sqrt(0.12)), diffusive 1/8192) = 1/8192
    basis = make_sphere_basis(2)
    g = Grid(cells=(64,), lengths=(1.0,), bc="dirichlet")
    state = _uniform_state(g, basis, rho=1.0, gamma=2.0)
    dt = cfl_dt(state, 1.0)
    assert dt == pytest.approx(1.0 / 8192.0, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 2),
    bc=st.sampled_from(["periodic", "dirichlet"]),
    n=st.integers(4, 24),
    degree=st.integers(2, 4),
    scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
# an odd degree, whose basis holds degree 2 at most
@example(dim=2, bc="periodic", n=6, degree=3, scale=1.0, seed=0)
def test_cfl_drift_bound_equals_the_padded_gradient_form(dim, bc, n, degree, scale, seed):
    # cfl_dt reads the dim x dim gradient block; the 3x3 zero-padded
    # gradient it replaced must give the same bound to the last bit
    rng = np.random.default_rng(seed)
    g = Grid(cells=(n,) * dim, lengths=tuple(rng.uniform(0.5, 2.0, dim)), bc=bc)
    u = scale * rng.standard_normal((dim,) + g.cells)
    state = _uniform_state(g, make_sphere_basis(degree), rho=0.0, u=u)
    gv = np.zeros(g.cells + (3, 3))
    for i in range(dim):
        for j in range(dim):
            gv[..., i, j] = grad(g, u[i], "velocity")[j]
    padded = np.sqrt(np.sum(gv * gv, axis=(-2, -1)))
    block = velocity_gradient(state.u)
    assert np.array_equal(np.sqrt(np.sum(block * block, axis=(-2, -1))), padded)

    bounds = [g.h[a] / np.max(np.abs(u[a])) for a in range(dim)]
    held = degree - degree % 2  # the basis holds the even degrees only
    bounds.append(1.0 / (held * (held + 1) * float(np.max(padded))))
    if bc == "dirichlet":
        bounds.append(min(g.h) ** 2 / (2.0 * dim))
    assert cfl_dt(state, 0.45) == 0.45 * min(bounds)


def test_cfl_without_a_finite_bound_is_infinite_and_run_clips_to_the_end_time():
    # periodic, zero velocity and zero density: no advective, polymer,
    # pressure, drift or diffusive bound, so `run` takes one exact
    # step of t_final - t
    basis = make_sphere_basis(2)
    g = Grid(cells=(16,), lengths=(1.0,))
    x = g.axis_centers(0)
    state = _uniform_state(g, basis, rho=0.0)
    coeffs = state.f.coeffs.copy()
    coeffs[..., 0] *= 1.0 + 0.5 * np.sin(2.0 * np.pi * x)
    state = replace(state, f=OrientationField(g, basis, coeffs), t=0.25)
    assert cfl_dt(state, 0.45) == math.inf
    steps = []
    records, final = run(state, 0.75, observer=lambda k, s: steps.append(s.t))
    assert steps == [0.75] and final.t == 0.75 and len(records) == 2
    rods = [integral(eta_moment(s.f)) for s in (state, final)]
    assert rods[1] == pytest.approx(rods[0], rel=1e-12)
    assert final.f.min_nodal() > 0.0
    # the same state on a Dirichlet grid keeps its diffusive bound
    walls = _uniform_state(Grid(cells=(16,), lengths=(1.0,), bc="dirichlet"), basis, rho=0.0)
    assert cfl_dt(walls, 0.45) == 0.45 / (2.0 * 16**2)


def test_quiet_low_density_state_is_bounded_by_the_polymer_wave():
    # a periodic state at rest whose fluid pressure rho^gamma is below 1e-30:
    # bounded only by the sound speed, its step was ~1e15 and the viscous
    # solve failed at once; the rods' polymer wave bounds it
    cfg = RunConfig(
        dim=2, cells=(5, 5), lengths=(1.0, 1.0), preset="uniform", rho0=0.102, gamma=39.4,
        perturbation=0.051, seed=0,
    )
    state = build_initial_state(cfg)
    eta = eta_moment(state.f).values
    polymer = 0.2 / math.sqrt(float(np.max(eta * (1.0 + 2.0 * eta) / state.rho.values)))
    bounds = hydro._cfl_bounds(state)
    assert bounds == {"polymer": pytest.approx(polymer, rel=1e-14)}
    dt = cfl_dt(state, cfg.cfl_safety)
    assert dt == pytest.approx(cfg.cfl_safety * polymer, rel=1e-14)
    steps = []
    _, final = run(state, 3.0 * dt, safety=cfg.cfl_safety, observer=lambda k, s: steps.append(k))
    assert steps == [1, 2, 3] and final.t == pytest.approx(3.0 * dt, rel=1e-12)
    assert final.f.min_nodal() >= -EPS_POS
    assert integral(final.rho) == pytest.approx(integral(state.rho), rel=1e-12)


def _compressing_state(gamma, rho):
    # h = 1, u = (0, 1, 0, -1): face velocities (1, 1, -1, -1)/2, so the donor
    # divergence div_h(rho u) / rho is (1, 0, -1, 0) and the compression step
    # is 1 / gamma; the acoustic step is 1 / sqrt(gamma rho^(gamma-1)), the
    # advective bound 1, the drift bound 1 / (2 * 3 * 1) and the polymer bound
    # 1 / sqrt(0.12 / rho)
    g = Grid(cells=(4,), lengths=(4.0,))
    u = np.array([[0.0, 1.0, 0.0, -1.0]])
    return _uniform_state(g, make_sphere_basis(2), rho=rho, gamma=gamma, u=u)


def test_cfl_safety_scaling_and_pressure_bound_gamma():
    # dense (rho = 1.5): the acoustic steps 1/sqrt(8 * 1.5^7) and
    # 1/sqrt(16 * 1.5^15) lie below the compression steps 1/8 and 1/16, which
    # bind, so doubling gamma halves dt
    s8, s16 = _compressing_state(8.0, 1.5), _compressing_state(16.0, 1.5)
    bounds = hydro._cfl_bounds(s8)
    assert bounds["advective"] == 1.0
    assert bounds["drift"] == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert bounds["polymer"] == pytest.approx(1.0 / math.sqrt(0.08), rel=1e-14)
    assert bounds["pressure"] == pytest.approx(1.0 / 8.0, rel=1e-14)
    assert set(bounds) == {"advective", "drift", "polymer", "pressure"}
    assert hydro._cfl_bounds(s16)["pressure"] == pytest.approx(1.0 / 16.0, rel=1e-14)
    dt8 = cfl_dt(s8, 1.0)
    dt16 = cfl_dt(s16, 1.0)
    assert dt8 == pytest.approx(1.0 / 8.0, rel=1e-14)
    assert dt16 == pytest.approx(dt8 / 2.0, rel=1e-14)
    half = cfl_dt(s8, 0.5)
    assert half == pytest.approx(0.5 * dt8, rel=1e-14)
    # dilute (rho = 0.8): sound is slow, and the acoustic step 1/sqrt(8 * 0.8^7)
    # exceeds the compression step 1/8 and replaces it
    dilute = _compressing_state(8.0, 0.8)
    pressure = hydro._cfl_bounds(dilute)["pressure"]
    assert pressure == pytest.approx(1.0 / math.sqrt(8.0 * 0.8**7), rel=1e-14)


def test_cfl_rejects_bad_safety():
    basis = make_sphere_basis(2)
    g = Grid(cells=(8,), lengths=(1.0,))
    state = _uniform_state(g, basis)
    with pytest.raises(ValueError, match="safety"):
        cfl_dt(state, 0.0)
    with pytest.raises(ValueError, match="safety"):
        cfl_dt(state, 1.5)
