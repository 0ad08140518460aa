"""Coupled stepping, the energy ledger, and the renormalized diagnostic."""

import math
import re
import subprocess
import sys
from dataclasses import replace

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
    integral,
    make_sphere_basis,
    run,
)
from doifbp import grid, hydro, sphere
from doifbp.grid import _ghost_index, _sin2_table, heat_step, velocity_gradient
from doifbp.hydro import _spectral_symbols, _substructure_plan, cfl_dt
from doifbp.integrator import FluidState, energy_total, renormalized_residual, step
from doifbp.kinetics import fp_rhs
from doifbp.sphere import uniform_orientation

SQRT_4PI = math.sqrt(4.0 * math.pi)


def _state(grid, basis, rho, u, eta, gamma=5.0, coeffs=None):
    f_coeffs = np.zeros(grid.cells + (basis.n_coeff,))
    f_coeffs[..., 0] = eta / SQRT_4PI  # isotropic, with number density eta
    return FluidState(
        rho=ScalarField(grid, rho),
        u=VectorField(grid, u),
        f=OrientationField(grid, basis, f_coeffs),
        t=0.0,
        law=PressureLaw(gamma),
        coeffs=coeffs if coeffs is not None else PhysCoeffs(),
    )


def _smooth_state(n=32, gamma=5.0):
    basis = make_sphere_basis(3)
    g = Grid(cells=(n,), lengths=(1.0,))
    x = g.axis_centers(0)
    rho = 0.8 + 0.1 * np.sin(2.0 * np.pi * x)
    u = (0.1 * np.cos(2.0 * np.pi * x)).reshape(1, -1)
    eta = 0.1 + 0.02 * np.cos(2.0 * np.pi * x)
    return _state(g, basis, rho, u, eta, gamma=gamma)


# ---------------------------------------------------------------------------
# energy ledger


def test_energy_closed_form():
    # rho = 1, u = 0, eta = 1, f = 1/(4 pi), unit volume, gamma = 5:
    # E = 1/(gamma-1) + 1 - ln(4 pi), each term in closed form
    basis = make_sphere_basis(3)
    g = Grid(cells=(16,), lengths=(1.0,))
    state = _state(g, basis, np.ones(16), np.zeros((1, 16)), np.ones(16))
    rec = energy_total(state)
    expected = 0.25 + 1.0 - math.log(4.0 * math.pi)
    assert rec.e_total == pytest.approx(expected, rel=1e-12)
    assert rec.e_kinetic == 0.0
    assert rec.e_pressure == pytest.approx(0.25, rel=1e-12)
    assert rec.e_eta == pytest.approx(1.0, rel=1e-12)
    assert rec.e_entropy == pytest.approx(-math.log(4.0 * math.pi), rel=1e-12)
    parts = rec.e_kinetic + rec.e_pressure + rec.e_eta + rec.e_entropy
    assert rec.e_total == pytest.approx(parts, rel=1e-12)
    assert rec.mass == pytest.approx(1.0, rel=1e-14)
    assert rec.rod_mass == pytest.approx(1.0, rel=1e-14)


def test_energy_vacuum_state_is_zero():
    basis = make_sphere_basis(2)
    g = Grid(cells=(8,), lengths=(1.0,))
    state = _state(g, basis, np.zeros(8), np.zeros((1, 8)), np.zeros(8))
    rec = energy_total(state)
    assert rec.e_total == 0.0
    assert rec.dissipation == 0.0


def test_energy_kinetic_homogeneity():
    state = _smooth_state()
    doubled = FluidState(
        rho=state.rho,
        u=VectorField(state.grid, 2.0 * state.u.values),
        f=state.f,
        t=0.0,
        law=state.law,
        coeffs=state.coeffs,
    )
    r1, r2 = energy_total(state), energy_total(doubled)
    assert r2.e_kinetic == pytest.approx(4.0 * r1.e_kinetic, rel=1e-13)
    assert r2.e_pressure == r1.e_pressure
    assert r2.e_eta == r1.e_eta
    assert r2.e_entropy == r1.e_entropy


# ---------------------------------------------------------------------------
# single steps


def test_step_uniform_equilibrium_is_fixed_point():
    basis = make_sphere_basis(3)
    g = Grid(cells=(16,), lengths=(1.0,))
    state = _state(g, basis, np.full(16, 0.8), np.zeros((1, 16)), np.full(16, 0.2))
    out = step(state, 1e-3)
    assert np.max(np.abs(out.rho.values - 0.8)) < 1e-12
    assert np.max(np.abs(out.u.values)) < 1e-12
    assert np.max(np.abs(out.eta.values - 0.2)) < 1e-12
    assert np.max(np.abs(out.f.coeffs - state.f.coeffs)) < 1e-12


def test_step_with_zero_velocity_only_diffuses():
    state = _smooth_state()
    frozen = FluidState(
        rho=state.rho,
        u=VectorField(state.grid, np.zeros_like(state.u.values)),
        f=state.f,
        t=0.0,
        law=state.law,
        coeffs=state.coeffs,
    )
    out = step(frozen, 1e-4, freeze_velocity=True)
    assert np.array_equal(out.rho.values, frozen.rho.values)  # no advection at all
    assert not np.array_equal(out.eta.values, frozen.eta.values)  # diffusion acted
    assert integral(out.eta) == pytest.approx(integral(frozen.eta), rel=1e-13)


def test_state_rejects_fields_on_different_grids():
    state = _smooth_state()
    other = Grid(cells=(16,), lengths=(1.0,))
    with pytest.raises(ValueError, match="^state fields live on different grids"):
        replace(state, u=VectorField(other, np.zeros((1, 16))))
    with pytest.raises(ValueError, match="^state fields live on different grids"):
        replace(state, f=uniform_orientation(other, state.f.basis, 0.1))


def test_step_rejects_nonpositive_dt():
    state = _smooth_state()
    with pytest.raises(ValueError, match="positive"):
        step(state, 0.0)
    # NaN and infinite step sizes are rejected as arguments too, before any
    # substep could report them as a numerical failure
    for dt in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^step size must be positive and finite"):
            step(state, dt)


def test_step_reports_failing_substep():
    basis = make_sphere_basis(2)
    g = Grid(cells=(8,), lengths=(1.0,))
    state = _state(g, basis, np.full(8, 0.5), np.full((1, 8), 4.0), np.full(8, 0.1))
    with pytest.raises(NumericalError, match="substep 'density transport' failed at t="):
        step(state, 10.0 * g.h[0])  # violates the advective CFL on purpose


def test_step_names_the_fokker_planck_substep_when_f_dips():
    # dt = h is within the advective bound (max|u| < 1) but about four drift
    # bounds long, and both diffusions are too weak to undo the dip
    basis = make_sphere_basis(2)
    g = Grid(cells=(8,), lengths=(1.0,))
    u = np.sin(2.0 * np.pi * g.axis_centers(0)).reshape(1, -1)
    coeffs = PhysCoeffs(d_trans=1e-3, d_rot=1e-3)
    state = _state(g, basis, np.full(8, 0.5), u, np.full(8, 0.1), coeffs=coeffs)
    match = "^substep 'orientation fokker-planck' failed at t=0: orientation distribution dips"
    with pytest.raises(NumericalError, match=match):
        step(state, g.h[0])


def test_an_unstable_explicit_diffusion_is_not_blamed_on_the_harmonic_degree():
    # dt = 0.05 is past the Dirichlet diffusive bound h^2 / 2 = 2.0e-3 and f
    # is zero: the orientation substep fails before any positivity check, so
    # its message names the diffusion alone, with no Wi and no sphere_degree
    cfg = RunConfig(dim=1, cells=(16,), bc="dirichlet", eta0=0.0, sphere_degree=2)
    match = r"^substep 'orientation fokker-planck' failed at t=0: explicit diffusion unstable for t=5\.000e-02$"
    with pytest.raises(NumericalError, match=match):
        step(build_initial_state(cfg), 0.05)


@pytest.mark.parametrize(
    ("bc", "cells", "amplitude", "degree", "t_fail", "wi", "min_f"),
    [
        ("periodic", 16, 1.0, 2, "0.0815923771", "70", 2.4e-3),
        ("dirichlet", 9, 2.0, 3, "0.202777778", "19.1", 8.5e-4),
    ],
)
def test_an_f_dip_names_the_alignment_number_and_two_more_degrees_resolve_it(
    bc, cells, amplitude, degree, t_fail, wi, min_f
):
    # weak diffusion and strong shear: the harmonics up to degree 2 cannot
    # hold the aligned f, and the remedy the message names runs to the end
    cfg = RunConfig(
        cells=(cells,), lengths=(1.0,), bc=bc, rho0=0.5, gamma=5.0, amplitude=amplitude,
        mu=0.01, lam=0.01, d_trans=0.01, d_rot=0.1, t_final=0.3, sphere_degree=degree,
    )
    match = (
        rf"^substep 'orientation fokker-planck' failed at t={re.escape(t_fail)}: orientation distribution "
        rf"dips .*; alignment number Wi = max\|grad u\| / d_rot = {re.escape(wi)} with harmonics up to "
        "degree 2: raise sphere_degree by 2$"
    )
    with pytest.raises(NumericalError, match=match):
        run(build_initial_state(cfg), cfg.t_final, safety=cfg.cfl_safety)
    cfg = replace(cfg, sphere_degree=degree + 2)
    _, final = run(build_initial_state(cfg), cfg.t_final, safety=cfg.cfl_safety)
    assert final.t == pytest.approx(cfg.t_final, rel=1e-12)
    assert final.f.min_nodal() == pytest.approx(min_f, rel=0.05)


@pytest.mark.parametrize(
    ("dim", "bc", "preset"),
    [(1, "periodic", "colliding_streams"), (2, "periodic", "taylor_vortex"), (2, "dirichlet", "taylor_vortex")],
)
def test_step_twice_from_one_state_is_bit_identical_and_its_shared_caches_are_read_only(dim, bc, preset):
    # 32 cells give the 1D direct solve interior blocks; the 2D grids take CG
    cells = (32,) if dim == 1 else (8, 8)
    cfg = RunConfig(dim=dim, cells=cells, lengths=(1.0,) * dim, bc=bc, sphere_degree=3, preset=preset)
    state = build_initial_state(cfg)
    dt = cfl_dt(state, cfg.cfl_safety)
    first, second = step(state, dt), step(state, dt)
    for a, b in zip((first.rho.values, first.u.values, first.f.coeffs),
                    (second.rho.values, second.u.values, second.f.coeffs)):
        assert a.tobytes() == b.tobytes()

    g = state.grid
    periodic = bc == "periodic"
    shared = [velocity_gradient(state.u), state.density_flux]
    shared += [_ghost_index(n, periodic) for n in g.cells]
    shared += [table for table in vars(state.f.basis).values() if isinstance(table, np.ndarray)]
    if periodic:
        shared += [_sin2_table(n) for n in g.cells]
    if dim == 1:
        shared += list(_substructure_plan(g))
    else:  # the Dirichlet tables add the sine matrices
        lap, s, sines = _spectral_symbols(g)
        shared += [lap, s, *sines]
    for arr in shared:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0


def test_a_step_validates_only_the_fields_it_builds(monkeypatch):
    # operators hand back arrays, so one step checks four arrays: the new
    # state's rho, u and f, and the number density that the momentum
    # substep reads through `eta_moment`
    state = build_initial_state(RunConfig(cells=(64,), lengths=(2.0,), sphere_degree=2))
    dt = cfl_dt(state, 0.45)
    checked = []
    check = grid._check_values

    def counted(values, shape, what):
        checked.append(what)
        return check(values, shape, what)

    monkeypatch.setattr(grid, "_check_values", counted)
    monkeypatch.setattr(sphere, "_check_values", counted)
    step(state, dt)
    assert sorted(checked) == [
        "orientation coefficients", "scalar field values", "scalar field values", "vector field values",
    ]


@pytest.mark.parametrize("cfg", [
    RunConfig(cells=(32,), lengths=(2.0,), sphere_degree=2),
    RunConfig(dim=2, cells=(8, 8), lengths=(1.0, 1.0), bc="dirichlet", preset="taylor_vortex", sphere_degree=2),
], ids=["periodic-1d", "dirichlet-2d"])
def test_a_step_builds_one_state(cfg, monkeypatch):
    # every FluidState holds one instant: the momentum substep is handed the
    # transported rho and f beside the state it advances, so the only state a
    # step builds is its result.  The momentum predictor hands its rho^gamma
    # to the viscous correction, so the step evaluates the fluid pressure once
    state = build_initial_state(cfg)
    dt = cfl_dt(state, 0.45)
    built = []
    check = FluidState.__post_init__
    pressures = []
    pressure = hydro.fluid_pressure

    def counted(self):
        built.append(self.t)
        return check(self)

    def counted_pressure(rho, law):
        pressures.append(law.gamma)
        return pressure(rho, law)

    monkeypatch.setattr(FluidState, "__post_init__", counted)
    monkeypatch.setattr(hydro, "fluid_pressure", counted_pressure)
    out = step(state, dt)
    assert built == [out.t]
    assert pressures == [state.law.gamma]


@pytest.mark.parametrize("cfg", [
    RunConfig(cells=(32,), lengths=(2.0,), sphere_degree=2),
    RunConfig(dim=2, cells=(8, 8), lengths=(1.0, 1.0), bc="dirichlet", preset="taylor_vortex", sphere_degree=2),
], ids=["periodic-1d", "dirichlet-2d"])
def test_a_step_builds_the_donor_faces_of_its_velocity_once(cfg, monkeypatch):
    # the density flux, the advection of f and that of the momentum read one
    # donor pattern, cached on the velocity field the step advects with
    state = build_initial_state(cfg)
    dt = cfl_dt(build_initial_state(cfg), 0.45)  # a twin: this state's velocity has no faces yet
    built = []
    split = grid._split_faces

    def counted(u):
        built.append(u)
        return split(u)

    monkeypatch.setattr(grid, "_split_faces", counted)
    step(state, dt)
    assert len(built) == 1 and built[0] is state.u


def test_step_decays_each_degree_by_its_exact_rotational_factor():
    # space-uniform f at rest: only rotational diffusion acts on it
    basis = make_sphere_basis(4)
    g = Grid(cells=(4,), lengths=(1.0,))
    rng = np.random.default_rng(5)
    coeffs = np.broadcast_to(rng.uniform(-0.01, 0.01, basis.n_coeff), (4, basis.n_coeff)).copy()
    coeffs[:, 0] = 1.0
    state = replace(
        _state(g, basis, np.full(4, 0.8), np.zeros((1, 4)), np.full(4, 0.1)),
        f=OrientationField(g, basis, coeffs),
        coeffs=PhysCoeffs(d_rot=30.0),
    )
    dt = 1e-2
    out = step(state, dt, freeze_velocity=True)
    l = basis.l_index
    np.testing.assert_allclose(out.f.coeffs, coeffs * np.exp(-dt * 30.0 * l * (l + 1)), rtol=1e-14)
    assert np.array_equal(out.f.coeffs[:, 0], coeffs[:, 0])


@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
def test_step_moves_f_by_transport_then_the_diffusion_substep_then_the_rotational_factor(bc):
    # one translational-diffusion path on both boundary types
    basis = make_sphere_basis(3)
    g = Grid(cells=(8, 6), lengths=(1.0, 0.75), bc=bc)
    rng = np.random.default_rng(41)
    u = 0.5 * rng.standard_normal((2,) + g.cells)
    eta = rng.uniform(0.5, 1.0, g.cells)
    coeffs = PhysCoeffs(d_trans=0.3, d_rot=2.0)
    state = _state(g, basis, rng.uniform(0.5, 1.0, g.cells), u, eta, coeffs=coeffs)
    f = state.f.coeffs.copy()
    f[..., 1:] = 0.01 * rng.standard_normal(g.cells + (basis.n_coeff - 1,))
    state = replace(state, f=OrientationField(g, basis, f))
    dt = cfl_dt(state, 0.45)
    out = step(state, dt)
    explicit = f + dt * fp_rhs(state.f, state.u)
    want = heat_step(g, explicit, dt * coeffs.d_trans) * np.exp(dt * coeffs.d_rot * basis.lap_eig)
    assert np.array_equal(out.f.coeffs, want)


def test_stiff_rotational_diffusion_keeps_f_positive():
    # dt d_rot L(L+1) is about 4.9 here; an explicit Euler update of the
    # rotational diffusion dipped to -3.9e-4 at t = 0.0158
    cfg = RunConfig(
        cells=(16,), sphere_degree=7, d_rot=100.0, preset="colliding_streams",
        amplitude=0.5, gamma=5.0, t_final=0.1,
    )
    _, final = run(build_initial_state(cfg), cfg.t_final)
    assert final.t == pytest.approx(cfg.t_final, rel=1e-12)
    assert final.f.min_nodal() >= -EPS_POS


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from((1, 2)),
    n=st.integers(4, 8),
    L=st.integers(2, 6),
    d_rot=st.floats(1e-3, 1e4),
    amplitude=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_frozen_velocity_step_keeps_f_positive_for_any_rotational_diffusion(
    dim, n, L, d_rot, amplitude, seed
):
    # f is positive on the whole sphere, not only at the nodes: its isotropic
    # part 1 exceeds sum |c_lm| max|Y_lm| <= sum |c_lm| sqrt((2l + 1) / 4 pi)
    rng = np.random.default_rng(seed)
    basis = make_sphere_basis(L)
    g = Grid(cells=(n,) * dim, lengths=(1.0,) * dim)
    coeffs = rng.standard_normal(g.cells + (basis.n_coeff,))
    coeffs[..., 0] = 0.0
    y_max = np.sqrt((2 * basis.l_index + 1) / (4.0 * math.pi))
    coeffs *= 0.5 / np.sum(np.abs(coeffs) * y_max, axis=-1, keepdims=True)
    coeffs[..., 0] = SQRT_4PI
    phase = rng.uniform(0.0, 2.0 * math.pi, dim)
    u = np.stack([amplitude * np.sin(2.0 * math.pi * x + p) for x, p in zip(g.meshes(), phase)])
    state = replace(
        _state(g, basis, np.full(g.cells, 0.8), u, np.ones(g.cells)),
        f=OrientationField(g, basis, coeffs),
        coeffs=PhysCoeffs(d_rot=d_rot),
    )
    out = step(state, cfl_dt(state, 0.45), freeze_velocity=True)
    assert out.f.min_nodal() >= -EPS_POS


def test_stiff_translational_diffusion_steps_at_the_cfl_bound_on_periodic_grids():
    # d_trans = 1e3 puts the explicit limit h^2 / (2 D) near 5e-7; a periodic
    # run steps past it by the exact heat propagator with f kept positive and
    # the rod number exact
    basis = make_sphere_basis(4)
    g = Grid(cells=(32,), lengths=(1.0,))
    x = g.axis_centers(0)
    eta = 0.1 + 0.3 * np.exp(-80.0 * (x - 0.5) ** 2)
    state = _state(g, basis, np.full(32, 0.8), (0.1 * np.cos(2.0 * np.pi * x)).reshape(1, -1), eta)
    coeffs = state.f.coeffs.copy()
    coeffs[..., basis.index(2, 0)] = 0.005 * np.sin(2.0 * np.pi * x)  # x-dependent anisotropy
    state = replace(state, f=OrientationField(g, basis, coeffs), coeffs=PhysCoeffs(d_trans=1e3))
    assert state.f.min_nodal() > 0.0
    rods0 = integral(state.eta)
    explicit_limit = g.h[0] ** 2 / (2.0 * state.coeffs.d_trans)
    for _ in range(8):
        dt = cfl_dt(state, 0.45)
        assert dt > 1000.0 * explicit_limit
        state = step(state, dt)
        assert state.f.min_nodal() >= 0.0
        assert abs(integral(state.eta) - rods0) <= 1e-12 * rods0


_DECADES = st.integers(-3, 3).map(lambda k: 10.0**k)


@settings(max_examples=25, deadline=None)
@given(
    dim=st.sampled_from((1, 2)),
    bc=st.sampled_from(("periodic", "dirichlet")),
    n=st.integers(4, 10),
    L=st.integers(2, 4),
    preset=st.sampled_from(("uniform", "colliding_streams", "taylor_vortex")),
    gamma=st.floats(2.0, 40.0),
    rho0=st.floats(0.1, 0.95),
    amplitude=st.floats(0.0, 2.0),
    d_trans=_DECADES,
    d_rot=_DECADES,
    mu=_DECADES,
    n_steps=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
# dense and stiff at rest (rho up to 1.425, polymer-bound dt): CG restarts
# from its true residual in the first solve
@example(
    dim=2, bc="periodic", n=4, L=3, preset="uniform", gamma=28.266985956595992, rho0=0.95,
    amplitude=1.0821542335388885, d_trans=1e-3, d_rot=0.1, mu=0.1, n_steps=4, seed=14,
)
def test_every_valid_config_runs_with_its_invariants_or_fails_by_name(
    dim, bc, n, L, preset, gamma, rho0, amplitude, d_trans, d_rot, mu, n_steps, seed
):
    if preset == "taylor_vortex" and dim == 1:
        preset = "colliding_streams"
    cfg = RunConfig(
        dim=dim, cells=(n,) * dim, lengths=(1.0,) * dim, bc=bc, sphere_degree=L,
        preset=preset, gamma=gamma, rho0=rho0, amplitude=amplitude, d_trans=d_trans,
        d_rot=d_rot, mu=mu, lam=mu, perturbation=0.5 * rho0, seed=seed,
    )
    state = build_initial_state(cfg)
    # a horizon of a few initial steps (later steps may be shorter)
    t_final = n_steps * cfl_dt(state, cfg.cfl_safety)
    try:
        _, final = run(state, t_final, record_every=1, safety=cfg.cfl_safety)
    except NumericalError as err:
        assert "substep '" in str(err), str(err)
        return
    assert final.t == pytest.approx(t_final, rel=1e-12)
    assert final.f.min_nodal() >= -EPS_POS
    assert np.min(final.rho.values) >= 0.0
    assert np.all(np.isfinite(final.u.values))
    if bc == "periodic":
        for a, b in ((state.rho, final.rho), (state.eta, final.eta)):
            assert abs(integral(b) - integral(a)) <= 1e-12 * integral(a)


def _mirrored(state):
    # x -> L - x on a 1D state: rho and f reverse in space and u reverses
    # with its sign.  tau_x -> -tau_x is phi -> pi - phi, which multiplies a
    # cos member (m >= 0) of `_harmonic_tables` by (-1)^m and a sin member
    # (m < 0) by -(-1)^m
    g, basis = state.grid, state.f.basis
    l = basis.l_index
    m = np.arange(l.size) - np.searchsorted(l, l) - l  # m = -l..l within each degree
    sign = np.where(m % 2 == 1, -1.0, 1.0) * np.where(m < 0, -1.0, 1.0)
    return replace(
        state,
        rho=ScalarField(g, state.rho.values[::-1]),
        u=VectorField(g, -state.u.values[:, ::-1]),
        f=OrientationField(g, basis, state.f.coeffs[::-1] * sign),
    )


def _shifted(state, k):
    g, basis = state.grid, state.f.basis
    return replace(
        state,
        rho=ScalarField(g, np.roll(state.rho.values, k)),
        u=VectorField(g, np.roll(state.u.values, k, axis=1)),
        f=OrientationField(g, basis, np.roll(state.f.coeffs, k, axis=0)),
    )


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(8, 40),
    L=st.integers(2, 6),
    gamma=st.floats(2.0, 60.0),
    rho0=st.floats(0.3, 0.9),
    amplitude=st.floats(-0.5, 0.5),
    shift=st.integers(1, 39),
    seed=st.integers(0, 2**32 - 1),
)
def test_steps_commute_with_the_mirror_and_with_periodic_shifts(n, L, gamma, rho0, amplitude, shift, seed):
    # the equations commute with x -> L - x on both boundary types and with
    # cell shifts on periodic grids; a slipped stencil, ghost or index order
    # breaks either at O(1), roundoff does not.  Each image is stepped with
    # the step sizes of the original
    rng = np.random.default_rng(seed)
    basis = make_sphere_basis(L)
    rho = rho0 * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, n))
    phase = rng.uniform(0.0, 2.0 * np.pi)
    u = 0.05 * rng.uniform(-1.0, 1.0, n)
    eta = rng.uniform(0.05, 0.3, n)
    aniso = rng.standard_normal((n, basis.n_coeff))
    aniso[:, 0] = 0.0
    y_max = np.sqrt((2 * basis.l_index + 1) / (4.0 * math.pi))
    aniso *= 0.1 / np.sum(np.abs(aniso) * y_max, axis=-1, keepdims=True)  # at most 1/10 of the isotropic part
    for bc in ("periodic", "dirichlet"):
        g = Grid(cells=(n,), lengths=(1.0,), bc=bc)
        wave = amplitude * np.sin(2.0 * np.pi * g.axis_centers(0) + phase)
        state = _state(g, basis, rho, (u + wave).reshape(1, -1), eta, gamma=gamma)
        f = state.f.coeffs + aniso * (eta / (4.0 * math.pi))[:, None]
        state = replace(state, f=OrientationField(g, basis, f))
        dts, final = [], state
        for _ in range(5):
            dts.append(cfl_dt(final, 0.45))
            final = step(final, dts[-1])
        images = [(_mirrored(state), _mirrored(final))]
        if bc == "periodic":
            k = shift % (n - 1) + 1  # 1..n-1 cells, never the identity
            images.append((_shifted(state, k), _shifted(final, k)))
        for start, want in images:
            got = start
            for dt in dts:
                got = step(got, dt)
            pairs = ((got.rho.values, want.rho.values), (got.u.values, want.u.values), (got.f.coeffs, want.f.coeffs))
            for a, b in pairs:
                assert np.max(np.abs(a - b)) <= 1e-13


def test_splitting_global_error_first_order():
    # fixed-step integrations against a small-step reference: halving dt
    # should halve the final-time error of the first-order splitting
    state = _smooth_state()
    t_final = 6.4e-3

    def advance(dt):
        s = state
        n = round(t_final / dt)
        for _ in range(n):
            s = step(s, dt)
        return s.rho.values

    ref = advance(2.5e-5)
    errs = [float(np.sum(np.abs(advance(dt) - ref))) for dt in (4e-4, 2e-4)]
    ratio = errs[0] / errs[1]
    assert 1.7 <= ratio <= 2.3, f"splitting refinement ratio {ratio:.3f}"


# ---------------------------------------------------------------------------
# trajectories


def test_run_zero_duration_returns_initial():
    state = _smooth_state()
    records, final = run(state, state.t)
    assert len(records) == 1
    assert final is state


def test_run_equilibrium_records_identical():
    basis = make_sphere_basis(2)
    g = Grid(cells=(64,), lengths=(1.0,))
    state = _state(g, basis, np.full(64, 0.8), np.zeros((1, 64)), np.full(64, 0.2))
    records, _ = run(state, 0.02, record_every=1)
    assert len(records) > 2
    first = np.array(records[0].row()[1:])  # drop t
    for rec in records[1:]:
        assert np.max(np.abs(np.array(rec.row()[1:]) - first)) < 1e-10


def test_run_diffusion_pulse_eta_energy_non_increasing():
    basis = make_sphere_basis(2)
    g = Grid(cells=(32,), lengths=(1.0,))
    x = g.axis_centers(0)
    eta = 0.1 + 0.3 * np.exp(-80.0 * (x - 0.5) ** 2)
    state = _state(g, basis, np.full(32, 0.8), np.zeros((1, 32)), eta)
    records, _ = run(state, 0.01, record_every=1, freeze_velocity=True)
    e_eta = [r.e_eta for r in records]
    assert all(b <= a + 1e-14 for a, b in zip(e_eta, e_eta[1:]))


@pytest.mark.parametrize("gamma", [5.0, 10.0, 20.0, 40.0, 80.0])
def test_every_step_obeys_the_discrete_energy_inequality_on_the_gamma_ladder(gamma):
    # the paper's a priori estimate, step by step: E_{n+1} - E_n + dt D_{n+1}
    # <= 0 up to roundoff relative to E0, on criterion 6's colliding streams
    # through gamma = 80 (from gamma = 160 on the default steps break it)
    cfg = RunConfig(
        cells=(256,), lengths=(6.0,), sphere_degree=2, rho0=0.5, amplitude=2.6,
        eta0=0.1, mu=0.1, lam=0.1, t_final=0.5, gamma=gamma,
    )
    records, _ = run(build_initial_state(cfg), cfg.t_final, record_every=1, safety=cfg.cfl_safety)
    e0 = records[0].e_total
    production = [
        new.e_total - old.e_total + (new.t - old.t) * new.dissipation
        for old, new in zip(records, records[1:])
    ]
    assert len(production) > 50
    assert max(production) <= 1e-12 * e0, f"largest production {max(production) / e0:.3e} E0"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 19: the advected momentum is rho^{n+1} u^n, not rho^n u^n")
def test_a_uniform_translation_keeps_its_velocity():
    # u = 1 over rho = 0.5 + 0.2 sin 2 pi x (no rods) is a solution: the
    # density translates, and the pressure rho^60 <= 0.7^60 ~ 5e-10 barely
    # pushes.  Advecting rho^{n+1} u^n where rho^n u^n belongs slows the flow
    # by 0.44 at t = 0.2, and by as much on 64, 128 and 256 cells; the
    # consistent update holds u = 1 to about 1e-9
    g = Grid(cells=(32,), lengths=(1.0,))
    rho = 0.5 + 0.2 * np.sin(2.0 * np.pi * g.axis_centers(0))
    state = _state(g, make_sphere_basis(2), rho, np.ones((1, 32)), 0.0, gamma=60.0, coeffs=PhysCoeffs(mu=1e-3, lam=1e-3))
    _, final = run(state, 0.2)
    assert final.t == pytest.approx(0.2, rel=1e-12)
    assert np.max(np.abs(final.u.values - 1.0)) < 1e-6


def test_run_validates_arguments():
    state = _smooth_state()
    with pytest.raises(ValueError, match="precedes"):
        run(state, -1.0)
    with pytest.raises(ValueError, match="record_every"):
        run(state, 0.1, record_every=0)
    # a float would be truncated (2.5 records every 2nd step) and True taken for 1
    for every in (2.5, True, "2"):
        with pytest.raises(ValueError, match=f"^record_every must be a positive integer, got {every!r}$"):
            run(state, 0.1, record_every=every)
    # but a numpy integer is a count, as in `Grid` and `RunConfig`
    assert run(state, 0.001, record_every=np.int64(2))[0] == run(state, 0.001, record_every=2)[0]


@pytest.mark.parametrize("t_final", [math.inf, math.nan])
def test_run_rejects_a_non_finite_end_time(t_final):
    # without the check, no step fits before an infinite end time and a NaN
    # one passes every comparison: both returned the initial state
    with pytest.raises(ValueError, match="t_final must be finite"):
        run(_smooth_state(), t_final)


def test_run_mass_ledger_and_determinism():
    state = _smooth_state(n=16)
    records_a, final_a = run(state, 0.02, record_every=1)
    records_b, final_b = run(state, 0.02, record_every=1)
    # identical inputs give bit-identical trajectories
    for ra, rb in zip(records_a, records_b):
        assert ra.row() == rb.row()
    assert np.array_equal(final_a.rho.values, final_b.rho.values)
    assert np.array_equal(final_a.f.coeffs, final_b.f.coeffs)
    # conserved totals stay at roundoff
    mass = [r.mass for r in records_a]
    rod = [r.rod_mass for r in records_a]
    assert max(abs(m - mass[0]) for m in mass) < 1e-13 * abs(mass[0])
    assert max(abs(m - rod[0]) for m in rod) < 1e-13 * max(abs(rod[0]), 1e-30)


def test_run_observer_sees_every_step_without_side_effects():
    state = _smooth_state(n=16)
    seen = []
    records, final = run(state, 0.01, record_every=1, observer=lambda k, s: seen.append((k, s.t)))
    assert [k for k, _ in seen] == list(range(1, len(seen) + 1))
    assert seen[-1][1] == final.t
    records_b, final_b = run(state, 0.01, record_every=1)
    assert np.array_equal(final.rho.values, final_b.rho.values)
    assert [r.row() for r in records] == [r.row() for r in records_b]


# ---------------------------------------------------------------------------
# renormalized continuity diagnostic


def test_renormalized_identity_for_b_equals_z():
    state = _smooth_state()
    dt = cfl_dt(state, 0.45)
    after = step(state, dt)
    resid = renormalized_residual(state, after, lambda z: z, lambda z: np.ones_like(z))
    assert resid <= 1e-12


def test_renormalized_constant_b_divergence_free_u():
    # b constant and u uniform (divergence-free in 1D): every term degenerates
    basis = make_sphere_basis(2)
    g = Grid(cells=(16,), lengths=(1.0,))
    rho = np.full(16, 0.7)
    state = _state(g, basis, rho, np.full((1, 16), 0.3), np.full(16, 0.1))
    dt = 1e-3
    after = step(state, dt)
    resid = renormalized_residual(
        state, after, lambda z: np.full_like(z, 2.0), lambda z: np.zeros_like(z)
    )
    assert resid <= 1e-13


def test_renormalized_requires_time_order():
    state = _smooth_state()
    with pytest.raises(ValueError, match="ordered"):
        renormalized_residual(state, state, lambda z: z, lambda z: np.ones_like(z))


def test_steps_load_none_of_the_scipy_modules_measured_as_rss_dead_ends():
    # importing scipy.sparse and scipy.special cost about 0.28 s and 26 MB of
    # peak RSS per process, numpy.polynomial (leggauss) about 4 ms and
    # 0.7 MB, and numpy.ma (pulled in by set routines such as np.union1d)
    # 15-19 ms and 1.3 MB, multiprocessing (with socket and subprocess,
    # which only a multi-worker gamma sweep needs) about 1.2 MB, and
    # numpy.random (once the seeded perturbation's generator) +6.2 MB and
    # ~9 ms; the package, its CLI, the sphere basis, a seeded state stepped
    # on each solve path (1D direct, 2D periodic and Dirichlet CG), the
    # energy ledger and check suite 5 in a fresh interpreter must load none
    # of them
    code = """
import sys
import doifbp.cli
from doifbp import RunConfig, build_initial_state, make_sphere_basis
from doifbp.checks import check_stress
from doifbp.hydro import cfl_dt
from doifbp.integrator import energy_total, step
make_sphere_basis(7)
for cfg in (
    RunConfig(dim=1, cells=(32,), lengths=(1.0,), perturbation=0.05, seed=1),
    RunConfig(dim=2, cells=(8, 8), lengths=(1.0, 1.0), preset="taylor_vortex", perturbation=0.05, seed=1),
    RunConfig(
        dim=2, cells=(8, 8), lengths=(1.0, 1.0), bc="dirichlet", preset="taylor_vortex", perturbation=0.05, seed=1
    ),
):
    state = build_initial_state(cfg)
    energy_total(step(state, cfl_dt(state, cfg.cfl_safety)))
assert check_stress()[1]
banned = ("scipy", "numpy.polynomial", "numpy.ma", "multiprocessing", "numpy.random")
print(sorted(m for m in sys.modules if m in banned or m.startswith(tuple(b + "." for b in banned))))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
