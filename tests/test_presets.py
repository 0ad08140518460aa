"""Initial-data builders for the named flow presets."""

import math

import numpy as np
import pytest

from doifbp import ConfigError, RunConfig, run
from doifbp.hydro import cfl_dt
from doifbp.kinetics import stress_moment
from doifbp.presets import build_initial_state


def test_uniform_preset_is_quiescent():
    cfg = RunConfig(cells=(12,), preset="uniform", rho0=0.7, eta0=0.3, sphere_degree=3)
    state = build_initial_state(cfg)
    assert state.t == 0.0
    assert np.all(state.rho.values == 0.7)
    assert np.all(state.u.values == 0.0)
    assert np.all(state.eta.values == 0.3)
    assert state.law.gamma == cfg.gamma
    assert (state.coeffs.mu, state.coeffs.lam) == (cfg.mu, cfg.lam)


def test_colliding_streams_profile():
    cfg = RunConfig(cells=(32,), lengths=(2.0,), amplitude=0.8, sphere_degree=2)
    state = build_initial_state(cfg)
    x = state.grid.axis_centers(0)
    expected = -0.8 * np.sin(2.0 * np.pi * x / 2.0)
    assert np.allclose(state.u.values[0], expected, atol=1e-15)
    # opposed streams: inflow toward the midline from both sides
    assert state.u.values[0, 1] < 0.0 < state.u.values[0, -2]


def test_taylor_vortex_is_divergence_free_and_2d_only():
    cfg = RunConfig(
        dim=2, cells=(16, 16), lengths=(1.0, 1.0), preset="taylor_vortex", sphere_degree=2
    )
    state = build_initial_state(cfg)
    from doifbp.grid import div

    assert np.max(np.abs(div(state.u))) < 1e-12
    with pytest.raises(ConfigError, match="needs dim = 2"):
        RunConfig(preset="taylor_vortex", sphere_degree=2)  # RunConfig states the rule


def test_initial_orientation_is_isotropic_and_stress_free():
    cfg = RunConfig(cells=(8,), eta0=0.4, sphere_degree=4)
    state = build_initial_state(cfg)
    coeffs = state.f.coeffs
    assert np.allclose(coeffs[..., 0], 0.4 / math.sqrt(4.0 * math.pi), atol=1e-15)
    assert np.all(coeffs[..., 1:] == 0.0)
    assert np.max(np.abs(stress_moment(state.f))) < 1e-14


def test_perturbation_is_seeded_and_mean_preserving():
    cfg = RunConfig(cells=(64,), perturbation=0.05, seed=7, sphere_degree=2)
    a = build_initial_state(cfg).rho.values
    b = build_initial_state(cfg).rho.values
    assert np.array_equal(a, b)
    assert np.mean(a) == pytest.approx(0.9, abs=1e-14)
    assert np.max(np.abs(a - 0.9)) == pytest.approx(0.05, rel=1e-12)
    c = build_initial_state(RunConfig(cells=(64,), perturbation=0.05, seed=8, sphere_degree=2))
    assert not np.array_equal(a, c.rho.values)


@pytest.mark.parametrize(
    "cfg",
    [
        # perturbation = rho0: (perturbation * noise) / peak rounds an ulp
        # past -rho0, which once failed as a negative density
        RunConfig(cells=(16,), rho0=0.9, perturbation=0.9, seed=25, sphere_degree=2),
        # the mean-free noise rounds the mean onto 1, which once failed as a
        # supercritical mean
        RunConfig(
            cells=(7,), rho0=float(np.nextafter(1.0, 0.0)), perturbation=0.3, seed=0, sphere_degree=2
        ),
    ],
)
def test_every_perturbation_in_range_builds_and_runs(cfg):
    state = build_initial_state(cfg)
    assert np.min(state.rho.values) >= 0.0
    assert np.mean(state.rho.values) == pytest.approx(cfg.rho0, abs=1e-15)
    t_final = 5 * cfl_dt(state, cfg.cfl_safety)
    _, final = run(state, t_final)
    assert final.t == pytest.approx(t_final, rel=1e-12)
