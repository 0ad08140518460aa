"""Free-boundary diagnostics and the stiff-pressure sweep driver."""

import math
from dataclasses import replace

import numpy as np
import pytest

from doifbp import (
    ConfigError,
    Grid,
    NumericalError,
    PhysCoeffs,
    PressureLaw,
    RunConfig,
    ScalarField,
    VectorField,
    build_initial_state,
    gamma_sweep,
    make_sphere_basis,
    run,
)
from doifbp import limits
from doifbp.integrator import FluidState
from doifbp.limits import (
    GammaDiagnostics,
    SweepResult,
    complementarity_residual,
    excess_density_norms,
    fit_l2_slope,
    incompressibility_defect,
    loglog_slope,
)
from doifbp.sphere import uniform_orientation


def _state(rho, u=None, gamma=5.0, lengths=None):
    rho = np.asarray(rho, dtype=float)
    grid = Grid(cells=rho.shape, lengths=lengths or (1.0,) * rho.ndim)
    basis = make_sphere_basis(2)
    if u is None:
        u = np.zeros((grid.dim,) + grid.cells)
    return FluidState(
        rho=ScalarField(grid, rho),
        u=VectorField(grid, u),
        f=uniform_orientation(grid, basis, 0.1),
        t=0.0,
        law=PressureLaw(gamma),
        coeffs=PhysCoeffs(),
    )


# ---------------------------------------------------------------------------
# pointwise diagnostics


def test_excess_norms_vanish_below_threshold():
    state = _state(0.3 + 0.6 * np.random.default_rng(0).random(32))
    norms = excess_density_norms(state)
    assert set(norms) == {1, 2, 4, math.inf}
    assert all(v == 0.0 for v in norms.values())


def test_excess_norms_constant_overshoot():
    # rho = 1.5 on a unit box: every L^p norm of the excess equals 0.5
    state = _state(np.full(16, 1.5))
    for p, v in excess_density_norms(state).items():
        assert v == pytest.approx(0.5, rel=1e-13), f"p = {p}"


def test_excess_norms_match_direct_summation():
    g = Grid(cells=(64,), lengths=(2.0,))
    x = g.axis_centers(0)
    rho = 1.0 + 0.3 * np.sin(np.pi * x)
    state = _state(rho, lengths=(2.0,))
    excess = np.maximum(rho - 1.0, 0.0)
    norms = excess_density_norms(state)
    for p in (1, 2, 4):
        direct = (np.sum(excess**p) * g.cell_volume) ** (1.0 / p)
        assert norms[p] == pytest.approx(direct, rel=1e-12)
    assert norms[math.inf] == np.max(excess)


def test_complementarity_zero_exactly_at_threshold():
    assert complementarity_residual(_state(np.ones(16))) == 0.0


def test_complementarity_closed_form_constant():
    # rho = 1/2, gamma = 20, unit volume: int rho^g |rho - 1| = 0.5^21
    state = _state(np.full(16, 0.5), gamma=20.0)
    assert complementarity_residual(state) == pytest.approx(0.5**21, rel=1e-13)


def test_complementarity_matches_direct_summation():
    rho = np.where(np.arange(32) < 20, 0.9, 1.1)
    state = _state(rho, gamma=7.0)
    direct = float(np.sum(rho**7.0 * np.abs(rho - 1.0))) / 32.0
    assert complementarity_residual(state) == pytest.approx(direct, rel=1e-13)


def test_defect_empty_congested_set():
    state = _state(np.full(16, 0.5), u=np.full((1, 16), 3.0))
    assert incompressibility_defect(state, 0.05) == (0.0, 0.0)


def test_defect_divergence_free_flow_in_2d():
    # u = (F(y), G(x)) has exactly zero centered divergence
    g = Grid(cells=(16, 16), lengths=(1.0, 1.0))
    xm, ym = g.meshes()
    u = np.stack([np.cos(2.0 * np.pi * ym), np.sin(2.0 * np.pi * xm)])
    state = _state(np.full((16, 16), 1.2), u=u)
    defect, volume = incompressibility_defect(state, 0.05)
    assert defect <= 1e-12
    assert volume == pytest.approx(1.0, rel=1e-14)  # every cell congested


def test_defect_matches_masked_norm_oracle():
    g = Grid(cells=(48,), lengths=(1.0,))
    rng = np.random.default_rng(3)
    rho = 0.9 + 0.2 * rng.random(48)
    u = rng.standard_normal((1, 48))
    state = _state(rho, u=u)
    eps = 0.08
    divu = (np.roll(u[0], -1) - np.roll(u[0], 1)) / (2.0 * g.h[0])
    mask = rho >= 1.0 - eps
    oracle = math.sqrt(float(np.sum(divu[mask] ** 2)) * g.cell_volume)
    defect, volume = incompressibility_defect(state, eps)
    assert defect == pytest.approx(oracle, rel=1e-13)
    assert volume == pytest.approx(np.count_nonzero(mask) / 48.0, rel=1e-14)


def test_defect_rejects_bad_threshold():
    state = _state(np.ones(8))
    for eps in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError, match="congestion threshold"):
            incompressibility_defect(state, eps)


# ---------------------------------------------------------------------------
# slope fitting


def _diag(gamma, l2):
    return GammaDiagnostics(
        gamma=gamma,
        excess_l1=l2,
        excess_l2=l2,
        excess_l4=l2,
        excess_linf=l2,
        pressure_time_integral=1.0,
        complementarity=0.0,
        incompressibility_defect=0.0,
        congested_volume=0.0,
    )


def test_fit_recovers_exact_power_law():
    rows = [_diag(g, g**-0.5) for g in (5.0, 10.0, 20.0, 40.0, 80.0)]
    assert fit_l2_slope(rows) == pytest.approx(-0.5, abs=1e-12)


def test_fit_equals_the_least_squares_line_on_random_ladders():
    # the closed-form slope is np.polyfit's degree-1 coefficient over the
    # top three rows, to roundoff
    rng = np.random.default_rng(5)
    for _ in range(200):
        gammas = np.sort(rng.uniform(1.6, 500.0, 3 + rng.integers(3)))
        norms = np.exp(rng.normal(-3.0, 2.0, gammas.size))
        rows = [_diag(g, n) for g, n in zip(gammas, norms)]
        want = np.polyfit(np.log(gammas[-3:]), np.log(norms[-3:]), 1)[0]
        assert fit_l2_slope(rows) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_the_suite_7_slope_is_the_least_squares_line_on_refinement_ladders():
    # check suite 7 fits its three-level residuals by the same closed form
    rng = np.random.default_rng(7)
    for _ in range(200):
        hs = 1.0 / (32.0 * 2.0 ** np.arange(3)) * rng.uniform(0.5, 2.0)
        resid = np.exp(rng.normal(-5.0, 3.0, 3))
        want = np.polyfit(np.log(hs), np.log(resid), 1)[0]
        assert loglog_slope(hs, resid) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_fit_undefined_cases():
    assert fit_l2_slope([_diag(5.0, 0.1), _diag(10.0, 0.05)]) is None
    rows = [_diag(5.0, 0.1), _diag(10.0, 0.05), _diag(20.0, 0.0)]
    assert fit_l2_slope(rows) is None  # underflowed norm in the fit window


def test_sweep_result_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepResult(rows=(_diag(10.0, 0.1), _diag(5.0, 0.2)), l2_slope=None)
    bad = replace(_diag(5.0, 0.1), complementarity=-1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        SweepResult(rows=(bad,), l2_slope=None)


# ---------------------------------------------------------------------------
# sweep driver


QUIET_CONFIG = RunConfig(
    cells=(8,),
    sphere_degree=2,
    preset="uniform",
    rho0=0.5,
    eta0=0.0,
    amplitude=0.0,
    t_final=0.05,
    gammas=(5.0, 10.0),
)


def test_sweep_on_quiescent_state_has_closed_form():
    # a uniform subcritical state is a fixed point, so every diagnostic is a
    # closed-form expression in rho0 and gamma
    result = gamma_sweep(QUIET_CONFIG, workers=1)
    assert result.l2_slope is None  # only two gammas
    for row, gamma in zip(result.rows, (5.0, 10.0)):
        assert row.gamma == gamma
        assert row.excess_l1 == 0.0
        assert row.excess_linf == 0.0
        assert row.pressure_time_integral == pytest.approx(0.5**gamma * 0.05, rel=1e-12)
        assert row.complementarity == pytest.approx(0.5**gamma * 0.5, rel=1e-12)
        assert row.incompressibility_defect == 0.0
        assert row.congested_volume == 0.0


def test_sweep_pressure_integral_is_the_trapezoid_over_every_step_ledger_records():
    cfg = replace(QUIET_CONFIG, preset="colliding_streams", amplitude=0.4, t_final=0.5)
    result = gamma_sweep(cfg, workers=1)
    for row in result.rows:
        cfg_g = replace(cfg, gamma=row.gamma)
        records, _ = run(build_initial_state(cfg_g), cfg_g.t_final, record_every=1, safety=cfg_g.cfl_safety)
        assert len(records) > 2  # intermediate steps, not only the end points
        ts = np.array([r.t for r in records])
        pg = (row.gamma - 1.0) * np.array([r.e_pressure for r in records])
        assert row.pressure_time_integral == float(np.trapezoid(pg, ts))


def test_stiffest_gamma_of_the_ladder_completes_with_a_bounded_pressure_integral():
    # the criterion-6 colliding streams with a seeded density perturbation, at
    # the two ends of the 5..640 ladder: with the pressure linearized into the
    # implicit solve, the stiff run takes steps far beyond the sound-speed
    # bound and still keeps f positive; the excess falls and the time-integrated
    # pressure stays of order one
    cfg = RunConfig(
        dim=1, cells=(256,), lengths=(6.0,), sphere_degree=2, rho0=0.5, amplitude=2.6,
        eta0=0.1, mu=0.1, lam=0.1, t_final=0.5, perturbation=0.02, seed=301,
    )
    soft, stiff = gamma_sweep(cfg, (5.0, 640.0), workers=1).rows
    assert 0.0 < stiff.excess_l2 < soft.excess_l2
    assert stiff.pressure_time_integral <= 2.0 * soft.pressure_time_integral


# ---------------------------------------------------------------------------
# the inviscid congested limit of the colliding streams, exactly


def _nondecreasing_fit(y):
    # least-squares nondecreasing fit of equally weighted values by
    # pool-adjacent-violators: each pool holds its mean and its size
    means, sizes = [], []
    for v in y:
        means.append(v)
        sizes.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            v, k = means.pop(), sizes.pop()
            means[-1] = (means[-1] * sizes[-1] + v * k) / (sizes[-1] + k)
            sizes[-1] += k
    return np.repeat(means, sizes)


def _sticky_streams_density(n, length, rho0, amplitude, t):
    # the colliding_streams preset u = -a sin(2 pi x / L) over rho0, in the
    # limit gamma -> infinity, mu -> 0 with no rods: sticky particles under
    # rho <= 1.  In the mass coordinate s, counted from the diverging point
    # x = L/2, the positions are X(s) = s + the nondecreasing fit of free
    # flight X0(s) + t V0(s) - s (X_s >= 1 is rho <= 1).  Cell densities
    # follow from the inverse map s(x) at the cell faces.
    s = np.linspace(0.0, rho0 * length, 20001)  # converged to 1e-7 in L1
    x0 = 0.5 * length + s / rho0
    x = _nondecreasing_fit(x0 - t * amplitude * np.sin(2.0 * np.pi * x0 / length) - s) + s
    h = length / n
    faces = 0.5 * length + h * np.arange(n + 1)  # the box unrolled onto [L/2, 3L/2]
    return np.roll(np.diff(np.interp(faces, x, s)) / h, n // 2)


_STREAMS = RunConfig(
    cells=(256,), lengths=(6.0,), sphere_degree=2, rho0=0.5, amplitude=2.6, eta0=0.0,
    d_trans=1e-3, mu=1e-2, lam=1e-2, t_final=0.5,
)


def test_the_sticky_reference_keeps_its_mass_under_the_density_cap():
    # the oracle itself: the mass rho0 L = 3, rho <= 1 up to the roundoff of
    # the interpolation, and one congested block of 88 cells around the
    # collision point x = 0, [-1.03, 1.03]
    n, length = _STREAMS.cells[0], _STREAMS.lengths[0]
    h = length / n
    ref = _sticky_streams_density(n, length, _STREAMS.rho0, _STREAMS.amplitude, _STREAMS.t_final)
    assert abs(ref.sum() * h - 3.0) <= 1e-12
    assert ref.max() <= 1.0 + 1e-12
    congested = np.flatnonzero(ref >= 1.0 - 1e-9)
    assert np.array_equal(congested, np.sort(np.arange(-44, 44) % n))


@pytest.mark.xfail(strict=True, reason="ROADMAP items 19 and 20: the momentum predictor advects rho^{n+1} u^n")
def test_the_stiff_rungs_approach_the_sticky_limit_of_the_colliding_streams():
    # the L1 distance of the final density from the exact congested limit
    # must fall with gamma and reach 0.06 at gamma = 320.  The predictor's
    # momentum leaves the front 5-6 cells short: 0.393 at gamma = 80 and
    # 0.382 at 320, against 0.04 with the consistent convection
    n, length = _STREAMS.cells[0], _STREAMS.lengths[0]
    ref = _sticky_streams_density(n, length, _STREAMS.rho0, _STREAMS.amplitude, _STREAMS.t_final)
    distance = []
    for gamma in (80.0, 320.0):
        cfg = replace(_STREAMS, gamma=gamma)
        _, final = run(build_initial_state(cfg), cfg.t_final, record_every=10**6)
        assert final.t == pytest.approx(cfg.t_final, rel=1e-12)
        distance.append(float(np.sum(np.abs(final.rho.values - ref))) * length / n)
    assert distance[1] < distance[0]
    assert distance[1] <= 0.06, f"L1 distances {distance}"


def test_sweep_single_gamma():
    result = gamma_sweep(QUIET_CONFIG, gamma_list=(8.0,), t_final=0.01, workers=1)
    assert len(result.rows) == 1
    assert result.rows[0].gamma == 8.0
    assert result.l2_slope is None


def test_sweep_validates_gamma_list():
    with pytest.raises(ConfigError, match="at least one"):
        gamma_sweep(QUIET_CONFIG, gamma_list=())
    with pytest.raises(ConfigError, match="strictly increasing"):
        gamma_sweep(QUIET_CONFIG, gamma_list=(10.0, 5.0))
    with pytest.raises(ConfigError, match="3/2"):
        gamma_sweep(QUIET_CONFIG, gamma_list=(1.0, 5.0))


def test_sweep_rejects_a_bad_gamma_list_or_t_final_before_any_run(monkeypatch):
    calls = []
    inner = limits.run

    def counting(*args, **kw):
        calls.append(1)
        return inner(*args, **kw)

    monkeypatch.setattr(limits, "run", counting)
    with pytest.raises(ConfigError, match="^gammas must be finite"):
        gamma_sweep(QUIET_CONFIG, (5.0, math.inf), workers=1)
    with pytest.raises(ConfigError, match="^t_final must be nonnegative"):
        gamma_sweep(QUIET_CONFIG, (5.0, 10.0), -1.0, workers=1)
    assert calls == []


def test_sweep_lets_a_bare_exception_in_a_rung_keep_its_type(monkeypatch):
    # only a NumericalError is a rung's numerical failure, tagged with its
    # gamma; any other exception is a fault of the program and says so
    def broken(*args, **kw):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(limits, "run", broken)
    with pytest.raises(ZeroDivisionError, match="^float division by zero$"):
        gamma_sweep(QUIET_CONFIG, (5.0,), workers=1)


def test_sweep_parallel_matches_sequential():
    cfg = replace(QUIET_CONFIG, preset="colliding_streams", amplitude=0.4, t_final=0.02)
    seq = gamma_sweep(cfg, workers=1)
    par = gamma_sweep(cfg, workers=2)
    assert [r.row() for r in seq.rows] == [r.row() for r in par.rows]
    assert seq.l2_slope == par.l2_slope


def test_sweep_worker_count_from_environment(monkeypatch):
    monkeypatch.setenv("DOIFBP_THREADS", "1")
    result = gamma_sweep(QUIET_CONFIG, gamma_list=(5.0,), t_final=0.01)
    assert len(result.rows) == 1
    monkeypatch.setenv("DOIFBP_THREADS", "many")
    with pytest.raises(ConfigError, match="DOIFBP_THREADS"):
        gamma_sweep(QUIET_CONFIG, gamma_list=(5.0,), t_final=0.01)
    # a count below 1 was once clamped to 1 without a word
    monkeypatch.setenv("DOIFBP_THREADS", "-3")
    with pytest.raises(ConfigError, match="^DOIFBP_THREADS must be a positive integer, got '-3'"):
        gamma_sweep(QUIET_CONFIG, gamma_list=(5.0,), t_final=0.01)
    monkeypatch.delenv("DOIFBP_THREADS")
    with pytest.raises(ValueError, match="^workers must be at least 1, got 0"):
        gamma_sweep(QUIET_CONFIG, gamma_list=(5.0,), t_final=0.01, workers=0)
    # int() would truncate 2.5 to 2, parse "3" and take True for 1
    for workers in (2.5, "3", True):
        with pytest.raises(ValueError, match=f"^workers must be an integer, got {workers!r}$"):
            gamma_sweep(QUIET_CONFIG, gamma_list=(5.0,), t_final=0.01, workers=workers)
    assert limits._resolve_workers(5, 3) == 3
    workers = limits._resolve_workers(5, np.int64(2))  # a numpy integer counts
    assert workers == 2 and type(workers) is int


def test_sweep_starts_no_more_workers_than_it_has_gammas(monkeypatch):
    # a process pool forks all max_workers processes at its first submit,
    # so the count is capped at the number of rungs; the fake pool records
    # the count it is asked for and maps serially, so no process starts
    import concurrent.futures

    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(limits.os, "cpu_count", lambda: 64)
    cfg = replace(QUIET_CONFIG, t_final=0.01)  # two gammas
    gamma_sweep(cfg, workers=8)
    monkeypatch.setenv("DOIFBP_THREADS", "64")
    gamma_sweep(cfg)
    monkeypatch.delenv("DOIFBP_THREADS")
    gamma_sweep(cfg)
    assert asked == [2, 2, 2]
    # one gamma needs one worker, which runs in this process
    assert gamma_sweep(cfg, gamma_list=(5.0,), workers=8).rows[0].gamma == 5.0
    assert asked == [2, 2, 2]
    for workers, env in ((8, None), (None, "64"), (None, None)):
        if env is None:
            monkeypatch.delenv("DOIFBP_THREADS", raising=False)
        else:
            monkeypatch.setenv("DOIFBP_THREADS", env)
        assert limits._resolve_workers(3, workers) == 3
        assert limits._resolve_workers(1, workers) == 1


def test_sweep_tags_failing_gamma():
    # drive the orientation distribution negative under strong frozen shear
    cfg = RunConfig(
        cells=(32,),
        sphere_degree=2,
        amplitude=10.0,
        d_rot=1e-6,
        freeze_velocity=True,
        t_final=0.2,
        gammas=(5.0,),
    )
    with pytest.raises(NumericalError, match="sweep run at gamma=5"):
        gamma_sweep(cfg, workers=1)
