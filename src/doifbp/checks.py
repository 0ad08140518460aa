"""Self-contained verification suites behind the `check` subcommand.

Each suite returns (name, ok, detail) and picks its own configuration, sized
so the whole battery finishes in about a minute on one core:

  1. quadrature/spectral exactness of the sphere basis,
  2. discrete conservation of mass and rod number over long periodic runs,
  3. consistency of the zeroth orientation moment with a reference number
     density evolved by scalar transport, under simultaneous (dt, h)
     refinement,
  4. monotone energy decay (pure diffusion) and the coupled energy budget,
  5. algebraic structure of the kinetic stress,
  7. the renormalized-transport residual (exact for b(z) = z, first-order
     convergent for a nonlinear b).

The numbering matches the order reported by `doifbp check`; suite 6 (the
long gamma sweep) and suite 8 (replay determinism) live in the test suite
because of their runtime and subprocess needs.
"""

from __future__ import annotations

import math

import numpy as np

from .config import RunConfig
from .grid import Grid, ScalarField, VectorField, integral
from .hydro import PhysCoeffs, PressureLaw, cfl_dt, transport_step
from .integrator import FluidState, energy_total, renormalized_residual, run, step
from .kinetics import SQRT_4PI, eta_moment, stress_moment
from .presets import build_initial_state
from .sphere import OrientationField, make_sphere_basis


def check_quadrature() -> tuple:
    """Suite 1: quadrature moments and Laplace-Beltrami eigenvalues, L=2..7."""
    worst_moment = 0.0
    worst_eig = 0.0
    for degree in range(2, 8):
        basis = make_sphere_basis(degree)
        w, tau = basis.weights, basis.nodes
        worst_moment = max(worst_moment, abs(np.sum(w) - 4.0 * np.pi) / (4.0 * np.pi))
        worst_moment = max(worst_moment, float(np.max(np.abs(w @ tau))))
        second = np.einsum("k,ki,kj->ij", w, tau, tau)
        worst_moment = max(
            worst_moment, float(np.max(np.abs(second - (4.0 * np.pi / 3.0) * np.eye(3))))
        )
        # int grad Y_p . grad Y_q dtau = l(l+1) delta_pq recovers the
        # eigenvalues from the tabulated tangential gradients alone.
        gram = np.einsum("k,kpa,kqa->pq", w, basis.grad_y, basis.grad_y)
        ll = basis.l_index * (basis.l_index + 1)
        err = np.abs(gram - np.diag(ll.astype(float)))
        scale = np.maximum(1.0, np.sqrt(np.outer(ll, ll)))
        worst_eig = max(worst_eig, float(np.max(err / scale)))
        # sphere_laplacian itself must apply exactly -l(l+1).
        eig_err = np.max(np.abs(basis.lap_eig + ll))
        worst_eig = max(worst_eig, float(eig_err))
    ok = worst_moment <= 1e-12 and worst_eig <= 1e-12
    return (
        "quadrature/spectral",
        ok,
        f"moment error {worst_moment:.2e}, eigenvalue error {worst_eig:.2e} (tol 1e-12)",
    )


def _conservation_drift(cfg: RunConfig, n_steps: int) -> tuple:
    state = build_initial_state(cfg)
    mass0 = integral(state.rho)
    rod0 = integral(eta_moment(state.f))
    for _ in range(n_steps):
        dt = cfl_dt(state, state.coeffs, state.law, cfg.cfl_safety)
        state = step(state, dt)
    mass_drift = abs(integral(state.rho) - mass0) / abs(mass0)
    rod_drift = abs(integral(eta_moment(state.f)) - rod0) / abs(rod0)
    return mass_drift, rod_drift


def check_conservation() -> tuple:
    """Suite 2: 1000-step periodic runs conserve mass and rod number."""
    cfg_1d = RunConfig(dim=1, cells=(128,), lengths=(1.0,), gamma=5.0, sphere_degree=7)
    cfg_2d = RunConfig(
        dim=2,
        cells=(64, 64),
        lengths=(1.0, 1.0),
        gamma=5.0,
        sphere_degree=2,
        preset="taylor_vortex",
    )
    m1, r1 = _conservation_drift(cfg_1d, 1000)
    m2, r2 = _conservation_drift(cfg_2d, 1000)
    worst = max(m1, r1, m2, r2)
    return (
        "conservation",
        worst <= 1e-12,
        f"relative drift 1D (rho {m1:.2e}, f {r1:.2e}), 2D (rho {m2:.2e}, f {r2:.2e}) (tol 1e-12)",
    )


def check_moment_consistency() -> tuple:
    """Suite 3: ||eta_moment(f) - eta_ref||_inf under (dt, h) halving.

    The state carries no number density of its own; eta_ref is a reference
    evolved here, next to `step`, by `transport_step` with translational
    diffusion.  On these periodic grids both apply the same composition (the
    explicit donor-cell step, then the exact heat propagator
    `grid.heat_step`), so the zeroth orientation coefficient follows the
    identical discrete operator and the defect sits at roundoff on every
    level; the halving test therefore carries a 1e-12 floor below which
    further decrease is not required.
    """
    t_final = 0.1
    errors = []
    for level in range(3):
        n = 32 * 2**level
        n_steps = 2048 * 2**level
        dt = t_final / n_steps
        cfg = RunConfig(dim=1, cells=(n,), lengths=(1.0,), gamma=5.0, sphere_degree=3)
        state = build_initial_state(cfg)
        eta_ref = ScalarField(state.grid, np.full(state.grid.cells, cfg.eta0))
        for _ in range(n_steps):
            eta_ref = transport_step(eta_ref, state.u, dt, state.coeffs.d_trans, ghost="zero")
            state = step(state, dt)
        defect = np.max(np.abs(eta_moment(state.f).values - eta_ref.values))
        errors.append(float(defect) / float(np.max(eta_ref.values)))
    ok = all(
        errors[k + 1] <= max(errors[k] / 1.7, 1e-12) for k in range(len(errors) - 1)
    )
    detail = ", ".join(f"{e:.2e}" for e in errors)
    return ("moment-consistency", ok, f"relative defects per level: {detail} (floor 1e-12)")


def _pure_diffusion_state() -> FluidState:
    grid = Grid(cells=(64,), lengths=(1.0,), bc="periodic")
    basis = make_sphere_basis(3)
    x = grid.axis_centers(0)
    eta_values = 0.1 + 0.05 * np.sin(2.0 * np.pi * x)
    coeffs = np.zeros(grid.cells + (basis.n_coeff,))
    coeffs[..., 0] = eta_values / SQRT_4PI
    # the (l=2, m=0) amplitude is small enough to keep every nodal value positive
    coeffs[..., basis.index(2, 0)] = 0.002 * (1.0 + 0.5 * np.cos(2.0 * np.pi * x))
    f = OrientationField(grid, basis, coeffs)
    f.check_positive()
    return FluidState(
        rho=ScalarField(grid, np.full(grid.cells, 0.9)),
        u=VectorField(grid, np.zeros((1,) + grid.cells)),
        f=f,
        t=0.0,
        law=PressureLaw(5.0),
        coeffs=PhysCoeffs(),
    )


def check_energy() -> tuple:
    """Suite 4: monotone decay under pure diffusion; coupled energy budget."""
    records, _ = run(_pure_diffusion_state(), 0.05, record_every=1, freeze_velocity=True)
    e = np.array([r.e_total for r in records])
    max_rise = float(np.max(np.diff(e))) if len(e) > 1 else 0.0
    mono_ok = max_rise <= 1e-10 and e[-1] < e[0]

    cfg = RunConfig(dim=1, cells=(128,), lengths=(1.0,), gamma=10.0, sphere_degree=4, t_final=0.1)
    records, _ = run(build_initial_state(cfg), cfg.t_final, record_every=1)
    e = np.array([r.e_total for r in records])
    t = np.array([r.t for r in records])
    diss = np.array([r.dissipation for r in records])
    violation = float(np.sum(np.maximum(np.diff(e), 0.0)))
    dissipated = float(np.trapezoid(diss, t))
    budget_ok = dissipated > 0.0 and violation <= 0.05 * dissipated
    return (
        "energy-inequality",
        mono_ok and budget_ok,
        f"max per-step rise {max_rise:.2e} (tol 1e-10); "
        f"coupled violation {violation:.3e} vs budget {0.05 * dissipated:.3e}",
    )


def check_stress() -> tuple:
    """Suite 5: stress symmetry/trace on random samples plus the analytic case."""
    n_samples = 10_000
    basis = make_sphere_basis(7)
    grid = Grid(cells=(n_samples,), lengths=(1.0,), bc="periodic")
    rng = np.random.default_rng(20260814)
    coeffs = rng.standard_normal((n_samples, basis.n_coeff))
    sigma = stress_moment(OrientationField(grid, basis, coeffs))
    asym = float(np.max(np.abs(sigma - np.swapaxes(sigma, -1, -2))))
    trace = float(np.max(np.abs(np.trace(sigma, axis1=-2, axis2=-1))))

    # f = (1/4pi)(1 + b(3 tau_3^2 - 1)); (3 tau_3^2 - 1) = sqrt(16 pi/5) Y20.
    b = 0.7
    small = Grid(cells=(4,), lengths=(1.0,), bc="periodic")
    c = np.zeros(small.cells + (basis.n_coeff,))
    c[..., 0] = 1.0 / SQRT_4PI
    c[..., basis.index(2, 0)] = (b / (4.0 * np.pi)) * math.sqrt(16.0 * np.pi / 5.0)
    sig = stress_moment(OrientationField(small, basis, c))
    expected = b * np.diag([-0.4, -0.4, 0.8])
    analytic = float(np.max(np.abs(sig - expected)))
    ok = max(asym, trace, analytic) <= 1e-10
    return (
        "stress-moments",
        ok,
        f"asymmetry {asym:.2e}, trace {trace:.2e}, analytic error {analytic:.2e} (tol 1e-10)",
    )


def _one_step_pair(cfg: RunConfig, dt: float = None) -> tuple:
    s0 = build_initial_state(cfg)
    if dt is None:
        dt = cfl_dt(s0, s0.coeffs, s0.law, cfg.cfl_safety)
    return s0, step(s0, dt)


def check_renormalized() -> tuple:
    """Suite 7: renormalized residual exact for b=id, first order otherwise."""
    cfg = RunConfig(dim=1, cells=(16,), lengths=(1.0,), gamma=5.0, sphere_degree=2)
    s0, s1 = _one_step_pair(cfg)
    r_id = renormalized_residual(s0, s1, lambda z: z, lambda z: np.ones_like(z))

    b = lambda z: z / (1.0 + z)
    db = lambda z: 1.0 / (1.0 + z) ** 2
    resid = []
    hs = []
    for level in range(3):
        n = 32 * 2**level
        dt = 1.0e-4 / 2**level
        cfg_k = RunConfig(dim=1, cells=(n,), lengths=(1.0,), gamma=5.0, sphere_degree=2)
        s0, s1 = _one_step_pair(cfg_k, dt)
        resid.append(renormalized_residual(s0, s1, b, db))
        hs.append(1.0 / n)
    slope = float(np.polyfit(np.log(hs), np.log(resid), 1)[0])
    ok = r_id <= 1e-12 and slope >= 0.7
    return (
        "renormalized-transport",
        ok,
        f"b=id residual {r_id:.2e} (tol 1e-12); nonlinear-b refinement slope {slope:.2f} (min 0.7)",
    )


CHECKS = (
    ("1", check_quadrature),
    ("2", check_conservation),
    ("3", check_moment_consistency),
    ("4", check_energy),
    ("5", check_stress),
    ("7", check_renormalized),
)


def run_all_checks():
    """Execute every suite; returns a list of (label, name, ok, detail)."""
    results = []
    for label, fn in CHECKS:
        name, ok, detail = fn()
        results.append((label, name, ok, detail))
    return results
