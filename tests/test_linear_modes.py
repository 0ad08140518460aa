"""Exact linear modes: the coupled step against closed forms, at a fixed dt.

With no rods (eta0 = 0) f stays zero, so a step is the barotropic fluid
alone, on a uniform mean density rho0 = 0.5 with mu = lam = 0.01:

* the 2D periodic shear wave u = (0, a sin 2 pi x) is an exact solution of
  the discrete step: advection, the pressure gradient and grad div vanish
  on it, so each step is one implicit-Euler decay by the viscous symbol;
* the 1D periodic damped acoustic mode converges at first order in dt to
  the semi-discrete mode of the centered stencils,
  s^2 + s (mu L_k + lam K^2) / rho0 + c^2 K^2 = 0, with K = sin(kh) / h,
  L_k = 4 sin^2(kh / 2) / h^2 and c^2 = gamma rho0^(gamma - 1);
* one step damps that mode at omega dt >> 1 too, where the viscous
  correction carries the sound speed the step does not resolve.

The standing wave in a closed box is not here: between the zero-ghost
walls it converges at order 0.5-0.8 only, and it lands with the face wall
of ROADMAP item 3.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from doifbp import RunConfig, ScalarField, VectorField, build_initial_state
from doifbp.integrator import step

RHO0, VISC = 0.5, 0.01
#: the acoustic mode: 64 cells of a unit box, gamma 2, a velocity amplitude in the linear range
ACOUSTIC = RunConfig(
    cells=(64,), rho0=RHO0, gamma=2.0, mu=VISC, lam=VISC, amplitude=1e-6, eta0=0.0,
    sphere_degree=2, preset="colliding_streams",
)


@pytest.mark.parametrize("gamma", [2.0, 80.0])
def test_the_periodic_shear_wave_is_an_exact_solution_of_the_step(gamma):
    # measured: u_y off the closed form by 2.8e-15 a after 100 steps, at both gammas
    cfg = RunConfig(
        dim=2, cells=(32, 32), lengths=(1.0, 1.0), rho0=RHO0, gamma=gamma, mu=VISC, lam=VISC,
        eta0=0.0, sphere_degree=2, preset="uniform",
    )
    state = build_initial_state(cfg)
    a, dt, h = 0.1, 2e-3, state.grid.h[0]
    u0 = np.zeros((2,) + cfg.cells)
    u0[1] = a * np.sin(2.0 * np.pi * state.grid.meshes()[0])
    state = replace(state, u=VectorField(state.grid, u0))
    for _ in range(100):
        state = step(state, dt)
    decay = (1.0 + dt * VISC * 4.0 * math.sin(math.pi * h) ** 2 / (h * h * RHO0)) ** -100
    assert np.max(np.abs(state.u.values[1] - decay * u0[1])) <= 1e-12 * a
    assert np.all(state.u.values[0] == 0.0)
    assert np.all(state.rho.values == RHO0)


def _mode(state) -> np.ndarray:
    """The (rho - rho0, u) Fourier coefficients of the wave number 2 pi."""
    x = state.grid.axis_centers(0)
    e = np.exp(-2j * np.pi * x) * (2.0 / x.size)
    return np.array([np.sum((state.rho.values - RHO0) * e), np.sum(state.u.values[0] * e)])


def _semi_discrete_matrix(cfg: RunConfig, h: float) -> tuple:
    """(M, c K): the linearized centered system d/dt (rho_hat, u_hat) =
    M (rho_hat, u_hat) of the wave number 2 pi, and its sound frequency."""
    kh = 2.0 * np.pi * h
    big_k, lap_k = math.sin(kh) / h, 4.0 * math.sin(0.5 * kh) ** 2 / (h * h)
    c2 = cfg.gamma * cfg.rho0 ** (cfg.gamma - 1.0)
    damping = (cfg.mu * lap_k + cfg.lam * big_k**2) / cfg.rho0
    m = np.array([[0.0, -1j * cfg.rho0 * big_k], [-1j * c2 * big_k / cfg.rho0, -damping]])
    return m, math.sqrt(c2) * big_k


def test_the_damped_acoustic_mode_converges_at_first_order_in_dt():
    # measured relative errors 5.1e-3, 2.5e-3, 1.3e-3 over 80, 160, 320 steps
    t_final = 0.5
    start = build_initial_state(ACOUSTIC)
    m, _ = _semi_discrete_matrix(ACOUSTIC, start.grid.h[0])
    s, v = np.linalg.eig(m)
    want = v @ (np.exp(s * t_final) * np.linalg.solve(v, _mode(start)))
    errors = []
    for n_steps in (80, 160, 320):
        state = start
        for _ in range(n_steps):
            state = step(state, t_final / n_steps)
        errors.append(np.linalg.norm(_mode(state) - want) / np.linalg.norm(want))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(0.9 <= p <= 1.1 for p in orders), (errors, orders)


@pytest.mark.parametrize("omega_dt", [1.0, 10.0, 100.0])
def test_one_step_damps_the_acoustic_mode_at_any_step(omega_dt):
    # the spectral radius of the one-step map of the mode, from a velocity
    # start and a density start; measured 0.668, 0.098, 0.010
    by_velocity = build_initial_state(ACOUSTIC)
    g = by_velocity.grid
    at_rest = build_initial_state(replace(ACOUSTIC, amplitude=0.0))
    by_density = replace(at_rest, rho=ScalarField(g, RHO0 + 1e-6 * np.cos(2.0 * np.pi * g.axis_centers(0))))
    _, omega = _semi_discrete_matrix(ACOUSTIC, g.h[0])
    dt = omega_dt / omega
    amplification = np.column_stack(
        [_mode(step(start, dt)) / _mode(start)[i] for i, start in enumerate((by_density, by_velocity))]
    )
    assert np.max(np.abs(np.linalg.eigvals(amplification))) <= 1.0
