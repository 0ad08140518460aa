"""Initial data builders for the named presets.

Every preset starts at the mean density rho0, below 1 by `RunConfig`'s rule
(subcritical mass, the regime in which the stiff-pressure limit produces a
genuine free boundary), adds a mean-free perturbation, and starts the
orientation distribution isotropic with number density eta0, so the
initial kinetic stress vanishes identically.

The perturbation is drawn from Python's `random.Random(seed)`: one uniform
`random()` per cell in C order, made mean-free and scaled to the requested
peak.  That stream is fixed across Python versions and involves no
transcendental function, so a seed gives the same initial state on every
host and numpy build.
"""

from __future__ import annotations

import random

import numpy as np

from .config import RunConfig
from .grid import Grid, ScalarField, VectorField
from .hydro import PhysCoeffs, PressureLaw
from .integrator import FluidState
from .sphere import make_sphere_basis, uniform_orientation


def _velocity_values(cfg: RunConfig, grid: Grid) -> np.ndarray:
    shape = (grid.dim,) + grid.cells
    u = np.zeros(shape)
    meshes = grid.meshes()
    a = cfg.amplitude
    if cfg.preset == "colliding_streams":
        # Two opposed streams meeting at the domain midline; compression
        # around x = L/2 drives the density toward the congestion threshold.
        u[0] = -a * np.sin(2.0 * np.pi * meshes[0] / grid.lengths[0])
    elif cfg.preset == "taylor_vortex":
        kx = 2.0 * np.pi / grid.lengths[0]
        ky = 2.0 * np.pi / grid.lengths[1]
        u[0] = -a * np.sin(kx * meshes[0]) * np.cos(ky * meshes[1])
        u[1] = a * np.cos(kx * meshes[0]) * np.sin(ky * meshes[1])
    return u  # "uniform": at rest


def build_initial_state(cfg: RunConfig) -> FluidState:
    """Assemble the t = 0 state for `cfg`.

    With `perturbation` p > 0 the density is rho0 + p (d - mean d) / max|d - mean d|,
    where d holds the first `n_cells` draws of `random.Random(seed).random()`
    laid out in C order, clamped at 0 against an ulp of undershoot at p = rho0.
    """
    grid = Grid(cells=cfg.cells, lengths=cfg.lengths, bc=cfg.bc)
    basis = make_sphere_basis(cfg.sphere_degree)

    rho_values = np.full(grid.cells, float(cfg.rho0))
    if cfg.perturbation > 0.0:
        rng = random.Random(cfg.seed)
        noise = np.reshape([rng.random() for _ in range(grid.n_cells)], grid.cells)
        noise -= noise.mean()  # mean-preserving, so the mass stays subcritical
        peak = np.max(np.abs(noise))
        if peak > 0.0:
            rho_values += cfg.perturbation * noise / peak
            # at perturbation = rho0 the rounded quotient can pass -rho0 by an ulp
            np.maximum(rho_values, 0.0, out=rho_values)

    rho = ScalarField(grid, rho_values)
    u = VectorField(grid, _velocity_values(cfg, grid))
    f = uniform_orientation(grid, basis, cfg.eta0)
    return FluidState(
        rho=rho,
        u=u,
        f=f,
        t=0.0,
        law=PressureLaw(cfg.gamma),
        coeffs=PhysCoeffs(mu=cfg.mu, lam=cfg.lam, d_trans=cfg.d_trans, d_rot=cfg.d_rot),
    )
