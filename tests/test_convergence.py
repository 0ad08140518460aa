"""The coupled solution settles: along the gamma ladder, and under (dt, h) refinement.

Both tests run whole trajectories, so they stay out of `doifbp check`, whose
battery criterion 8 runs again end to end.
"""

import math
import sys
from dataclasses import replace

import numpy as np

from doifbp import RunConfig, build_initial_state, run


def _final(cfg):
    _, final = run(build_initial_state(cfg), cfg.t_final, record_every=sys.maxsize, safety=cfg.cfl_safety)
    return final


def test_final_states_of_consecutive_gamma_rungs_converge():
    # the criterion-6 configuration with no perturbation.  Measured: the rho
    # L1 distances of consecutive rungs are 0.337, 0.117, 0.0386, 0.0137
    # (ratios 2.88, 3.03, 2.81) and the u L2 distances 0.467, 0.167, 0.0683,
    # 0.0391 (ratios 2.80, 2.44, 1.75)
    cfg = RunConfig(
        cells=(256,), lengths=(6.0,), sphere_degree=2, rho0=0.5, amplitude=2.6,
        eta0=0.1, mu=0.1, lam=0.1, t_final=0.5,
    )
    finals = [_final(replace(cfg, gamma=g)) for g in (5.0, 10.0, 20.0, 40.0, 80.0)]
    vol = finals[0].grid.cell_volume
    pairs = list(zip(finals, finals[1:]))
    d_rho = [float(np.sum(np.abs(a.rho.values - b.rho.values))) * vol for a, b in pairs]
    d_u = [math.sqrt(float(np.sum((a.u.values - b.u.values) ** 2)) * vol) for a, b in pairs]
    for name, dist, factor in (("rho L1", d_rho, 2.0), ("u L2", d_u, 1.5)):
        assert all(b * factor <= a for a, b in zip(dist, dist[1:])), (
            f"{name} distances of consecutive rungs {dist} fall less than {factor}x per doubling"
        )


def _coarsened(a):
    """A finer 1D level averaged pairwise onto the cells of the next coarser one."""
    return 0.5 * (a[..., 0::2] + a[..., 1::2])


def test_periodic_solution_self_converges_under_dt_h_refinement():
    # smooth colliding streams; the step follows h through the CFL bound.
    # Measured orders over 128 -> 256 -> 512 cells: rho 0.92, u 1.16
    cfg = RunConfig(
        lengths=(3.0,), sphere_degree=2, rho0=0.5, amplitude=0.1, gamma=5.0,
        mu=0.1, lam=0.1, t_final=0.1,
    )
    levels = [_final(replace(cfg, cells=(n,))) for n in (128, 256, 512)]
    for name in ("rho", "u"):
        dist = [
            float(np.sum(np.abs(getattr(a, name).values - _coarsened(getattr(b, name).values))))
            * a.grid.cell_volume
            for a, b in zip(levels, levels[1:])
        ]
        order = math.log2(dist[0] / dist[1])
        assert order >= 0.8, f"{name} self-convergence order {order:.3f} over 128..512 cells, distances {dist}"
