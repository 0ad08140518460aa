#!/usr/bin/env python3
"""The stiff-pressure limit, measured: a gamma sweep of the colliding streams.

Runs the congesting colliding-streams flow once per adiabatic exponent
gamma in {5, 10, 20, 40, 80} on identical initial data and tabulates the
free-boundary diagnostics at the final time:

  * L^p norms of the density excess (rho - 1)_+  -- how far the constraint
    rho <= 1 is violated.  Theory: the L^2 norm decays at least like
    gamma^{-1/2}, so the fitted log-log slope should be <= -0.35.
  * the time-integrated pressure mass  int_0^T int rho^gamma dx dt -- stays
    bounded as gamma grows (the limit pressure is a finite measure, not a
    blow-up).
  * the complementarity residual  int |rho^gamma (rho - 1)| dx -- the
    finite-gamma version of the limit law "pressure acts only on the
    congested set"; it must fall monotonically along the sweep.
  * the L^2 norm of div u on {rho >= 1 - eps} -- the congested phase
    approaches incompressibility.

A second table reruns each rung to its final state and prints the distances
between the final states of consecutive rungs (rho in L^1, u in L^2) and how
much they shrink per doubling of gamma: the solutions themselves settle, as
the paper proves they do along a subsequence.

One process per gamma when DOIFBP_THREADS allows; identical results either
way.  The same sweep at n = 256 is the package's acceptance benchmark.
"""

import math
import sys
from dataclasses import replace

import numpy as np

from doifbp import RunConfig, build_initial_state, gamma_sweep, run


def main():
    cfg = RunConfig(
        dim=1,
        cells=(128,),
        lengths=(6.0,),
        sphere_degree=2,
        rho0=0.5,
        amplitude=2.6,
        eta0=0.1,
        mu=0.1,
        lam=0.1,
        t_final=0.5,
        gammas=(5.0, 10.0, 20.0, 40.0, 80.0),
    )
    print("running 5 coupled simulations (a few seconds each) ...")
    result = gamma_sweep(cfg)

    print()
    print("=" * 78)
    print(f"{'gamma':>6} {'||ex||_1':>10} {'||ex||_2':>10} {'||ex||_inf':>10} "
          f"{'int p dt':>10} {'complement':>11} {'||div u||':>10} {'cong vol':>9}")
    print("=" * 78)
    for row in result.rows:
        print(
            f"{row.gamma:6.0f} {row.excess_l1:10.3e} {row.excess_l2:10.3e} "
            f"{row.excess_linf:10.3e} {row.pressure_time_integral:10.4f} "
            f"{row.complementarity:11.3e} {row.incompressibility_defect:10.3e} "
            f"{row.congested_volume:9.4f}"
        )
    print("=" * 78)

    l2 = [row.excess_l2 for row in result.rows]
    press = [row.pressure_time_integral for row in result.rows]
    print()
    print(f"fitted L^2 excess slope (largest three gammas) : {result.l2_slope:+.3f}")
    print("guaranteed rate                                : -0.500 (slope must be <= -0.35)")
    print(f"excess strictly decreasing in gamma            : {all(b < a for a, b in zip(l2, l2[1:]))}")
    print(f"pressure mass bounded (max / gamma=5 value)    : {max(press) / press[0]:.3f} (must be <= 2)")
    print()
    print("reading the table: stiffer gas squeezes the overshoot out of the")
    print("crest (columns 2-4 shrink) without inflating the total pressure")
    print("impulse (column 5 saturates), and the residual constraint violation")
    print("where rho != 1 (column 6) collapses -- together these are the")
    print("finite-gamma signatures of the free-boundary limit: a congested,")
    print("incompressible phase separated from free flow by a moving boundary.")

    finals = []
    for g in cfg.gammas:
        rung = replace(cfg, gamma=g)
        state = build_initial_state(rung)
        _, final = run(state, rung.t_final, record_every=sys.maxsize, safety=rung.cfl_safety)
        finals.append(final)
    vol = finals[0].grid.cell_volume
    print()
    print("=" * 62)
    print(f"{'gamma -> 2 gamma':>17} {'|rho diff|_1':>13} {'ratio':>6} {'|u diff|_2':>13} {'ratio':>6}")
    print("=" * 62)
    prev = None
    for a, b in zip(finals, finals[1:]):
        d_rho = float(np.sum(np.abs(a.rho.values - b.rho.values))) * vol
        d_u = math.sqrt(float(np.sum((a.u.values - b.u.values) ** 2)) * vol)
        ratios = (f"{prev[0] / d_rho:6.2f}", f"{prev[1] / d_u:6.2f}") if prev else ("-", "-")
        print(f"{a.law.gamma:7.0f} -> {b.law.gamma:<6.0f} {d_rho:13.3e} {ratios[0]:>6} {d_u:13.3e} {ratios[1]:>6}")
        prev = (d_rho, d_u)
    print("=" * 62)
    print("each ratio is the shrink factor of the distance per doubling of gamma:")
    print("a ratio above 1 on every row means the rungs settle toward a limit.")


if __name__ == "__main__":
    main()
