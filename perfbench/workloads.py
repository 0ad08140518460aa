"""The three benchmark workloads: configs made from the seed, the timed entry
point of each, and the checks its outputs must pass.

Importing this module imports nothing from doifbp, so that `setup` can time
the package import itself.  Every workload runs with `perturbation > 0`, so
the seed becomes `RunConfig.seed` and picks a mean-free density perturbation.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from pathlib import Path

NAMES = ("sweep1d", "vortex2d", "walls2d")
GAMMAS = (5.0, 10.0, 20.0, 40.0, 80.0)

# Config-file keys per workload.  "full" is what the benchmark measures;
# "tiny" is the same path on a toy problem, for the harness smoke test.
_BASE = {
    # the criterion-6 configuration of tests/test_acceptance.py
    "sweep1d": {
        "dim": "1", "cells": "256", "lengths": "6.0", "sphere_degree": "2",
        "rho0": "0.5", "amplitude": "2.6", "eta0": "0.1", "mu": "0.1", "lambda": "0.1",
        "t_final": "0.5", "perturbation": "0.02",
        "gammas": ", ".join(str(g) for g in GAMMAS),
    },
    "vortex2d": {
        "dim": "2", "cells": "64, 64", "lengths": "1.0, 1.0", "sphere_degree": "7",
        "preset": "taylor_vortex", "gamma": "5.0", "record_every": "10",
        "t_final": "0.001", "perturbation": "0.05",
    },
    "walls2d": {
        "dim": "2", "cells": "32, 32", "lengths": "1.0, 1.0", "bc": "dirichlet",
        "sphere_degree": "4", "preset": "taylor_vortex", "gamma": "10.0", "rho0": "0.6",
        "amplitude": "1.0", "record_every": "10", "snapshot_every": "10",
        "t_final": "0.016", "perturbation": "0.05",
    },
}
_TINY = {
    "sweep1d": {"cells": "32"},
    "vortex2d": {"cells": "16, 16", "sphere_degree": "3"},
    "walls2d": {"cells": "16, 16", "sphere_degree": "2", "t_final": "0.004",
                "record_every": "2", "snapshot_every": "2"},
}


def config_text(name: str, seed: int, size: str, outdir: Path) -> str:
    """The doifbp config file of one workload job."""
    keys = dict(_BASE[name])
    if size == "tiny":
        keys.update(_TINY[name])
    keys["seed"] = str(seed)
    keys["outdir"] = str(outdir)
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def setup(name: str, cfg_path: Path) -> dict:
    """Import the package, parse the config and build the initial state."""
    import doifbp

    if name == "walls2d":
        import doifbp.cli  # noqa: F401  (the workload's entry point)
    cfg = doifbp.load_config(cfg_path)
    return {"name": name, "cfg_path": cfg_path, "cfg": cfg, "state": doifbp.build_initial_state(cfg)}


def reset(ctx: dict) -> None:
    """Remove the files an earlier repetition wrote."""
    shutil.rmtree(Path(ctx["cfg"].outdir), ignore_errors=True)


def state_digest(states) -> str:
    """SHA-256 of the rho, u, eta and f coefficient bytes of each state."""
    h = hashlib.sha256()
    for s in states:
        for arr in (s.rho.values, s.u.values, s.eta.values, s.f.coeffs):
            h.update(arr.tobytes())
    return h.hexdigest()


def execute(ctx: dict) -> dict:
    """Run the workload from its entry point and check its outputs.

    Returns {"digest", "failures" (list of failed checks), "layer" (per-layer
    results the workload itself observes)}.
    """
    return _EXECUTE[ctx["name"]](ctx)


def _sweep1d(ctx):
    from doifbp import limits

    cfg = ctx["cfg"]
    finals = []
    layer = {}
    inner = limits.run

    def capture(state, t_final, **kw):
        t0 = time.perf_counter()
        records, final = inner(state, t_final, **kw)
        g = f"g{final.law.gamma:g}"
        layer[f"limits.run_s.{g}"] = time.perf_counter() - t0
        layer[f"limits.steps.{g}"] = len(records) - 1  # the sweep records every step
        finals.append(final)
        return records, final

    limits.run = capture
    try:
        result = limits.gamma_sweep(cfg, GAMMAS, cfg.t_final, workers=1)
    finally:
        limits.run = inner

    # the criterion-6 gates of tests/test_acceptance.py, unchanged
    l2 = [row.excess_l2 for row in result.rows]
    press = [row.pressure_time_integral for row in result.rows]
    comp = [row.complementarity for row in result.rows]
    checks = {
        "excess_l2 strictly decreasing and positive":
            all(b < a for a, b in zip(l2, l2[1:])) and all(v > 0.0 for v in l2),
        "l2 slope <= -0.35": result.l2_slope is not None and result.l2_slope <= -0.35,
        "pressure ratio <= 2": all(p <= 2.0 * press[0] for p in press),
        "complementarity non-increasing": all(b <= a * (1.0 + 1e-12) for a, b in zip(comp, comp[1:])),
        "finite rows": all(math.isfinite(v) for row in result.rows for v in row.row()),
        "one final state per gamma": len(finals) == len(GAMMAS),
    }
    if result.l2_slope is not None:
        layer["limits.l2_slope"] = result.l2_slope
    layer["limits.excess_l2.g80"] = l2[-1]
    return _outcome(finals, checks, layer)


def _vortex2d(ctx):
    from doifbp import EPS_POS, eta_moment, integral, run

    cfg, state = ctx["cfg"], ctx["state"]
    _, final = run(
        state, cfg.t_final, record_every=cfg.record_every,
        safety=cfg.cfl_safety, freeze_velocity=cfg.freeze_velocity,
    )
    mass0, rods0 = integral(state.rho), integral(eta_moment(state.f))
    mass1, rods1 = integral(final.rho), integral(eta_moment(final.f))
    checks = {
        "mass drift <= 1e-12": abs(mass1 - mass0) <= 1e-12 * abs(mass0),
        "rod number drift <= 1e-12": abs(rods1 - rods0) <= 1e-12 * abs(rods0),
        "min nodal f >= -EPS_POS": final.f.min_nodal() >= -EPS_POS,
    }
    return _outcome([final], checks, {})


def _walls2d(ctx):
    from doifbp import cli, integrator, persist

    cfg = ctx["cfg"]
    outdir = Path(cfg.outdir)
    rc = cli.main(["run", str(ctx["cfg_path"])])
    if rc != 0:
        return _outcome([], {f"cli exit code 0 (got {rc})": False}, {})
    layer = {"persist.bytes_written": sum(p.stat().st_size for p in outdir.iterdir())}
    rows = persist.read_diagnostics(outdir / "diagnostics.csv")

    snaps = sorted(outdir.glob("snapshot_*.bin"))
    mid_path = snaps[len(snaps) // 2]
    k_mid = int(mid_path.stem.split("_")[1])
    steps = []
    _, end = integrator.run(
        persist.load_snapshot(mid_path), cfg.t_final, record_every=cfg.record_every,
        safety=cfg.cfl_safety, freeze_velocity=cfg.freeze_velocity,
        observer=lambda k, st: steps.append(k),
    )
    n_steps = k_mid + len(steps)
    every = cfg.record_every
    expected_rows = 1 + n_steps // every + (1 if n_steps % every else 0)
    replay_path = outdir / "replay.bin"
    persist.snapshot(end, replay_path)
    checks = {
        "diagnostics rows as configured": len(rows) == expected_rows,
        "byte-exact replay from the middle snapshot":
            replay_path.read_bytes() == (outdir / "final.bin").read_bytes(),
    }
    return _outcome([end], checks, layer)


def _outcome(states, checks, layer):
    return {
        "digest": state_digest(states),
        "failures": [name for name, ok in checks.items() if not ok],
        "layer": layer,
    }


_EXECUTE = {"sweep1d": _sweep1d, "vortex2d": _vortex2d, "walls2d": _walls2d}
