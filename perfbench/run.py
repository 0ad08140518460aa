"""Benchmark entry point for doifbp: batch workloads timed to a fixed simulated time.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep1d|vortex2d|walls2d|all \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Jobs run in fresh Python processes (perfbench/job.py) with OpenBLAS and
OpenMP pinned to one thread and DOIFBP_THREADS removed; a job repeats its
workload from the same initial state and times and checks each repetition.
With --trace 0 a run is one job of about S seconds plus set-up probes, and
reports the end-to-end metrics: medians over repetitions and over set-ups.
With --trace 1 it runs an untraced and a traced job of about S/2 seconds each
and reports the per-layer metrics of the traced one.  Metric names and units
come from BENCHMARK.json.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import count
from pathlib import Path

from job import PINNED_ENV
from workloads import GAMMAS, NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # fresh processes whose set-up a --trace 0 run times
JOB_TIMEOUT_S = 170
SUBSTEPS = ("density_transport", "number_density_transport", "orientation_fokker_planck",
            "momentum", "state_assembly", "other")


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("DOIFBP_THREADS", None)
    env.update(PINNED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _job(workdir: Path, workload, seed, size, seconds=0.0, traced=False, setup_only=False) -> dict:
    spec = {"workload": workload, "seed": seed, "size": size, "workdir": str(workdir),
            "seconds": seconds, "traced": traced, "setup_only": setup_only}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "job.py"), json.dumps(spec)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        message = f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
    except subprocess.TimeoutExpired:
        message = f"timed out after {JOB_TIMEOUT_S} s"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"reps": [{"error": {"type": "JobFailed", "substep": None, "message": message}}]}


def _problems(rep: dict, reference: str) -> list:
    """Why a repetition counts as failed; empty when it ran and passed its checks."""
    if rep.get("error"):
        err = rep["error"]
        return [f"{err['type']}: {err['message']}"]
    out = [f"check failed: {name}" for name in rep["failures"]]
    if reference is not None and rep["digest"] != reference:
        out.append("final-state digest differs from the first untraced repetition")
    return out


def _span_metrics(result: dict) -> dict:
    spans = result.get("spans", {})

    def span(key):
        return spans.get(key, (0, 0.0, 0.0))

    m = {}
    for key in ("hydro.momentum_step", "kinetics.fp_rhs", "integrator.energy_total",
                "hydro.transport_step", "hydro.cfl_dt"):
        m[f"{key}.calls"], m[f"{key}.s"], m[f"{key}.self_s"] = span(key)
    for key in ("grid.upwind_divergence", "kinetics.entropy_and_fisher", "sphere.check_positive",
                "kinetics.velocity_gradient", "kinetics.stress_moment", "persist.snapshot",
                "persist.load_snapshot", "sphere.make_sphere_basis", "presets.build_initial_state"):
        m[f"{key}.calls"], m[f"{key}.s"], _ = span(key)
    grad_div = [span(f"grid.{f}") for f in ("grad", "div", "laplacian")]
    m["grid.grad_div.calls"] = sum(c for c, _, _ in grad_div)
    m["grid.grad_div.s"] = sum(s for _, s, _ in grad_div)
    m["integrator.steps"], m["integrator.step.s"], m["integrator.step.self_s"] = span("integrator.step")
    m["integrator.run.s"] = span("integrator.run")[1]
    m["cli.main.s"] = span("cli.main")[1]
    for g in GAMMAS:  # zero where the workload runs no sweep
        m[f"limits.run_s.g{g:g}"], m[f"limits.steps.g{g:g}"] = 0.0, 0
    m["limits.l2_slope"] = m["limits.excess_l2.g80"] = 0.0
    m["persist.bytes_written"] = 0
    m.update(result.get("layer", {}))
    return m


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """One benchmark run: its result object, the failed checks and the environment."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    base = ROOT / ".bench_build" / "perfbench" / f"{workload}-{seed}-{os.getpid()}"
    counter = count()

    def job(**kw):
        return _job(base / f"job{next(counter)}", workload, seed, size, **kw)

    try:
        job(setup_only=True)  # warm-up: bytecode and page caches, not measured
        if trace:
            jobs = [job(seconds=seconds / 2), job(seconds=seconds / 2, traced=True)]
            probes = []
        else:
            jobs = [job(seconds=seconds)]
            probes = [job(setup_only=True) for _ in range(SETUP_SAMPLES - 1)]
    finally:
        shutil.rmtree(base, ignore_errors=True)

    # every repetition runs the same seed, so all final states must hash alike
    reps = [(rep, traced) for traced, j in enumerate(jobs) for rep in j["reps"]]
    reference = next((r["digest"] for r, t in reps if not t and not _problems(r, None)), None)
    checked = [(r, t, _problems(r, reference)) for r, t in reps]
    failed = sum(1 for _, _, p in checked if p)
    problems = [("traced: " if t else "") + p for _, t, ps in checked for p in ps]

    def good(traced):
        ok = [r for r, t, p in checked if t == traced and not p]
        return ok or [r for r, t, _ in checked if t == traced]

    def median_wall(reps):
        return statistics.median(r.get("wall_s", 0.0) for r in reps)

    plain_wall = median_wall(good(False))
    if trace:
        good_traced = good(True)
        traced_wall = median_wall(good_traced)
        layer = [_span_metrics(r) for r in good_traced]
        values = {name: statistics.median_low(m[name] for m in layer) for name in layer[0]}  # an observed value
        values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0 if plain_wall else 0.0
        errors = Counter(
            r["error"]["substep"] if r["error"]["substep"] in SUBSTEPS else "other"
            for r, _, _ in checked if (r.get("error") or {}).get("type") == "NumericalError"
        )
        values.update({f"errors.{sub}": errors[sub] for sub in SUBSTEPS})
    else:
        values = {
            "wall_s": plain_wall,
            "setup_s": statistics.median(j["setup_s"] for j in jobs + probes if "setup_s" in j),
            "peak_rss_mb": jobs[0].get("peak_rss_mb", 0.0),
        }
    missing = set(units) ^ set(values)
    if missing:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {sorted(missing)}")
    env = next((j for j in jobs if "blas" in j), {})
    return {
        "result": {
            "correct": failed == 0,
            "attempted": len(checked),
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        },
        "problems": problems,
        "env": {
            "workload": workload, "seed": seed, "size": size, "trace": int(trace),
            "cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": env.get("numpy"), "scipy": env.get("scipy"),
            "blas": env.get("blas"), "blas_threads": env.get("blas_threads"),
            "pinned_env": PINNED_ENV, "doifbp_threads": "removed", "sweep_workers": 1,
            "commit": _commit(),
        },
    }


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _summary(workload: str, out: dict) -> list:
    res = out["result"]
    lines = [f"{workload}: {name} {m['value']:.6g} {m['unit']}" for name, m in res["metrics"].items()]
    if "wall_s" in res["metrics"]:
        lines.append(f"{workload}: fail_frac {res['failed'] / res['attempted']:.6g} ratio")
    return lines + [f"{workload}: {res['failed']} of {res['attempted']} repetitions failed"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for the harness smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "doifbp" / "__init__.py").is_file():
        print(f"no doifbp sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        out = measure(name, args.seed, args.seconds, bool(args.trace), args.size)
        print("env " + json.dumps(out["env"]))
        for problem in out["problems"]:
            print(f"{name}: FAILED {problem}")
        print("\n".join(_summary(name, out)))
        results[name] = out["result"]
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
