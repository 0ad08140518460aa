"""Harness smoke test: tiny versions of every workload through both passes.

Run from the repository root with `python3 -m pytest perfbench/tests`.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import NAMES  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, kind):
    proc = _bench("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert set(results) == set(NAMES)
    for name, res in results.items():
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, (name, proc.stdout)
        assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
        assert all(math.isfinite(v["value"]) for v in res["metrics"].values())
    if kind == "end_to_end":
        assert all(res["metrics"][m]["value"] > 0 for res in results.values() for m in expected)
        assert "fail_frac 0 ratio" in proc.stdout


@pytest.mark.parametrize("name", NAMES)
def test_tracing_is_bit_neutral(tmp_path, name):
    plain = run._job(tmp_path / "plain", name, 3, "tiny")
    traced = run._job(tmp_path / "traced", name, 3, "tiny", traced=True)
    (p,), (t,) = plain["reps"], traced["reps"]
    assert p["error"] is None and t["error"] is None
    assert p["digest"] == t["digest"]
    assert "spans" not in p and t["spans"]["integrator.step"][0] > 0


def test_digest_mismatch_is_a_failure():
    rep = {"error": None, "failures": [], "digest": "a"}
    assert run._problems(rep, "a") == []
    assert run._problems(rep, "b")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "vortex2d", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
