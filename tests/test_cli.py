"""End-to-end command-line behavior: exit codes, outputs, logging."""

import csv
import math
import subprocess
import sys

import numpy as np
import pytest

from doifbp import load_snapshot
from doifbp.persist import read_diagnostics

FAST_RUN = """
cells = 64
sphere_degree = 2
amplitude = 0.3
t_final = 0.1
record_every = 2
snapshot_every = 3
outdir = {outdir}
"""

FAST_SWEEP = """
cells = 8
sphere_degree = 2
preset = uniform
rho0 = 0.5
eta0 = 0.0
amplitude = 0.0
t_final = 0.02
gammas = 5, 10
outdir = {outdir}
"""

# strong frozen shear with nearly no rotational diffusion drives the
# orientation distribution negative within a few hundred steps
BLOWUP = """
cells = 32
sphere_degree = 2
amplitude = 10.0
d_rot = 1e-6
freeze_velocity = true
t_final = 0.2
outdir = {outdir}
"""


def doifbp(*args, env=None, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "doifbp", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def _write(tmp_path, template, name="run.cfg"):
    outdir = tmp_path / "out"
    path = tmp_path / name
    path.write_text(template.format(outdir=outdir))
    return path, outdir


def test_run_writes_diagnostics_and_snapshots(tmp_path):
    cfg, outdir = _write(tmp_path, FAST_RUN)
    proc = doifbp("run", str(cfg))
    assert proc.returncode == 0, proc.stderr
    assert "run complete:" in proc.stdout

    records = read_diagnostics(outdir / "diagnostics.csv")
    assert len(records) >= 2
    assert records[0].t == 0.0
    final = load_snapshot(outdir / "final.bin")
    assert final.t == pytest.approx(0.1, rel=1e-12)
    assert (outdir / "snapshot_00000003.bin").exists()
    mid = load_snapshot(outdir / "snapshot_00000003.bin")
    assert 0.0 < mid.t < final.t
    assert np.all(np.isfinite(final.rho.values))


def test_run_is_reproducible_across_processes(tmp_path):
    cfg_a, out_a = _write(tmp_path, FAST_RUN.replace("{outdir}", "{outdir}_a"), name="a.cfg")
    cfg_b, out_b = _write(tmp_path, FAST_RUN.replace("{outdir}", "{outdir}_b"), name="b.cfg")
    assert doifbp("run", str(cfg_a)).returncode == 0
    assert doifbp("run", str(cfg_b)).returncode == 0
    out_a = tmp_path / "out_a"
    out_b = tmp_path / "out_b"
    assert (out_a / "diagnostics.csv").read_bytes() == (out_b / "diagnostics.csv").read_bytes()
    assert (out_a / "final.bin").read_bytes() == (out_b / "final.bin").read_bytes()


def test_sweep_writes_csv(tmp_path):
    cfg, outdir = _write(tmp_path, FAST_SWEEP)
    proc = doifbp("sweep", str(cfg))
    assert proc.returncode == 0, proc.stderr
    assert "sweep complete:" in proc.stdout
    with open(outdir / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["gamma"]) for r in rows] == [5.0, 10.0]
    # two gammas cannot support the 3-point fit
    assert all(math.isnan(float(r["l2_slope"])) for r in rows)
    assert float(rows[0]["excess_l2"]) == 0.0  # quiescent subcritical state


def test_sweep_thread_env_does_not_change_results(tmp_path):
    import os

    cfg_a, _ = _write(tmp_path, FAST_SWEEP.replace("{outdir}", "{outdir}_a"), name="a.cfg")
    cfg_b, _ = _write(tmp_path, FAST_SWEEP.replace("{outdir}", "{outdir}_b"), name="b.cfg")
    env_seq = dict(os.environ, DOIFBP_THREADS="1")
    env_par = dict(os.environ, DOIFBP_THREADS="2")
    assert doifbp("sweep", str(cfg_a), env=env_seq).returncode == 0
    assert doifbp("sweep", str(cfg_b), env=env_par).returncode == 0
    csv_a = (tmp_path / "out_a" / "sweep.csv").read_bytes()
    csv_b = (tmp_path / "out_b" / "sweep.csv").read_bytes()
    assert csv_a == csv_b


@pytest.mark.parametrize(
    "text",
    ["viscosity = 3\n", "gamma = 1.0\n", "preset = whirl\n"],
)
def test_config_errors_exit_2(tmp_path, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    proc = doifbp("run", str(cfg))
    assert proc.returncode == 2
    assert "config error:" in proc.stderr


@pytest.mark.parametrize("threads", ["x", "0", "-3"])
def test_bad_thread_count_exits_2(tmp_path, threads):
    import os

    cfg, _ = _write(tmp_path, FAST_SWEEP)
    proc = doifbp("sweep", str(cfg), env=dict(os.environ, DOIFBP_THREADS=threads))
    assert proc.returncode == 2, proc.stderr
    message = f"config error: DOIFBP_THREADS must be a positive integer, got '{threads}'"
    assert proc.stderr.startswith(message)


def test_usage_errors_exit_2(tmp_path):
    cfg, _ = _write(tmp_path, FAST_RUN)
    assert doifbp().returncode == 2  # missing subcommand
    assert doifbp("explode").returncode == 2  # unknown subcommand
    proc = doifbp("--quiet", "--verbose", "run", str(cfg))
    assert proc.returncode == 2  # mutually exclusive flags


def test_numerical_failure_exits_3(tmp_path):
    cfg, _ = _write(tmp_path, BLOWUP)
    proc = doifbp("run", str(cfg))
    assert proc.returncode == 3
    assert "numerical failure:" in proc.stderr
    assert "substep" in proc.stderr
    assert "failed at t=" in proc.stderr


def test_a_sound_speed_that_underflows_leaves_the_pressure_bound_out(tmp_path):
    # at gamma = 1000, gamma max rho^(gamma - 1) underflows to 0 for max rho
    # below about 0.49: an infinite acoustic step, not a division by zero
    cfg = tmp_path / "stiff.cfg"
    cfg.write_text(f"gamma = 1000.0\nrho0 = 0.4\nt_final = 0.1\noutdir = {tmp_path / 'out'}\n")
    proc = doifbp("run", str(cfg))
    assert proc.returncode == 0, proc.stderr
    assert "run complete: t=0.1, 3 records" in proc.stdout


def test_a_pressure_that_overflows_is_a_named_numerical_failure(tmp_path):
    # rho^1280 leaves the float range at max rho 1.79: the first ledger record
    # names the overflow, gamma and max rho instead of failing a field check
    cfg = tmp_path / "stiff.cfg"
    cfg.write_text(
        f"gamma = 1280.0\nrho0 = 0.99\nperturbation = 0.99\nt_final = 0.1\noutdir = {tmp_path / 'out'}\n"
    )
    proc = doifbp("run", str(cfg))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("numerical failure: fluid pressure rho^gamma overflows at gamma = 1280, max rho = ")
    assert "Traceback" not in proc.stderr


def test_missing_config_exits_4(tmp_path):
    proc = doifbp("run", str(tmp_path / "nowhere.cfg"))
    assert proc.returncode == 4
    assert "io error:" in proc.stderr


def test_verbose_logs_progress_quiet_does_not(tmp_path):
    cfg_a, _ = _write(tmp_path, FAST_RUN.replace("{outdir}", "{outdir}_a"), name="a.cfg")
    cfg_b, _ = _write(tmp_path, FAST_RUN.replace("{outdir}", "{outdir}_b"), name="b.cfg")
    verbose = doifbp("--verbose", "run", str(cfg_a))
    assert verbose.returncode == 0
    assert "INFO doifbp" in verbose.stderr
    quiet = doifbp("--quiet", "run", str(cfg_b))
    assert quiet.returncode == 0
    assert "INFO" not in quiet.stderr
    assert "run complete:" in quiet.stdout  # the result line is not a log record
