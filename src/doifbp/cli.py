"""Command-line front end: `doifbp run|sweep|check`.

Exit codes: 0 success, 1 failed check suite, 2 configuration error,
3 numerical failure (the message names the failing substep and time),
4 I/O error (unreadable config, unwritable output, bad snapshot).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import load_config
from .errors import ConfigError, NumericalError, SnapshotError
from .integrator import run
from .limits import gamma_sweep
from .persist import snapshot, write_diagnostics, write_sweep
from .presets import build_initial_state

log = logging.getLogger("doifbp")


def _cmd_run(config_path: str) -> int:
    cfg = load_config(config_path)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    state = build_initial_state(cfg)
    log.info(
        "run: dim=%d cells=%s gamma=%g degree=%d t_final=%g",
        cfg.dim, cfg.cells, cfg.gamma, cfg.sphere_degree, cfg.t_final,
    )

    observer = None
    if cfg.snapshot_every > 0:
        def observer(k, st):
            if k % cfg.snapshot_every == 0:
                snapshot(st, outdir / f"snapshot_{k:08d}.bin")

    records, final = run(
        state,
        cfg.t_final,
        record_every=cfg.record_every,
        safety=cfg.cfl_safety,
        freeze_velocity=cfg.freeze_velocity,
        observer=observer,
    )
    write_diagnostics(records, outdir / "diagnostics.csv")
    if cfg.snapshot_every > 0:
        snapshot(final, outdir / "final.bin")
    log.info("run: %d records -> %s", len(records), outdir / "diagnostics.csv")
    print(f"run complete: t={final.t:.9g}, {len(records)} records, output in {outdir}")
    return 0


def _cmd_sweep(config_path: str) -> int:
    cfg = load_config(config_path)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    log.info("sweep: gammas=%s t_final=%g", cfg.gammas, cfg.t_final)
    result = gamma_sweep(cfg)
    path = outdir / "sweep.csv"
    write_sweep(result, path)
    slope = "absent" if result.l2_slope is None else f"{result.l2_slope:.4f}"
    print(f"sweep complete: {len(result.rows)} gammas, L2 excess slope {slope}, wrote {path}")
    return 0


def _cmd_check() -> int:
    from .checks import CHECKS  # the one module the package does not load

    failures = 0
    for label, suite in CHECKS:
        name, ok, detail = suite()
        status = "PASS" if ok else "FAIL"
        print(f"[{label}] {name}: {status} — {detail}")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} suite(s) failed")
        return 1
    print("all suites passed")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doifbp",
        description=(
            "Simulator for a compressible rod-suspension model (finite-volume fluid "
            "solver coupled to a spectral orientation Fokker-Planck equation) with a "
            "stiff-pressure limit laboratory."
        ),
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument("--quiet", action="store_true", help="log errors only")
    verbosity.add_argument("--verbose", action="store_true", help="log progress details")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="single simulation; writes diagnostics CSV and optional snapshots")
    p_run.add_argument("config", help="path to a key = value config file")
    p_sweep = sub.add_parser("sweep", help="gamma sweep; writes the sweep CSV")
    p_sweep.add_argument("config", help="path to a key = value config file")
    sub.add_parser("check", help="run the verification suites and exit nonzero on failure")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    level = logging.WARNING
    if args.verbose:
        level = logging.INFO
    elif args.quiet:
        level = logging.ERROR
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "run":
            return _cmd_run(args.config)
        if args.command == "sweep":
            return _cmd_sweep(args.config)
        return _cmd_check()
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except (SnapshotError, OSError) as err:
        print(f"io error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
