"""One benchmark job in a fresh process: set up, run one workload, check it.

Usage: python3 perfbench/job.py '<json spec>'

The spec names the workload, seed, size, work directory, whether to trace,
whether to stop after set-up, and for how many seconds to repeat the job.
The job is repeated from the same initial state, each repetition timed and
checked on its own.  The last line of standard output is one JSON object
with the measurements.  run.py starts this process with the thread
environment it pins; the job refuses to run under any other.
"""

from __future__ import annotations

import json
import os
import re
import resource
import sys
import time
from pathlib import Path

import workloads  # stdlib only: doifbp is first imported inside the timed set-up
from spans import Tracer

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _check_environment() -> None:
    bad = {k: os.environ.get(k) for k, v in PINNED_ENV.items() if os.environ.get(k) != v}
    if "DOIFBP_THREADS" in os.environ:
        bad["DOIFBP_THREADS"] = os.environ["DOIFBP_THREADS"]
    if bad:
        raise SystemExit(f"job refuses an unpinned environment: {bad}")


def _blas_info() -> dict:
    """BLAS name and its live thread count, read from numpy's bundled OpenBLAS."""
    import ctypes
    import glob

    import numpy as np
    import scipy

    info = {
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("name", "unknown"),
        "blas_threads": None,
    }
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def _substep(message: str) -> str:
    found = re.search(r"substep '([^']+)'", message)
    return re.sub(r"[^a-z0-9]+", "_", found.group(1).lower()) if found else "other"


def _repetition(ctx, tracer, numerical_error) -> dict:
    workloads.reset(ctx)
    if tracer is not None:
        tracer.reset()
    error = None
    t0 = time.perf_counter()
    try:
        outcome = workloads.execute(ctx)
    except numerical_error as err:
        outcome, error = None, {"type": "NumericalError", "substep": _substep(str(err)), "message": str(err)}
    except Exception as err:  # a benchmark job must report, not crash, on any failure
        outcome, error = None, {"type": type(err).__name__, "substep": None, "message": str(err)}
    rep = {"wall_s": time.perf_counter() - t0, "error": error}
    if outcome is not None:
        rep.update(outcome)
    if tracer is not None:
        rep["spans"] = {key: list(tracer.span(key)) for key in tracer.stats}
    return rep


def main(spec: dict) -> dict:
    _check_environment()
    workdir = Path(spec["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    cfg_path = workdir / "run.cfg"
    cfg_path.write_text(workloads.config_text(spec["workload"], spec["seed"], spec["size"], workdir / "out"))
    tracer = Tracer() if spec["traced"] else None

    t0 = time.perf_counter()
    if tracer is not None:
        tracer.install()  # imports doifbp, so that set-up is traced too
    ctx = workloads.setup(spec["workload"], cfg_path)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if spec["setup_only"]:
        return result

    from doifbp import NumericalError

    result.update(_blas_info())
    if result["blas_threads"] not in (None, 1):
        raise SystemExit(f"BLAS runs {result['blas_threads']} threads, expected 1")
    if tracer is not None:
        tracer.mark()  # every repetition's spans start from those of set-up
    # repeat the job from the same initial state for about spec["seconds"]
    reps, start, last = [], time.perf_counter(), 0.0
    while not reps or time.perf_counter() - start + last <= spec["seconds"]:
        t = time.perf_counter()
        reps.append(_repetition(ctx, tracer, NumericalError))
        last = time.perf_counter() - t
        if reps[-1]["error"] is not None:
            break
    result["reps"] = reps
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
