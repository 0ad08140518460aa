"""Print the bit-exactness fingerprint of a source tree.

Usage: python3 tools/fingerprint.py [--root DIR]

Runs from the tree at DIR (default: the checkout this script lives in), with
BLAS pinned to one thread as the benchmark pins it, and prints

- the host, Python, numpy and its BLAS;
- the seed-1 state digest of each benchmark workload, through
  `perfbench/workloads.py` `setup` + `execute` at full size;
- the SHA-256 of walls2d's `final.bin` and `diagnostics.csv`;
- the SHA-256 of the standard output of `doifbp check`.

Two trees that print the same lines on one host step bit for bit alike.
Unpinned BLAS threads change the summation order of numpy's matrix
products, and with it the vortex2d digest.
"""

from __future__ import annotations

import os

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)  # before numpy is first imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import numpy as np
    import workloads

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    print(f"host: {platform.node()} {platform.machine()} {os.cpu_count()} cpus")
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"blas {blas.get('name', 'unknown')} {blas.get('version', '')}".rstrip())
    print(f"tree: {root}")
    with tempfile.TemporaryDirectory(prefix="fingerprint-") as tmp:
        for name in workloads.NAMES:
            work = Path(tmp) / name
            work.mkdir()
            cfg_path = work / "run.cfg"
            cfg_path.write_text(workloads.config_text(name, 1, "full", work / "out"))
            with contextlib.redirect_stdout(None):  # the CLI's "run complete" line
                outcome = workloads.execute(workloads.setup(name, cfg_path))
            failed = f" (failed: {', '.join(outcome['failures'])})" if outcome["failures"] else ""
            print(f"{name} seed-1 digest: {outcome['digest']}{failed}")
        out = Path(tmp) / "walls2d" / "out"
        for file in ("final.bin", "diagnostics.csv"):
            print(f"walls2d {file} sha256: {_sha256((out / file).read_bytes())}")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("DOIFBP_THREADS", None)
    done = subprocess.run([sys.executable, "-m", "doifbp", "check"], env=env, cwd=root,
                          capture_output=True, check=False)
    print(f"doifbp check stdout sha256: {_sha256(done.stdout)} (exit code {done.returncode})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
