"""The narrative demos run to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# congestion_sweep is left out: it runs the long gamma sweep, whose path
# criterion 6 of the acceptance tests already exercises
@pytest.mark.parametrize("demo", ["sphere_basis_tour", "orientation_under_shear", "colliding_streams_energy"])
def test_demo_exits_cleanly(demo):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
