"""Session setup shared by the test modules."""

import os
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def pytest_configure(config):
    # `pythonpath` in pyproject.toml puts src/ on this process's import path;
    # the CLI, check and demo tests start subprocesses, which need it as well
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
