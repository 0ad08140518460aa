"""The benchmark's hooks into the package: the tracer's layer table and the
private helpers its README names are functions that exist, and the sweep
workload's wrapper around `limits.run` sees one call per gamma."""

import ast
import importlib
import re
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _layers() -> dict:
    # parsed, not imported: reading the table writes nothing under perfbench/
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and targets == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {SPANS}")


def test_every_traced_layer_resolves_in_the_package():
    layers = _layers()
    assert layers
    for module_name, names in layers.items():
        module = importlib.import_module(f"doifbp.{module_name}")
        for qualname in names:
            owner = module
            for part in qualname.split("."):
                assert hasattr(owner, part), f"traced doifbp.{module_name}.{qualname} is missing"
                owner = getattr(owner, part)
            assert callable(owner), f"traced doifbp.{module_name}.{qualname} is not callable"


def test_every_private_helper_the_benchmark_readme_names_resolves():
    # the README says where the time of these unwrapped helpers lands; a
    # rename in the package would leave it naming functions that are gone
    names = set(re.findall(r"`(_\w+)`", (PERFBENCH / "README.md").read_text()))
    assert {"_viscous_solve", "_drift_coefficients", "_pad_axis", "_second_diff"} <= names
    modules = [importlib.import_module(f"doifbp.{m}") for m in _layers()]
    for name in sorted(names):
        assert any(callable(getattr(m, name, None)) for m in modules), f"{name} is not in doifbp"


def test_sweep_calls_the_module_level_run_once_per_gamma(monkeypatch):
    # the sweep workload replaces `limits.run` to time each gamma and to keep
    # its final state; the wrapper is mimicked here, not imported
    from doifbp import RunConfig, limits
    from doifbp.integrator import DiagnosticsRecord, FluidState

    inner = limits.run
    finals = []

    def capture(state, t_final, **kw):
        records, final = inner(state, t_final, **kw)
        assert records and all(isinstance(r, DiagnosticsRecord) for r in records)
        assert isinstance(final, FluidState)
        finals.append(final)
        return records, final

    monkeypatch.setattr(limits, "run", capture)
    cfg = RunConfig(cells=(16,), sphere_degree=2, amplitude=0.4, t_final=0.01)
    result = limits.gamma_sweep(cfg, (5.0, 10.0), workers=1)
    assert [s.law.gamma for s in finals] == [5.0, 10.0]
    for row, final in zip(result.rows, finals):
        assert row.complementarity == limits.complementarity_residual(final)
