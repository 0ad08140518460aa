"""The benchmark tracer's layer table names functions that exist."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
