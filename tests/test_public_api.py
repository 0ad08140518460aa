"""The package's public surface: `__all__` names what the package exports,
and every public module-level name has a reader outside the tests."""

import ast
import re
from pathlib import Path

import doifbp

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(doifbp.__file__).parent
# the Python API the README documents beyond what its example imports
README_DOCUMENTED = ("snapshot", "load_snapshot", "ConfigError", "SnapshotError", "DoifbpError")


def test_every_exported_name_exists_once():
    # a stale entry breaks only `from doifbp import *`, so nothing else notices it
    missing = [name for name in doifbp.__all__ if not hasattr(doifbp, name)]
    assert not missing, f"__all__ names missing attributes: {missing}"
    repeated = sorted({name for name in doifbp.__all__ if doifbp.__all__.count(name) > 1})
    assert not repeated, f"__all__ lists names more than once: {repeated}"


def _names_reached_through_doifbp(tree):
    """Names taken from the package namespace: `from doifbp import x` and `doifbp.x`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "doifbp":
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "doifbp":
            names.add(node.attr)
    return {name for name in names if not (PACKAGE / f"{name}.py").exists()}  # submodules are not exports


def test_the_package_exports_exactly_what_its_users_reach_through_it():
    # the demos, the benchmark and the README's Python blocks are the users;
    # anything else is imported from the module that defines it, so that
    # each name has one import path
    sources = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    reached = set()
    for path in sources:
        reached |= _names_reached_through_doifbp(ast.parse(path.read_text(), filename=str(path)))
    for block in re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        reached |= _names_reached_through_doifbp(ast.parse(block))
    exported = set(doifbp.__all__)
    unused = sorted(exported - reached - set(README_DOCUMENTED))
    assert not unused, f"__all__ exports names no demo, benchmark or README reaches: {unused}"
    lacking = sorted((reached | set(README_DOCUMENTED)) - exported)
    assert not lacking, f"names reached through doifbp that __all__ lacks: {lacking}"


def test_no_module_imports_a_name_it_never_reads():
    # `__init__` is exempt: its `__all__` reads what it imports
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"imported but never read: {found}"


def _names_read_from_doifbp(tree):
    """Names a user file reads from the package: imported from `doifbp` or
    one of its modules, or read as an attribute of a name bound to either."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or "doifbp" for alias in node.names if alias.name.split(".")[0] == "doifbp")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "doifbp":
            for alias in node.names:
                if (PACKAGE / f"{alias.name}.py").exists():
                    modules.add(alias.asname or alias.name)
                else:
                    names.add(alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.add(node.attr)
    return names


def test_every_public_module_level_name_has_a_reader_outside_the_tests():
    # a capability only tests reach is kept for nothing; the readers are the
    # package itself, the demos, the benchmark (through doifbp, not its own
    # helpers, and by the LAYERS it traces) and the README's Python example
    read = set()
    for path in sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        read |= _names_read_from_doifbp(ast.parse(path.read_text(), filename=str(path)))
    for block in re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        read |= _names_read_from_doifbp(ast.parse(block))
    spans = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    layers = next(n.value for n in spans.body if isinstance(n, ast.Assign) and n.targets[0].id == "LAYERS")
    read |= {name.split(".")[0] for names in ast.literal_eval(layers).values() for name in names}

    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    for module, tree in trees.items():
        if module != "__init__":  # its imports are exports, read only through `__all__`
            imports = (n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level)
            read |= {alias.name for n in imports for alias in n.names}
    unread = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                continue
            # or read by another statement of its own module
            loads = (n for s in tree.body if s is not stmt for n in ast.walk(s) if isinstance(n, ast.Name))
            local = {n.id for n in loads if isinstance(n.ctx, ast.Load)}
            unread += [f"{module}.{name}" for name in sorted(defined - read - local) if not name.startswith("_")]
    assert not unread, f"public names that only tests read: {unread}"
