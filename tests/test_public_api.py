"""The package's public surface: `__all__` names what the package exports."""

import doifbp


def test_every_exported_name_exists_once():
    # a stale entry breaks only `from doifbp import *`, so nothing else notices it
    missing = [name for name in doifbp.__all__ if not hasattr(doifbp, name)]
    assert not missing, f"__all__ names missing attributes: {missing}"
    repeated = sorted({name for name in doifbp.__all__ if doifbp.__all__.count(name) > 1})
    assert not repeated, f"__all__ lists names more than once: {repeated}"
