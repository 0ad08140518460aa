"""Layer spans timed from outside the program.

`Tracer.install` wraps the public functions of each doifbp module and rebinds
every name that refers to them in the loaded doifbp modules, so calls made
between modules (and inside one module) go through the wrapper.  Nothing in
the package source changes.  Private helpers are not wrapped: their time lands
in the self time of their public caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer module -> public functions and methods wrapped ("Class.method")
LAYERS = {
    "grid": ("grad", "div", "laplacian", "upwind_divergence", "integral", "lp_norm"),
    "sphere": ("make_sphere_basis", "uniform_orientation", "OrientationField.check_positive"),
    "kinetics": ("fp_rhs", "velocity_gradient", "stress_moment", "entropy_and_fisher", "eta_moment"),
    "hydro": ("momentum_step", "transport_step", "cfl_dt", "fluid_pressure", "total_pressure"),
    "integrator": ("run", "step", "energy_total"),
    "limits": ("gamma_sweep",),
    "presets": ("build_initial_state",),
    "persist": ("snapshot", "load_snapshot", "write_diagnostics", "read_diagnostics"),
    "cli": ("main",),
}


class Tracer:
    """Per-span call counts, inclusive time and time in wrapped children."""

    def __init__(self):
        self.stats = {}  # "module.function" -> [calls, inclusive s, child s]
        self._stack = []
        self._mark = {}

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += frame[0]
                if stack:
                    stack[-1][0] += dt

        return traced

    def install(self) -> None:
        modules = {m: importlib.import_module(f"doifbp.{m}") for m in LAYERS}
        loaded = [m for name, m in sys.modules.items() if name == "doifbp" or name.startswith("doifbp.")]
        for mod_name, funcs in LAYERS.items():
            for qual in funcs:
                owner = modules[mod_name]
                *cls, attr = qual.split(".")
                if cls:
                    owner = getattr(owner, cls[0])
                original = getattr(owner, attr)
                wrapper = self._wrap(f"{mod_name}.{attr}", original)
                if cls:
                    setattr(owner, attr, wrapper)
                    continue
                for module in loaded:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)

    def mark(self) -> None:
        """Remember the current counts; `reset` returns to them."""
        self._mark = {key: list(stat) for key, stat in self.stats.items()}

    def reset(self) -> None:
        for key, stat in self.stats.items():
            stat[:] = self._mark.get(key, (0, 0.0, 0.0))

    def span(self, key) -> tuple:
        """(calls, inclusive s, self s) of one span; zeros if never entered."""
        calls, total, child = self.stats.get(key, (0, 0.0, 0.0))
        return calls, total, total - child
