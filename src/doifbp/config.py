"""Plain-text run configuration: strict key=value parsing and canonical output.

Format: one `key = value` pair per line; `#` starts a comment; blank lines
are ignored.  Unknown keys, malformed lines, duplicate keys and unparsable
values are errors that report the offending line number; a parsed value out
of range is an error that names its key.  The keys are the fields of
`RunConfig` (`lambda` for the attribute `lam`), and each field's default
types its value; a `RunConfig` built in Python is held to the same types:
an integer field takes what `grid.as_integer` accepts, a float field what
`grid.as_real` accepts (any real number but a bool), and each is stored as a
Python int or float.
`config_text` writes every key in a fixed order so that parse -> serialize
-> parse is the identity and the text of any valid config is a fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .grid import DIRICHLET, PERIODIC, as_integer, as_real
from .sphere import MAX_DEGREE

PRESETS = ("uniform", "colliding_streams", "taylor_vortex")


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for a single run or a gamma sweep."""

    dim: int = 1
    cells: tuple = (128,)
    lengths: tuple = (1.0,)
    bc: str = PERIODIC
    sphere_degree: int = 7
    gamma: float = 10.0
    gammas: tuple = (5.0, 10.0, 20.0, 40.0, 80.0)
    mu: float = 1.0
    lam: float = 1.0
    d_trans: float = 1.0
    d_rot: float = 1.0
    preset: str = "colliding_streams"
    rho0: float = 0.9
    amplitude: float = 0.5
    eta0: float = 0.1
    perturbation: float = 0.0
    seed: int = 0
    t_final: float = 0.5
    cfl_safety: float = 0.45
    record_every: int = 10
    snapshot_every: int = 0
    outdir: str = "out"
    freeze_velocity: bool = False
    eps_congestion: float = 0.05

    def __post_init__(self):
        _validate(self)


def _held(kind, value):
    """`value` as `RunConfig` holds a field of type `kind`, else TypeError: an
    int by `as_integer`, a float by `as_real`, a bool or a string as itself."""
    if kind is int:
        return as_integer(value)
    if kind is float:
        return as_real(value)
    if not isinstance(value, kind):
        raise TypeError(value)
    return value


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("value must be finite")
    return value


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean (true/false), got {raw!r}")


def _parser(default):
    """The value parser of a field, chosen by the type of its default.

    A tuple is a comma-separated list typed by the default's first element.
    """
    if isinstance(default, tuple):
        item = _parser(default[0])
        return lambda raw: tuple(item(s.strip()) for s in raw.split(",") if s.strip())
    return {bool: _parse_bool, int: int, float: _parse_float, str: str}[type(default)]


# Attribute -> file key.  "lambda" is a Python keyword, hence the attribute
# name `lam`.
_ATTR_TO_KEY = {f.name: "lambda" if f.name == "lam" else f.name for f in fields(RunConfig)}
# File key -> (attribute, parser).
_KEYS = {_ATTR_TO_KEY[f.name]: (f.name, _parser(f.default)) for f in fields(RunConfig)}
_KINDS = {bool: "booleans", int: "integers", float: "numbers", str: "text"}


def _validate(cfg: RunConfig) -> None:
    for f in fields(cfg):
        value, key = getattr(cfg, f.name), _ATTR_TO_KEY[f.name]
        # the type rule of `_parser`: a value (each item of a tuple) has its
        # default's type (its first item's), held by `_held` as the plain
        # Python value its text form reads back
        items, kind = (value,), type(f.default)
        is_tuple = kind is tuple
        if is_tuple:
            if not isinstance(value, tuple):
                raise ConfigError(f"{key} takes a tuple, got {value!r}")
            items, kind = value, type(f.default[0])
        try:
            held = tuple(_held(kind, v) for v in items)
        except TypeError:
            not_bool = ", not booleans" if kind is float and any(isinstance(v, bool) for v in items) else ""
            raise ConfigError(f"{key} takes {_KINDS[kind]}{not_bool}, got {value!r}") from None
        if kind is float and not all(map(math.isfinite, held)):
            raise ConfigError(f"{key} must be finite, got {value}")
        object.__setattr__(cfg, f.name, held if is_tuple else held[0])
    if cfg.dim not in (1, 2):
        raise ConfigError(f"dim must be 1 or 2, got {cfg.dim}")
    if len(cfg.cells) != cfg.dim:
        raise ConfigError(f"cells must list {cfg.dim} entries, got {len(cfg.cells)}")
    if any(n < 4 for n in cfg.cells):
        raise ConfigError(f"each axis needs at least 4 cells, got {cfg.cells}")
    if len(cfg.lengths) != cfg.dim:
        raise ConfigError(f"lengths must list {cfg.dim} entries, got {len(cfg.lengths)}")
    if any(ell <= 0.0 for ell in cfg.lengths):
        raise ConfigError(f"domain lengths must be positive, got {cfg.lengths}")
    if cfg.bc not in (PERIODIC, DIRICHLET):
        raise ConfigError(f"bc must be {PERIODIC!r} or {DIRICHLET!r}, got {cfg.bc!r}")
    if not 2 <= cfg.sphere_degree <= MAX_DEGREE:
        raise ConfigError(f"sphere_degree must lie in 2..{MAX_DEGREE}, got {cfg.sphere_degree}")
    if cfg.gamma <= 1.5:
        raise ConfigError(f"gamma must exceed 3/2, got {cfg.gamma}")
    gs = cfg.gammas
    if not gs:
        raise ConfigError("gammas must list at least one value")
    if any(g <= 1.5 for g in gs):
        raise ConfigError(f"every sweep gamma must exceed 3/2, got {gs}")
    if any(b <= a for a, b in zip(gs, gs[1:])):
        raise ConfigError(f"sweep gammas must be strictly increasing, got {gs}")
    for name in ("mu", "lam", "d_trans", "d_rot"):
        if getattr(cfg, name) <= 0.0:
            raise ConfigError(f"{_ATTR_TO_KEY[name]} must be positive, got {getattr(cfg, name)}")
    if cfg.preset not in PRESETS:
        raise ConfigError(f"preset must be one of {PRESETS}, got {cfg.preset!r}")
    if cfg.preset == "taylor_vortex" and cfg.dim != 2:
        raise ConfigError("preset 'taylor_vortex' needs dim = 2")
    if not 0.0 < cfg.rho0 < 1.0:
        raise ConfigError(
            f"rho0 must lie in (0, 1) so the mean density stays below 1, got {cfg.rho0}"
        )
    if cfg.amplitude < 0.0:
        raise ConfigError(f"amplitude must be nonnegative, got {cfg.amplitude}")
    if cfg.eta0 < 0.0:
        raise ConfigError(f"eta0 must be nonnegative, got {cfg.eta0}")
    if not 0.0 <= cfg.perturbation <= cfg.rho0:
        raise ConfigError(
            f"perturbation must lie in [0, rho0] to keep the density nonnegative, got {cfg.perturbation}"
        )
    if cfg.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {cfg.seed}")
    if cfg.t_final < 0.0:
        raise ConfigError(f"t_final must be nonnegative, got {cfg.t_final}")
    if not 0.0 < cfg.cfl_safety <= 1.0:
        raise ConfigError(f"cfl_safety must lie in (0, 1], got {cfg.cfl_safety}")
    if cfg.record_every < 1:
        raise ConfigError(f"record_every must be at least 1, got {cfg.record_every}")
    if cfg.snapshot_every < 0:
        raise ConfigError(f"snapshot_every must be nonnegative, got {cfg.snapshot_every}")
    if not cfg.outdir:
        raise ConfigError("outdir must be nonempty")
    # the text form ends a value at '#' or a line break and strips its blanks
    if "#" in cfg.outdir or cfg.outdir.splitlines() != [cfg.outdir]:
        raise ConfigError(f"outdir must not hold '#' or a line break, got {cfg.outdir!r}")
    if cfg.outdir != cfg.outdir.strip():
        raise ConfigError(f"outdir must not start or end with blanks, got {cfg.outdir!r}")
    if not 0.0 < cfg.eps_congestion < 1.0:
        raise ConfigError(f"eps_congestion must lie in (0, 1), got {cfg.eps_congestion}")


def parse_config(text: str) -> RunConfig:
    """Parse `key = value` lines into a validated RunConfig.

    Raises ConfigError with the 1-based line number for malformed lines,
    unknown or duplicate keys and unparsable values (a non-finite float is
    unparsable), and ConfigError naming the key for a value out of range.
    """
    assignments = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line.strip()!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in assignments:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not raw_value:
            raise ConfigError(f"line {lineno}: key {key!r} has an empty value")
        attr, parser = _KEYS[key]
        try:
            assignments[key] = (attr, parser(raw_value))
        except ValueError as err:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {err}") from None
    kwargs = {attr: value for attr, value in assignments.values()}
    return RunConfig(**kwargs)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(map(_format_value, value))
    return repr(value) if isinstance(value, float) else str(value)


def config_text(cfg: RunConfig) -> str:
    """Canonical serialization: every key, fixed order, exact round-trip."""
    lines = []
    for f in fields(cfg):
        lines.append(f"{_ATTR_TO_KEY[f.name]} = {_format_value(getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
