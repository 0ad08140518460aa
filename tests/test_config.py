"""Strict key=value configuration parsing and canonical serialization."""

import ast
import math
import string
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import doifbp
from doifbp import ConfigError, RunConfig
from doifbp.config import PRESETS, config_text, load_config, parse_config


def test_empty_text_gives_documented_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.dim == 1
    assert cfg.cells == (128,)
    assert cfg.lengths == (1.0,)
    assert cfg.bc == "periodic"
    assert cfg.sphere_degree == 7
    assert cfg.gamma == 10.0
    assert cfg.gammas == (5.0, 10.0, 20.0, 40.0, 80.0)
    assert cfg.preset == "colliding_streams"
    assert cfg.rho0 == 0.9
    assert cfg.t_final == 0.5
    assert cfg.cfl_safety == 0.45
    assert cfg.freeze_velocity is False
    assert cfg.outdir == "out"


def test_comments_blank_lines_and_spacing():
    cfg = parse_config(
        """
        # leading comment

        gamma = 7.5   # trailing comment
        cells=64
        freeze_velocity =  on
        """
    )
    assert cfg.gamma == 7.5
    assert cfg.cells == (64,)
    assert cfg.freeze_velocity is True


def test_lambda_key_maps_to_lam_attribute():
    cfg = parse_config("lambda = 0.25")
    assert cfg.lam == 0.25
    assert "lambda = 0.25" in config_text(cfg)
    assert "lam =" not in config_text(cfg)


#: keyword arguments of valid configs; each `RunConfig` is built in its test,
#: so a case the constructor refuses fails that case, not the module's collection
_ROUND_TRIP_CASES = [
    {},
    dict(dim=2, cells=(16, 24), lengths=(1.0, 2.5), preset="taylor_vortex"),
    dict(bc="dirichlet", amplitude=0.0, preset="uniform"),
    dict(gamma=3.75, gammas=(2.0, 7.0), lam=0.125, mu=0.5),
    dict(freeze_velocity=True, seed=42, snapshot_every=9, outdir="results/a"),
    dict(rho0=0.5, perturbation=0.25, eta0=0.0, eps_congestion=0.01),
    # a numpy float is a float whose repr names its type
    dict(mu=np.float64(0.5), lengths=(np.float64(2.0),)),
    # an int in a float field is stored, and so written, as a float
    dict(mu=1, lengths=(2,), gammas=(5, 10.0)),
    # a numpy integer is an integer, and any numpy number a real number
    dict(seed=np.int64(3), cells=(np.int64(64),), gamma=np.float32(5.0), mu=np.int64(1)),
]


@pytest.mark.parametrize("kwargs", _ROUND_TRIP_CASES, ids=[f"cfg{i}" for i in range(len(_ROUND_TRIP_CASES))])
def test_serialize_parse_round_trip(kwargs):
    cfg = RunConfig(**kwargs)
    text = config_text(cfg)
    assert parse_config(text) == cfg
    assert config_text(parse_config(text)) == text  # canonical form is a fixed point
    for f in fields(cfg):  # held as the plain Python values the text reads back
        value = getattr(cfg, f.name)
        assert all(type(v) in (bool, int, float, str) for v in (value if isinstance(value, tuple) else (value,)))


def _floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


def _numbers(lo, hi, exclude_min=False):
    """A float field's values in [lo, hi] (lo excluded if asked): floats, or
    the ints among them, which a float field also takes."""
    ints = st.integers(math.floor(lo) + 1 if exclude_min else math.ceil(lo), math.floor(hi))
    return _floats(lo, hi, exclude_min=exclude_min) | ints


#: outdir characters: the safe ones, then '#', blanks and line breaks, which
#: the text form cannot carry inside a value (`str.splitlines` breaks lines
#: at \x0b, \x0c, \x85 and \u2028 too)
_OUTDIR_CHARS = string.ascii_letters + string.digits + "/._-" + "#= \t\n\r\x0b\x0c\x85\u2028"


@st.composite
def _config_fields(draw):
    """RunConfig keyword arguments, every one valid except perhaps outdir."""
    dim = draw(st.sampled_from((1, 2)))
    rho0 = draw(_floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    # equal int and float draws count as one, so the sorted gammas increase strictly
    gammas = draw(st.lists(_numbers(1.5, 1e6, exclude_min=True), min_size=1, max_size=6, unique=True))
    return dict(
        dim=dim,
        cells=tuple(draw(st.integers(4, 4096)) for _ in range(dim)),
        lengths=tuple(draw(_numbers(0.0, 1e6, exclude_min=True)) for _ in range(dim)),
        bc=draw(st.sampled_from(("periodic", "dirichlet"))),
        sphere_degree=draw(st.integers(2, 64)),
        gamma=draw(_numbers(1.5, 1e6, exclude_min=True)),
        gammas=tuple(sorted(gammas)),
        mu=draw(_numbers(0.0, 1e6, exclude_min=True)),
        lam=draw(_numbers(0.0, 1e6, exclude_min=True)),
        d_trans=draw(_numbers(0.0, 1e6, exclude_min=True)),
        d_rot=draw(_numbers(0.0, 1e6, exclude_min=True)),
        preset=draw(st.sampled_from([p for p in PRESETS if dim == 2 or p != "taylor_vortex"])),
        rho0=rho0,
        amplitude=draw(_numbers(0.0, 1e6)),
        eta0=draw(_numbers(0.0, 1e6)),
        perturbation=rho0 * draw(_floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**64)),
        t_final=draw(_numbers(0.0, 1e6)),
        cfl_safety=draw(_numbers(0.0, 1.0, exclude_min=True)),
        record_every=draw(st.integers(1, 10**6)),
        snapshot_every=draw(st.integers(0, 10**6)),
        outdir=draw(st.text(_OUTDIR_CHARS, min_size=1, max_size=20)),
        freeze_velocity=draw(st.booleans()),
        eps_congestion=draw(_floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    )


@settings(max_examples=200, deadline=None)
@given(kwargs=_config_fields())
def test_serialize_parse_round_trips_every_valid_config(kwargs):
    try:
        cfg = RunConfig(**kwargs)
    except ConfigError as err:  # an outdir the text form cannot carry
        assert str(err).startswith("outdir must not"), err
        return
    text = config_text(cfg)
    assert parse_config(text) == cfg
    assert config_text(parse_config(text)) == text
    for name in _FLOAT_FIELDS:  # ints included: held as the floats the text reads back
        value = getattr(cfg, name)
        assert all(type(v) is float for v in (value if isinstance(value, tuple) else (value,)))


def test_every_key_appears_exactly_once_in_canonical_text():
    lines = config_text(RunConfig()).strip().splitlines()
    keys = [line.split("=")[0].strip() for line in lines]
    assert len(keys) == len(set(keys)) == 24
    assert "lambda" in keys


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("gamma = 1.0", "3/2"),
        ("gammas = 5, 4", "strictly increasing"),
        ("rho0 = 1.0", r"\(0, 1\)"),
        ("dim = 3", "dim must be 1 or 2"),
        ("cells = 2", "at least 4 cells"),
        ("dim = 2\ncells = 16, 16", "lengths must list 2 entries"),
        ("bc = reflecting", "bc must be"),
        ("preset = vortex_sheet", "preset must be one of"),
        ("lambda = 0.0", "lambda must be positive"),
        ("d_rot = -1.0", "d_rot must be positive"),
        ("cfl_safety = 1.5", r"\(0, 1\]"),
        ("rho0 = 0.4\nperturbation = 0.5", r"\[0, rho0\]"),
        ("record_every = 0", "record_every"),
        ("seed = -1", "^seed must be nonnegative"),
        ("outdir =", "empty value"),
        ("lengths = 0.0", "^domain lengths must be positive"),
        ("amplitude = -0.5", "^amplitude must be nonnegative"),
        ("eta0 = -0.1", "^eta0 must be nonnegative"),
        ("snapshot_every = -1", "^snapshot_every must be nonnegative"),
        ("eps_congestion = 0.0", r"^eps_congestion must lie in \(0, 1\)"),
        ("eps_congestion = 1.0", r"^eps_congestion must lie in \(0, 1\)"),
        ("preset = taylor_vortex", "^preset 'taylor_vortex' needs dim = 2"),
    ],
)
def test_rejects_out_of_range_values(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("viscosity = 1.0", "line 1: unknown key 'viscosity'"),
        ("gamma = 5\ngamma = 6", "line 2: duplicate key 'gamma'"),
        ("gamma 5", "line 1: expected 'key = value'"),
        ("# ok\nseed = later", "line 2: bad value for 'seed'"),
        ("freeze_velocity = maybe", "bad value for 'freeze_velocity'"),
        ("gamma = inf", "bad value for 'gamma'"),
        ("lengths = 1.0, nan", "bad value for 'lengths'"),
    ],
)
def test_reports_offending_line(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


_FLOAT_FIELDS = [
    f.name
    for f in fields(RunConfig)
    if isinstance(f.default, float) or (isinstance(f.default, tuple) and isinstance(f.default[0], float))
]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", _FLOAT_FIELDS)
def test_rejects_non_finite_values(name, bad):
    key = "lambda" if name == "lam" else name
    default = getattr(RunConfig(), name)
    value = default[:-1] + (bad,) if isinstance(default, tuple) else bad
    with pytest.raises(ConfigError, match=f"^{key} must be finite"):
        RunConfig(**{name: value})
    text = f"{key} = " + (", ".join(map(str, value)) if isinstance(value, tuple) else str(value))
    with pytest.raises(ConfigError, match=f"line 1: bad value for '{key}'"):
        parse_config(text)


def test_constructor_validates_like_parser():
    with pytest.raises(ConfigError, match="sphere_degree"):
        RunConfig(sphere_degree=1)
    # above the largest degree a sphere basis (and so a snapshot) is built for
    with pytest.raises(ConfigError, match=r"^sphere_degree must lie in 2\.\.64, got 65"):
        RunConfig(sphere_degree=65)
    with pytest.raises(ConfigError, match=r"^sphere_degree must lie in 2\.\.64, got 65"):
        parse_config("sphere_degree = 65")
    with pytest.raises(ConfigError, match="cells must list"):
        RunConfig(dim=2, cells=(16,), lengths=(1.0, 1.0))
    with pytest.raises(ConfigError, match="^seed must be nonnegative, got -1"):
        RunConfig(seed=-1, perturbation=0.1, cells=(8,))
    cfg = RunConfig()
    with pytest.raises(ConfigError, match="t_final"):
        replace(cfg, t_final=-1.0)


@pytest.mark.parametrize(
    ("name", "value"),
    [
        ("cells", (16.5,)),
        ("cells", (True,)),
        ("sphere_degree", 3.5),
        ("record_every", 2.5),
        ("snapshot_every", 2.0),
        ("seed", 1.0),
        ("dim", True),
        ("record_every", np.float64(2.0)),
    ],
)
def test_int_fields_take_only_integers(name, value):
    # the rule the parser applies to a file: an int default admits ints only
    with pytest.raises(ConfigError, match=f"^{name} takes integers"):
        RunConfig(**{name: value})


@pytest.mark.parametrize(
    ("kwargs", "message"),
    [
        ({"outdir": "a#b"}, "^outdir must not hold '#' or a line break"),
        ({"outdir": "a\nb"}, "^outdir must not hold '#' or a line break"),
        ({"outdir": " x "}, "^outdir must not start or end with blanks"),
        ({"mu": True}, "^mu takes numbers, not booleans"),
        ({"gammas": (5.0, True)}, "^gammas takes numbers, not booleans"),
        ({"freeze_velocity": "no"}, "^freeze_velocity takes booleans"),
        ({"freeze_velocity": 0}, "^freeze_velocity takes booleans"),
        ({"mu": "1.0"}, "^mu takes numbers"),
        ({"eps_congestion": "0.1"}, "^eps_congestion takes numbers"),
        ({"outdir": 5}, "^outdir takes text"),
        ({"cells": 128}, "^cells takes a tuple"),
        ({"lengths": 1.0}, "^lengths takes a tuple"),
        ({"gammas": [5.0, 10.0]}, "^gammas takes a tuple"),
        ({"outdir": ""}, "^outdir must be nonempty"),
        ({"mu": np.True_}, "^mu takes numbers"),
    ],
)
def test_rejects_values_the_text_form_cannot_carry(kwargs, message):
    # each was accepted once and then read back as another config, or not at all
    with pytest.raises(ConfigError, match=message):
        RunConfig(**kwargs)


def test_only_config_raises_config_errors_and_only_sphere_reads_eps_pos():
    # a `raise ConfigError` elsewhere would restate a rule of RunConfig (the
    # one exception: limits reads the DOIFBP_THREADS deployment setting),
    # and a comparison with EPS_POS elsewhere a second statement of f's
    # positivity, which `OrientationField.check_positive` alone holds
    found = []
    for path in sorted(Path(doifbp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Raise) and path.name != "config.py":
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ConfigError":
                    if path.name != "limits.py" or "DOIFBP_THREADS" not in ast.unparse(node):
                        found.append(f"{where} raises ConfigError")
            if isinstance(node, ast.Compare) and path.name != "sphere.py":
                names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                if "EPS_POS" in names:
                    found.append(f"{where} compares with EPS_POS")
    assert not found, f"validity rules stated outside their one module: {found}"


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("gamma = 20.0\ncells = 32\n", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.gamma == 20.0
    assert cfg.cells == (32,)
