"""Grid construction, discrete calculus, norms, and conservative transport."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import doifbp
from doifbp import Grid, NumericalError, ScalarField, VectorField, integral
from doifbp.grid import (
    WALL_GHOST,
    _donor_faces,
    _fill_ghosts,
    _pad_axis,
    _split_faces,
    div,
    grad,
    heat_step,
    laplacian,
    lp_norm,
    upwind_divergence,
)
from doifbp.hydro import transport_step


def _sin_field(n, length=1.0):
    g = Grid(cells=(n,), lengths=(length,))
    x = g.axis_centers(0)
    return g, np.sin(2.0 * np.pi * x / length)


# ---------------------------------------------------------------------------
# construction and validation


def test_grid_geometry():
    g = Grid(cells=(8, 4), lengths=(2.0, 1.0))
    assert g.dim == 2
    assert g.h == (0.25, 0.25)
    assert g.cell_volume == pytest.approx(0.0625, rel=1e-15)
    assert g.n_cells == 32
    x = g.axis_centers(0)
    assert x[0] == pytest.approx(0.125) and x[-1] == pytest.approx(1.875)
    mx, my = g.meshes()
    assert mx.shape == (8, 4) and my.shape == (8, 4)


def test_grid_rejects_bad_shapes():
    with pytest.raises(ValueError, match="dimension"):
        Grid(cells=(4, 4, 4), lengths=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="at least 4"):
        Grid(cells=(3,), lengths=(1.0,))
    with pytest.raises(ValueError, match="matching axis counts"):
        Grid(cells=(8,), lengths=(1.0, 1.0))
    with pytest.raises(ValueError, match="positive"):
        Grid(cells=(8,), lengths=(-1.0,))
    for length in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            Grid(cells=(8,), lengths=(length,))
    with pytest.raises(ValueError, match="boundary"):
        Grid(cells=(8,), lengths=(1.0,), bc="reflecting")


def test_grid_cell_counts_must_be_integers():
    # truncating a float count would silently build a grid other than the one asked for
    with pytest.raises(ValueError, match=r"integers, got \(16\.5,\)"):
        Grid(cells=(16.5,), lengths=(1.0,))
    with pytest.raises(ValueError, match=r"integers, got \(8\.9, 6\)"):
        Grid(cells=(8.9, 6), lengths=(1.0, 1.0))
    for cells in ((16,), (np.int64(8), 6), np.array([8, 6], dtype=np.int32)):
        g = Grid(cells=cells, lengths=(1.0,) * len(cells))
        assert g.cells == tuple(int(n) for n in cells)
        assert all(type(n) is int for n in g.cells)
    # one integer rule, `as_integer`, which `RunConfig` follows too: a bool is no count
    with pytest.raises(ValueError, match=r"integers, got \(True, 8\)"):
        Grid(cells=(True, 8), lengths=(1.0, 1.0))


def test_grid_lengths_must_be_real_numbers():
    # one real-number rule, `as_real`: a string is never parsed, a bool is no length
    with pytest.raises(ValueError, match=r"^box lengths must be real numbers, got \('1\.0',\)"):
        Grid(cells=(8,), lengths=("1.0",))
    with pytest.raises(ValueError, match="^box lengths must be real numbers"):
        Grid(cells=(8, 8), lengths=(1.0, True))
    for lengths in ((2,), (np.float32(0.5),), (np.int64(3),), np.array([1.5])):
        g = Grid(cells=(8,), lengths=lengths)
        assert g.lengths == (float(lengths[0]),)
        assert type(g.lengths[0]) is float


def test_field_validation():
    g = Grid(cells=(8,), lengths=(1.0,))
    with pytest.raises(ValueError, match="shaped"):
        ScalarField(g, np.zeros(7))
    with pytest.raises(ValueError, match="non-finite"):
        ScalarField(g, np.full(8, np.nan))
    with pytest.raises(ValueError, match="shaped"):
        VectorField(g, np.zeros(8))  # missing the component axis


# ---------------------------------------------------------------------------
# discrete calculus


def test_gradient_of_constant_is_zero():
    g = Grid(cells=(16, 8), lengths=(1.0, 1.0))
    assert np.max(np.abs(grad(g, np.full(g.cells, 3.7), "pressure"))) == 0.0


def test_periodic_laplacian_sums_to_zero():
    g, s = _sin_field(64)
    assert abs(np.sum(laplacian(g, s, "rods"))) * g.cell_volume < 1e-12


def test_laplacian_second_order_refinement():
    # max |lap(sin) + k^2 sin| should shrink 4x per mesh doubling
    errs = []
    for n in (64, 128):
        g, s = _sin_field(n)
        k = 2.0 * np.pi
        errs.append(float(np.max(np.abs(laplacian(g, s, "rods") + k * k * s))))
    ratio = errs[0] / errs[1]
    assert 3.4 <= ratio <= 4.6, f"refinement ratio {ratio:.3f}"


@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
@pytest.mark.parametrize("shape", [(9,), (6, 5)])
def test_laplacian_takes_trailing_channels(shape, bc):
    # each channel is its own scalar Laplacian, bit for bit, and the Dirichlet
    # heat step is one Euler step of it
    rng = np.random.default_rng(29)
    g = Grid(cells=shape, lengths=tuple(rng.uniform(0.5, 2.0, len(shape))), bc=bc)
    q = rng.standard_normal(shape + (3,))
    lap = laplacian(g, q, "rods")
    for k in range(3):
        assert np.array_equal(lap[..., k], laplacian(g, q[..., k], "rods"))
    if bc == "dirichlet":
        t = 0.5 / sum(2.0 / h**2 for h in g.h)
        assert np.array_equal(heat_step(g, q, t), q + t * lap)


def test_grad_div_negative_adjoint():
    rng = np.random.default_rng(7)
    g = Grid(cells=(16, 12), lengths=(1.5, 1.0))
    s = rng.standard_normal(g.cells)
    v = VectorField(g, rng.standard_normal((2,) + g.cells))
    pair = float(np.sum(grad(g, s, "pressure") * v.values)) + float(np.sum(s * div(v)))
    scale = float(np.max(np.abs(s))) * float(np.max(np.abs(v.values))) * g.n_cells
    assert abs(pair) * g.cell_volume < 1e-12 * scale


def _neighbour(q, axis, step, bc, ghost):
    """q at cell i + step along `axis` for every cell i, by the ghost policy:
    the wrapped cell on periodic grids, else the cell itself ("edge") or 0."""
    n = q.shape[axis]
    src = np.moveaxis(q, axis, 0)
    out = np.empty_like(src)
    for i in range(n):
        j = i + step
        if 0 <= j < n:
            out[i] = src[j]
        elif bc == "periodic":
            out[i] = src[j % n]
        else:
            out[i] = src[i] if ghost == "edge" else 0.0
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("shape", [(7,), (6, 5)])
@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
@pytest.mark.parametrize("ghost", sorted(set(WALL_GHOST.values())))
def test_stencils_follow_the_ghost_policy_cell_by_cell(shape, bc, ghost):
    # every quantity of WALL_GHOST whose ghost is `ghost`; div and the donor
    # face velocities read the "velocity" entry
    u_ghost = WALL_GHOST["velocity"]
    rng = np.random.default_rng(19)
    g = Grid(cells=shape, lengths=tuple(rng.uniform(0.5, 2.0, len(shape))), bc=bc)
    s = rng.standard_normal(shape)
    v = rng.standard_normal((g.dim,) + shape)
    q = rng.standard_normal(shape + (3,))  # trailing channels
    want_grad = np.stack([
        (_neighbour(s, a, 1, bc, ghost) - _neighbour(s, a, -1, bc, ghost)) / (2.0 * g.h[a])
        for a in range(g.dim)
    ])
    want_div, want_lap, want_up = np.zeros(shape), np.zeros(shape), np.zeros(q.shape)
    for a in range(g.dim):
        h = g.h[a]
        want_div += (_neighbour(v[a], a, 1, bc, u_ghost) - _neighbour(v[a], a, -1, bc, u_ghost)) / (2.0 * h)
        want_lap += (_neighbour(s, a, 1, bc, ghost) - 2.0 * s + _neighbour(s, a, -1, bc, ghost)) / (h * h)
        # faces i - 1/2 and i + 1/2 of cell i
        u_lo, u_hi = _neighbour(v[a], a, -1, bc, u_ghost), _neighbour(v[a], a, 1, bc, u_ghost)
        uf_lo, uf_hi = (0.5 * (u_lo + v[a]))[..., None], (0.5 * (v[a] + u_hi))[..., None]
        q_lo, q_hi = _neighbour(q, a, -1, bc, ghost), _neighbour(q, a, 1, bc, ghost)
        flux_lo = np.maximum(uf_lo, 0.0) * q_lo + np.minimum(uf_lo, 0.0) * q
        flux_hi = np.maximum(uf_hi, 0.0) * q + np.minimum(uf_hi, 0.0) * q_hi
        want_up += (flux_hi - flux_lo) / h
    for quantity in [name for name, mode in WALL_GHOST.items() if mode == ghost]:
        assert np.array_equal(grad(g, s, quantity), want_grad)
        assert np.array_equal(laplacian(g, s, quantity), want_lap)
        assert np.array_equal(upwind_divergence(q, VectorField(g, v), quantity), want_up)
    assert np.array_equal(div(VectorField(g, v)), want_div)


@pytest.mark.parametrize("shape", [(7,), (6, 5)])
@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
def test_donor_faces_are_cached_read_only_and_equal_a_fresh_split(shape, bc):
    # face a of the cells holds 0.5 (u_{i-1} + u_i) for faces 0..n-1 and the
    # last face 0.5 (u_{n-1} + ghost); the cache is built once and frozen
    rng = np.random.default_rng(23)
    g = Grid(cells=shape, lengths=tuple(rng.uniform(0.5, 2.0, len(shape))), bc=bc)
    v = rng.standard_normal((g.dim,) + shape)
    u = VectorField(g, v)
    faces = _donor_faces(u)
    assert _donor_faces(u) is faces
    assert len(faces) == g.dim
    ghost = WALL_GHOST["velocity"]
    for a, (wp, wm) in enumerate(faces):
        lower = 0.5 * (_neighbour(v[a], a, -1, bc, ghost) + v[a])
        last = np.take(0.5 * (v[a] + _neighbour(v[a], a, 1, bc, ghost)), [shape[a] - 1], axis=a)
        uf = np.moveaxis(np.concatenate((lower, last), axis=a), a, 0)
        for part, want in ((wp, np.maximum(uf, 0.0)), (wm, np.minimum(uf, 0.0))):
            assert not part.flags.writeable
            assert np.array_equal(part, want)
        with pytest.raises(ValueError, match="read-only"):
            wp[0] = 1.0
    fresh = _split_faces(VectorField(g, v.copy()))
    assert all(np.array_equal(x, y) for pair, again in zip(faces, fresh) for x, y in zip(pair, again))


@pytest.mark.parametrize("shape", [(7,), (6, 5)])
@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
@pytest.mark.parametrize("quantity", sorted(WALL_GHOST))
def test_the_ghost_frame_holds_the_ghosts_of_pad_axis(shape, bc, quantity):
    # a buffer framed on every cell axis, behind a leading component axis,
    # carries along each axis the ghosts that `_pad_axis` attaches
    rng = np.random.default_rng(29)
    g = Grid(cells=shape, lengths=(1.0,) * len(shape), bc=bc)
    vals = rng.standard_normal((2,) + shape)
    p = np.full((2,) + tuple(n + 2 for n in shape), np.nan)
    p[(slice(None),) + (slice(1, -1),) * g.dim] = vals
    _fill_ghosts(g, p, quantity)
    for c in range(2):
        for a in range(g.dim):
            along = [slice(1, -1)] * g.dim
            along[a] = slice(None)
            framed = np.moveaxis(p[c][tuple(along)], a, 0)
            assert np.array_equal(framed, _pad_axis(g, vals[c], a, quantity))
    with pytest.raises(ValueError, match="unknown quantity 'vorticity'"):
        _fill_ghosts(g, p, "vorticity")


def test_unknown_ghost_policy_is_rejected():
    for bc in ("periodic", "dirichlet"):
        g = Grid(cells=(8,), lengths=(1.0,), bc=bc)
        with pytest.raises(ValueError, match="unknown quantity 'vorticity'"):
            grad(g, np.ones(8), "vorticity")
        with pytest.raises(ValueError, match="unknown quantity 'vorticity'"):
            upwind_divergence(np.ones(8), VectorField(g, np.ones((1, 8))), "vorticity")


def test_only_grid_declares_wall_ghosts():
    # a "zero" or "edge" literal elsewhere would be a second declaration of
    # some quantity's wall condition, which WALL_GHOST alone holds
    found = []
    for path in sorted(Path(doifbp.__file__).parent.glob("*.py")):
        if path.name == "grid.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and node.value in ("zero", "edge"):
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert not found, f"wall ghosts declared outside grid.py: {found}"


def test_only_grid_differentiates_the_velocity():
    # grad u is `velocity_gradient` and div u its trace; a velocity stencil
    # elsewhere would be a second derivative of u beside the cached one
    found = []
    for path in sorted(Path(doifbp.__file__).parent.glob("*.py")):
        if path.name == "grid.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("_centered_diff", "_second_diff")):
                continue
            quantity = [kw.value for kw in node.keywords if kw.arg == "quantity"] + node.args[3:4]
            if any(isinstance(q, ast.Constant) and q.value == "velocity" for q in quantity):
                found.append(f"{path.name}:{node.lineno} {node.func.id}")
    assert not found, f"velocity differentiated outside grid.py: {found}"


def test_no_module_catches_a_float_range_error():
    # a limit of the float range is taken by IEEE arithmetic (an overflowing
    # step is inf, a vanishing speed gives an infinite step), not by a branch
    # around an exception
    float_range = {"OverflowError", "ZeroDivisionError", "FloatingPointError"}
    found = []
    for path in sorted(Path(doifbp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                named = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                found += [f"{path.name}:{node.lineno} {name}" for name in sorted(named & float_range)]
    assert not found, f"float-range errors caught: {found}"


def test_only_sphere_synthesizes_f_at_the_nodes():
    # coefficients -> nodes is a product with hemi_y.T (or basis.synth);
    # anywhere but sphere.py it would rebuild a whole-field nodal array
    # behind the bounded slabs of `OrientationField.slabs`
    found = []
    for path in sorted(Path(doifbp.__file__).parent.glob("*.py")):
        if path.name == "sphere.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "synth":
                found.append(f"{path.name}:{node.lineno} synth")
            elif isinstance(node, ast.Attribute) and node.attr in ("T", "transpose"):
                if getattr(node.value, "attr", None) == "hemi_y":
                    found.append(f"{path.name}:{node.lineno} hemi_y.{node.attr}")
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "transpose":
                if any(getattr(arg, "attr", None) == "hemi_y" for arg in node.args):
                    found.append(f"{path.name}:{node.lineno} transpose(hemi_y)")
    assert not found, f"f synthesized at the nodes outside sphere.py: {found}"


def test_no_module_uses_numpy_random():
    # seeded noise comes from Python's random.Random, whose stream Python
    # keeps across versions; importing numpy.random costs ~6 MB of RSS
    found = []
    for path in sorted(Path(doifbp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.startswith(("numpy.random", "np.random"))]
    assert not found, f"numpy.random used: {found}"


# ---------------------------------------------------------------------------
# norms and integrals


def test_lp_norm_constant():
    g = Grid(cells=(10,), lengths=(1.0,))
    for p in (1.0, 2.0, 4.0, math.inf):
        assert lp_norm(g, np.full(10, -2.5), p) == pytest.approx(2.5, rel=1e-14)


def test_lp_norm_half_domain_indicator():
    g = Grid(cells=(16,), lengths=(1.0,))
    vals = np.zeros(16)
    vals[:8] = 1.0
    assert lp_norm(g, vals, 2) == pytest.approx(math.sqrt(0.5), rel=1e-14)


def test_lp_norm_matches_direct_summation():
    rng = np.random.default_rng(11)
    g = Grid(cells=(32, 8), lengths=(2.0, 1.0))
    vals = rng.standard_normal(g.cells)
    for p in (1.0, 2.0, 3.0, 4.0):
        oracle = (np.sum(np.abs(vals) ** p) * g.cell_volume) ** (1.0 / p)
        assert lp_norm(g, vals, p) == pytest.approx(oracle, rel=1e-13)
    assert lp_norm(g, vals, math.inf) == pytest.approx(np.max(np.abs(vals)), rel=1e-15)


def test_lp_norm_rejects_p_below_one():
    g = Grid(cells=(8,), lengths=(1.0,))
    with pytest.raises(ValueError, match="p >= 1"):
        lp_norm(g, np.ones(8), 0.5)


def test_integral_is_cell_sum():
    g = Grid(cells=(8,), lengths=(2.0,))
    s = ScalarField(g, np.arange(8.0))
    assert integral(s) == pytest.approx(np.sum(np.arange(8.0)) * 0.25, rel=1e-15)


# ---------------------------------------------------------------------------
# upwind transport


def test_square_pulse_one_full_period():
    # advect a square pulse once around the periodic box: the total mass is
    # bookkept exactly by the telescoping donor-cell fluxes and the monotone
    # scheme never creates a new maximum
    n = 64
    g = Grid(cells=(n,), lengths=(1.0,))
    vals = np.zeros(n)
    vals[10:20] = 1.0
    s = ScalarField(g, vals)
    u = VectorField(g, np.ones((1, n)))
    dt = 0.5 * g.h[0]
    mass0 = integral(s)
    for _ in range(2 * n):  # 2n steps x h/2 per step = one period
        s = transport_step(s, u, dt, upwind_divergence(s.values, u, "density"))
    assert abs(integral(s) - mass0) <= 1e-13 * abs(mass0)
    assert np.max(s.values) <= 1.0 + 1e-13
    assert np.min(s.values) >= -1e-13


def test_transport_u_zero_is_identity():
    g = Grid(cells=(8,), lengths=(1.0,))
    s = ScalarField(g, np.linspace(0.1, 1.0, 8))
    u = VectorField(g, np.zeros((1, 8)))
    out = transport_step(s, u, 1e-3, upwind_divergence(s.values, u, "density"))
    assert np.array_equal(out.values, s.values)


def test_transport_of_uniform_field_under_divergence_free_velocity():
    # in 2D, u = (F(y), G(x)) has exactly zero discrete divergence
    g = Grid(cells=(16, 16), lengths=(1.0, 1.0))
    _, my = g.meshes()
    mx, _ = g.meshes()
    u = np.zeros((2,) + g.cells)
    u[0] = np.cos(2.0 * np.pi * my)
    u[1] = np.sin(2.0 * np.pi * mx)
    s = ScalarField(g, np.full(g.cells, 0.8))
    out = transport_step(s, VectorField(g, u), 1e-3, upwind_divergence(s.values, VectorField(g, u), "density"))
    assert np.max(np.abs(out.values - 0.8)) < 1e-12


def test_transport_rejects_cfl_violation():
    g = Grid(cells=(8,), lengths=(1.0,))
    s = ScalarField(g, np.ones(8))
    u = VectorField(g, np.ones((1, 8)))
    with pytest.raises(NumericalError, match="CFL"):
        transport_step(s, u, 3.0 * g.h[0], upwind_divergence(s.values, u, "density"))


def test_transport_rejects_negative_input():
    g = Grid(cells=(8,), lengths=(1.0,))
    s = ScalarField(g, np.full(8, -0.1))
    u = VectorField(g, np.zeros((1, 8)))
    with pytest.raises(ValueError, match="negative"):
        transport_step(s, u, 1e-4, upwind_divergence(s.values, u, "density"))


def test_transport_rejects_a_velocity_on_another_grid():
    g = Grid(cells=(8,), lengths=(1.0,))
    s = ScalarField(g, np.ones(8))
    u = VectorField(Grid(cells=(8,), lengths=(2.0,)), np.zeros((1, 8)))
    with pytest.raises(ValueError, match="^transported field and velocity live on different grids"):
        transport_step(s, u, 1e-4, np.zeros(8))


def test_transport_clamps_a_roundoff_undershoot_and_rejects_a_real_one():
    # at a CFL number of exactly 1, s - dt * flux lands at -4.4e-16 in cell 1,
    # within the guard of 1e-13 * max(s): the step returns 0 there
    g = Grid(cells=(4,), lengths=(1.0562219778473674,))
    speed = 3.9442592301077375
    u = VectorField(g, np.full((1, 4), speed))
    s = ScalarField(g, np.array([0.0, 3.0326450980871584, 0.0, 0.0]))
    dt = g.h[0] / speed
    flux = upwind_divergence(s.values, u, "density")
    assert np.min(s.values - dt * flux) < 0.0
    out = transport_step(s, u, dt, flux)
    assert out.values[1] == 0.0 and np.min(out.values) >= 0.0
    assert np.sum(out.values) == pytest.approx(np.sum(s.values), rel=1e-15)
    # an undershoot beyond the guard is a numerical failure, not a clamp
    flux[1] += 1e-9 / dt
    with pytest.raises(NumericalError, match="transport produced negative values"):
        transport_step(s, u, dt, flux)


def test_upwind_divergence_rejects_an_array_off_the_grid():
    g = Grid(cells=(8,), lengths=(1.0,))
    with pytest.raises(ValueError, match=r"^transported array shaped \(7,\) does not match grid \(8,\)"):
        upwind_divergence(np.ones(7), VectorField(g, np.ones((1, 8))), "density")


def test_upwind_divergence_telescopes_with_channels():
    # channels share one donor pattern; each channel's cell sum telescopes
    rng = np.random.default_rng(3)
    g = Grid(cells=(24,), lengths=(1.0,))
    q = rng.random((24, 5))
    u = rng.standard_normal((1, 24))
    out = upwind_divergence(q, VectorField(g, u), "rods")
    sums = np.abs(np.sum(out, axis=0))
    assert np.max(sums) < 1e-12 * np.max(np.abs(q)) * 24 / g.h[0]


# ---------------------------------------------------------------------------
# the translational-diffusion substep


@settings(max_examples=40, deadline=None)
@given(
    shape=st.one_of(
        st.tuples(st.integers(4, 32)),
        st.tuples(st.integers(4, 16), st.integers(4, 16)),
    ),
    stiffness=st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_heat_step_is_the_exact_periodic_heat_propagator(shape, stiffness, seed):
    # stiffness = t max|symbol of Lap_h|; explicit Euler is stable only up to 2
    rng = np.random.default_rng(seed)
    g = Grid(cells=shape, lengths=tuple(rng.uniform(0.5, 2.0, len(shape))))
    t = stiffness / sum(4.0 / h**2 for h in g.h)
    q = rng.random(shape + (3,)) * (rng.random(shape + (3,)) < 0.5)  # nonnegative, with zeros
    eye = np.eye(g.n_cells).reshape((-1,) + shape)
    lap = np.array([laplacian(g, e, "rods").ravel() for e in eye]).T
    want = (scipy.linalg.expm(t * lap) @ q.reshape(g.n_cells, 3)).reshape(q.shape)
    got = heat_step(g, q, t)
    scale = max(float(np.max(q)), 1e-300)
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    cells = tuple(range(g.dim))
    assert np.all(np.abs(got.sum(axis=cells) - q.sum(axis=cells)) <= 1e-14 * g.n_cells * scale)
    assert np.min(got) >= -1e-15 * scale  # nonnegative up to roundoff


def test_heat_step_is_one_explicit_euler_step_on_dirichlet_grids():
    # until an exact Dirichlet propagator replaces it: q + t Lap_h q with the
    # zero ghost, a convex combination of neighbours up to the diffusive bound
    # t sum_a 2 / h_a^2 = 1, unstable past it
    rng = np.random.default_rng(23)
    for shape in ((9,), (6, 5)):
        g = Grid(cells=shape, lengths=tuple(rng.uniform(0.5, 2.0, len(shape))), bc="dirichlet")
        t = 1.0 / sum(2.0 / h**2 for h in g.h)
        q = rng.random(shape + (3,)) * (rng.random(shape + (3,)) < 0.5)  # nonnegative, with zeros
        got = heat_step(g, q, t)
        for k in range(3):
            want = q[..., k] + t * laplacian(g, q[..., k], "rods")
            assert np.array_equal(got[..., k], want)
        assert np.min(got) >= -1e-15 * np.max(q)  # nonnegative up to roundoff
        with pytest.raises(NumericalError, match="explicit diffusion unstable"):
            heat_step(g, q, t * (1.0 + 1e-9))
