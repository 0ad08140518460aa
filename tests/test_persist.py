"""CSV round-trips, binary snapshots, and bit-exact replay."""

import math
import struct

import numpy as np
import pytest

from doifbp import (
    Grid,
    OrientationField,
    PhysCoeffs,
    PressureLaw,
    ScalarField,
    SnapshotError,
    VectorField,
    cfl_dt,
    load_snapshot,
    make_sphere_basis,
    run,
    snapshot,
    step,
)
from doifbp.integrator import FluidState
from doifbp.limits import GammaDiagnostics, SweepResult
from doifbp.persist import (
    read_diagnostics,
    read_sweep,
    write_diagnostics,
    write_sweep,
)

SQRT_4PI = math.sqrt(4.0 * math.pi)


def _make_state(n=8, degree=2, dim=1):
    cells = (n,) * dim
    grid = Grid(cells=cells, lengths=(1.0,) * dim)
    basis = make_sphere_basis(degree)
    x = grid.meshes()[0]
    rho = 0.8 + 0.1 * np.sin(2.0 * np.pi * x)
    u = np.zeros((dim,) + cells)
    u[0] = 0.1 * np.cos(2.0 * np.pi * x)
    eta = 0.1 + 0.02 * np.cos(2.0 * np.pi * x)
    coeffs = np.zeros(cells + (basis.n_coeff,))
    coeffs[..., 0] = eta / SQRT_4PI
    coeffs[..., basis.index(2, 0)] = 0.01 * np.sin(2.0 * np.pi * x)  # a little anisotropy
    return FluidState(
        rho=ScalarField(grid, rho),
        u=VectorField(grid, u),
        f=OrientationField(grid, basis, coeffs),
        t=0.25,
        law=PressureLaw(4.0),
        coeffs=PhysCoeffs(mu=0.5, lam=0.25, d_trans=0.75, d_rot=1.5),
    )


# ---------------------------------------------------------------------------
# diagnostics CSV


def test_diagnostics_csv_empty_is_header_only(tmp_path):
    path = tmp_path / "diag.csv"
    write_diagnostics([], path)
    text = path.read_text()
    assert text.count("\n") == 1
    assert text.strip().split(",")[0] == "t"
    assert read_diagnostics(path) == []


def test_diagnostics_csv_round_trips_doubles_exactly(tmp_path):
    state = _make_state()
    records, _ = run(state, state.t + 0.3, record_every=1)
    path = tmp_path / "diag.csv"
    write_diagnostics(records, path)
    back = read_diagnostics(path)
    assert len(back) == len(records) >= 3
    for a, b in zip(records, back):
        assert a.row() == b.row()  # 17 significant digits round-trip IEEE double


def test_diagnostics_csv_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="bad header"):
        read_diagnostics(path)


# ---------------------------------------------------------------------------
# sweep CSV


def _sweep_result(slope):
    rows = tuple(
        GammaDiagnostics(
            gamma=g,
            excess_l1=0.1 / g,
            excess_l2=0.2 / math.sqrt(g),
            excess_l4=0.3 / g**0.25,
            excess_linf=0.4,
            pressure_time_integral=1.0 + 1.0 / g,
            complementarity=math.exp(-g),
            incompressibility_defect=0.01,
            congested_volume=0.5,
        )
        for g in (5.0, 10.0, 20.0, 40.0, 80.0)
    )
    return SweepResult(rows=rows, l2_slope=slope, eps_congestion=0.07)


def test_sweep_csv_round_trip(tmp_path):
    result = _sweep_result(-0.512345678901234567)
    path = tmp_path / "sweep.csv"
    write_sweep(result, path)
    back = read_sweep(path, eps_congestion=0.07)
    assert [r.row() for r in back.rows] == [r.row() for r in result.rows]
    assert back.l2_slope == result.l2_slope
    assert back.eps_congestion == 0.07


def test_sweep_csv_undefined_slope_becomes_nan_then_none(tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep(_sweep_result(None), path)
    assert ",nan" in path.read_text()
    assert read_sweep(path).l2_slope is None


def test_sweep_csv_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("gamma,slope\n5,1\n")
    with pytest.raises(ValueError, match="bad header"):
        read_sweep(path)


# ---------------------------------------------------------------------------
# snapshots


def test_snapshot_restores_every_field(tmp_path):
    state = _make_state(dim=2, n=6, degree=3)
    path = tmp_path / "state.bin"
    snapshot(state, path)
    back = load_snapshot(path)
    assert back.t == state.t
    assert back.law.gamma == state.law.gamma
    assert back.coeffs == state.coeffs
    assert back.grid.cells == state.grid.cells
    assert back.grid.lengths == state.grid.lengths
    assert back.grid.bc == state.grid.bc
    assert back.f.basis.degree == state.f.basis.degree
    assert np.array_equal(back.rho.values, state.rho.values)
    assert np.array_equal(back.u.values, state.u.values)
    assert np.array_equal(back.eta.values, state.eta.values)
    assert np.array_equal(back.f.coeffs, state.f.coeffs)


def test_snapshot_bytes_are_deterministic(tmp_path):
    state = _make_state()
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    snapshot(state, p1)
    snapshot(load_snapshot(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    ("keep", "section"),
    [(5, "magic"), (10, "header"), (40, "header"), (90, "rho"), (-1, "f")],
)
def test_snapshot_truncation_names_section(tmp_path, keep, section):
    # 1D header is 84 bytes (8 magic + 8 + 8 + 8 + 4 + 48), then rho
    state = _make_state()
    path = tmp_path / "state.bin"
    snapshot(state, path)
    full = path.read_bytes()
    path.write_bytes(full[:keep] if keep >= 0 else full[:-1])
    with pytest.raises(SnapshotError, match=f"truncated in section '{section}'"):
        load_snapshot(path)


def test_snapshot_rejects_bad_magic(tmp_path):
    state = _make_state()
    path = tmp_path / "state.bin"
    snapshot(state, path)
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(SnapshotError, match="bad magic"):
        load_snapshot(path)


def test_snapshot_rejects_old_format_with_eta_section(tmp_path):
    state = _make_state()
    path = tmp_path / "state.bin"
    snapshot(state, path)
    path.write_bytes(b"DOIFBP01" + path.read_bytes()[8:])
    with pytest.raises(SnapshotError, match="DOIFBP01.*separate eta section.*no longer read"):
        load_snapshot(path)


def test_snapshot_rejects_old_format_with_odd_degrees(tmp_path):
    state = _make_state()
    path = tmp_path / "state.bin"
    snapshot(state, path)
    path.write_bytes(b"DOIFBP02" + path.read_bytes()[8:])
    with pytest.raises(
        SnapshotError, match="DOIFBP02.*odd harmonic degrees.*no longer read.*DOIFBP03"
    ):
        load_snapshot(path)


def test_snapshot_rejects_corrupt_header_fields(tmp_path):
    state = _make_state()
    path = tmp_path / "state.bin"
    snapshot(state, path)
    full = path.read_bytes()

    bad_dim = full[:8] + struct.pack("<I", 7) + full[12:]
    path.write_bytes(bad_dim)
    with pytest.raises(SnapshotError, match="snapshot header inconsistent: dim = 7"):
        load_snapshot(path)

    bad_degree = full[:32] + struct.pack("<I", 100) + full[36:]
    path.write_bytes(bad_degree)
    with pytest.raises(SnapshotError, match="sphere degree = 100"):
        load_snapshot(path)


def test_snapshot_rejects_trailing_and_bad_payload(tmp_path):
    state = _make_state()
    path = tmp_path / "state.bin"
    snapshot(state, path)
    full = path.read_bytes()

    path.write_bytes(full + b"x")
    with pytest.raises(SnapshotError, match="trailing data"):
        load_snapshot(path)

    negative_rho = full[:84] + struct.pack("<d", -1.0) + full[92:]
    path.write_bytes(negative_rho)
    with pytest.raises(SnapshotError, match="negative density"):
        load_snapshot(path)


def test_snapshot_rejects_negative_orientation_payload(tmp_path):
    state = _make_state()
    path = tmp_path / "state.bin"
    snapshot(state, path)
    full = path.read_bytes()
    # the f payload is the last n * Q doubles; a large l = 2 coefficient in
    # cell 0 drives some nodal values of f far below zero
    n_q = state.f.basis.n_coeff
    start = len(full) - 8 * state.grid.n_cells * n_q
    coeff = start + 8 * state.f.basis.index(2, 0)
    path.write_bytes(full[:coeff] + struct.pack("<d", 1.0) + full[coeff + 8 :])
    with pytest.raises(SnapshotError, match="payload inconsistent: orientation distribution dips"):
        load_snapshot(path)


def test_snapshot_rejects_non_finite_density_payload(tmp_path):
    state = _make_state()
    path = tmp_path / "state.bin"
    snapshot(state, path)
    full = path.read_bytes()
    # a 1D header is 84 bytes: magic 8, dim and bc 8, cells 8, lengths 8,
    # degree 4, six coefficients 48; the rho payload follows
    start = 84
    assert struct.unpack_from("<d", full, start)[0] == state.rho.values[0]
    path.write_bytes(full[:start] + struct.pack("<d", math.nan) + full[start + 8 :])
    with pytest.raises(SnapshotError, match="payload inconsistent: non-finite density"):
        load_snapshot(path)


def test_snapshot_replay_is_bit_exact(tmp_path):
    state = _make_state(n=16)
    dt = 0.25 * cfl_dt(state, state.coeffs, state.law, 0.45)

    def advance(s, steps):
        for _ in range(steps):
            s = step(s, dt)
        return s

    start = tmp_path / "start.bin"
    snapshot(state, start)
    end_a = advance(state, 10)
    end_b = advance(load_snapshot(start), 10)
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    snapshot(end_a, pa)
    snapshot(end_b, pb)
    assert pa.read_bytes() == pb.read_bytes()
