"""On-disk formats: diagnostics CSV, sweep CSV, and binary state snapshots.

CSV files carry a fixed header row and floats printed with 17 significant
digits (enough to round-trip IEEE double exactly).

Snapshots are little-endian binary: an 8-byte magic "DOIFBP03", a fixed
header (grid metadata, spectral degree, physical parameters, time), then the
raw float64 payloads of rho, u, and the orientation coefficients, in that
order and in C order.  The coefficients are those of the even-degree basis,
(J+1)(2J+1) per cell with J = floor(L/2).  The number density is the zeroth
moment of f and is not stored.  Files of the older formats are rejected by
name: "DOIFBP01" carried a separate eta section, and "DOIFBP02" stored every
harmonic degree of f, (L+1)^2 coefficients per cell.  Loading validates the
magic, every header field, the exact payload length, and nodal positivity of
f; a truncated file reports the section that came up short.  A snapshot
restores the full state bit-exactly, so re-running from a snapshot reproduces
the original trajectory to the last bit.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import SnapshotError
from .grid import DIRICHLET, PERIODIC, Grid, ScalarField, VectorField
from .hydro import PhysCoeffs, PressureLaw
from .integrator import DiagnosticsRecord, FluidState
from .limits import GammaDiagnostics, SweepResult
from .sphere import OrientationField, make_sphere_basis

MAGIC = b"DOIFBP03"
_RETIRED_FORMATS = {
    b"DOIFBP01": "carries a separate eta section",
    b"DOIFBP02": "stores the odd harmonic degrees of f",
}
_BC_CODES = {PERIODIC: 0, DIRICHLET: 1}
_BC_NAMES = {code: name for name, code in _BC_CODES.items()}


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_diagnostics(records, path) -> None:
    """Write per-record energy/dissipation diagnostics as CSV."""
    lines = [",".join(DiagnosticsRecord.FIELDS)]
    for rec in records:
        lines.append(",".join(_fmt(v) for v in rec.row()))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_diagnostics(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or lines[0] != ",".join(DiagnosticsRecord.FIELDS):
        raise ValueError(f"{path}: not a diagnostics CSV (bad header)")
    out = []
    for line in lines[1:]:
        out.append(DiagnosticsRecord(*(float(tok) for tok in line.split(","))))
    return out


SWEEP_FIELDS = GammaDiagnostics.FIELDS + ("l2_slope",)


def write_sweep(result: SweepResult, path) -> None:
    """Write per-gamma sweep diagnostics as CSV (slope repeated per row)."""
    slope = "nan" if result.l2_slope is None else _fmt(result.l2_slope)
    lines = [",".join(SWEEP_FIELDS)]
    for row in result.rows:
        lines.append(",".join(_fmt(v) for v in row.row()) + "," + slope)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_sweep(path, eps_congestion: float = 0.05) -> SweepResult:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or lines[0] != ",".join(SWEEP_FIELDS):
        raise ValueError(f"{path}: not a sweep CSV (bad header)")
    rows = []
    slope = None
    for line in lines[1:]:
        values = [float(tok) for tok in line.split(",")]
        rows.append(GammaDiagnostics(*values[:-1]))
        slope = None if math.isnan(values[-1]) else values[-1]
    return SweepResult(rows=tuple(rows), l2_slope=slope, eps_congestion=eps_congestion)


def snapshot(state: FluidState, path) -> None:
    """Serialize the full simulation state, bit-exactly, to `path`."""
    grid = state.grid
    law, coeffs = state.law, state.coeffs
    header = [MAGIC]
    header.append(struct.pack("<II", grid.dim, _BC_CODES[grid.bc]))
    header.append(struct.pack(f"<{grid.dim}Q", *grid.cells))
    header.append(struct.pack(f"<{grid.dim}d", *grid.lengths))
    header.append(struct.pack("<I", state.f.basis.degree))
    header.append(
        struct.pack("<6d", law.gamma, coeffs.mu, coeffs.lam, coeffs.d_trans, coeffs.d_rot, state.t)
    )
    with open(path, "wb") as fh:
        for chunk in header:
            fh.write(chunk)
        for values in (state.rho.values, state.u.values, state.f.coeffs):
            fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def _read_exact(fh, n: int, section: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise SnapshotError(f"snapshot truncated in section '{section}'")
    return data


def load_snapshot(path) -> FluidState:
    """Rebuild a FluidState from a snapshot file, validating everything."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, len(MAGIC), "magic")
        if magic in _RETIRED_FORMATS:
            raise SnapshotError(
                f"snapshot format {magic!r} {_RETIRED_FORMATS[magic]} and is no "
                f"longer read; this version reads {MAGIC!r}"
            )
        if magic != MAGIC:
            raise SnapshotError(f"bad magic {magic!r}, expected {MAGIC!r}")
        dim, bc_code = struct.unpack("<II", _read_exact(fh, 8, "header"))
        if dim not in (1, 2):
            raise SnapshotError(f"snapshot header inconsistent: dim = {dim}")
        if bc_code not in _BC_NAMES:
            raise SnapshotError(f"snapshot header inconsistent: bc code = {bc_code}")
        cells = struct.unpack(f"<{dim}Q", _read_exact(fh, 8 * dim, "header"))
        if any(n < 4 or n > 2**31 for n in cells):
            raise SnapshotError(f"snapshot header inconsistent: cells = {cells}")
        lengths = struct.unpack(f"<{dim}d", _read_exact(fh, 8 * dim, "header"))
        if any(not math.isfinite(ell) or ell <= 0.0 for ell in lengths):
            raise SnapshotError(f"snapshot header inconsistent: lengths = {lengths}")
        (degree,) = struct.unpack("<I", _read_exact(fh, 4, "header"))
        if degree < 2 or degree > 64:
            raise SnapshotError(f"snapshot header inconsistent: sphere degree = {degree}")
        gamma, mu, lam, d_trans, d_rot, t = struct.unpack("<6d", _read_exact(fh, 48, "header"))
        if not math.isfinite(gamma) or gamma <= 1.5:
            raise SnapshotError(f"snapshot header inconsistent: gamma = {gamma}")
        for name, value in (("mu", mu), ("lambda", lam), ("d_trans", d_trans), ("d_rot", d_rot)):
            if not math.isfinite(value) or value <= 0.0:
                raise SnapshotError(f"snapshot header inconsistent: {name} = {value}")
        if not math.isfinite(t):
            raise SnapshotError(f"snapshot header inconsistent: t = {t}")

        grid = Grid(cells=cells, lengths=lengths, bc=_BC_NAMES[bc_code])
        basis = make_sphere_basis(degree)

        def read_array(name: str, shape: tuple) -> np.ndarray:
            count = int(np.prod(shape))
            data = _read_exact(fh, 8 * count, name)
            return np.frombuffer(data, dtype="<f8").reshape(shape).copy()

        rho = read_array("rho", grid.cells)
        u = read_array("u", (dim,) + grid.cells)
        f = read_array("f", grid.cells + (basis.n_coeff,))
        if fh.read(1):
            raise SnapshotError("trailing data after the final section")

    if not np.all(np.isfinite(rho)):
        raise SnapshotError("snapshot payload inconsistent: non-finite density")
    if np.min(rho) < 0.0:
        raise SnapshotError("snapshot payload inconsistent: negative density")
    if not np.all(np.isfinite(u)):
        raise SnapshotError("snapshot payload inconsistent: non-finite velocity")
    if not np.all(np.isfinite(f)):
        raise SnapshotError("snapshot payload inconsistent: non-finite coefficients")
    orientation = OrientationField(grid, basis, f)
    try:
        orientation.check_positive()
    except ValueError as err:
        raise SnapshotError(f"snapshot payload inconsistent: {err}") from err
    return FluidState(
        rho=ScalarField(grid, rho),
        u=VectorField(grid, u),
        f=orientation,
        t=t,
        law=PressureLaw(gamma),
        coeffs=PhysCoeffs(mu=mu, lam=lam, d_trans=d_trans, d_rot=d_rot),
    )
