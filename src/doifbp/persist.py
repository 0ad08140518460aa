"""On-disk formats: diagnostics CSV, sweep CSV, and binary state snapshots.

CSV files carry a fixed header row and floats printed with 17 significant
digits (enough to round-trip IEEE double exactly).

Snapshots are little-endian binary: an 8-byte magic "DOIFBP03", a fixed
header (grid metadata, spectral degree, physical parameters, time), then the
raw float64 payloads of rho, u, and the orientation coefficients, in that
order and in C order.  The coefficients are those of the even-degree basis,
(J+1)(2J+1) per cell with J = floor(L/2).  The number density is the zeroth
moment of f and is not stored.  Loading checks the magic (a file of another
format, the retired "DOIFBP01" and "DOIFBP02" included, is refused as a bad
magic), the dimension, the boundary code and the exact payload length (against
the file size, before any payload is read); a truncated file reports the
section that came up short.  Every other header and payload value is
validated by the type it builds (`Grid`, the sphere basis, `PressureLaw`,
`PhysCoeffs`, the fields and `FluidState`), and f by its nodal positivity
check.  A snapshot restores the full state bit-exactly, so re-running from a
snapshot reproduces the original trajectory to the last bit.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import SnapshotError
from .grid import DIRICHLET, PERIODIC, Grid, ScalarField, VectorField
from .hydro import PhysCoeffs, PressureLaw
from .integrator import DiagnosticsRecord, FluidState
from .limits import GammaDiagnostics, SweepResult
from .sphere import OrientationField, make_sphere_basis

MAGIC = b"DOIFBP03"
_BC_CODES = {PERIODIC: 0, DIRICHLET: 1}
_BC_NAMES = {code: name for name, code in _BC_CODES.items()}


def _write_csv(path, header, rows) -> None:
    lines = [",".join(header)] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_diagnostics(records, path) -> None:
    """Write per-record energy/dissipation diagnostics as CSV."""
    _write_csv(path, DiagnosticsRecord.FIELDS, (rec.row() for rec in records))


def read_diagnostics(path):
    """Read the records of a diagnostics CSV written by `write_diagnostics`.

    A file whose first row is not the header, or with a row that is not one
    float per field (`nan` and `inf` included), is a ValueError that names
    the path and, for a bad row, quotes it.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or lines[0] != ",".join(DiagnosticsRecord.FIELDS):
        raise ValueError(f"{path}: not a diagnostics CSV (bad header)")
    n = len(DiagnosticsRecord.FIELDS)
    out = []
    for line in lines[1:]:
        try:
            values = [float(tok) for tok in line.split(",")]
        except ValueError:
            values = None
        if values is None or len(values) != n:
            raise ValueError(f"{path}: not a diagnostics CSV (row {line!r} is not {n} floats)")
        out.append(DiagnosticsRecord(*values))
    return out


SWEEP_FIELDS = GammaDiagnostics.FIELDS + ("l2_slope",)


def write_sweep(result: SweepResult, path) -> None:
    """Write per-gamma sweep diagnostics as CSV (slope repeated per row)."""
    slope = math.nan if result.l2_slope is None else result.l2_slope
    _write_csv(path, SWEEP_FIELDS, (row.row() + (slope,) for row in result.rows))


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
        if magic != MAGIC:
            raise SnapshotError(f"bad magic {magic!r}, expected {MAGIC!r}")
        dim, bc_code = struct.unpack("<II", _read_exact(fh, 8, "header"))
        if dim not in (1, 2):
            raise SnapshotError(f"snapshot header inconsistent: dim = {dim}")
        if bc_code not in _BC_NAMES:
            raise SnapshotError(f"snapshot header inconsistent: bc code = {bc_code}")
        cells = struct.unpack(f"<{dim}Q", _read_exact(fh, 8 * dim, "header"))
        lengths = struct.unpack(f"<{dim}d", _read_exact(fh, 8 * dim, "header"))
        (degree,) = struct.unpack("<I", _read_exact(fh, 4, "header"))
        gamma, mu, lam, d_trans, d_rot, t = struct.unpack("<6d", _read_exact(fh, 48, "header"))
        try:
            grid = Grid(cells=cells, lengths=lengths, bc=_BC_NAMES[bc_code])
            law = PressureLaw(gamma)
            coeffs = PhysCoeffs(mu=mu, lam=lam, d_trans=d_trans, d_rot=d_rot)
            basis = make_sphere_basis(degree)
        except ValueError as err:
            raise SnapshotError(f"snapshot header inconsistent: {err}") from err

        # the header fixes the payload size: check it against the file before reading
        sections = {"rho": grid.cells, "u": (dim,) + grid.cells, "f": grid.cells + (basis.n_coeff,)}
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        for name, shape in sections.items():
            left -= 8 * math.prod(shape)
            if left < 0:
                raise SnapshotError(f"snapshot truncated in section '{name}'")
        if left:
            raise SnapshotError("trailing data after the final section")

        def read_array(name: str, shape: tuple) -> np.ndarray:
            data = _read_exact(fh, 8 * math.prod(shape), name)
            return np.frombuffer(data, dtype="<f8").reshape(shape).copy()

        rho, u, f = (read_array(name, shape) for name, shape in sections.items())

    try:
        fields = (ScalarField(grid, rho), VectorField(grid, u), OrientationField(grid, basis, f))
        state = FluidState(*fields, t=t, law=law, coeffs=coeffs)
        state.f.check_positive()
    except ValueError as err:
        raise SnapshotError(f"snapshot payload inconsistent: {err}") from err
    return state
