"""Uniform rectangular grids, cell-centered fields, and discrete calculus.

Physical space is a periodic or Dirichlet box in one or two dimensions,
discretized with uniform cell-centered volumes.  Gradient, divergence, and
Laplacian use second-order centered stencils; on periodic grids grad and div
are exact negative adjoints under the cell-sum inner product.  The donor-cell
upwind divergence that every transport equation shares also lives here, so
density, number density, momentum, and harmonic coefficient channels are all
advected with one flux definition.

Every stencil reads its neighbours through one ghost fill, `_pad_axis`: a
single gather along one axis through an index cached per (axis length,
periodic or not), which attaches one ghost cell at each end and returns the
array with that axis in front, so a stencil is a difference of slices.  The
stencils act on cells-first arrays, shaped grid.cells plus any trailing
channels that share one stencil.  The sparse stencil matrices of the viscous
operator are the same array stencils applied to the identity of one axis.

On periodic grids the ghost is the wrapped-around cell.  On Dirichlet grids
the ghost policy is per-quantity: ``"zero"`` imposes the homogeneous
boundary value (velocity, number density, orientation coefficients),
``"edge"`` copies the adjacent interior cell, giving a zero-normal-gradient
extrapolation (mass density, pressure).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NumericalError

PERIODIC = "periodic"
DIRICHLET = "dirichlet"
_GHOST_MODES = ("zero", "edge")
#: relative slack of the explicit stability bounds, so a step at the bound passes
_CFL_SLACK = 1.0 + 1e-12
#: identity columns per stencil application in `_diff_matrix`
_EYE_BLOCK = 64


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on a rectangular box.

    Parameters
    ----------
    cells : tuple of int
        Cell count per axis; at least 4 per axis, 1 or 2 axes.
    lengths : tuple of float
        Box extent per axis.
    bc : str
        ``"periodic"`` or ``"dirichlet"``.
    """

    cells: tuple
    lengths: tuple
    bc: str = PERIODIC

    def __post_init__(self):
        cells = tuple(int(n) for n in np.atleast_1d(self.cells))
        lengths = tuple(float(x) for x in np.atleast_1d(self.lengths))
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "lengths", lengths)
        if len(cells) not in (1, 2):
            raise ValueError(f"grid dimension must be 1 or 2, got {len(cells)}")
        if len(lengths) != len(cells):
            raise ValueError("cells and lengths must have matching axis counts")
        if any(n < 4 for n in cells):
            raise ValueError(f"need at least 4 cells per axis, got {cells}")
        if any(x <= 0.0 for x in lengths):
            raise ValueError(f"box lengths must be positive, got {lengths}")
        if self.bc not in (PERIODIC, DIRICHLET):
            raise ValueError(f"unknown boundary condition {self.bc!r}")

    @property
    def dim(self) -> int:
        return len(self.cells)

    @functools.cached_property
    def h(self) -> tuple:
        return tuple(x / n for x, n in zip(self.lengths, self.cells))

    @functools.cached_property
    def cell_volume(self) -> float:
        return math.prod(self.h)

    @property
    def n_cells(self) -> int:
        return math.prod(self.cells)

    def axis_centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        h = self.h[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h

    def meshes(self) -> tuple:
        """Cell-center coordinate arrays, shaped like a scalar field."""
        axes = [self.axis_centers(a) for a in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))


def _check_values(values: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{what} shaped {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")
    return arr


@dataclass(frozen=True)
class ScalarField:
    """One real value per cell."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        arr = _check_values(self.values, self.grid.cells, "scalar field values")
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class VectorField:
    """dim real components per cell, stored component-first."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        shape = (self.grid.dim,) + self.grid.cells
        arr = _check_values(self.values, shape, "vector field values")
        object.__setattr__(self, "values", arr)


def _require_same_grid(a, b):
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


@functools.lru_cache(maxsize=None)
def _ghost_index(n: int, periodic: bool) -> np.ndarray:
    """Gather index of an n-cell line with one ghost cell at each end: the
    wrapped-around cell on a periodic line, the end cell itself otherwise."""
    idx = np.arange(-1, n + 1)
    idx = idx % n if periodic else np.clip(idx, 0, n - 1)
    idx.flags.writeable = False
    return idx


def _pad_axis(grid: Grid, arr: np.ndarray, axis: int, ghost: str) -> np.ndarray:
    """`arr` with one ghost cell on each side of `axis`, that axis moved to the front.

    The one ghost fill of the package: a gather through the cached
    `_ghost_index`, after which the zero ghost of a Dirichlet grid overwrites
    the two end slabs.  Callers slice the front axis (`p[2:]`, `p[:-2]`) and
    swap it back.
    """
    if ghost not in _GHOST_MODES:
        raise ValueError(f"unknown ghost policy {ghost!r}")
    periodic = grid.bc == PERIODIC
    p = np.take(arr, _ghost_index(arr.shape[axis], periodic), axis=axis).swapaxes(0, axis)
    if ghost == "zero" and not periodic:
        p[0] = 0.0
        p[-1] = 0.0
    return p


def _centered_diff(grid: Grid, arr: np.ndarray, axis: int, ghost: str) -> np.ndarray:
    """Centered difference along `axis` of `arr`, shaped grid.cells + channels."""
    p = _pad_axis(grid, arr, axis, ghost)
    return ((p[2:] - p[:-2]) / (2.0 * grid.h[axis])).swapaxes(0, axis)


def _second_diff(grid: Grid, arr: np.ndarray, axis: int, ghost: str) -> np.ndarray:
    """3-point second difference along `axis` of `arr`, shaped grid.cells + channels."""
    h = grid.h[axis]
    p = _pad_axis(grid, arr, axis, ghost)
    return ((p[2:] - 2.0 * p[1:-1] + p[:-2]) / (h * h)).swapaxes(0, axis)


def heat_step(grid: Grid, q: np.ndarray, t: float) -> np.ndarray:
    """The translational-diffusion substep q -> exp(t Lap_h) q, 3-point Lap_h.

    `q` is shaped grid.cells plus any trailing channels, each propagated
    independently.  On periodic grids the step is exact: axis by axis the
    update is the flux form

        q + t Lap_h(phi1(t Lap_h) q),    phi1(z) = expm1(z) / z,  phi1(0) = 1,

    with phi1 applied through the rfft symbol -4 sin^2(pi k / n) / h^2 and the
    outer Lap_h applied by the stencil, so cell sums telescope and stay exact
    to roundoff for any t >= 0, and nonnegative data stay nonnegative up to
    roundoff.  On Dirichlet grids it is, until an exact Dirichlet propagator
    replaces it, one explicit Euler step q + t Lap_h q with the zero ghost,
    stable only under the diffusive bound t sum_a 2 / h_a^2 <= 1.  Under it the
    update is a convex combination of neighbouring cells (so nonnegativity
    holds); beyond it NumericalError is raised.
    """
    if grid.bc != PERIODIC:
        if t * sum(2.0 / h**2 for h in grid.h) > _CFL_SLACK:
            raise NumericalError(f"explicit diffusion unstable for t={t:.3e}")
        lap = np.zeros_like(q)
        for a in range(grid.dim):
            lap += _second_diff(grid, q, a, "zero")
        return q + t * lap
    out = q
    for a in range(grid.dim):
        n, h = grid.cells[a], grid.h[a]
        z = (-4.0 * t / (h * h)) * np.sin(np.pi * np.arange(n // 2 + 1) / n) ** 2
        phi1 = np.divide(np.expm1(z), z, out=np.ones_like(z), where=z != 0.0)
        # Lap_h annihilates the k = 0 line mean, so its phi1 = 1 is dropped:
        # carried along, its FFT roundoff would be amplified by t Lap_h
        phi1[0] = 0.0
        phi1 = phi1.reshape((-1,) + (1,) * (q.ndim - a - 1))
        smoothed = np.fft.irfft(np.fft.rfft(out, axis=a) * phi1, n=n, axis=a)
        out = out + t * _second_diff(grid, smoothed, a, "zero")
    return out


def _diff_matrix(grid: Grid, axis: int, second: bool) -> sp.csr_matrix:
    """`_second_diff` (or `_centered_diff`) along `axis` with the zero ghost,
    as a sparse matrix acting on fields flattened in C order: the array
    stencil applied to the identity of the axis's line grid, then
    Kronecker-producted with the identities of the other axes.  The identity
    goes in blocks of `_EYE_BLOCK` columns, so memory stays O(n)."""
    n = grid.cells[axis]
    line = Grid((n,), (grid.lengths[axis],), grid.bc)
    diff = _second_diff if second else _centered_diff
    blocks = (np.eye(n, min(_EYE_BLOCK, n - j), -j) for j in range(0, n, _EYE_BLOCK))
    stencil = sp.hstack([sp.csr_matrix(diff(line, b, 0, "zero")) for b in blocks]).tocsr()
    eye = [sp.identity(m) for m in grid.cells]
    return functools.reduce(sp.kron, eye[:axis] + [stencil] + eye[axis + 1 :]).tocsr()


def grad(s: ScalarField, ghost: str = "zero") -> VectorField:
    """Second-order centered gradient respecting the grid's boundary type."""
    g = s.grid
    comps = [_centered_diff(g, s.values, a, ghost) for a in range(g.dim)]
    return VectorField(g, np.stack(comps))


def div(v: VectorField, ghost: str = "zero") -> ScalarField:
    """Second-order centered divergence, the negative adjoint of grad."""
    g = v.grid
    out = np.zeros(g.cells)
    for a in range(g.dim):
        out += _centered_diff(g, v.values[a], a, ghost)
    return ScalarField(g, out)


def laplacian(s: ScalarField, ghost: str = "zero") -> ScalarField:
    """Compact second-order Laplacian (3-point per axis)."""
    g = s.grid
    out = np.zeros(g.cells)
    for a in range(g.dim):
        out += _second_diff(g, s.values, a, ghost)
    return ScalarField(g, out)


def lp_norm(s: ScalarField, p) -> float:
    """(sum |s|^p * cellvolume)^(1/p); max norm for p = inf."""
    if p == math.inf or p == np.inf:
        return float(np.max(np.abs(s.values))) if s.values.size else 0.0
    p = float(p)
    if p < 1.0:
        raise ValueError(f"lp_norm needs p >= 1, got {p}")
    total = float(np.sum(np.abs(s.values) ** p)) * s.grid.cell_volume
    return total ** (1.0 / p)


def integral(s: ScalarField) -> float:
    """Cell-sum integral over the box."""
    return float(np.sum(s.values)) * s.grid.cell_volume


def upwind_divergence(grid: Grid, q: np.ndarray, u: np.ndarray, ghost: str = "zero") -> np.ndarray:
    """Donor-cell divergence of the flux q*u, div_h(q u).

    Face velocities are two-point averages of the cell velocities; the donor
    cell is selected by the face-velocity sign.  On periodic grids the two
    copies of each wrap-around face are computed from identical inputs, so the
    cell sum of the result telescopes to zero exactly and transported mass is
    conserved to roundoff.

    Parameters
    ----------
    q : ndarray, shape grid.cells + channels
        Transported quantity; trailing axes are independent channels sharing
        the same donor pattern (used for harmonic coefficients and momentum).
    u : ndarray, shape (dim,) + grid.cells
        Advecting velocity.
    ghost : str
        Ghost policy for q on Dirichlet grids ("zero" or "edge"); the
        velocity ghost is always the boundary value u = 0.
    """
    dim = grid.dim
    n_extra = q.ndim - dim
    if q.shape[:dim] != grid.cells or n_extra < 0:
        raise ValueError(f"transported array shaped {q.shape} does not match grid {grid.cells}")
    out = np.zeros_like(q, dtype=float)
    for a in range(dim):
        up = _pad_axis(grid, u[a], a, "zero")
        qp = _pad_axis(grid, q, a, ghost)
        uf = 0.5 * (up[:-1] + up[1:])  # one face per interior cell pair, ends included
        uf = uf.reshape(uf.shape + (1,) * n_extra)
        flux = np.maximum(uf, 0.0) * qp[:-1] + np.minimum(uf, 0.0) * qp[1:]
        out += ((flux[1:] - flux[:-1]) / grid.h[a]).swapaxes(0, a)
    return out
