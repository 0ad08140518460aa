"""Uniform rectangular grids, cell-centered fields, and discrete calculus.

Physical space is a periodic or Dirichlet box in one or two dimensions,
discretized with uniform cell-centered volumes.  The operators take a grid
and arrays and return an array (`div` and `upwind_divergence` take the
velocity field whose cached derivatives they read); fields hold only a
state's unknowns.  Gradient,
divergence, and Laplacian use second-order centered stencils; on periodic grids grad and div
are exact negative adjoints under the cell-sum inner product.  The one
derivative of a velocity is `velocity_gradient`, computed once per field and
kept on it, read-only; `div` is its trace, so the sphere drift, the step
bound, the energy ledger and the incompressibility defect all read one
discrete grad u.  The donor-cell upwind divergence that every transport
equation shares also lives here, so density, number density, momentum, and
harmonic coefficient channels are all advected with one flux definition; its
donor pattern, the signed parts of the face velocities, is likewise built
once per velocity field and kept on it (`_donor_faces`).

Every stencil reads its neighbours through one ghost gather, `_pad_axis`: a
single gather along one axis through an index cached per (axis length,
periodic or not), which attaches one ghost cell at each end and returns the
array with that axis in front, so a stencil is a difference of slices.  That
index and the sine table of `heat_step` (cached per line length) are shared
read-only.  The stencils act on cells-first arrays, shaped grid.cells plus
any trailing channels that share one stencil.  The implicit viscous operator
of `hydro` applies these same stencils matrix-free, as shifted slices of a
buffer that carries a ghost frame on every cell axis at once; `_fill_ghosts`
fills that frame by the same rule.

On periodic grids the ghost is the wrapped-around cell.  On Dirichlet grids
it is s times the adjacent cell, s the quantity's sign in `WALL_GHOST`, the
one place that declares it.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

PERIODIC = "periodic"
DIRICHLET = "dirichlet"
#: The Dirichlet ghost of each quantity a stencil names, as a sign s: the
#: ghost is s times the adjacent cell (0: the value 0; 1: zero normal
#: gradient; -1: the value 0 on the wall face).  The viscous operator is
#: symmetric when the "bulk stress" sign is minus the "velocity" one.
WALL_GHOST = {
    "velocity": 0.0,  # u and the momentum rho u
    "rods": 0.0,  # f, its nodal values and eta
    "stress": 0.0,
    "bulk stress": 0.0,  # w div u of the implicit solve and its coefficient w
    "density": 1.0,
    "pressure": 1.0,
}
#: relative slack of the explicit stability bounds, so a step at the bound passes
_CFL_SLACK = 1.0 + 1e-12


def as_integer(value) -> int:
    """`value` as a Python int, by the package's one integer rule: an integer
    is whatever `operator.index` accepts (Python and numpy integers), except
    a bool.  Anything else raises TypeError: a float is never truncated, nor
    a string parsed."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a bool, not an integer")
    return operator.index(value)


def as_real(value) -> float:
    """`value` as a Python float, by the package's one real-number rule: any
    `numbers.Real` (Python and numpy ints and floats) except a bool.  Anything
    else raises TypeError: a string is never parsed."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{value!r} is not a real number")
    return float(value)


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on a rectangular box.

    Parameters
    ----------
    cells : tuple of int
        Cell count per axis, integers by `as_integer`; at least 4 per axis,
        1 or 2 axes.
    lengths : tuple of float
        Box extent per axis, real numbers by `as_real`, positive and finite.
    bc : str
        ``"periodic"`` or ``"dirichlet"``.
    """

    cells: tuple
    lengths: tuple
    bc: str = PERIODIC

    def __post_init__(self):
        try:
            cells = tuple(map(as_integer, _axes(self.cells)))
        except TypeError:
            raise ValueError(f"cell counts must be integers, got {self.cells!r}") from None
        try:
            lengths = tuple(map(as_real, _axes(self.lengths)))
        except TypeError:
            raise ValueError(f"box lengths must be real numbers, got {self.lengths!r}") from None
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "lengths", lengths)
        if len(cells) not in (1, 2):
            raise ValueError(f"grid dimension must be 1 or 2, got {len(cells)}")
        if len(lengths) != len(cells):
            raise ValueError("cells and lengths must have matching axis counts")
        if any(n < 4 for n in cells):
            raise ValueError(f"need at least 4 cells per axis, got {cells}")
        if not all(0.0 < x < math.inf for x in lengths):  # rejects NaN too
            raise ValueError(f"box lengths must be positive and finite, got {lengths}")
        if self.bc not in (PERIODIC, DIRICHLET):
            raise ValueError(f"unknown boundary condition {self.bc!r}")

    @functools.cached_property
    def dim(self) -> int:
        return len(self.cells)

    @functools.cached_property
    def h(self) -> tuple:
        return tuple(x / n for x, n in zip(self.lengths, self.cells))

    @functools.cached_property
    def cell_volume(self) -> float:
        return math.prod(self.h)

    @functools.cached_property
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


def _axes(value) -> tuple:
    """The per-axis entries of `value`: its items, or `value` itself if a scalar."""
    return tuple(value) if np.ndim(value) else (value,)


def _check_values(values: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{what} shaped {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
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


@functools.lru_cache(maxsize=None)
def _ghost_index(n: int, periodic: bool) -> np.ndarray:
    """Gather index of an n-cell line with one ghost cell at each end: the
    wrapped-around cell on a periodic line, the end cell itself otherwise."""
    idx = np.arange(-1, n + 1)
    idx = idx % n if periodic else np.clip(idx, 0, n - 1)
    idx.flags.writeable = False
    return idx


@functools.lru_cache(maxsize=None)
def _sin2_table(n: int) -> np.ndarray:
    """sin^2(pi k / n), k = 0..n // 2: the rfft symbol of `heat_step` over -4 / h^2."""
    table = np.sin(np.pi * np.arange(n // 2 + 1) / n) ** 2
    table.flags.writeable = False
    return table


def _pad_axis(grid: Grid, arr: np.ndarray, axis: int, quantity: str) -> np.ndarray:
    """`arr` with one ghost cell on each side of `axis`, that axis moved to the front.

    The ghost gather of every stencil on a cells-first array (`_fill_ghosts`
    frames a buffer by the same rule): a gather through the cached
    `_ghost_index` (the wrapped-around cell, or the end cell on a Dirichlet
    grid, where the `WALL_GHOST` sign of `quantity` then scales both ghost
    slabs).  Callers slice the front axis (`p[2:]`, `p[:-2]`) and swap it
    back.
    """
    sign = WALL_GHOST.get(quantity)
    if sign is None:
        raise ValueError(f"unknown quantity {quantity!r}")
    periodic = grid.bc == PERIODIC
    p = arr.take(_ghost_index(arr.shape[axis], periodic), axis=axis).swapaxes(0, axis)
    if sign != 1.0 and not periodic:  # both ghost slabs, as one strided view; a zero sign is a fill
        p[:: p.shape[0] - 1] = sign * p[:: p.shape[0] - 1] if sign else 0.0
    return p


@functools.lru_cache(maxsize=None)
def _frame_slabs(shape: tuple, dim: int) -> tuple:
    """Per framed axis (the last dim of `shape`): the index of its two ghost
    slabs, of the cells next to them, and of those cells reversed, each a
    strided view."""
    pairs = [(slice(0, None, n - 1), slice(1, -1, n - 3), slice(-2, 0, 3 - n)) for n in shape[-dim:]]
    return tuple(tuple((slice(None),) * a + (k,) for k in axis) for a, axis in enumerate(pairs, len(shape) - dim))


def _fill_ghosts(grid: Grid, p: np.ndarray, quantity: str) -> None:
    """Fill, in place, the ghost frame of `p` from its interior cells.

    `p` holds one cell array with one ghost cell at each end of every cell
    axis: its last grid.dim axes are the cell counts plus 2, after any
    leading component axes.  The ghosts are those of `_pad_axis`: the
    wrapped-around cell on a periodic grid, the end cell times the
    `WALL_GHOST` sign of `quantity` on a Dirichlet one.  Corner ghosts are
    left as they are: a stencil along one axis never reads them.
    """
    sign = WALL_GHOST.get(quantity)
    if sign is None:
        raise ValueError(f"unknown quantity {quantity!r}")
    for ghosts, cells, wrapped in _frame_slabs(p.shape, grid.dim):
        if grid.bc == PERIODIC:
            p[ghosts] = p[wrapped]
        else:  # a zero sign is a fill, cheaper than the product
            p[ghosts] = sign * p[cells] if sign else 0.0


def _ghost_frame(grid: Grid, lead: tuple = ()) -> tuple:
    """(p, cells, shifted): a zero array p shaped lead + (n_a + 2 per cell
    axis), whose frame `_fill_ghosts` fills, and views of it: `cells` its
    cells, shifted[a] = (up, down) their neighbours one cell up and one down
    along axis a."""
    p = np.zeros(lead + tuple(n + 2 for n in grid.cells))
    inner = (slice(1, -1),) * grid.dim
    shifted = tuple(
        tuple(p[(...,) + inner[:a] + (step,) + inner[a + 1 :]] for step in (slice(2, None), slice(None, -2)))
        for a in range(grid.dim)
    )
    return p, p[(...,) + inner], shifted


def _centered_diff(grid: Grid, arr: np.ndarray, axis: int, quantity: str) -> np.ndarray:
    """Centered difference along `axis` of `arr`, shaped grid.cells + channels."""
    p = _pad_axis(grid, arr, axis, quantity)
    return ((p[2:] - p[:-2]) / (2.0 * grid.h[axis])).swapaxes(0, axis)


def _second_diff(grid: Grid, arr: np.ndarray, axis: int, quantity: str) -> np.ndarray:
    """3-point second difference along `axis` of `arr`, shaped grid.cells + channels."""
    h = grid.h[axis]
    p = _pad_axis(grid, arr, axis, quantity)
    d = np.multiply(p[1:-1], 2.0)
    np.subtract(p[2:], d, out=d)  # (p[2:] - 2 p[1:-1] + p[:-2]) / h^2 with one temporary
    d += p[:-2]
    d /= h * h
    return d.swapaxes(0, axis)


def velocity_gradient(u: VectorField) -> np.ndarray:
    """d u_i / d x_j for i, j < dim, shaped grid.cells + (dim, dim).

    Centered differences of the velocity, computed once per field and kept
    on it, read-only: the sphere drift of `kinetics.fp_rhs`, the drift bound
    of `hydro.cfl_dt`, the energy ledger and `div` share it.  A field whose
    array is edited in place after the first call keeps its old gradient.
    """
    out = vars(u).get("_gradient")
    if out is None:
        g = u.grid
        uc = u.values.transpose(tuple(range(1, g.dim + 1)) + (0,))  # components as trailing channels
        out = np.empty(g.cells + (g.dim, g.dim))
        for j in range(g.dim):
            out[..., j] = _centered_diff(g, uc, j, "velocity")
        out.flags.writeable = False
        object.__setattr__(u, "_gradient", out)
    return out


def _split_faces(u: VectorField) -> tuple:
    """Per axis a, the positive and negative parts of u_a on the faces normal to a.

    The face values are two-point averages of the cells on either side, the
    end faces taking the "velocity" ghost; each part is shaped like the cells
    with axis a in front and one face more along it, and is read-only.
    """
    g = u.grid
    faces = []
    for a in range(g.dim):
        up = _pad_axis(g, u.values[a], a, "velocity")
        uf = up[:-1] + up[1:]  # one face per interior cell pair, ends included
        uf *= 0.5
        wp = np.maximum(uf, 0.0)
        wm = np.minimum(uf, 0.0, out=uf)
        wp.flags.writeable = wm.flags.writeable = False
        faces.append((wp, wm))
    return tuple(faces)


def _donor_faces(u: VectorField) -> tuple:
    """The `_split_faces` of `u`, computed once per field and kept on it.

    Every donor flux of one velocity (the density, f and momentum of a step)
    reads this one pattern, as the derivatives of u read `velocity_gradient`;
    a field whose array is edited in place after the first call keeps its
    old faces.
    """
    faces = vars(u).get("_faces")
    if faces is None:
        faces = _split_faces(u)
        object.__setattr__(u, "_faces", faces)
    return faces


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
    replaces it, one explicit Euler step q + t laplacian(grid, q, "rods"),
    stable only under the diffusive bound t sum_a 2 / h_a^2 <= 1.  Under it
    the update is a convex combination of neighbouring cells (so
    nonnegativity holds); beyond it NumericalError is raised.
    """
    if grid.bc != PERIODIC:
        if t * sum(2.0 / h**2 for h in grid.h) > _CFL_SLACK:
            raise NumericalError(f"explicit diffusion unstable for t={t:.3e}")
        return q + t * laplacian(grid, q, "rods")
    out = q
    for a in range(grid.dim):
        n, h = grid.cells[a], grid.h[a]
        z = (-4.0 * t / (h * h)) * _sin2_table(n)
        phi1 = np.divide(np.expm1(z), z, out=np.ones_like(z), where=z != 0.0)
        # Lap_h annihilates the k = 0 line mean, so its phi1 = 1 is dropped:
        # carried along, its FFT roundoff would be amplified by t Lap_h
        phi1[0] = 0.0
        phi1 = phi1.reshape((-1,) + (1,) * (q.ndim - a - 1))
        smoothed = np.fft.irfft(np.fft.rfft(out, axis=a) * phi1, n=n, axis=a)
        out = out + t * _second_diff(grid, smoothed, a, "rods")
    return out


def grad(grid: Grid, q: np.ndarray, quantity: str) -> np.ndarray:
    """Second-order centered gradient of the quantity `q`, shaped (dim,) + grid.cells."""
    out = np.empty((grid.dim,) + grid.cells)
    for a in range(grid.dim):
        out[a] = _centered_diff(grid, q, a, quantity)
    return out


def div(v: VectorField) -> np.ndarray:
    """Centered divergence of a velocity, the negative adjoint of grad: the
    trace of its cached `velocity_gradient`, so the array of `v` must not be
    changed in place after the call."""
    return np.trace(velocity_gradient(v), axis1=-2, axis2=-1)


def laplacian(grid: Grid, q: np.ndarray, quantity: str) -> np.ndarray:
    """Compact second-order Laplacian (3-point per axis) of the quantity `q`,
    shaped grid.cells plus any trailing channels, each its own Laplacian."""
    out = np.zeros(q.shape)
    for a in range(grid.dim):
        out += _second_diff(grid, q, a, quantity)
    return out


def lp_norm(grid: Grid, q: np.ndarray, p) -> float:
    """(sum |q|^p * cellvolume)^(1/p); max norm for p = inf."""
    if p == math.inf:
        return float(np.max(np.abs(q)))
    p = float(p)
    if p < 1.0:
        raise ValueError(f"lp_norm needs p >= 1, got {p}")
    total = float(np.sum(np.abs(q) ** p)) * grid.cell_volume
    return total ** (1.0 / p)


def integral(s: ScalarField) -> float:
    """Cell-sum integral over the box."""
    return float(np.sum(s.values)) * s.grid.cell_volume


def upwind_divergence(q: np.ndarray, u: VectorField, quantity: str) -> np.ndarray:
    """Donor-cell divergence of the flux q*u, div_h(q u).

    Face velocities are two-point averages of the cell velocities; the donor
    cell is selected by the face-velocity sign.  Both come from the
    `_donor_faces` of `u`, cached on the field, so the array of `u` must not
    be changed in place after the call.  On periodic grids the two
    copies of each wrap-around face are computed from identical inputs, so the
    cell sum of the result telescopes to zero exactly and transported mass is
    conserved to roundoff.

    Parameters
    ----------
    q : ndarray, shape u.grid.cells + channels
        Transported quantity; trailing axes are independent channels sharing
        the same donor pattern (used for harmonic coefficients and momentum).
    u : VectorField
        Advecting velocity.
    quantity : str
        The `WALL_GHOST` entry of q; u reads the "velocity" entry.
    """
    grid = u.grid
    dim = grid.dim
    n_extra = q.ndim - dim
    if q.shape[:dim] != grid.cells or n_extra < 0:
        raise ValueError(f"transported array shaped {q.shape} does not match grid {grid.cells}")
    channels = (1,) * n_extra
    out = np.zeros(q.shape)
    for a, (wp, wm) in enumerate(_donor_faces(u)):
        # qp is this call's own padded copy: once flux has read its donors on
        # the left, it takes the right donor terms and then the differences
        qp = _pad_axis(grid, q, a, quantity)
        flux = wp.reshape(wp.shape + channels) * qp[:-1]
        right = np.multiply(wm.reshape(wm.shape + channels), qp[1:], out=qp[1:])
        flux += right
        d = np.subtract(flux[1:], flux[:-1], out=qp[1:-1])
        del flux
        d /= grid.h[a]
        out += d.swapaxes(0, a)
    return out
