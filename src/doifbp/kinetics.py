"""Orientation kinetics: the Fokker-Planck right-hand side and moment maps.

The orientation distribution f(x, tau) evolves by physical-space advection,
shear-induced drift on the sphere, rotational diffusion, and translational
diffusion.  Only the first two are a right-hand side here (`fp_rhs`, a
coefficient array); the integrator applies both diffusions as split
substeps.  The drift velocity is the tangential projection of the
macroscopic shear acting on a rod axis,

    P_perp(g tau) = g tau - (tau . g tau) tau,

and its sphere divergence is applied weakly in the harmonic basis: the
coefficient update contracts the per-cell velocity gradient (`grid`'s
`velocity_gradient`, whose trace is `grid.div`) against the Galerkin matrices
of the basis, which conserves per-cell sphere mass identically (the
constant-harmonic row is zero).  The coefficients are
those of the even-degree basis of `sphere`: rods are head-tail symmetric,
advection and the diffusions act degree by degree, and the drift maps degree
l only into l and l +- 2, so no operator here creates an odd degree.

Moment maps extract the number density eta = int f dtau, the second-moment
stress int (3 tau tau^T - I) f dtau, and the entropy density int f ln f dtau
with its two Fisher-information dissipation integrals.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import ScalarField, VectorField, _pad_axis, upwind_divergence, velocity_gradient
from .sphere import OrientationField

SQRT_4PI = math.sqrt(4.0 * math.pi)


def _drift_coefficients(basis, g_values: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Weak-form coefficients of -div_tau(P_perp(g tau) f) per cell.

    `g_values` is the leading k x k block of the per-cell velocity gradient,
    cells + (k, k); the slots outside it are zero and are not contracted.
    """
    cells = coeffs.shape[:-1]
    nq = coeffs.shape[-1]
    k = g_values.shape[-1]
    c = coeffs.reshape(-1, nq)
    g = g_values.reshape(-1, k * k)
    d = basis.drift_mats[:k, :k].reshape(k * k, nq, nq)
    # t[x, n, p] = sum_q D[x, p, q] c[n, q], batched over the k^2 gradient slots
    t = np.matmul(c, d.transpose(0, 2, 1))
    out = np.einsum("nx,xnp->np", g, t)
    return out.reshape(cells + (nq,))


def fp_rhs(f: OrientationField, u: VectorField) -> np.ndarray:
    """The explicit part of the Fokker-Planck right-hand side.

    Returns -div_x(f u) - div_tau(P_perp(grad u tau) f), physical transport
    plus sphere drift, as coefficients shaped like `f.coeffs`: a rate, not a
    distribution, so it is no `OrientationField`.  The integrator applies the
    translational and rotational diffusions as split substeps.  Physical-space
    advection uses the same donor-cell flux as the scalar transport step,
    applied to every harmonic channel with one donor pattern, so the
    number-density moment of this right-hand side is exactly the donor-cell
    advection of eta (the drift row of the constant harmonic is zero).
    """
    if f.grid != u.grid:
        raise ValueError("orientation field and velocity live on different grids")
    # the drift's wide intermediate is freed before the donor flux is built
    drift = _drift_coefficients(f.basis, velocity_gradient(u), f.coeffs)
    drift -= upwind_divergence(f.coeffs, u, "rods")
    return drift


def eta_moment(f: OrientationField) -> ScalarField:
    """Number density int f dtau = sqrt(4 pi) x the constant-harmonic coefficient."""
    return ScalarField(f.grid, SQRT_4PI * f.coeffs[..., 0])


def stress_moment(f: OrientationField) -> np.ndarray:
    """Second-moment stress int (3 tau tau^T - I) f dtau, shape cells + (3, 3).

    Exact quadrature for band-limited f; symmetric by construction, trace-free
    because 3|tau|^2 - 3 vanishes at every node, and only harmonic degrees
    l in {0, 2} contribute (the l = 0 part cancels identically).
    """
    q = f.basis.n_coeff
    return (f.coeffs.reshape(-1, q) @ f.basis.stress_map.reshape(q, 9)).reshape(f.grid.cells + (3, 3))


def _centered_sq(p: np.ndarray, h: float) -> float:
    """sum |p[i+1] - p[i-1]|^2 / (2 h)^2 over the inner rows i of p's front axis."""
    diff = (p[2:] - p[:-2]).ravel("K")  # a view: no copy for a swapped axis
    return float(np.vdot(diff, diff)) / (2.0 * h) ** 2


def entropy_and_fisher(f: OrientationField) -> tuple:
    """Entropy density and the two Fisher-information integrals.

    Returns (psi, fisher_tau, fisher_x) with psi the per-cell nodal quadrature
    of f ln f (0 ln 0 = 0; nodal values in [-EPS_POS, 0) are clamped to 0,
    `f.slabs` rejects any below), fisher_tau = int int |grad_tau
    sqrt(f)|^2 from the spectral gradient energy of the projected square-root
    field, and fisher_x = int int |grad_x sqrt(f)|^2 by nodal quadrature of
    centered spatial differences.

    All three read f on the hemisphere rule of the basis, one node of each
    antipodal pair with twice its weight: f, and so every function of it,
    takes one value on each pair.  They read it slab by slab through
    `f.slabs()`, which also checks positivity.  Each slab's nodal array is
    worked on in place: clamped, then read for f ln f, then replaced by
    sqrt(f), then scaled by the square roots of the hemisphere weights, so
    that fisher_x is a plain sum of squares, sum_a |D_a(sqrt(w f))|^2 /
    (2 h_a)^2, of the undivided centered differences D_a of that array:
    along the axes a >= 1 through the `"rods"` ghost of `_pad_axis`; along
    axis 0 inside a slab, across a slab edge against the two rows carried
    from before, and at the grid's ends through the ghost of its four end
    rows.
    """
    g = f.grid
    basis = f.basis
    psi = np.empty(g.cells)
    fisher_tau = fisher_x = 0.0
    head = carry = np.empty((0,) + g.cells[1:] + basis.hemi_weights.shape)  # the first and the last two rows
    for start, nodal in f.slabs():
        np.maximum(nodal, 0.0, out=nodal)
        plogp = np.log(nodal, out=np.zeros_like(nodal), where=nodal > 0.0)
        plogp *= nodal
        np.matmul(plogp, basis.hemi_weights, out=psi[start : start + nodal.shape[0]])
        del plogp

        np.sqrt(nodal, out=nodal)
        s_coeffs = (nodal * basis.hemi_weights) @ basis.hemi_y
        fisher_tau += float(np.sum((-basis.lap_eig) * s_coeffs**2))

        nodal *= np.sqrt(basis.hemi_weights)
        fisher_x += _centered_sq(nodal, g.h[0]) + _centered_sq(np.concatenate((carry, nodal[:2])), g.h[0])
        for a in range(1, g.dim):
            fisher_x += _centered_sq(_pad_axis(g, nodal, a, "rods"), g.h[a])
        if len(head) < 2:
            head = np.concatenate((head, nodal[: 2 - len(head)]))
        carry = np.concatenate((carry, nodal[-2:]))[-2:]
    ends = _pad_axis(g, np.concatenate((head, carry)), 0, "rods")  # ghost, rows 0, 1, N-2, N-1, ghost
    fisher_x += _centered_sq(ends[[0, 3, 2, 5]], g.h[0])  # rows 1 - ghost and ghost - (N-2)
    return ScalarField(g, psi), g.cell_volume * fisher_tau, g.cell_volume * fisher_x
