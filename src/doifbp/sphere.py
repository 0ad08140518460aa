"""Real spherical harmonics on the unit sphere with product quadrature.

The orientation space is discretized by a truncated real spherical-harmonic
expansion of degree L together with a Gauss-Legendre (in cos theta) x uniform
(in phi) product quadrature.  With L+1 Gauss nodes and 2L+2 azimuths the rule
integrates every spherical harmonic up to degree 2L+1 exactly, which makes the
forward/inverse transform an exact identity on band-limited data and the low
moments (number density, second-moment stress) exact quadratures.

Beyond the transform the basis carries:

* tangential gradients of every basis function at the quadrature nodes,
* the weak (Galerkin) drift matrices D[a,b] with entries
  int tau_b (grad_tau Y_p)_a Y_q dtau, assembled once on a finer internal
  quadrature so each entry is an exact integral.  The drift term of the
  orientation kinetics contracts the per-cell velocity gradient against these
  matrices; the row belonging to the constant harmonic is identically zero,
  so the sphere drift conserves per-cell sphere mass by construction.
* the linear map from coefficients to the second-moment stress
  int (3 tau tau^T - I) f dtau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, lpmv

from .grid import Grid, _check_values

#: absolute tolerance for nodal negativity of orientation distributions
EPS_POS = 1e-10


def _gauss_product_nodes(n_theta: int, n_phi: int):
    """Gauss-Legendre x uniform-phi product rule; weights sum to 4 pi."""
    x, w_gl = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    tt = np.repeat(theta, n_phi)
    pp = np.tile(phi, n_theta)
    weights = np.repeat(w_gl, n_phi) * (2.0 * np.pi / n_phi)
    st, ct = np.sin(tt), np.cos(tt)
    nodes = np.stack([st * np.cos(pp), st * np.sin(pp), ct], axis=1)
    return tt, pp, nodes, weights


def _harmonic_tables(L: int, theta: np.ndarray, phi: np.ndarray):
    """Values and tangential gradients of the real orthonormal harmonics.

    Returns
    -------
    y : ndarray, shape (K, (L+1)^2)
    grad_y : ndarray, shape (K, (L+1)^2, 3)
        Cartesian components of the surface gradient at each node.
    l_index : ndarray of int
    """
    K = theta.size
    Q = (L + 1) ** 2
    mu = np.cos(theta)
    s = np.sin(theta)  # Gauss nodes exclude the poles, so s > 0
    y = np.zeros((K, Q))
    d_theta = np.zeros((K, Q))  # dY/dtheta
    d_phi_over_s = np.zeros((K, Q))  # (1/sin theta) dY/dphi
    l_index = np.zeros(Q, dtype=int)

    for l in range(L + 1):
        for m in range(l + 1):
            p = lpmv(m, l, mu)
            p_dn = lpmv(m, l - 1, mu) if l >= 1 else np.zeros_like(mu)
            if m > l - 1:
                p_dn = np.zeros_like(mu)
            # (1-x^2) dP/dx = (l+m) P_{l-1}^m - l x P_l^m
            dp_dtheta = (l * mu * p - (l + m) * p_dn) / s
            norm = math.sqrt((2 * l + 1) / (4.0 * np.pi)) * math.exp(
                0.5 * (gammaln(l - m + 1) - gammaln(l + m + 1))
            )
            if m == 0:
                q = l * l + l
                y[:, q] = norm * p
                d_theta[:, q] = norm * dp_dtheta
                l_index[q] = l
            else:
                c = math.sqrt(2.0) * norm
                cos_m, sin_m = np.cos(m * phi), np.sin(m * phi)
                q_pos = l * l + l + m
                q_neg = l * l + l - m
                y[:, q_pos] = c * p * cos_m
                y[:, q_neg] = c * p * sin_m
                d_theta[:, q_pos] = c * dp_dtheta * cos_m
                d_theta[:, q_neg] = c * dp_dtheta * sin_m
                d_phi_over_s[:, q_pos] = -c * p * m * sin_m / s
                d_phi_over_s[:, q_neg] = c * p * m * cos_m / s
                l_index[q_pos] = l_index[q_neg] = l

    st, ct = np.sin(theta), np.cos(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    e_theta = np.stack([ct * cp, ct * sp, -st], axis=1)
    e_phi = np.stack([-sp, cp, np.zeros_like(sp)], axis=1)
    grad_y = d_theta[:, :, None] * e_theta[:, None, :] + d_phi_over_s[:, :, None] * e_phi[:, None, :]
    return y, grad_y, l_index


@dataclass(frozen=True)
class SphereBasis:
    """Truncated real spherical-harmonic basis with its quadrature."""

    degree: int
    nodes: np.ndarray      # (K, 3) unit vectors
    weights: np.ndarray    # (K,) positive, sum 4 pi
    y: np.ndarray          # (K, Q) basis values at nodes
    grad_y: np.ndarray     # (K, Q, 3) tangential gradients at nodes
    lap_eig: np.ndarray    # (Q,) Laplace-Beltrami eigenvalues -l(l+1)
    l_index: np.ndarray    # (Q,)
    drift_mats: np.ndarray  # (3, 3, Q, Q) weak drift matrices
    stress_map: np.ndarray  # (Q, 3, 3) coefficients -> second-moment stress

    @property
    def n_coeff(self) -> int:
        return self.y.shape[1]

    @property
    def n_nodes(self) -> int:
        return self.y.shape[0]

    def synth(self, coeffs: np.ndarray) -> np.ndarray:
        """Evaluate a coefficient array (..., Q) at the nodes, (..., K)."""
        return coeffs @ self.y.T

    def analyze(self, nodal: np.ndarray) -> np.ndarray:
        """Project nodal values (..., K) onto the basis, (..., Q).

        Exact inverse of `synth` for band-limited data.
        """
        return (nodal * self.weights) @ self.y


def make_sphere_basis(L: int) -> SphereBasis:
    """Build the degree-L basis, its quadrature, and the kinetic operators.

    The runtime quadrature uses L+1 Gauss nodes x 2L+2 azimuths (exact through
    degree 2L+1).  The drift matrices involve integrands of degree up to
    2L+2, so they are assembled on a finer internal rule and are exact.
    """
    L = int(L)
    if L < 2:
        raise ValueError(f"sphere basis degree must be at least 2, got {L}")
    theta, phi, nodes, weights = _gauss_product_nodes(L + 1, 2 * L + 2)
    y, grad_y, l_index = _harmonic_tables(L, theta, phi)
    lap_eig = -(l_index * (l_index + 1)).astype(float)

    # assembly quadrature exact through degree 2L+3 >= deg(tau_b dY_p Y_q)
    th_f, ph_f, nodes_f, w_f = _gauss_product_nodes(L + 3, 2 * L + 6)
    y_f, gy_f, _ = _harmonic_tables(L, th_f, ph_f)
    # C order, so each (a, b) slot is a contiguous Q x Q matrix for the drift contraction
    drift_mats = np.ascontiguousarray(
        np.einsum("k,kb,kpa,kq->abpq", w_f, nodes_f, gy_f, y_f, optimize=True)
    )

    outer = 3.0 * nodes[:, :, None] * nodes[:, None, :] - np.eye(3)
    stress_map = np.einsum("k,kij,kq->qij", weights, outer, y, optimize=True)

    return SphereBasis(
        degree=L,
        nodes=nodes,
        weights=weights,
        y=y,
        grad_y=grad_y,
        lap_eig=lap_eig,
        l_index=l_index,
        drift_mats=drift_mats,
        stress_map=stress_map,
    )


@dataclass(frozen=True)
class OrientationField:
    """Per-cell harmonic coefficient vector of the orientation distribution.

    Also used as the container for time derivatives of such fields, for which
    the nodal-positivity invariant is not meaningful; positivity is enforced
    where it matters (state construction, entropy evaluation) through
    `check_positive`.
    """

    grid: Grid
    basis: SphereBasis
    coeffs: np.ndarray  # shape grid.cells + (Q,)

    def __post_init__(self):
        shape = self.grid.cells + (self.basis.n_coeff,)
        arr = _check_values(self.coeffs, shape, "orientation coefficients")
        object.__setattr__(self, "coeffs", arr)

    def nodal_values(self) -> np.ndarray:
        """Distribution values at the quadrature nodes, shape cells + (K,)."""
        return self.basis.synth(self.coeffs)

    def min_nodal(self) -> float:
        return float(np.min(self.nodal_values()))

    def check_positive(self, eps: float = EPS_POS) -> None:
        worst = self.min_nodal()
        if worst < -eps:
            raise ValueError(
                f"orientation distribution dips to {worst:.3e} at a quadrature node, below -{eps:.1e}"
            )


def uniform_orientation(grid: Grid, basis: SphereBasis, density: float) -> OrientationField:
    """Isotropic distribution f = density / (4 pi), uniform in space."""
    coeffs = np.zeros(grid.cells + (basis.n_coeff,))
    coeffs[..., 0] = density / math.sqrt(4.0 * np.pi)
    return OrientationField(grid, basis, coeffs)


def sphere_laplacian(f: OrientationField) -> OrientationField:
    """Laplace-Beltrami operator: coefficient (l, m) scaled by -l(l+1)."""
    return OrientationField(f.grid, f.basis, f.coeffs * f.basis.lap_eig)
