"""Real spherical harmonics of even degree on the unit sphere, with product quadrature.

The orientation space is discretized by a truncated real spherical-harmonic
expansion together with a Gauss-Legendre (in cos theta) x uniform (in phi)
product quadrature.  A rod is the same object as its reversal, so the
distribution satisfies f(tau) = f(-tau) and only even harmonic degrees can
carry content (Doi & Edwards, The Theory of Polymer Dynamics, 1986, section
8).  Every operator of the model preserves that parity: advection and both
diffusions act degree by degree, and the sphere drift couples degree l only
to l and l +- 2.  The basis of degree L therefore holds the even degrees
0, 2, ..., 2 floor(L/2) and nothing else, (J+1)(2J+1) modes with
J = floor(L/2); an odd L adds no mode over L-1.  Coefficients run degree by
degree, m = -l..l within a degree, so the flat index of (l, m) is
l(l-1)/2 + l + m and index 0 is the constant harmonic.

With L+1 Gauss nodes and 2L+2 azimuths the rule integrates every spherical
harmonic up to degree 2L+1 exactly, which makes the forward/inverse transform
an exact identity on band-limited data and the low moments (number density,
second-moment stress) exact quadratures.

Beyond the transform the basis carries:

* tangential gradients of every basis function at the quadrature nodes,
* the weak (Galerkin) drift matrices D[a,b] with entries
  int tau_b (grad_tau Y_p)_a Y_q dtau, assembled once on a finer internal
  quadrature so each entry is an exact integral.  The drift term of the
  orientation kinetics contracts the per-cell velocity gradient against these
  matrices; the row belonging to the constant harmonic is identically zero,
  so the sphere drift conserves per-cell sphere mass by construction.
* the linear map from coefficients to the second-moment stress
  int (3 tau tau^T - I) f dtau,
* a hemisphere rule.  The node set is symmetric under tau -> -tau: Gauss
  node i pairs with L-i and azimuth j with j+L+1 (mod 2L+2).  An even-degree
  distribution takes one value on each antipodal pair, so keeping one node
  of each pair with twice its weight integrates any function of f (f ln f,
  sqrt f) exactly as the full rule does, on half the nodes.  The positivity
  check and the energy ledger evaluate f there; construction and the
  transform keep the full rule.

Every table of a basis is read-only: one basis is shared by every field of a
run, and the hemisphere tables are copies of rows of the full ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, _check_values

#: absolute tolerance for nodal negativity of orientation distributions
EPS_POS = 1e-10
#: the largest harmonic degree a basis is built for
MAX_DEGREE = 64


def _gauss_legendre(n: int):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule.

    Newton's method on P_n from the recurrence (k+1) P_{k+1} = (2k+1) x P_k
    - k P_{k-1}, started from cos(pi (i + 3/4) / (n + 1/2)); the weights are
    2 / ((1 - x^2) P_n'(x)^2).  Both are symmetrized about x = 0, as the
    rule is.
    """
    x = -np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))

    def legendre_and_derivative(x):
        p_prev, p = np.ones_like(x), x
        for k in range(1, n):
            p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        return p, n * (x * p - p_prev) / (x * x - 1.0)

    for _ in range(100):
        p, dp = legendre_and_derivative(x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-15:
            break
    _, dp = legendre_and_derivative(x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


def _gauss_product_nodes(n_theta: int, n_phi: int):
    """Gauss-Legendre x uniform-phi product rule; weights sum to 4 pi."""
    x, w_gl = _gauss_legendre(n_theta)
    theta = np.arccos(x)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    tt = np.repeat(theta, n_phi)
    pp = np.tile(phi, n_theta)
    weights = np.repeat(w_gl, n_phi) * (2.0 * np.pi / n_phi)
    st, ct = np.sin(tt), np.cos(tt)
    nodes = np.stack([st * np.cos(pp), st * np.sin(pp), ct], axis=1)
    return tt, pp, nodes, weights


def _legendre(lmax: int, mu: np.ndarray, s: np.ndarray) -> np.ndarray:
    """P[l, m] = P_l^m(mu) with the Condon-Shortley phase, zero for m > l;
    s = sqrt(1 - mu^2).  From P_m^m = -(2m - 1) s P_{m-1}^{m-1} and the
    recurrence (l - m) P_l^m = (2l - 1) mu P_{l-1}^m - (l + m - 1) P_{l-2}^m."""
    p = np.zeros((lmax + 1, lmax + 1) + mu.shape)
    p[0, 0] = 1.0
    for m in range(lmax + 1):
        if m:
            p[m, m] = -(2 * m - 1) * s * p[m - 1, m - 1]
        for l in range(m + 1, lmax + 1):  # P_{m-1}^m = 0 (its factor is 0 at m = 0)
            p[l, m] = ((2 * l - 1) * mu * p[l - 1, m] - (l + m - 1) * p[l - 2, m]) / (l - m)
    return p


def _harmonic_tables(degrees, theta: np.ndarray, phi: np.ndarray):
    """Values and tangential gradients of the real orthonormal harmonics.

    Columns run over the sequence `degrees` in its order and, within degree
    l, over m = -l..l: sin(|m| phi) members for m < 0, cos(m phi) members
    for m > 0.

    Returns
    -------
    y : ndarray, shape (K, Q), Q = sum of 2l+1 over `degrees`
    grad_y : ndarray, shape (K, Q, 3)
        Cartesian components of the surface gradient at each node.
    l_index : ndarray of int, shape (Q,)
    """
    K = theta.size
    Q = sum(2 * l + 1 for l in degrees)
    mu = np.cos(theta)
    s = np.sin(theta)  # Gauss nodes exclude the poles, so s > 0
    legendre = _legendre(max(degrees, default=0), mu, s)
    y = np.zeros((K, Q))
    d_theta = np.zeros((K, Q))  # dY/dtheta
    d_phi_over_s = np.zeros((K, Q))  # (1/sin theta) dY/dphi
    l_index = np.zeros(Q, dtype=int)

    start = 0  # flat index of (l, m = -l)
    for l in degrees:
        centre = start + l  # flat index of (l, 0)
        l_index[start : centre + l + 1] = l
        for m in range(l + 1):
            p = legendre[l, m]
            p_dn = legendre[l - 1, m] if l else 0.0  # zero for m = l
            # (1-x^2) dP/dx = (l+m) P_{l-1}^m - l x P_l^m
            dp_dtheta = (l * mu * p - (l + m) * p_dn) / s
            norm = math.sqrt((2 * l + 1) / (4.0 * np.pi)) * math.exp(
                0.5 * (math.lgamma(l - m + 1) - math.lgamma(l + m + 1))
            )
            if m == 0:
                y[:, centre] = norm * p
                d_theta[:, centre] = norm * dp_dtheta
            else:
                c = math.sqrt(2.0) * norm
                cos_m, sin_m = np.cos(m * phi), np.sin(m * phi)
                q_pos = centre + m
                q_neg = centre - m
                y[:, q_pos] = c * p * cos_m
                y[:, q_neg] = c * p * sin_m
                d_theta[:, q_pos] = c * dp_dtheta * cos_m
                d_theta[:, q_neg] = c * dp_dtheta * sin_m
                d_phi_over_s[:, q_pos] = -c * p * m * sin_m / s
                d_phi_over_s[:, q_neg] = c * p * m * cos_m / s
        start += 2 * l + 1

    st, ct = np.sin(theta), np.cos(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    e_theta = np.stack([ct * cp, ct * sp, -st], axis=1)
    e_phi = np.stack([-sp, cp, np.zeros_like(sp)], axis=1)
    grad_y = d_theta[:, :, None] * e_theta[:, None, :] + d_phi_over_s[:, :, None] * e_phi[:, None, :]
    return y, grad_y, l_index


@dataclass(frozen=True)
class SphereBasis:
    """Even-degree real spherical-harmonic basis of degree L with its quadrature."""

    degree: int
    nodes: np.ndarray      # (K, 3) unit vectors
    weights: np.ndarray    # (K,) positive, sum 4 pi
    y: np.ndarray          # (K, Q) basis values at nodes
    grad_y: np.ndarray     # (K, Q, 3) tangential gradients at nodes
    lap_eig: np.ndarray    # (Q,) Laplace-Beltrami eigenvalues -l(l+1)
    l_index: np.ndarray    # (Q,)
    drift_mats: np.ndarray  # (3, 3, Q, Q) weak drift matrices
    stress_map: np.ndarray  # (Q, 3, 3) coefficients -> second-moment stress
    hemi_index: np.ndarray  # (K/2,) node kept of each antipodal pair
    hemi_y: np.ndarray      # (K/2, Q) basis values at the kept nodes
    hemi_weights: np.ndarray  # (K/2,) twice the weights of the kept nodes

    def __post_init__(self):
        for table in vars(self).values():
            if isinstance(table, np.ndarray):
                table.flags.writeable = False  # shared by every field of a run

    @property
    def n_coeff(self) -> int:
        return self.y.shape[1]

    def index(self, l: int, m: int) -> int:
        """Flat coefficient index l(l-1)/2 + l + m of the harmonic (l, m)."""
        if l % 2 or not 0 <= l <= self.degree or abs(m) > l:
            raise ValueError(
                f"no harmonic (l={l}, m={m}) in the degree-{self.degree} basis, which holds "
                f"the even degrees l <= {self.degree} and |m| <= l"
            )
        return l * (l - 1) // 2 + l + m

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

    The basis holds the even degrees 0, 2, ..., 2 floor(L/2).  The runtime
    quadrature uses L+1 Gauss nodes x 2L+2 azimuths (exact through degree
    2L+1) whatever the parity of L.  The drift matrices involve integrands of
    degree up to 2L+2, so they are assembled on a finer internal rule and are
    exact.  The hemisphere rule keeps node k of each antipodal pair
    (k, partner(k)) with k < partner(k).
    """
    L = int(L)
    if not 2 <= L <= MAX_DEGREE:
        raise ValueError(f"sphere basis degree must be at least 2 and at most {MAX_DEGREE}, got {L}")
    degrees = range(0, L + 1, 2)
    theta, phi, nodes, weights = _gauss_product_nodes(L + 1, 2 * L + 2)
    y, grad_y, l_index = _harmonic_tables(degrees, theta, phi)
    lap_eig = -(l_index * (l_index + 1)).astype(float)

    # assembly quadrature exact through degree 2L+3 >= deg(tau_b dY_p Y_q)
    th_f, ph_f, nodes_f, w_f = _gauss_product_nodes(L + 3, 2 * L + 6)
    y_f, gy_f, _ = _harmonic_tables(degrees, th_f, ph_f)
    # C order, so each (a, b) slot is a contiguous Q x Q matrix for the drift contraction
    drift_mats = np.ascontiguousarray(
        np.einsum("k,kb,kpa,kq->abpq", w_f, nodes_f, gy_f, y_f, optimize=True)
    )

    outer = 3.0 * nodes[:, :, None] * nodes[:, None, :] - np.eye(3)
    stress_map = np.einsum("k,kij,kq->qij", weights, outer, y, optimize=True)

    # node (i, j) sits at flat index i (2L+2) + j; its antipode is (L-i, j+L+1)
    n_phi = 2 * L + 2
    k = np.arange(nodes.shape[0])
    i, j = np.divmod(k, n_phi)
    partner = (L - i) * n_phi + (j + L + 1) % n_phi
    hemi_index = np.flatnonzero(k < partner)

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
        hemi_index=hemi_index,
        hemi_y=y[hemi_index],
        hemi_weights=2.0 * weights[hemi_index],
    )


@dataclass(frozen=True)
class OrientationField:
    """Per-cell harmonic coefficient vector of an orientation distribution.

    Only ever a distribution: a rate of one, such as `kinetics.fp_rhs`, is a
    plain coefficient array.  Nodal positivity is checked where it matters
    (each step's new f, snapshots, the entropy) through `check_positive`.
    """

    grid: Grid
    basis: SphereBasis
    coeffs: np.ndarray  # shape grid.cells + (Q,)

    def __post_init__(self):
        shape = self.grid.cells + (self.basis.n_coeff,)
        arr = _check_values(self.coeffs, shape, "orientation coefficients")
        object.__setattr__(self, "coeffs", arr)

    def nodal_values(self) -> np.ndarray:
        """Distribution values at the hemisphere nodes, shape cells + (K/2,).

        The antipode of each node carries the same value (to roundoff), so
        these are all the values f takes on the quadrature nodes;
        `basis.hemi_weights` integrates them.
        """
        return self.coeffs @ self.basis.hemi_y.T

    def min_nodal(self) -> float:
        return float(np.min(self.nodal_values()))

    def check_positive(self) -> np.ndarray:
        """The nodal values; ValueError if f dips below -EPS_POS at a quadrature node."""
        nodal = self.nodal_values()
        worst = float(nodal.min())
        if worst < -EPS_POS:
            *cell, k = np.unravel_index(np.argmin(nodal), nodal.shape)
            tau = self.basis.nodes[self.basis.hemi_index[k]]
            raise ValueError(
                f"orientation distribution dips to {worst:.3e} at a quadrature node, below "
                f"-{EPS_POS:.1e}: cell {tuple(int(c) for c in cell)}, "
                f"tau = +-({tau[0]:.3f}, {tau[1]:.3f}, {tau[2]:.3f})"
            )
        return nodal


def uniform_orientation(grid: Grid, basis: SphereBasis, density: float) -> OrientationField:
    """Isotropic distribution f = density / (4 pi), uniform in space."""
    coeffs = np.zeros(grid.cells + (basis.n_coeff,))
    coeffs[..., 0] = density / math.sqrt(4.0 * np.pi)
    return OrientationField(grid, basis, coeffs)
