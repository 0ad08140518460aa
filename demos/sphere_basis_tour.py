#!/usr/bin/env python3
"""Tour of the spherical-harmonic orientation basis.

Builds the Gauss-Legendre x uniform-longitude product basis at several
truncation degrees and prints the three exactness properties everything else
relies on: polynomial moments of the quadrature rule, orthonormality of the
real harmonics under that rule, and the exact Laplace-Beltrami eigenvalues
-l(l+1) carried by the diffusion operator.  Rods are head-tail symmetric, so
the basis holds the even degrees only: an odd L has the nodes of degree L but
the harmonics of degree L-1.
"""

import numpy as np

from doifbp import make_sphere_basis


def main():
    print("=" * 72)
    print("quadrature moments: integrals of 1, tau_i, tau_i tau_j over S^2")
    print("=" * 72)
    for degree in (2, 4, 7):
        basis = make_sphere_basis(degree)
        w, tau = basis.weights, basis.nodes
        mass = np.sum(w)
        first = w @ tau
        second = np.einsum("k,ki,kj->ij", w, tau, tau)
        print(
            f"L = {degree}: nodes = {basis.n_nodes:4d}, "
            f"|sum w - 4pi| = {abs(mass - 4.0 * np.pi):.2e}, "
            f"max |<tau_i>| = {np.max(np.abs(first)):.2e}, "
            f"max |<tau_i tau_j> - (4pi/3) I| = "
            f"{np.max(np.abs(second - (4.0 * np.pi / 3.0) * np.eye(3))):.2e}"
        )

    print()
    print("=" * 72)
    print("orthonormality and transform round trip")
    print("=" * 72)
    rng = np.random.default_rng(0)
    for degree in (3, 5, 7):
        basis = make_sphere_basis(degree)
        gram = (basis.y * basis.weights[:, None]).T @ basis.y
        gram_err = np.max(np.abs(gram - np.eye(basis.n_coeff)))
        coeffs = rng.standard_normal(basis.n_coeff)
        round_trip = basis.analyze(basis.synth(coeffs))
        rt_err = np.max(np.abs(round_trip - coeffs))
        print(
            f"L = {degree}: {basis.n_coeff:3d} even-degree harmonics, "
            f"gram defect {gram_err:.2e}, analyze(synth(c)) - c = {rt_err:.2e}"
        )

    print()
    print("=" * 72)
    print("rotational diffusion spectrum (stored eigenvalues, exact integers)")
    print("=" * 72)
    basis = make_sphere_basis(6)
    for l in range(0, basis.degree + 1, 2):
        q = basis.index(l, 0)  # the m = 0 member of degree l
        print(f"l = {l}: eigenvalue = {basis.lap_eig[q]:+.1f}   (expected {-l * (l + 1):+d})")
    print()
    print("every harmonic of degree l decays like exp(-d_rot l (l+1) t) under")
    print("pure rotational diffusion; the constant mode l = 0 never decays,")
    print("which is exactly the conservation of rod number.")


if __name__ == "__main__":
    main()
