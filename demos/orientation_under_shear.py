#!/usr/bin/env python3
"""Rod alignment in a frozen extensional flow.

Holds the velocity field fixed at u = A sin(2 pi x)/(2 pi) (freeze_velocity),
whose gradient du/dx = A cos(2 pi x) stretches the fluid along x on half the
domain and compresses it on the other half.  The projected drift turns rods
toward the stretching axis where du/dx > 0 and away from it where du/dx < 0,
while rotational diffusion pushes back toward isotropy.

Printed per stage: the kinetic stress component sigma_11 at the most
stretched and most compressed cells (opposite signs), the worst trace of the
stress (an exact algebraic zero of the moment map), and the relative entropy
int [psi - eta ln(eta/4pi)] dx, i.e. the entropy excess over the isotropic
state carrying the same number density.  The excess is zero exactly for
isotropic data and grows with alignment; weaker diffusion lets it climb
higher before saturating.
"""

import math

import numpy as np

from doifbp import (
    Grid,
    OrientationField,
    PhysCoeffs,
    PressureLaw,
    ScalarField,
    VectorField,
    integral,
    make_sphere_basis,
    run,
)
from doifbp.integrator import FluidState
from doifbp.kinetics import entropy_and_fisher, eta_moment, stress_moment


def make_state(rate, d_rot):
    grid = Grid(cells=(48,), lengths=(1.0,))
    basis = make_sphere_basis(6)
    x = grid.axis_centers(0)
    u = np.zeros((1, 48))
    u[0] = rate * np.sin(2.0 * np.pi * x) / (2.0 * np.pi)
    coeffs = np.zeros((48, basis.n_coeff))
    coeffs[:, 0] = 1.0 / math.sqrt(4.0 * math.pi)  # isotropic start, eta = 1
    return FluidState(
        rho=ScalarField(grid, np.full(48, 0.9)),
        u=VectorField(grid, u),
        f=OrientationField(grid, basis, coeffs),
        t=0.0,
        law=PressureLaw(5.0),
        coeffs=PhysCoeffs(d_rot=d_rot),
    )


def report(state):
    sigma = stress_moment(state.f)
    s11 = sigma[:, 0, 0]
    trace = float(np.max(np.abs(np.trace(sigma, axis1=-2, axis2=-1))))
    psi, _, _ = entropy_and_fisher(state.f)
    eta = eta_moment(state.f).values
    iso = np.where(eta > 0.0, eta * np.log(np.maximum(eta, 1e-300) / (4.0 * math.pi)), 0.0)
    excess = integral(ScalarField(state.grid, psi.values - iso))
    return float(np.max(s11)), float(np.min(s11)), trace, excess


def main():
    for d_rot in (2.0, 0.5):
        state = make_state(rate=4.0, d_rot=d_rot)
        print("=" * 74)
        print(f"extension rate 4.0 against rotational diffusion d_rot = {d_rot}")
        print("=" * 74)
        header = ("t", "sigma_11 (stretch)", "sigma_11 (squeeze)", "max |tr|", "rel entropy")
        print(f"{header[0]:>6} {header[1]:>18} {header[2]:>18} {header[3]:>9} {header[4]:>12}")
        final = state
        for t_stop in (0.0, 0.05, 0.1, 0.2, 0.4):
            if t_stop > 0.0:
                _, final = run(final, t_stop, freeze_velocity=True)
            hi, lo, trace, excess = report(final)
            print(f"{final.t:6.2f} {hi:18.5f} {lo:18.5f} {trace:9.1e} {excess:12.6f}")
        print()
    print("rods point along x where the flow stretches (sigma_11 > 0) and into")
    print("the transverse plane where it squeezes (sigma_11 < 0); weakening the")
    print("diffusion lets the anisotropy and the entropy excess climb roughly")
    print("twice as high, while the stress trace stays at roundoff throughout.")


if __name__ == "__main__":
    main()
