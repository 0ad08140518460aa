"""Sphere basis: quadrature exactness, transforms, gradients, drift assembly."""

import itertools
import math

import numpy as np
import pytest

from doifbp import (
    Grid,
    OrientationField,
    VectorField,
    eta_moment,
    fp_rhs,
    make_sphere_basis,
    sphere_laplacian,
    uniform_orientation,
)
from doifbp.kinetics import _drift_coefficients
from doifbp.sphere import _harmonic_tables


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _monomial_integral(alpha) -> float:
    """Closed-form sphere integral of tau1^a tau2^b tau3^c.

    Zero when any exponent is odd; otherwise
    4 pi (a-1)!!(b-1)!!(c-1)!! / (a+b+c+1)!!.
    """
    if any(a % 2 for a in alpha):
        return 0.0
    num = math.prod(_double_factorial(a - 1) for a in alpha)
    return 4.0 * math.pi * num / _double_factorial(sum(alpha) + 1)


def test_rejects_degree_below_two():
    with pytest.raises(ValueError, match="at least 2"):
        make_sphere_basis(1)


def test_weights_and_nodes():
    for L in (2, 4, 7):
        b = make_sphere_basis(L)
        assert abs(np.sum(b.weights) - 4.0 * np.pi) < 1e-12 * 4.0 * np.pi
        assert np.all(b.weights > 0.0)
        assert np.max(np.abs(np.linalg.norm(b.nodes, axis=1) - 1.0)) < 1e-13
        assert b.n_coeff == (L + 1) ** 2
        assert b.n_nodes == (L + 1) * (2 * L + 2)


def test_monomial_quadrature_through_degree_four():
    b = make_sphere_basis(2)
    for total in range(5):
        for a1 in range(total + 1):
            for a2 in range(total - a1 + 1):
                alpha = (a1, a2, total - a1 - a2)
                vals = np.prod(b.nodes ** np.array(alpha), axis=1)
                got = float(np.sum(b.weights * vals))
                assert abs(got - _monomial_integral(alpha)) < 1e-12 * 4.0 * np.pi, alpha


def test_orthonormality_and_round_trip():
    rng = np.random.default_rng(21)
    for L in (2, 5, 7):
        b = make_sphere_basis(L)
        gram = (b.y * b.weights[:, None]).T @ b.y
        assert np.max(np.abs(gram - np.eye(b.n_coeff))) < 1e-12
        coeffs = rng.standard_normal((6, b.n_coeff))
        assert np.max(np.abs(b.analyze(b.synth(coeffs)) - coeffs)) < 1e-12


def test_laplacian_eigenvalues():
    b = make_sphere_basis(7)
    ll = b.l_index * (b.l_index + 1)
    assert np.array_equal(b.lap_eig, -ll.astype(float))
    g = Grid(cells=(4,), lengths=(1.0,))
    f = uniform_orientation(g, b, 1.0)
    assert np.max(np.abs(sphere_laplacian(f).coeffs)) == 0.0
    # Y20 lives at flat index l^2 + l + m = 6
    coeffs = np.zeros(g.cells + (b.n_coeff,))
    coeffs[..., 6] = 1.0
    out = sphere_laplacian(OrientationField(g, b, coeffs))
    assert np.max(np.abs(out.coeffs[..., 6] + 6.0)) < 1e-15
    out_vals = out.coeffs.copy()
    out_vals[..., 6] = 0.0
    assert np.max(np.abs(out_vals)) == 0.0


def test_laplacian_integrates_to_zero():
    rng = np.random.default_rng(5)
    b = make_sphere_basis(6)
    g = Grid(cells=(4,), lengths=(1.0,))
    f = OrientationField(g, b, rng.standard_normal(g.cells + (b.n_coeff,)))
    lap_nodal = sphere_laplacian(f).nodal_values()
    sphere_integrals = lap_nodal @ b.weights
    assert np.max(np.abs(sphere_integrals)) < 1e-10


def test_gradient_tables_tangent():
    b = make_sphere_basis(7)
    radial = np.einsum("kqa,ka->kq", b.grad_y, b.nodes)
    assert np.max(np.abs(radial)) < 1e-12


def test_gradient_tables_match_finite_differences():
    # differentiate the harmonic tables along theta and phi directly and
    # compare with the stored tangential gradients
    L = 5
    b = make_sphere_basis(L)
    theta = np.arccos(np.clip(b.nodes[:, 2], -1.0, 1.0))
    phi = np.arctan2(b.nodes[:, 1], b.nodes[:, 0])
    d = 1e-6
    y_tp, _, _ = _harmonic_tables(L, theta + d, phi)
    y_tm, _, _ = _harmonic_tables(L, theta - d, phi)
    y_pp, _, _ = _harmonic_tables(L, theta, phi + d)
    y_pm, _, _ = _harmonic_tables(L, theta, phi - d)
    dy_dtheta = (y_tp - y_tm) / (2.0 * d)
    dy_dphi = (y_pp - y_pm) / (2.0 * d)

    sin_t, cos_t = np.sin(theta), np.cos(theta)
    e_theta = np.stack([cos_t * np.cos(phi), cos_t * np.sin(phi), -sin_t], axis=1)
    e_phi = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=1)
    grad_fd = (
        dy_dtheta[:, :, None] * e_theta[:, None, :]
        + (dy_dphi / sin_t[:, None])[:, :, None] * e_phi[:, None, :]
    )
    assert np.max(np.abs(grad_fd - b.grad_y)) < 1e-7


def test_drift_assembly_matches_fine_quadrature():
    # weak drift coefficients <P_perp(g tau) f, grad Y_q> computed on an
    # independent finer rule (degree L+2 basis: exact for the degree <= 2L+4
    # integrand) must match the assembled drift matrices
    L = 3
    rng = np.random.default_rng(17)
    b = make_sphere_basis(L)
    hi = make_sphere_basis(L + 2)
    q_lo = b.n_coeff
    g_mat = rng.standard_normal((3, 3))
    coeffs = rng.standard_normal(q_lo)

    f_hi = hi.y[:, :q_lo] @ coeffs
    v = hi.nodes @ g_mat.T
    radial = np.sum(hi.nodes * v, axis=1, keepdims=True)
    p_perp = v - radial * hi.nodes
    oracle = np.einsum("k,ka,kqa,k->q", hi.weights, p_perp, hi.grad_y[:, :q_lo, :], f_hi)

    got = _drift_coefficients(b, g_mat.reshape(1, 3, 3), coeffs.reshape(1, -1))[0]
    assert np.max(np.abs(got - oracle)) < 1e-12 * max(1.0, np.max(np.abs(oracle)))


def test_drift_conserves_rod_mass_row():
    # constant-harmonic row of the drift is identically zero: the sphere
    # integral of a sphere-divergence vanishes, so rod mass is untouched
    b = make_sphere_basis(4)
    assert np.max(np.abs(b.drift_mats[:, :, 0, :])) == 0.0


def test_rigid_rotation_drift_is_rotation_generator():
    # for a solid-body velocity field the velocity gradient is skew and the
    # sphere drift must act as the generator of rotations: at every interior
    # cell, synth(drift coefficients) = -grad_tau f . (W tau) exactly
    # (rotations preserve each harmonic degree, so no truncation error)
    L = 4
    n = 8
    omega = 0.9
    rng = np.random.default_rng(31)
    b = make_sphere_basis(L)
    g = Grid(cells=(n, n), lengths=(1.0, 1.0))
    mx, my = g.meshes()
    u = np.zeros((2, n, n))
    u[0] = -omega * (my - 0.5)
    u[1] = omega * (mx - 0.5)

    c = rng.standard_normal(b.n_coeff) * 0.1
    coeffs = np.broadcast_to(c, g.cells + (b.n_coeff,)).copy()
    f = OrientationField(g, b, coeffs)
    rhs = fp_rhs(f, VectorField(g, u))

    w_tau = np.stack(
        [-omega * b.nodes[:, 1], omega * b.nodes[:, 0], np.zeros(b.n_nodes)], axis=1
    )
    grad_f = np.einsum("q,kqa->ka", c, b.grad_y)
    expected = -np.sum(grad_f * w_tau, axis=1)

    interior = rhs.coeffs[1:-1, 1:-1]
    nodal = interior @ b.y.T
    err = np.max(np.abs(nodal - expected))
    assert err < 1e-10 * max(1.0, np.max(np.abs(expected)))


def test_uniform_orientation_and_positivity_guard():
    b = make_sphere_basis(3)
    g = Grid(cells=(6,), lengths=(1.0,))
    f = uniform_orientation(g, b, 0.4)
    assert np.max(np.abs(eta_moment(f).values - 0.4)) < 1e-14
    assert abs(f.min_nodal() - 0.4 / (4.0 * np.pi)) < 1e-15
    f.check_positive()

    bad = np.zeros(g.cells + (b.n_coeff,))
    bad[..., 2] = 1.0  # pure tau_3 harmonic: negative on a hemisphere
    with pytest.raises(ValueError, match="dips to"):
        OrientationField(g, b, bad).check_positive()
