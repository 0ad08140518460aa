"""Sphere basis: quadrature exactness, transforms, gradients, drift assembly."""

import itertools
import math
import re

import numpy as np
import pytest
from scipy.special import lpmv

from doifbp import Grid, OrientationField, VectorField, eta_moment, make_sphere_basis
from doifbp import sphere
from doifbp.kinetics import _drift_coefficients, fp_rhs
from doifbp.sphere import (
    _gauss_legendre,
    _gauss_product_nodes,
    _harmonic_tables,
    _legendre,
    uniform_orientation,
)


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


def test_rejects_degree_above_the_cap_before_building(monkeypatch):
    def no_quadrature(*args):
        raise AssertionError("quadrature built for a rejected degree")

    monkeypatch.setattr(sphere, "_gauss_product_nodes", no_quadrature)
    with pytest.raises(ValueError, match=f"at most {sphere.MAX_DEGREE}, got 65"):
        make_sphere_basis(sphere.MAX_DEGREE + 1)


def test_degree_is_an_integer_by_the_one_rule():
    # int() would build degree 7 from 7.9 and degree 4 from "4"
    for degree in (7.9, 4.0, "4", True, None):
        with pytest.raises(ValueError, match=rf"^sphere basis degree must be an integer, got {re.escape(repr(degree))}$"):
            make_sphere_basis(degree)
    basis = make_sphere_basis(np.int64(3))  # a numpy integer counts
    assert basis.degree == 3 and type(basis.degree) is int


def test_weights_and_nodes():
    # even degrees 0, 2, ..., 2J with J = L // 2: (J+1)(2J+1) modes, on the
    # full (L+1) x (2L+2) node set
    for L, n_coeff in ((2, 6), (3, 6), (4, 15), (7, 28)):
        b = make_sphere_basis(L)
        assert abs(np.sum(b.weights) - 4.0 * np.pi) < 1e-12 * 4.0 * np.pi
        assert np.all(b.weights > 0.0)
        assert np.max(np.abs(np.linalg.norm(b.nodes, axis=1) - 1.0)) < 1e-13
        assert b.n_coeff == n_coeff == (L // 2 + 1) * (2 * (L // 2) + 1)
        assert b.n_nodes == (L + 1) * (2 * L + 2)
        assert np.array_equal(np.unique(b.l_index), np.arange(0, L + 1, 2))


def test_index_is_the_degree_major_flat_index_of_even_harmonics():
    b = make_sphere_basis(7)
    flat = [b.index(l, m) for l in range(0, 7, 2) for m in range(-l, l + 1)]
    assert flat == list(range(b.n_coeff))
    assert all(b.l_index[b.index(l, m)] == l for l in (0, 2, 4, 6) for m in (-l, 0, l))
    assert b.index(0, 0) == 0 and b.index(2, 0) == 3 and b.index(6, 6) == 27
    # closed forms fix the m convention: cos(m phi) for m > 0, sin(|m| phi) for m < 0
    x, y, z = b.nodes.T
    closed = {
        (2, 0): math.sqrt(5.0 / (16.0 * math.pi)) * (3.0 * z**2 - 1.0),
        (2, 2): math.sqrt(15.0 / (16.0 * math.pi)) * (x**2 - y**2),
        (2, -2): math.sqrt(15.0 / (4.0 * math.pi)) * x * y,
    }
    for (l, m), values in closed.items():
        assert np.max(np.abs(b.y[:, b.index(l, m)] - values)) < 1e-13
    for l, m in ((1, 0), (3, 1), (8, 0), (-2, 0), (2, 3), (2, -3)):
        with pytest.raises(ValueError, match="no harmonic"):
            b.index(l, m)


def test_drift_of_an_even_distribution_has_no_odd_degree_part():
    # the premise of the even-degree basis: tabulate the odd degrees next to
    # the even ones on an independent fine rule (exact through degree 2L+9)
    # and test the weak drift int P_perp(g tau) f . grad Y_q of an even f
    # against every odd Y_q; the even projections must match the assembled
    # drift, the odd ones vanish
    L = 7
    rng = np.random.default_rng(43)
    b = make_sphere_basis(L)
    th, ph, nodes, w = _gauss_product_nodes(L + 5, 2 * L + 10)
    y_even, gy_even, _ = _harmonic_tables(range(0, L + 1, 2), th, ph)
    _, gy_odd, _ = _harmonic_tables(range(1, L + 2, 2), th, ph)
    coeffs = rng.standard_normal((5, b.n_coeff))
    g_mat = rng.standard_normal((5, 3, 3))

    f = coeffs @ y_even.T
    v = np.einsum("nab,kb->nka", g_mat, nodes)
    p_perp = v - np.sum(v * nodes, axis=-1, keepdims=True) * nodes
    even = np.einsum("k,nka,kqa,nk->nq", w, p_perp, gy_even, f)
    odd = np.einsum("k,nka,kqa,nk->nq", w, p_perp, gy_odd, f)
    scale = max(1.0, np.max(np.abs(even)))
    assert np.max(np.abs(_drift_coefficients(b, g_mat, coeffs) - even)) < 1e-13 * scale
    assert np.max(np.abs(odd)) < 1e-13 * scale


def test_stress_reads_only_degrees_zero_and_two():
    # int (3 tau tau^T - I) Y dtau vanishes for every harmonic but l = 2: on
    # the stored rows of the other even degrees, and on the odd degrees
    # tabulated here
    L = 7
    b = make_sphere_basis(L)
    th, ph, _, _ = _gauss_product_nodes(L + 1, 2 * L + 2)
    y_odd, _, _ = _harmonic_tables(range(1, L + 1, 2), th, ph)
    outer = 3.0 * b.nodes[:, :, None] * b.nodes[:, None, :] - np.eye(3)
    odd_map = np.einsum("k,kij,kq->qij", b.weights, outer, y_odd)
    assert np.max(np.abs(odd_map)) < 1e-13
    assert np.max(np.abs(b.stress_map[b.l_index != 2])) < 1e-13
    assert np.max(np.abs(b.stress_map[b.l_index == 2])) > 0.1


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
    assert np.max(np.abs(f.coeffs * b.lap_eig)) == 0.0
    q20 = b.index(2, 0)
    coeffs = np.zeros(g.cells + (b.n_coeff,))
    coeffs[..., q20] = 1.0
    out = coeffs * b.lap_eig
    assert np.max(np.abs(out[..., q20] + 6.0)) < 1e-15
    out_vals = out.copy()
    out_vals[..., q20] = 0.0
    assert np.max(np.abs(out_vals)) == 0.0


def test_laplacian_integrates_to_zero():
    rng = np.random.default_rng(5)
    b = make_sphere_basis(6)
    g = Grid(cells=(4,), lengths=(1.0,))
    f = OrientationField(g, b, rng.standard_normal(g.cells + (b.n_coeff,)))
    lap_nodal = b.synth(f.coeffs * b.lap_eig)  # the full rule
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
    degrees = range(0, L + 1, 2)  # the basis's own columns
    y_tp, _, _ = _harmonic_tables(degrees, theta + d, phi)
    y_tm, _, _ = _harmonic_tables(degrees, theta - d, phi)
    y_pp, _, _ = _harmonic_tables(degrees, theta, phi + d)
    y_pm, _, _ = _harmonic_tables(degrees, theta, phi - d)
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


def test_legendre_recurrence_matches_scipy_lpmv():
    # the harmonic tables build P_l^m (Condon-Shortley phase) by recurrence;
    # scipy's lpmv is the reference for every m of degrees <= 20 at 24 Gauss
    # nodes, relative to the largest value of each function
    x, _ = np.polynomial.legendre.leggauss(24)
    theta = np.arccos(x)
    table = _legendre(20, np.cos(theta), np.sin(theta))
    for l in range(21):
        for m in range(l + 1):
            want = lpmv(m, l, np.cos(theta))
            assert np.max(np.abs(table[l, m] - want)) <= 1e-13 * np.max(np.abs(want))
        assert not np.any(table[l, l + 1 :])


def test_gauss_legendre_newton_rule_matches_leggauss():
    # the Newton-on-the-recurrence rule against numpy's leggauss, which the
    # package does not import; measured differences are at most 1.1e-16 in
    # the nodes and 1.6e-15 in the weights (leggauss's own weight error,
    # against a 40-digit reference, reaches 1.8e-15 in this range)
    for n in range(3, 21):
        x, w = _gauss_legendre(n)
        x_ref, w_ref = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x - x_ref)) <= 4.5e-16
        assert np.max(np.abs(w - w_ref)) <= 4e-15
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        for p in range(0, 2 * n, 2):  # exact through degree 2n-1
            assert abs(w @ x**p - 2.0 / (p + 1)) <= 1e-14


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

    interior = rhs[1:-1, 1:-1]
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
    bad[..., b.index(2, 0)] = 1.0  # pure Y20: negative around the equator
    with pytest.raises(ValueError, match="dips to"):
        OrientationField(g, b, bad).check_positive()


def test_positivity_failure_names_the_cell_and_the_node_direction():
    b = make_sphere_basis(4)
    g = Grid(cells=(4, 5), lengths=(1.0, 1.0))
    coeffs = np.zeros(g.cells + (b.n_coeff,))
    coeffs[..., 0] = 1.0
    coeffs[2, 3, b.index(2, 0)] = 3.0  # negative around the equator of one cell
    coeffs[2, 3, b.index(2, 2)] = 0.5  # ... and deepest along tau_2
    nodal = b.synth(coeffs[2, 3])
    with pytest.raises(ValueError) as err:
        OrientationField(g, b, coeffs).check_positive()
    message = str(err.value)
    assert message.startswith(f"orientation distribution dips to {nodal.min():.3e}")
    assert "cell (2, 3)" in message
    tau = np.array([float(v) for v in re.search(r"tau = \+-\((.*)\)", message)[1].split(",")])
    dist = np.minimum(np.abs(b.nodes - tau).max(1), np.abs(b.nodes + tau).max(1))
    k = np.argmin(dist)
    assert dist[k] <= 5e-4  # tau is printed to three decimals
    assert nodal[k] == pytest.approx(nodal.min(), abs=1e-15)


def test_basis_tables_are_read_only():
    # one basis is shared by every field of a run, and the hemisphere tables
    # are copies of rows of the full ones: no table may be written in place
    b = make_sphere_basis(4)
    tables = {name: v for name, v in vars(b).items() if isinstance(v, np.ndarray)}
    assert {"y", "weights", "hemi_y", "hemi_weights", "hemi_index", "drift_mats"} <= set(tables)
    for name, table in tables.items():
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 0
    with pytest.raises(ValueError, match="read-only"):
        b.hemi_y[:, 0] *= 2.0
