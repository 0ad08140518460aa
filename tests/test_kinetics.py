"""Kinetic operators: the Fokker-Planck right-hand side, moment maps, entropy, Fisher terms."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doifbp import (
    EPS_POS,
    Grid,
    OrientationField,
    PhysCoeffs,
    PressureLaw,
    RunConfig,
    ScalarField,
    VectorField,
    build_initial_state,
    eta_moment,
    integral,
    make_sphere_basis,
    run,
)
from doifbp.grid import _centered_diff, heat_step, upwind_divergence, velocity_gradient
from doifbp.integrator import FluidState, energy_total
from doifbp.kinetics import SQRT_4PI, _drift_coefficients, entropy_and_fisher, fp_rhs, stress_moment
from doifbp.sphere import _row_blocks, uniform_orientation


def _basis_and_grid(L=4, n=4):
    return make_sphere_basis(L), Grid(cells=(n,), lengths=(1.0,))


def _from_nodal(grid, basis, nodal):
    """Space-uniform orientation field from band-limited nodal values."""
    c = basis.analyze(nodal)
    return OrientationField(grid, basis, np.broadcast_to(c, grid.cells + (basis.n_coeff,)).copy())


# ---------------------------------------------------------------------------
# moment maps


def test_stress_of_uniform_distribution_vanishes():
    basis, grid = _basis_and_grid()
    f = uniform_orientation(grid, basis, 0.7)
    assert np.max(np.abs(stress_moment(f))) < 1e-12


def test_stress_analytic_second_moment():
    # f = (1/4pi)(1 + b(3 tau3^2 - 1)) has stress b diag(-2/5, -2/5, 4/5)
    basis, grid = _basis_and_grid()
    b_coef = 0.37
    nodal = (1.0 + b_coef * (3.0 * basis.nodes[:, 2] ** 2 - 1.0)) / (4.0 * np.pi)
    f = _from_nodal(grid, basis, nodal)
    sigma = stress_moment(f)
    expected = b_coef * np.diag([-0.4, -0.4, 0.8])
    assert np.max(np.abs(sigma - expected)) < 1e-10


def test_stress_odd_part_integrates_out():
    # an odd nodal function has no component in the even-degree basis, so
    # the odd part of 1 + 0.8 tau_3 + ... never reaches the stress
    basis, grid = _basis_and_grid()
    t1, t2, t3 = basis.nodes.T
    odd = 0.8 * t3 + 0.3 * t1 * t2 * t3 - 0.2 * t1**3
    assert np.max(np.abs(basis.analyze(odd))) < 1e-12
    f = _from_nodal(grid, basis, (1.0 + odd) / (4.0 * np.pi))
    assert np.max(np.abs(stress_moment(f))) < 1e-12


def test_stress_matches_high_order_quadrature():
    rng = np.random.default_rng(23)
    L = 4
    basis = make_sphere_basis(L)
    hi = make_sphere_basis(L + 3)
    grid = Grid(cells=(4,), lengths=(1.0,))
    coeffs = rng.standard_normal(grid.cells + (basis.n_coeff,))
    f = OrientationField(grid, basis, coeffs)

    f_hi = coeffs @ hi.y[:, : basis.n_coeff].T  # same harmonics, finer nodes
    outer = 3.0 * hi.nodes[:, :, None] * hi.nodes[:, None, :] - np.eye(3)
    oracle = np.einsum("xk,k,kij->xij", f_hi, hi.weights, outer)
    assert np.max(np.abs(stress_moment(f) - oracle)) < 1e-12 * max(1.0, np.max(np.abs(oracle)))


def test_stress_symmetric_and_trace_free_on_random_fields():
    rng = np.random.default_rng(29)
    basis, grid = _basis_and_grid(L=7, n=100)
    coeffs = rng.standard_normal(grid.cells + (basis.n_coeff,))
    sigma = stress_moment(OrientationField(grid, basis, coeffs))
    assert np.max(np.abs(sigma - np.swapaxes(sigma, -1, -2))) < 1e-10
    assert np.max(np.abs(np.trace(sigma, axis1=-2, axis2=-1))) < 1e-10


def test_eta_moment_cases():
    basis, grid = _basis_and_grid()
    assert np.max(np.abs(eta_moment(uniform_orientation(grid, basis, 1.0)).values - 1.0)) < 1e-14
    zero = OrientationField(grid, basis, np.zeros(grid.cells + (basis.n_coeff,)))
    assert np.max(np.abs(eta_moment(zero).values)) == 0.0
    higher = np.zeros(grid.cells + (basis.n_coeff,))
    higher[..., 1:] = 0.5  # no constant-harmonic content
    assert np.max(np.abs(eta_moment(OrientationField(grid, basis, higher)).values)) < 1e-12


# ---------------------------------------------------------------------------
# entropy and Fisher information


def test_entropy_uniform_closed_form():
    basis, grid = _basis_and_grid()
    f = uniform_orientation(grid, basis, 1.0)
    psi, fisher_tau, fisher_x = entropy_and_fisher(f)
    expected = -math.log(4.0 * math.pi)
    assert np.max(np.abs(psi.values - expected)) < 1e-12
    assert integral(psi) == pytest.approx(expected, rel=1e-12)
    assert fisher_tau == pytest.approx(0.0, abs=1e-12)
    assert fisher_x == pytest.approx(0.0, abs=1e-12)


def test_entropy_zero_distribution():
    basis, grid = _basis_and_grid()
    f = OrientationField(grid, basis, np.zeros(grid.cells + (basis.n_coeff,)))
    psi, fisher_tau, fisher_x = entropy_and_fisher(f)
    assert np.max(np.abs(psi.values)) == 0.0
    assert fisher_tau == 0.0 and fisher_x == 0.0


def test_fisher_x_zero_for_space_uniform_f():
    basis, grid = _basis_and_grid()
    nodal = (1.0 + 0.5 * (3.0 * basis.nodes[:, 2] ** 2 - 1.0) / 2.0) / (4.0 * np.pi)
    f = _from_nodal(grid, basis, nodal)
    _, fisher_tau, fisher_x = entropy_and_fisher(f)
    assert fisher_x == pytest.approx(0.0, abs=1e-14)
    assert fisher_tau > 0.0


def test_fisher_tau_parseval_identity():
    # the spectral Fisher integral of the projected sqrt-field must equal
    # nodal quadrature of its tangential gradient (Parseval for band-limited
    # fields); this pins the l(l+1) energy identity used by the ledger
    basis, grid = _basis_and_grid(L=5, n=4)
    nodal = (1.0 + 0.6 * (3.0 * basis.nodes[:, 2] ** 2 - 1.0) / 2.0) / (4.0 * np.pi)
    f = _from_nodal(grid, basis, nodal)
    _, fisher_tau, _ = entropy_and_fisher(f)

    s_coeff = basis.analyze(np.sqrt(np.maximum(basis.synth(f.coeffs), 0.0)))  # the full rule
    grad_s = np.einsum("xq,kqa->xka", s_coeff.reshape(-1, basis.n_coeff), basis.grad_y)
    oracle = float(np.sum(np.sum(grad_s**2, axis=-1) * basis.weights)) * grid.cell_volume
    assert fisher_tau == pytest.approx(oracle, rel=1e-12)


def test_entropy_rejects_genuinely_negative_f():
    basis, grid = _basis_and_grid()
    bad = np.zeros(grid.cells + (basis.n_coeff,))
    bad[..., basis.index(2, 0)] = 1.0
    with pytest.raises(ValueError, match=r"below -1\.0e-10: cell \(0,\), tau = "):
        entropy_and_fisher(OrientationField(grid, basis, bad))


def test_energy_ledger_names_the_cell_where_f_dips():
    # the ledger rejects a negative f through `check_positive`, so its
    # failure names the cell and the direction, as every other check does
    basis, grid = _basis_and_grid()
    f = uniform_orientation(grid, basis, 0.1)
    f.coeffs[2, basis.index(2, 0)] = 1.0
    state = FluidState(
        rho=ScalarField(grid, np.full(grid.cells, 0.5)),
        u=VectorField(grid, np.zeros((1,) + grid.cells)),
        f=f,
        t=0.0,
        law=PressureLaw(5.0),
        coeffs=PhysCoeffs(),
    )
    with pytest.raises(ValueError, match=r"^orientation distribution dips to .* cell \(2,\), tau = "):
        energy_total(state)


def _reference_entropy_and_fisher(f, rule="hemisphere", nodal=None):
    # the ledger formula with full-size temporaries, written as the
    # definition: clamp, f ln f with 0 ln 0 = 0, sqrt, and the nodal
    # quadrature of the squared centered differences of sqrt(f); by default
    # on the hemisphere rule that the ledger reads, from the whole-field
    # synthesis of f or the given `nodal` values, or on the full rule
    g, basis = f.grid, f.basis
    if rule == "full":
        nodal, y, w, nodes = basis.synth(f.coeffs), basis.y, basis.weights, basis.nodes
    else:
        if nodal is None:
            nodal = f.coeffs @ basis.hemi_y.T
        y, w = basis.hemi_y, basis.hemi_weights
        nodes = basis.nodes[basis.hemi_index]
    worst = float(np.min(nodal))
    if worst < -EPS_POS:
        *cell, k = np.unravel_index(np.argmin(nodal), nodal.shape)
        tau = nodes[k]
        raise ValueError(
            f"orientation distribution dips to {worst:.3e} at a quadrature node, below "
            f"-{EPS_POS:.1e}: cell {tuple(int(c) for c in cell)}, "
            f"tau = +-({tau[0]:.3f}, {tau[1]:.3f}, {tau[2]:.3f})"
        )
    clamped = np.maximum(nodal, 0.0)
    safe = np.where(clamped > 0.0, clamped, 1.0)
    psi = (clamped * np.log(safe)) @ w
    sqrt_f = np.sqrt(clamped)
    s_coeffs = (sqrt_f * w) @ y
    fisher_tau = g.cell_volume * float(np.sum((-basis.lap_eig) * s_coeffs**2))
    grad_sq = np.zeros_like(sqrt_f)
    for a in range(g.dim):
        grad_sq += _centered_diff(g, sqrt_f, a, "rods") ** 2
    fisher_x = g.cell_volume * float(np.sum(grad_sq * w))
    return psi, fisher_tau, fisher_x


def _pinned_rows(nodal):
    # a slab source that serves the given whole-field nodal values in place
    # of the synthesis of f
    def rows(self, start, stop):
        return nodal[start:stop].copy()

    return rows


@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
@pytest.mark.parametrize("dim", [1, 2])
def test_entropy_and_fisher_match_the_reference_formula(monkeypatch, dim, bc):
    # an evolved state whose nodal values are then pinned: some exactly 0,
    # some in [-EPS_POS, 0) down to -EPS_POS itself, which are clamped; psi
    # and fisher_tau must be bit-identical to the reference, fisher_x equal
    # to roundoff, and f itself untouched
    cfg = RunConfig(
        dim=dim, cells=(9, 7)[:dim], lengths=(1.0, 0.8)[:dim], bc=bc, sphere_degree=4,
        preset="taylor_vortex" if dim == 2 else "colliding_streams", rho0=0.6,
        amplitude=1.0, perturbation=0.1, seed=dim,
    )
    _, state = run(build_initial_state(cfg), 2e-3)
    f = state.f
    nodal = f.coeffs @ f.basis.hemi_y.T
    assert np.min(nodal) > 0.0
    rng = np.random.default_rng(7 + dim)
    pick = rng.random(nodal.shape)
    nodal[pick < 0.1] = 0.0
    nodal[pick > 0.9] = -EPS_POS * rng.random(np.count_nonzero(pick > 0.9))
    nodal.flat[0] = -EPS_POS
    coeffs = f.coeffs.copy()
    monkeypatch.setattr(OrientationField, "_synth_rows", _pinned_rows(nodal))
    psi, fisher_tau, fisher_x = entropy_and_fisher(f)
    want_psi, want_tau, want_x = _reference_entropy_and_fisher(f, nodal=nodal)
    assert np.array_equal(psi.values, want_psi)
    assert fisher_tau == want_tau
    assert fisher_x > 0.0
    assert abs(fisher_x - want_x) <= 1e-13 * want_x
    assert np.array_equal(f.coeffs, coeffs)

    nodal.flat[-1] = -1.5 * EPS_POS
    with pytest.raises(ValueError) as got:
        entropy_and_fisher(f)
    with pytest.raises(ValueError) as want:
        _reference_entropy_and_fisher(f, nodal=nodal)
    message = "orientation distribution dips to -1.500e-10 at a quadrature node, below -1.0e-10"
    last = tuple(n - 1 for n in cfg.cells)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"{message}: cell {last}, tau = +-(")


#: grids that the slabs of a degree-7 field cut into several blocks of
#: axis-0 rows, by test id: the cells and the block count (512 rows a
#: block, 8, and a single row)
MULTI_SLAB_GRIDS = {"1": ((1200,), 3), "2": ((64, 64), 8), "one-row-slabs": ((5, 520), 5)}


def _multi_slab_field(grid_id, bc):
    # a positive degree-7 distribution on one of the MULTI_SLAB_GRIDS
    cells, n_blocks = MULTI_SLAB_GRIDS[grid_id]
    dim = len(cells)
    grid = Grid(cells=cells, lengths=(1.0, 0.8)[:dim], bc=bc)
    basis = make_sphere_basis(7)
    rng = np.random.default_rng(11 + dim)
    coeffs = 0.05 * rng.standard_normal(grid.cells + (basis.n_coeff,))
    lift = rng.uniform(0.01, 0.1, grid.cells) - np.min(coeffs @ basis.hemi_y.T, axis=-1)
    coeffs[..., 0] += SQRT_4PI * lift
    f = OrientationField(grid, basis, coeffs)
    assert len(_row_blocks(grid.cells, basis.hemi_index.size)) == n_blocks
    return f


@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
@pytest.mark.parametrize("grid_id", list(MULTI_SLAB_GRIDS))
def test_the_streamed_ledger_matches_the_reference_on_multi_slab_grids(grid_id, bc):
    # psi is read cell by cell, so it is bit-identical to the whole-field
    # formula; fisher_tau and fisher_x are added slab by slab, so they move
    # by roundoff; the minimum over the slabs is the whole-field minimum.
    # On 5 x 520 every slab is a single row
    f = _multi_slab_field(grid_id, bc)
    psi, fisher_tau, fisher_x = entropy_and_fisher(f)
    want_psi, want_tau, want_x = _reference_entropy_and_fisher(f)
    assert np.array_equal(psi.values, want_psi)
    assert abs(fisher_tau - want_tau) <= 1e-13 * want_tau
    assert fisher_x > 0.0
    assert abs(fisher_x - want_x) <= 1e-13 * want_x
    assert f.min_nodal() == np.min(f.coeffs @ f.basis.hemi_y.T)


@pytest.mark.parametrize("where", ["last slab", "before a slab edge", "after a slab edge"])
@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
@pytest.mark.parametrize("dim", [1, 2])
def test_a_dip_on_a_multi_slab_grid_names_the_global_worst_node(dim, bc, where):
    # a shallow dip in the first slab and the deepest one in the last
    # slab's last row or beside the first slab edge: both readers of the
    # slabs name the deepest, as the whole-field formula does
    f = _multi_slab_field(str(dim), bc)
    blocks = _row_blocks(f.grid.cells, f.basis.hemi_index.size)
    row = {"last slab": blocks[-1][1] - 1, "before a slab edge": blocks[0][1] - 1,
           "after a slab edge": blocks[1][0]}[where]
    shallow, deep = (1,) + (3,) * (dim - 1), (row,) + (5,) * (dim - 1)
    y20 = f.basis.index(2, 0)
    f.coeffs[shallow + (y20,)] = 1.0
    f.coeffs[deep + (y20,)] = 3.0
    with pytest.raises(ValueError) as want:
        _reference_entropy_and_fisher(f)
    assert f"cell {deep}, tau = " in str(want.value)
    for read in (OrientationField.check_positive, entropy_and_fisher):
        with pytest.raises(ValueError) as got:
            read(f)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
@pytest.mark.parametrize("grid_id", list(MULTI_SLAB_GRIDS))
def test_the_ledger_synthesizes_each_row_of_f_once(monkeypatch, grid_id, bc):
    # one ledger call asks the synthesis for every axis-0 row exactly once:
    # no neighbour row is synthesized a second time for the centered
    # differences across a slab edge or a wall
    f = _multi_slab_field(grid_id, bc)
    synth = OrientationField._synth_rows
    served = []

    def counted(self, *args):
        nodal = synth(self, *args)
        served.append(nodal.shape[0])
        return nodal

    monkeypatch.setattr(OrientationField, "_synth_rows", counted)
    entropy_and_fisher(f)
    cells, n_blocks = MULTI_SLAB_GRIDS[grid_id]
    assert len(served) == n_blocks
    assert sum(served) == cells[0]


def test_the_ledger_and_the_positivity_check_build_no_whole_field_nodal_array():
    # at 128 x 128, L = 7 f's hemisphere values take 8.4 MB; read in slabs
    # of SLAB_NODES values, neither call may trace a peak above 2.5 MB
    cfg = RunConfig(dim=2, cells=(128, 128), lengths=(1.0, 1.0), sphere_degree=7,
                    preset="taylor_vortex", perturbation=0.05)
    state = build_initial_state(cfg)
    for call in (energy_total, lambda s: s.f.check_positive()):
        call(state)  # the cached velocity gradient and eta, and first calls, outside the trace
        tracemalloc.start()
        try:
            call(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(2, 9),
    bc=st.sampled_from(["periodic", "dirichlet"]),
    scale=st.floats(1e-2, 1e2),
    seed=st.integers(0, 2**32 - 1),
)
def test_hemisphere_rule_reads_one_node_of_each_antipodal_pair(L, bc, scale, seed):
    # the kept nodes and their antipodes, found by brute force, cover the
    # node set once; on random even-degree fields the hemisphere minimum and
    # the ledger equal the full rule to roundoff
    basis = make_sphere_basis(L)
    nodes = basis.nodes
    dist = np.max(np.abs(nodes[:, None, :] + nodes[None, :, :]), axis=-1)
    partner = np.argmin(dist, axis=1)
    k = np.arange(basis.n_nodes)
    assert np.array_equal(partner[partner], k) and np.all(partner != k)
    assert np.max(dist[k, partner]) < 1e-15
    kept = basis.hemi_index
    assert np.array_equal(np.sort(np.concatenate([kept, partner[kept]])), k)
    assert np.array_equal(basis.hemi_y, basis.y[kept])
    assert np.array_equal(basis.hemi_weights, 2.0 * basis.weights[kept])

    grid = Grid(cells=(4, 5), lengths=(1.0, 0.8), bc=bc)
    rng = np.random.default_rng(seed)
    coeffs = scale * rng.standard_normal(grid.cells + (basis.n_coeff,))
    full = basis.synth(coeffs)
    f = OrientationField(grid, basis, coeffs)
    # antipodal rows of the tables differ by a few ulps (3.4e-15 at L=7), so
    # the two minima differ by up to a few 1e-15 of max|f|
    assert abs(f.min_nodal() - np.min(full)) <= 1e-14 * np.max(np.abs(full))

    # lift every cell to a positive minimum through the constant harmonic
    lift = scale * rng.uniform(1e-3, 1.0, grid.cells) - np.min(full, axis=-1)
    coeffs[..., 0] += math.sqrt(4.0 * np.pi) * lift
    f = OrientationField(grid, basis, coeffs)
    psi, fisher_tau, fisher_x = entropy_and_fisher(f)
    want_psi, want_tau, want_x = _reference_entropy_and_fisher(f, rule="full")
    assert np.max(np.abs(psi.values - want_psi)) <= 1e-13 * np.max(np.abs(want_psi))
    assert abs(fisher_tau - want_tau) <= 1e-13 * want_tau
    assert abs(fisher_x - want_x) <= 1e-13 * want_x


# ---------------------------------------------------------------------------
# velocity gradient and the assembled right-hand side


def test_velocity_gradient_refinement():
    errs = []
    for n in (32, 64):
        g = Grid(cells=(n,), lengths=(1.0,))
        x = g.axis_centers(0)
        u = VectorField(g, (0.3 * np.sin(2.0 * np.pi * x)).reshape(1, n))
        gv = velocity_gradient(u)
        assert gv.shape == (n, 1, 1)
        exact = 0.3 * 2.0 * np.pi * np.cos(2.0 * np.pi * x)
        errs.append(float(np.max(np.abs(gv[..., 0, 0] - exact))))
    ratio = errs[0] / errs[1]
    assert 3.4 <= ratio <= 4.6, f"gradient refinement ratio {ratio:.3f}"


def test_fp_rhs_global_equilibrium():
    basis, grid = _basis_and_grid()
    f = uniform_orientation(grid, basis, 0.5)
    u = VectorField(grid, np.zeros((1,) + grid.cells))
    rhs = fp_rhs(f, u)
    assert rhs.shape == f.coeffs.shape
    assert np.max(np.abs(rhs)) == 0.0


def test_fp_rhs_preserves_rod_mass_pointwise():
    # f uniform in space under the shear u = (F(y), G(x)): the donor fluxes
    # cancel, so the right-hand side is the drift alone, a sphere divergence
    # whose per-cell sphere integral vanishes
    rng = np.random.default_rng(19)
    basis = make_sphere_basis(5)
    grid = Grid(cells=(6, 6), lengths=(1.0, 1.0))
    nodal = 1.0 / (4.0 * np.pi) + 0.02 * rng.standard_normal(basis.n_nodes)
    f = _from_nodal(grid, basis, nodal)
    mx, my = grid.meshes()
    u = VectorField(grid, np.stack([np.cos(2.0 * np.pi * my), np.sin(2.0 * np.pi * mx)]))
    rhs = fp_rhs(f, u)
    assert np.max(np.abs(rhs)) > 0.1  # the drift acts
    cell_integrals = SQRT_4PI * rhs[..., 0]  # the number-density moment of the rate
    assert np.max(np.abs(cell_integrals)) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from((1, 2)),
    bc=st.sampled_from(("periodic", "dirichlet")),
    n=st.integers(4, 12),
    L=st.integers(2, 5),
    stiffness=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_fp_rhs_number_density_moment_is_scalar_transport(dim, bc, n, L, stiffness, seed):
    # the constant harmonic has a zero drift row, so the zeroth moment of the
    # Fokker-Planck right-hand side is the donor-cell advection of
    # eta = int f dtau, and the diffusion substep the integrator applies to f
    # diffuses eta by the same substep, for any velocity and boundary
    rng = np.random.default_rng(seed)
    basis = make_sphere_basis(L)
    grid = Grid(cells=(n,) * dim, lengths=tuple(rng.uniform(0.5, 2.0, dim)), bc=bc)
    nodal = rng.uniform(0.1, 1.0, grid.cells + (basis.n_nodes,))
    f = OrientationField(grid, basis, basis.analyze(nodal))
    u = VectorField(grid, rng.uniform(-2.0, 2.0, (dim,) + grid.cells))
    eta = eta_moment(f)
    advection = -upwind_divergence(eta.values, u, "rods")
    got = SQRT_4PI * fp_rhs(f, u)[..., 0]
    assert np.max(np.abs(got - advection)) <= 1e-12 * np.max(np.abs(advection))

    t = stiffness / sum(2.0 / h**2 for h in grid.h)  # up to the Dirichlet bound
    diffused = eta_moment(OrientationField(grid, basis, heat_step(grid, f.coeffs, t))).values
    want = heat_step(grid, eta.values, t)
    assert np.max(np.abs(diffused - want)) <= 1e-12 * np.max(eta.values)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from((1, 2)),
    L=st.integers(2, 7),
    n=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_drift_on_the_dim_block_equals_the_padded_contraction(dim, L, n, seed):
    # fp_rhs contracts only the dim x dim gradient block; the slots it skips
    # are the zero padding of the 3 x 3 gradient, so the result is bit-equal
    rng = np.random.default_rng(seed)
    basis = make_sphere_basis(L)
    coeffs = rng.standard_normal((n, basis.n_coeff))
    g = np.zeros((n, 3, 3))
    g[:, :dim, :dim] = rng.standard_normal((n, dim, dim))
    block = _drift_coefficients(basis, g[:, :dim, :dim], coeffs)
    assert np.array_equal(block, _drift_coefficients(basis, g, coeffs))


def test_fp_rhs_rejects_grid_mismatch():
    basis, grid = _basis_and_grid()
    other = Grid(cells=(8,), lengths=(1.0,))
    f = uniform_orientation(grid, basis, 1.0)
    u = VectorField(other, np.zeros((1, 8)))
    with pytest.raises(ValueError, match="different grids"):
        fp_rhs(f, u)
