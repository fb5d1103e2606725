import math
import os

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import cml_lab as cl
from cml_lab import transfer

ONE = cl.constant_potential(1.0, name="one")


class TestBranchSumOperator:
    def test_constant_observable_zero_potential(self, doubling):
        x = cl.state([0.3, 0.7, 0.1])
        for k in (0, 1):
            assert cl.eval_Pk(ONE, cl.zero_potential(), x, k, doubling) == 1.0

    def test_constant_potential_scales(self, doubling):
        x = cl.state([0.3])
        val = cl.eval_Pk(ONE, cl.constant_potential(0.7), x, 0, doubling)
        assert val == pytest.approx(math.exp(0.7))

    def test_sine_potential_closed_form(self, doubling):
        # doubling preimages of 1/2 are 1/4 and 3/4; sin(2 pi .) takes
        # values +-1 there, so the branch average is cosh(amplitude)
        f = cl.node_sine_potential(0.1)
        val = cl.eval_Pk(ONE, f, cl.state([0.5]), 0, doubling)
        assert val == pytest.approx(math.cosh(0.1), abs=1e-12)

    def test_width_projection_consistency(self, doubling):
        f = cl.node_sine_potential(0.1)
        wide = cl.state([0.9, 0.3, 0.2, 0.7, 0.4])
        narrow = cl.project(wide, 1)
        a = cl.eval_Pk(ONE, f, wide, 1, doubling)
        b = cl.eval_Pk(ONE, f, narrow, 1, doubling)
        assert a == b

    def test_large_potential_log_space(self, doubling):
        big = cl.constant_potential(200.0)
        val = cl.eval_Pk(ONE, big, cl.state([0.3]), 0, doubling)
        assert math.log(val) == pytest.approx(200.0)


class TestCauchySequence:
    def test_central_node_dependence_gives_zero(self, doubling):
        # potential and observable reading only node 0 make all widths equal
        rep = cl.check_Pk_cauchy(
            cl.node_sine_potential(0.3),
            cl.node_sine_potential(0.1),
            k_max=2,
            samples=20,
            node_map=doubling,
        )
        assert max(rep.sup_differences) == 0.0
        assert rep.fitted_ratio is None

    def test_decaying_interaction_is_cauchy(self, perturbed, metric):
        f = cl.decaying_sine_potential(0.1, 4.0, metric)
        phi = cl.node_sine_potential(0.2)
        rep = cl.check_Pk_cauchy(phi, f, k_max=2, samples=40, node_map=perturbed)
        diffs = rep.sup_differences
        assert diffs[1] < diffs[0]
        assert rep.fitted_ratio is not None and rep.fitted_ratio < 0.5


class TestGrid:
    def test_cell_counts(self):
        assert cl.Grid(k=1, n_bins=16).n_cells == 4096
        assert cl.Grid(k=0, n_bins=256).n_cells == 256

    def test_cell_budget_guard(self, doubling):
        with pytest.raises(MemoryError):
            cl.ulam_matrix(
                "P", 2, 64, doubling,
                potential=cl.zero_potential(), cell_budget=100_000,
            )

    def test_cell_of_roundtrip(self):
        grid = cl.Grid(k=1, n_bins=8)
        reps = grid.reps()
        assert np.array_equal(grid.cell_of(reps), np.arange(grid.n_cells))

    def test_reps_computed_once_and_read_only(self):
        grid = cl.Grid(k=1, n_bins=8)
        reps = grid.reps()
        assert grid.reps() is reps
        assert np.array_equal(reps, cl.Grid(k=1, n_bins=8).reps())
        with pytest.raises(ValueError):
            reps[0, 0] = 0.0


class TestPMatrix:
    def test_rows_sum_to_one_for_zero_potential(self, doubling_eigen_k0):
        op = doubling_eigen_k0.operator
        sums = np.asarray(op.matrix.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0, atol=1e-12)

    def test_doubling_leading_pair_exact(self, doubling_eigen_k0):
        e = doubling_eigen_k0
        assert e.lam == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(e.h, 1.0, atol=1e-8)
        assert np.allclose(e.nu, 1.0 / e.nu.size, atol=1e-10)
        assert np.allclose(e.g, 0.0, atol=1e-8)

    def test_constant_potential_shifts_eigenvalue(self, doubling):
        op = cl.ulam_matrix(
            "P", 0, 64, doubling, potential=cl.constant_potential(0.3)
        )
        e = cl.leading_eigenpair(op)
        assert e.lam == pytest.approx(math.exp(0.3), abs=1e-8)
        assert np.allclose(e.h, 1.0, atol=1e-8)

    def test_power_iteration_matches_dense_solver(self, perturbed_eigen_k0):
        e = perturbed_eigen_k0
        dense = e.operator.matrix.toarray()
        w, v = scipy.linalg.eig(dense)
        i = np.argmax(w.real)
        assert abs(w[i].imag) < 1e-10
        assert e.lam == pytest.approx(float(w[i].real), abs=1e-9)
        hd = np.abs(v[:, i].real)
        hd = hd / (e.nu @ hd)
        assert np.max(np.abs(hd - e.h)) < 1e-7

    def test_srb_potential_preserves_mass(self, perturbed_eigen_k0):
        # the map-adapted potential log b - log tau' makes the leading
        # eigenvalue 1 up to quadrature error
        assert perturbed_eigen_k0.lam == pytest.approx(1.0, abs=1e-4)

    def test_eigenpair_requires_p_kind(self, doubling_eigen_k0, doubling):
        op = cl.ulam_matrix(
            "L", 0, 256, doubling, eigen=doubling_eigen_k0
        )
        with pytest.raises(ValueError):
            cl.leading_eigenpair(op)


class TestPowerIteration:
    def test_positive_matrix_matches_dense_solver(self):
        a = np.random.default_rng(3).uniform(0.1, 1.0, (50, 50))
        lam, v = cl.power_iterate(a)
        w, vecs = np.linalg.eig(a)
        i = np.argmax(np.abs(w))
        assert lam == pytest.approx(float(w[i].real), rel=1e-12)
        ref = vecs[:, i].real / vecs[:, i].real.sum()
        assert np.max(np.abs(v - ref)) < 1e-12
        assert v.sum() == pytest.approx(1.0, abs=1e-14)

    def test_equal_moduli_do_not_converge(self, monkeypatch):
        # dominant eigenvalues +-sqrt(2): the iterates alternate forever
        monkeypatch.setattr(transfer, "_POWER_STEPS", 1000)
        with pytest.raises(RuntimeError, match="did not converge"):
            cl.power_iterate(np.array([[0.0, 2.0], [1.0, 0.0]]))


class TestNormalizedMatrix:
    def test_rows_sum_exactly_to_one(self, perturbed_eigen_k0, perturbed):
        op = cl.ulam_matrix("L", 0, 256, perturbed, eigen=perturbed_eigen_k0)
        sums = np.asarray(op.matrix.sum(axis=1)).ravel()
        assert np.max(np.abs(sums - 1.0)) < 1e-14

    def test_mu_is_stationary(self, perturbed_eigen_k0, perturbed):
        op = cl.ulam_matrix("L", 0, 256, perturbed, eigen=perturbed_eigen_k0)
        mu = perturbed_eigen_k0.mu
        assert np.max(np.abs(op.matrix.T @ mu - mu)) < 1e-12


class TestConeMembership:
    def test_uncoupled_srb_in_cone(self, perturbed_eigen_k0, perturbed, metric):
        pot = perturbed_eigen_k0.operator.potential
        cone = cl.ConeParams(
            f_beta=pot.declared_beta_norm, eta=perturbed.eta, beta=metric.beta
        )
        rep = cl.cone_membership(perturbed_eigen_k0, cone, metric)
        assert rep.passed
        assert rep.nu_h_error < 1e-10

    def test_scaling_identity(self, perturbed, metric):
        cone = cl.ConeParams(f_beta=2.0, eta=perturbed.eta, beta=metric.beta)
        z = np.linspace(0.0, 1.0, 50)
        assert cone.scaling_identity_defect(z) < 1e-12


class TestSeminormEstimators:
    def test_coordinate_observable(self, metric):
        phi = cl.node_coordinate()
        est = cl.estimate_holder_seminorm(phi, metric, k=1, samples=2000)
        assert 0.95 <= est <= 1.0 + 1e-9

    def test_sine_observable(self, metric):
        phi = cl.node_sine_potential(0.25)
        est = cl.estimate_holder_seminorm(phi, metric, k=0, samples=4000)
        assert 0.9 * 2 * math.pi * 0.25 <= est <= phi.declared_beta_norm + 1e-9


def reference_seminorm(vec, grid, m, samples, rng, mask=None):
    """grid_holder_seminorm for one vector, written out pair set by pair
    set: distances from (d, n) gathers of the cell midpoints, and the
    engineered pairs through unravel and ravel of the altered bins."""
    n = grid.n_cells
    a = rng.integers(0, n, samples)
    b = rng.integers(0, n, samples)
    shape = (grid.n_bins,) * grid.d
    multi = np.array(np.unravel_index(rng.integers(0, n, samples), shape))
    axis = rng.integers(0, grid.d, samples)
    alt = multi.copy()
    alt[axis, np.arange(samples)] = rng.integers(0, grid.n_bins, samples)
    a2 = np.ravel_multi_index(tuple(multi), shape)
    b2 = np.ravel_multi_index(tuple(alt), shape)
    reps = grid.reps()
    weights = grid.node_weights(m)[:, None]
    best = 0.0
    for ca, cb in ((a, b), (a2, b2)):
        dist = np.max(weights * m.node_distance(reps[:, ca], reps[:, cb]), axis=0)
        ok = dist > 0.0
        if mask is not None:
            ok &= mask[ca] & mask[cb]
        if np.any(ok):
            quot = np.abs(vec[ca] - vec[cb])[ok] / dist[ok] ** m.beta
            best = max(best, float(np.max(quot)))
    return best


class TestStackedSeminorm:
    SAMPLES = 300

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_rows_match_per_vector_calls(self, masked, dtype, metric):
        grid = transfer.Grid(k=1, n_bins=8)
        rng = np.random.default_rng(12)
        stack = rng.normal(size=(7, grid.n_cells)).astype(dtype)
        if dtype is complex:
            stack += 1j * rng.normal(size=stack.shape)
        mask = rng.uniform(size=grid.n_cells) < 0.7 if masked else None
        got = transfer.grid_holder_seminorm(
            stack, grid, metric, self.SAMPLES, np.random.default_rng(5), mask=mask
        )
        ref_rng = np.random.default_rng(5)
        ref = [
            reference_seminorm(row, grid, metric, self.SAMPLES, ref_rng, mask)
            for row in stack
        ]
        assert got.shape == (7,) and got.tolist() == ref
        one = transfer.grid_holder_seminorm(
            stack[2], grid, metric, self.SAMPLES, np.random.default_rng(5), mask=mask
        )
        assert type(one) is float
        assert one == reference_seminorm(
            stack[2], grid, metric, self.SAMPLES, np.random.default_rng(5), mask
        )

    # one pass, and passes of 2 iterates (5 = 2 + 2 + 1)
    @pytest.mark.parametrize("budget", [None, 2 * 256])
    def test_lasota_yorke_rows_match_per_iterate_loop(
        self, budget, perturbed_eigen_k0, perturbed, metric, monkeypatch
    ):
        if budget is not None:
            monkeypatch.setattr(transfer, "_SLAB_POINTS", budget)
        op = cl.ulam_matrix("L", 0, 256, perturbed, eigen=perturbed_eigen_k0)
        obs = [cl.node_coordinate(), cl.node_sine_potential(0.2)]
        rep = cl.check_lasota_yorke(
            op, perturbed_eigen_k0, obs, n_max=5, m=metric, ce=1.0,
            samples=self.SAMPLES, rng=np.random.default_rng(3),
        )
        rng = np.random.default_rng(3)
        reference_seminorm(perturbed_eigen_k0.h, op.grid, metric, self.SAMPLES, rng)
        cl.estimate_holder_seminorm(
            op.potential, metric, 0, samples=self.SAMPLES, rng=rng
        )
        measured = []
        for phi in obs:
            v = phi.on_array(op.grid.reps(), 0)
            for _ in range(5):
                v = op.matrix @ v
                measured.append(
                    reference_seminorm(v, op.grid, metric, self.SAMPLES, rng)
                )
        assert [r.measured for r in rep.rows] == measured
        assert [r.n for r in rep.rows] == [1, 2, 3, 4, 5] * 2

    # one pass, and passes of 5 iterates (12 = 5 + 5 + 2)
    @pytest.mark.parametrize("budget", [None, 5 * 2 * 4096])
    def test_twisted_rows_match_per_iterate_loop(
        self, budget, coupled_op_k1, metric, monkeypatch
    ):
        if budget is not None:
            monkeypatch.setattr(transfer, "_SLAB_POINTS", budget)
        obs = cl.node_coordinate()
        probe = cl.node_sine_potential(0.1)
        t_grid, n_max = [0.05, -0.1], 12
        rep = cl.check_twisted_bound(
            coupled_op_k1, obs, probe, t_grid, n_max=n_max, m=metric,
            c6=1.0, ce=1.0, samples=self.SAMPLES, rng=np.random.default_rng(4),
        )
        grid = coupled_op_k1.grid
        reps = grid.reps()
        support = np.asarray(coupled_op_k1.matrix.sum(axis=1)).ravel() > 0.0
        rng = np.random.default_rng(4)
        args = (grid, metric, self.SAMPLES, rng, support)
        reference_seminorm(obs.on_array(reps, 1), *args)
        probe_vec = probe.on_array(reps, 1).astype(complex)
        reference_seminorm(probe_vec, *args)
        ref = []
        for t in t_grid:
            tw = cl.twisted_matrix(coupled_op_k1, obs, t)
            ones = np.ones(grid.n_cells, dtype=complex)
            w = probe_vec
            sup_max = holder_max = 0.0
            for _ in range(n_max):
                ones = tw @ ones
                w = tw @ w
                sup_max = max(sup_max, float(np.max(np.abs(ones))))
                holder_max = max(holder_max, reference_seminorm(w, *args))
            ref.append((sup_max, holder_max))
        assert [(r.sup_norm_max, r.holder_max) for r in rep.rows] == ref


class TestLasotaYorke:
    def test_iterated_seminorms_below_bound(self, perturbed_eigen_k0, perturbed, metric):
        op = cl.ulam_matrix("L", 0, 256, perturbed, eigen=perturbed_eigen_k0)
        rep = cl.check_lasota_yorke(
            op,
            perturbed_eigen_k0,
            [cl.node_coordinate(), cl.node_sine_potential(0.2)],
            n_max=4,
            m=metric,
            ce=1.0,
        )
        assert rep.all_ok
        assert rep.c6 > 0.0

    def test_seminorms_decay_with_iteration(self, perturbed_eigen_k0, perturbed, metric):
        op = cl.ulam_matrix("L", 0, 256, perturbed, eigen=perturbed_eigen_k0)
        rep = cl.check_lasota_yorke(
            op, perturbed_eigen_k0, [cl.node_coordinate()],
            n_max=5, m=metric, ce=1.0,
        )
        measured = [r.measured for r in rep.rows]
        assert measured[-1] < measured[0]

    def test_rejects_expanding_interaction(self, perturbed_eigen_k0, perturbed, metric):
        op = cl.ulam_matrix("L", 0, 256, perturbed, eigen=perturbed_eigen_k0)
        with pytest.raises(ValueError):
            cl.check_lasota_yorke(
                op, perturbed_eigen_k0, [cl.node_coordinate()],
                n_max=1, m=metric, ce=25.0,
            )


class TestConformality:
    def test_quarter_interval_ratio(self, doubling_eigen_k0, doubling):
        # the doubling map stretches [0, 1/4) onto [0, 1/2); per-branch
        # image mass carries the factor 1/b
        box = [(0, 64)]
        res = cl.check_conformality(
            doubling_eigen_k0, box, doubling, mc_samples=400_000
        )
        assert res.ratio == pytest.approx(0.5, abs=0.01)

    def test_ratio_is_box_independent(self, doubling_eigen_k0, doubling):
        rng = np.random.default_rng(4)
        grid = doubling_eigen_k0.operator.grid
        ratios = []
        for _ in range(3):
            box = cl.random_admissible_box(
                grid, doubling, rng, min_bins=grid.n_bins // 8
            )
            res = cl.check_conformality(
                doubling_eigen_k0, box, doubling, mc_samples=400_000, rng=rng
            )
            ratios.append(res.ratio)
        assert max(ratios) - min(ratios) < 0.02

    @pytest.mark.parametrize("map_name", ["doubling", "perturbed"])
    def test_per_axis_box_test_matches_branch_table(self, map_name, request):
        # reference: some row of the full b**d branch table lies in the box
        node_map = request.getfixturevalue(map_name)
        grid = cl.Grid(k=1, n_bins=16)
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.0, np.nextafter(1.0, 0.0), (grid.d, 20_000))
        for _ in range(5):
            box = cl.random_admissible_box(grid, node_map, rng)
            table = cl.lattice.branch_preimage_table(pts, node_map)
            ref = np.zeros(pts.shape[1], dtype=bool)
            for pre in table:
                ref |= transfer._points_in_box(pre, grid, box)
            got = transfer._preimage_meets_box(pts, grid, box, node_map)
            assert ref.any()
            assert np.array_equal(got, ref)
        # boxes whose axis intervals touch the ends of a branch domain,
        # [0, 1/2) and [1/2, 1) for both maps, and a few interior ones
        for box in (
            [(0, 8), (8, 16), (0, 1)],
            [(7, 8), (15, 16), (8, 9)],
            [(0, 3), (13, 16), (5, 11)],
            [(8, 16), (0, 8), (2, 6)],
        ):
            ref = np.zeros(pts.shape[1], dtype=bool)
            for pre in cl.lattice.branch_preimage_table(pts, node_map):
                ref |= transfer._points_in_box(pre, grid, box)
            got = transfer._preimage_meets_box(pts, grid, box, node_map)
            assert ref.any()
            assert np.array_equal(got, ref)

    def test_non_injective_box_rejected(self, doubling_eigen_k0, doubling):
        with pytest.raises(ValueError):
            cl.check_conformality(doubling_eigen_k0, [(0, 256)], doubling)


class _PrescribedUniforms(np.random.Generator):
    """A generator whose random() returns the given values: rng.choice and
    the guide-table sampler both draw their uniforms through it."""

    def __init__(self, u):
        super().__init__(np.random.PCG64(0))
        self.u = np.asarray(u, dtype=float)

    def random(self, size=None, dtype=np.float64, out=None):
        assert size == self.u.size
        return self.u.copy()


def _zeros_at_ends_and_middle():
    p = np.random.default_rng(1).random(64)
    p[:3] = p[30:35] = p[-4:] = 0.0
    return p / p.sum()


def _one_cell_holds_most():
    p = np.full(4096, 0.001 / 4095)
    p[1234] = 0.999
    return p


def _last_cell_holds_almost_all():
    # every other CDF entry crowds into the first bucket
    p = np.full(4096, 1e-12)
    p[-1] = 1.0 - 4095e-12
    return p


def _not_a_power_of_two():
    p = np.random.default_rng(2).random(24 ** 3) ** 4
    return p / p.sum()


_WEIGHTS = {
    "zeros": _zeros_at_ends_and_middle,
    "one_cell_99.9%": _one_cell_holds_most,
    "last_cell_all": _last_cell_holds_almost_all,
    "single_cell": lambda: np.ones(1),
    "24^3_cells": _not_a_power_of_two,
}


class TestCellSampler:
    """The guide-table sampler against rng.choice itself."""

    @pytest.mark.parametrize("name", sorted(_WEIGHTS))
    def test_draws_match_choice(self, name):
        p = _WEIGHTS[name]()
        sampler = transfer._CellSampler(p)
        # a power of two, so u*m and j/m are exact
        assert sampler.m >= 4 * p.size and sampler.m & (sampler.m - 1) == 0
        assert len(sampler.steps) <= math.ceil(math.log2(p.size)) + 1
        for seed in (0, 7):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            ref = a.choice(p.size, 100_000, p=p)
            got = sampler.draw(b, 100_000)
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("name", sorted(_WEIGHTS))
    def test_edge_uniforms_match_choice(self, name):
        p = _WEIGHTS[name]()
        sampler = transfer._CellSampler(p)
        cdf = p.cumsum()
        cdf /= cdf[-1]
        edges = np.arange(sampler.m) / sampler.m
        on_cdf = cdf[cdf < 1.0]
        u = np.concatenate([
            [0.0, np.nextafter(1.0, 0.0)],
            on_cdf, np.nextafter(on_cdf, 0.0), np.nextafter(on_cdf, 1.0),
            edges, np.nextafter(edges[1:], 0.0), np.nextafter(edges, 1.0),
        ])
        assert u.min() == 0.0 and u.max() < 1.0
        ref = _PrescribedUniforms(u).choice(p.size, u.size, p=p)
        got = sampler.draw(_PrescribedUniforms(u), u.size)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("nu", [
        [0.2, np.nan, 0.3],
        [0.2, np.inf, 0.3],
        [0.5, -0.1, 0.6],
        [0.0, 0.0, 0.0],
    ])
    def test_invalid_weights_raise_like_choice(self, nu):
        # check_conformality hands the sampler nu / nu.sum(), as it handed
        # rng.choice: the same ValueError, with choice's message
        nu = np.array(nu)
        with np.errstate(invalid="ignore", divide="ignore"):
            p = nu / nu.sum()
        with pytest.raises(ValueError) as ref:
            np.random.default_rng(0).choice(p.size, 10, p=p)
        with pytest.raises(ValueError) as got:
            transfer._CellSampler(p)
        assert str(ref.value).startswith(str(got.value))
        # raw weights raise too (choice's Kahan sum may name another fault)
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(nu.size, 10, p=nu)
        with pytest.raises(ValueError):
            transfer._CellSampler(nu)


def _reference_box_cell_mask(grid, box):
    bins = np.unravel_index(np.arange(grid.n_cells), (grid.n_bins,) * grid.d)
    mask = np.ones(grid.n_cells, dtype=bool)
    for axis, (lo, hi) in enumerate(box):
        mask &= (bins[axis] >= lo) & (bins[axis] < hi)
    return mask


def reference_check_conformality(
    eigen, box, node_map, coupling=None, mc_samples=200_000, rng=None
):
    """check_conformality as it was with rng.choice, kept as a reference."""
    _ONE_MINUS = np.nextafter(1.0, 0.0)
    rng = np.random.default_rng(0) if rng is None else rng
    grid = eigen.operator.grid
    coupling = coupling or cl.Coupling(kind="diffusive", epsilon=0.0)
    mask = _reference_box_cell_mask(grid, box)
    lhs = float(np.sum(np.exp(-eigen.g[mask]) * eigen.nu[mask]))

    # injectivity probe on uniform samples of the whole cube
    probe = rng.uniform(0.0, _ONE_MINUS, (grid.d, 2000))
    table = cl.lattice.branch_preimage_table(probe, node_map)
    counts = np.zeros(probe.shape[1], dtype=int)
    for branch in range(table.shape[0]):
        counts += transfer._points_in_box(table[branch], grid, box)
    if np.any(counts >= 2):
        raise ValueError("dynamics is not injective on the supplied box")

    # Monte Carlo image counting for nu(T box)
    cells = rng.choice(grid.n_cells, size=mc_samples, p=eigen.nu / eigen.nu.sum())
    bins = np.array(np.unravel_index(cells, (grid.n_bins,) * grid.d))
    x = (bins + rng.uniform(0.0, 1.0, bins.shape)) / grid.n_bins
    y = coupling.invert_on_array(x.T, grid.k, node_map.p_tau).T
    valid = np.all((y >= 0.0) & (y < 1.0), axis=0)
    hit = np.zeros(mc_samples, dtype=bool)
    if np.any(valid):
        hit[valid] = transfer._preimage_meets_box(
            np.clip(y[:, valid], 0.0, _ONE_MINUS), grid, box, node_map
        )
    rhs = float(np.mean(hit))
    ratio = lhs / rhs if rhs > 0.0 else math.inf
    return transfer.ConformalityResult(lhs=lhs, rhs=rhs, ratio=ratio)


@pytest.fixture(scope="module")
def perturbed_eigen_k1(perturbed, metric):
    pot = cl.srb_potential(perturbed, max_k=1, metric=metric)
    return cl.leading_eigenpair(cl.ulam_matrix("P", 1, 16, perturbed, potential=pot))


@pytest.fixture(scope="module")
def doubling_eigen_k1(doubling):
    return cl.leading_eigenpair(
        cl.ulam_matrix("P", 1, 16, doubling, potential=cl.zero_potential())
    )


class TestConformalityReference:
    @pytest.mark.parametrize("case, epsilon", [
        ("perturbed_eigen_k1", 0.05),  # desk
        ("doubling_eigen_k1", 0.0),  # flat
        ("doubling_eigen_k0", 0.0),  # criterion 8
    ])
    def test_matches_choice_implementation(self, case, epsilon, request):
        eigen = request.getfixturevalue(case)
        node_map = eigen.operator.node_map
        grid = eigen.operator.grid
        coupling = cl.Coupling(epsilon=epsilon)
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(3):
            box = cl.random_admissible_box(
                grid, node_map, a, min_bins=max(1, grid.n_bins // 8)
            )
            assert cl.random_admissible_box(
                grid, node_map, b, min_bins=max(1, grid.n_bins // 8)
            ) == box
            ref = reference_check_conformality(
                eigen, box, node_map, coupling=coupling, rng=a
            )
            got = cl.check_conformality(
                eigen, box, node_map, coupling=coupling, rng=b
            )
            for field in ("lhs", "rhs", "ratio"):
                assert (
                    np.float64(getattr(got, field)).tobytes()
                    == np.float64(getattr(ref, field)).tobytes()
                ), field
            assert a.bit_generator.state == b.bit_generator.state
            assert 0.0 < got.rhs < 1.0


class TestCoupledMatrix:
    def test_active_rows_sum_to_one(self, coupled_op_k1):
        sums = np.asarray(coupled_op_k1.matrix.sum(axis=1)).ravel()
        support = sums > 0.0
        assert support.sum() > 0
        assert np.max(np.abs(sums[support] - 1.0)) < 1e-12

    def test_cells_off_the_coupling_range_have_empty_rows(self, perturbed, metric):
        # on a fine enough grid some cells lie wholly outside the image of
        # the coupling (which shrinks the cube); those rows stay empty
        pot = cl.srb_potential(perturbed, max_k=1, metric=metric)
        op = cl.ulam_matrix(
            "coupled", 1, 32, perturbed, potential=pot,
            coupling=cl.Coupling(epsilon=0.05),
        )
        sums = np.asarray(op.matrix.sum(axis=1)).ravel()
        support = sums > 0.0
        assert 0 < support.sum() < op.n_cells
        assert np.max(np.abs(sums[support] - 1.0)) < 1e-12

    def test_stationary_vector_lives_on_the_support(self, coupled_op_k1):
        nu = cl.stationary_distribution(coupled_op_k1)
        sums = np.asarray(coupled_op_k1.matrix.sum(axis=1)).ravel()
        assert np.all(nu[sums == 0.0] == 0.0)
        assert nu.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_coupling_matches_normalized_matrix(self, perturbed, metric):
        pot = cl.srb_potential(perturbed, max_k=0, metric=metric)
        p = cl.ulam_matrix("P", 0, 64, perturbed, potential=pot)
        eigen = cl.leading_eigenpair(p)
        l_op = cl.ulam_matrix("L", 0, 64, perturbed, eigen=eigen)
        c_op = cl.ulam_matrix(
            "coupled", 0, 64, perturbed, potential=pot,
            coupling=cl.Coupling(epsilon=0.0),
        )
        nu_l = cl.stationary_distribution(l_op)
        nu_c = cl.stationary_distribution(c_op)
        # the two assemblies (preimage branches vs forward images) alias
        # differently at cell scale; compare the distribution functions
        assert np.max(np.abs(np.cumsum(nu_l) - np.cumsum(nu_c))) < 0.01


def _all_quad_points(grid, quad):
    """All quadrature points at once, with their parent cells."""
    fine = grid.n_bins * quad
    bins = np.unravel_index(np.arange(fine ** grid.d), (fine,) * grid.d)
    pts = (np.stack(bins) + 0.5) / fine
    parent = np.ravel_multi_index(
        tuple(b // quad for b in bins), (grid.n_bins,) * grid.d
    )
    return pts, parent


def _monolithic_p(grid, node_map, potential, quad):
    """Reference 'P' assembly from one all-at-once branch table."""
    pts, rows = _all_quad_points(grid, quad)
    b_k = node_map.b ** grid.d
    weight = 1.0 / (b_k * quad ** grid.d)
    table = cl.lattice.branch_preimage_table(pts, node_map)
    data, row_idx, col_idx = [], [], []
    for branch in range(b_k):
        pre = table[branch]
        data.append(np.exp(potential.on_array(pre, grid.k)) * weight)
        row_idx.append(rows)
        col_idx.append(grid.cell_of(pre))
    return sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(row_idx), np.concatenate(col_idx))),
        shape=(grid.n_cells, grid.n_cells),
    ).tocsr()


def _monolithic_coupled(grid, node_map, potential, coupling, quad):
    """Reference 'coupled' assembly from all quadrature points at once."""
    pts, cols = _all_quad_points(grid, quad)
    fwd = node_map.forward(pts)
    images = coupling.apply_to_array(fwd.T, grid.k, node_map.p_tau).T
    np.clip(images, 0.0, np.nextafter(1.0, 0.0), out=images)
    rows = grid.cell_of(images)
    log_det = np.sum(np.log(node_map.forward_deriv(pts)), axis=0)
    log_det += math.log(abs(np.linalg.det(coupling.dense_matrix(grid.k))))
    weight = np.exp(potential.on_array(pts, grid.k) + log_det)
    weight /= quad ** grid.d
    raw = sp.coo_matrix(
        (weight, (rows, cols)), shape=(grid.n_cells, grid.n_cells)
    ).tocsr()
    return transfer._normalize_on_reachable(raw)


def _assert_same_bytes(got, ref):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


class TestSlabAssembly:
    """Slab-wise assembly gives the all-at-once matrices bit for bit,
    whatever the slab size: one bin per slab, a size that does not divide
    n_bins, and a single slab."""

    CASES = [(0, 64), (1, 6)]
    SLAB_BINS = [1, 5, None]

    @staticmethod
    def _points_per_bin(grid, quad):
        return quad ** grid.d * grid.n_bins ** (grid.d - 1)

    @pytest.mark.parametrize("slab_bins", SLAB_BINS)
    @pytest.mark.parametrize("k,n_bins", CASES)
    def test_slabs_enumerate_all_points_in_order(self, k, n_bins, slab_bins):
        grid = cl.Grid(k=k, n_bins=n_bins)
        per_bin = self._points_per_bin(grid, 4)
        slabs = list(grid.quad_slabs(4, (slab_bins or n_bins) * per_bin))
        assert len(slabs) == -(-n_bins // (slab_bins or n_bins))
        pts, parent = _all_quad_points(grid, 4)
        assert np.array_equal(np.concatenate([s[0] for s in slabs], axis=1), pts)
        assert np.array_equal(np.concatenate([s[1] for s in slabs]), parent)

    # The Newton branches of the perturbed map stop on the largest step of
    # the whole call.  For d >= 2 every slab holds the whole 1-d grid on its
    # other axes, so each call takes the same steps as one all-at-once
    # call; for d = 1 a slab holds part of it, so k=0 uses the closed-form
    # branches of the doubling map (see CHANGES.md).
    @pytest.mark.parametrize("slab_bins", SLAB_BINS)
    @pytest.mark.parametrize(
        "k,n_bins,map_name", [(0, 64, "doubling"), (1, 6, "perturbed")]
    )
    def test_p_matrix_matches_monolithic(
        self, k, n_bins, map_name, slab_bins, metric, monkeypatch, request
    ):
        node_map = request.getfixturevalue(map_name)
        grid = cl.Grid(k=k, n_bins=n_bins)
        budget = (slab_bins or n_bins) * self._points_per_bin(grid, 4)
        monkeypatch.setattr(transfer, "_SLAB_POINTS", budget * node_map.b ** grid.d)
        pot = cl.node_sine_potential(0.1, 0, metric)
        op = cl.ulam_matrix("P", k, n_bins, node_map, potential=pot)
        _assert_same_bytes(op.matrix, _monolithic_p(grid, node_map, pot, 4))

    @pytest.mark.parametrize("slab_bins", SLAB_BINS)
    @pytest.mark.parametrize("k,n_bins", CASES)
    def test_coupled_matrix_matches_monolithic(
        self, k, n_bins, slab_bins, perturbed, metric, monkeypatch
    ):
        grid = cl.Grid(k=k, n_bins=n_bins)
        budget = (slab_bins or n_bins) * self._points_per_bin(grid, 4)
        monkeypatch.setattr(transfer, "_SLAB_POINTS", budget)
        pot = cl.srb_potential(perturbed, max_k=k, metric=metric)
        coupling = cl.Coupling(epsilon=0.05)
        op = cl.ulam_matrix(
            "coupled", k, n_bins, perturbed, potential=pot, coupling=coupling
        )
        ref = _monolithic_coupled(grid, perturbed, pot, coupling, 4)
        _assert_same_bytes(op.matrix, ref)


class TestPersistence:
    def test_operator_roundtrip(self, coupled_op_k1, tmp_path):
        path = os.path.join(tmp_path, "op.txt")
        cl.save_operator(coupled_op_k1, path)
        back = cl.load_operator(path)
        assert back.kind == coupled_op_k1.kind
        assert back.grid == coupled_op_k1.grid
        assert back.quad == coupled_op_k1.quad
        diff = (back.matrix - coupled_op_k1.matrix).tocoo()
        assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0
