import dataclasses
import itertools
import math
import os
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import cml_lab as cl
from cml_lab import transfer
from conftest import assert_no_children

ONE = cl.constant_potential(1.0, name="one")


class TestBranchSumOperator:
    def test_constant_observable_zero_potential(self, doubling):
        x = np.array([0.3, 0.7, 0.1])
        for k in (0, 1):
            assert cl.eval_Pk(ONE, cl.zero_potential(), x, k, doubling) == 1.0

    def test_constant_potential_scales(self, doubling):
        x = np.array([0.3])
        val = cl.eval_Pk(ONE, cl.constant_potential(0.7), x, 0, doubling)
        assert val == pytest.approx(math.exp(0.7))

    def test_sine_potential_closed_form(self, doubling):
        # doubling preimages of 1/2 are 1/4 and 3/4; sin(2 pi .) takes
        # values +-1 there, so the branch average is cosh(amplitude)
        f = cl.node_sine_potential(0.1)
        val = cl.eval_Pk(ONE, f, np.array([0.5]), 0, doubling)
        assert val == pytest.approx(math.cosh(0.1), abs=1e-12)

    def test_width_projection_consistency(self, doubling, perturbed):
        # a wider window gives the bits of its central 2k+1 rows, a
        # narrower one those of the window padded with p_tau, for one
        # state and for a block
        f = cl.decaying_sine_potential(0.3, 2.0)
        rng = np.random.default_rng(8)
        for nm in (doubling, perturbed):
            phi = cl.srb_potential(nm)
            for x in (rng.uniform(0.0, 0.999, 5), rng.uniform(0.0, 0.999, (5, 7))):
                pad = [(2, 2)] + [(0, 0)] * (x.ndim - 1)
                padded = np.pad(x, pad, constant_values=nm.p_tau)
                # k = 2 cuts the padded window back to x
                for k, window in [(0, x[2:3]), (1, x[1:4]), (2, padded), (4, padded)]:
                    got = cl.eval_Pk(phi, f, x, k, nm)
                    assert np.array_equal(got, cl.eval_Pk(phi, f, window, k, nm)), k

    def test_large_potential_log_space(self, doubling):
        big = cl.constant_potential(200.0)
        val = cl.eval_Pk(ONE, big, np.array([0.3]), 0, doubling)
        assert math.log(val) == pytest.approx(200.0)

    # P_k of one state of half-width m, for m = k - 1, k, k + 1 (m >= 0)
    # and k = 0..3, as the operator gave it on a FiniteState, the lattice
    # state type it took before it took node-major arrays
    FINITE_STATE_BITS = {
        "doubling": [
            "0x1.c48287b6c57f0p-2", "0x1.12f9e956e3b14p-2",
            "0x1.c0f7abe289366p-1", "0x1.e59588df07ccap-1", "0x1.a8353e9bdb9a4p-1",
            "0x1.be8f06bcb3c58p-1", "0x1.4bd929020518fp+0", "0x1.87e87e7536f15p+0",
            "0x1.1f93cc1a53b6cp+0", "0x1.8329f883cf5cdp+0", "0x1.38faf57a11166p+0",
        ],
        "perturbed": [
            "0x1.bcde4e46b239dp-2", "0x1.106631ab549bap-2",
            "0x1.c88f09c12213bp-1", "0x1.e573bc1156e44p-1", "0x1.9c1852462f1b6p-1",
            "0x1.aea2cc2107e0fp-1", "0x1.47c9c94efce39p+0", "0x1.8ca234fae927fp+0",
            "0x1.16ca26e5facffp+0", "0x1.8c9e66fdfc0d4p+0", "0x1.321f83ff546bep+0",
        ],
    }

    @pytest.mark.parametrize("map_name", ["doubling", "perturbed"])
    def test_same_bits_as_the_finite_state_operator(self, map_name, doubling, perturbed):
        # the cut or padded window keeps every bit the operator gave
        nm = doubling if map_name == "doubling" else perturbed
        phi = cl.Potential(
            name="coords",
            node_term=lambda j, x, k: 0.5 ** abs(j) * x,
            declared_sup_norm=3.0,
            declared_beta_norm=3.0,
        )
        f = cl.decaying_sine_potential(0.3, 2.0)
        rng = np.random.default_rng(26)
        widths = [(k, m) for k in range(4) for m in range(max(k - 1, 0), k + 2)]
        for (k, m), want in zip(widths, self.FINITE_STATE_BITS[map_name], strict=True):
            x = rng.uniform(0.0, 0.999, 2 * m + 1)
            assert cl.eval_Pk(phi, f, x, k, nm).hex() == want, (k, m)

    def test_bad_blocks_are_refused(self, doubling):
        # one state's checks are in test_lattice's test_state_rejects_bad_values
        f = cl.zero_potential()
        for values, k in [
            (np.full((2, 3), 0.5), 0),  # an even number of node rows
            (np.array([[0.2], [-0.1], [0.3]]), 0),  # a value outside [0, 1)
            (np.full((3, 2, 2), 0.5), 1),  # neither one state nor a block
            (np.full(3, 0.5), -1),  # no operator width
        ]:
            with pytest.raises(ValueError):
                cl.eval_Pk(ONE, f, values, k, doubling)

    def test_one_state_gives_a_float_and_a_block_an_array(self, doubling):
        f = cl.node_sine_potential(0.1)
        one = cl.eval_Pk(ONE, f, [0.3, 0.6, 0.8], 1, doubling)
        block = cl.eval_Pk(ONE, f, np.array([[0.3], [0.6], [0.8]]), 1, doubling)
        assert type(one) is float
        assert block.shape == (1,) and block[0] == one

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("map_name", ["doubling", "perturbed"])
    def test_node_factors_match_the_branch_table(self, map_name, k, doubling, perturbed):
        # the per-node factored sum against the mean over all b**(2k+1)
        # rows of branch_preimage_table, for multi-node phi against
        # multi-node f; relative to the mean of exp(f) |phi|, which bounds
        # the sum's rounding when phi changes sign
        nm = doubling if map_name == "doubling" else perturbed
        rng = np.random.default_rng(20 + k)
        pots = [
            cl.srb_potential(nm),
            cl.decaying_sine_potential(0.3, 2.0),
            cl.random_trig_observable(rng, max_node=3, n_terms=8),
        ]
        for f, phi in itertools.product(pots, repeat=2):
            for _ in range(20):
                x = rng.uniform(0.0, 0.999, 2 * k + 3)
                table = cl.lattice.branch_preimage_table(x[1:-1, None], nm)[:, :, 0].T
                weights = np.exp(f.on_array(table, k))
                pv = phi.on_array(table, k)
                scale = np.mean(weights * np.abs(pv))
                got = cl.eval_Pk(phi, f, x, k, nm)
                assert abs(got - np.mean(weights * pv)) <= 1e-12 * scale, (f.name, phi.name)


class TestCauchySequence:
    @pytest.mark.parametrize("map_name", ["doubling", "perturbed"])
    def test_columns_match_per_state_eval(self, map_name, doubling, perturbed):
        # a (2m+1, samples) block against eval_Pk one state at a time, for
        # positive phi, where relative error is well defined.  Closed-form
        # branches give the same bits; the Newton branches stop on the
        # whole block, so they may move in the last bit
        nm = doubling if map_name == "doubling" else perturbed
        positive = cl.Potential(
            name="positive",
            node_term=lambda j, x, k: 1.0 + 0.5 ** (abs(j) + 1) * np.sin(2 * np.pi * x),
            declared_sup_norm=3.0,
            declared_beta_norm=2 * np.pi,
        )
        rng = np.random.default_rng(3)
        for f, phi in itertools.product(
            [cl.decaying_sine_potential(0.3, 2.0), cl.srb_potential(nm)], [ONE, positive]
        ):
            # narrower, equal and wider windows than the operator's
            for k, m in [(k, m) for k in (0, 1, 2) for m in range(max(k - 1, 0), k + 2)]:
                values = rng.uniform(0.0, 0.999, (2 * m + 1, 50))
                got = cl.eval_Pk(phi, f, values, k, nm)
                want = np.array([cl.eval_Pk(phi, f, col, k, nm) for col in values.T])
                assert np.max(np.abs(got - want) / want) <= 1e-15, (f.name, phi.name, k, m)
                if nm is doubling:
                    assert np.array_equal(got, want)

    def test_sup_differences_match_per_state_eval(self, perturbed):
        # the default rng's states, one eval_Pk per state and width
        f = cl.decaying_sine_potential(0.1, 4.0)
        phi = cl.node_sine_potential(0.2)
        rep = cl.check_Pk_cauchy(phi, f, k_max=2, samples=30, node_map=perturbed)
        rng = np.random.default_rng(0)
        states = [rng.uniform(0.0, transfer._ONE_MINUS, 7) for _ in range(30)]
        for k, diff in enumerate(rep.sup_differences):
            pk = lambda x, k: cl.eval_Pk(phi, f, x, k, perturbed)
            want = max(abs(pk(x, k + 1) - pk(x, k)) for x in states)
            assert diff == pytest.approx(want, rel=1e-12, abs=1e-15)

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
        with pytest.raises(MemoryError, match="grid needs 1073741824 cells"):
            cl.ulam_matrix(
                "P", 2, 64, doubling,
                potential=cl.zero_potential(), cell_budget=100_000,
            )
        # a count too long to print in full is named as a power
        with pytest.raises(MemoryError, match=r"grid needs 16\^4001 cells"):
            cl.ulam_matrix("P", 2000, 16, doubling, potential=cl.zero_potential())

    @pytest.mark.parametrize("n_bins", [2, 3, 16, 1000])
    @pytest.mark.parametrize("budget", [0, 1, 7, 8, 9, 4095, 4096, 10**30])
    def test_budget_violation_is_the_exact_comparison(self, n_bins, budget):
        for k in range(4):
            grid = cl.Grid(k=k, n_bins=n_bins)
            over = grid.budget_violation(budget)
            assert (over is not None) == (grid.n_cells > budget), (k, budget)

    @pytest.mark.parametrize("n_bins", [1, 3, 48])
    def test_bin_of_is_the_clipped_floor(self, n_bins):
        # every bin edge and its neighbours, and values off [0, 1): below 0
        # and from 1 up, the clip takes the end bins
        grid = cl.Grid(k=1, n_bins=n_bins)
        edges = np.arange(n_bins + 1) / n_bins
        values = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [-2.0, -1.0, -0.5 / n_bins, -0.0, 1.5, 7.0],
            np.random.default_rng(0).uniform(-0.5, 1.5, 1000),
        ])
        ref = np.clip(np.floor(values * n_bins), 0, n_bins - 1).astype(np.int64)
        got = grid.bin_of(values)
        assert got.dtype == np.int64 and np.array_equal(got, ref)
        block = values[:1000].reshape(10, 100, 1)
        assert np.array_equal(grid.bin_of(block), ref[:1000].reshape(block.shape))

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

    def test_grid_is_frozen(self):
        # the bins and midpoints are cached on first use: a grid whose
        # n_bins could be assigned would serve the old ones
        grid = cl.Grid(k=1, n_bins=8)
        reps = grid.reps().copy()
        for name, value in (("n_bins", 4), ("k", 0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(grid, name, value)
        assert (grid.k, grid.n_bins) == (1, 8)
        assert np.array_equal(grid.reps(), reps)
        assert np.array_equal(grid.reps(), cl.Grid(k=1, n_bins=8).reps())


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
        assert np.allclose(e.mu, e.nu, atol=1e-12)

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

    def test_eigenpair_requires_p_kind(self, doubling_eigen_k0, doubling, coupled_op_k1):
        op = cl.ulam_matrix(
            "L", 0, 256, doubling, eigen=doubling_eigen_k0
        )
        with pytest.raises(ValueError):
            cl.leading_eigenpair(op)
        # a normalized coupled operator already carries its triple
        with pytest.raises(ValueError, match="raw operator"):
            cl.leading_eigenpair(coupled_op_k1)


class TestPowerIteration:
    def test_positive_matrix_matches_dense_solver(self):
        a = np.random.default_rng(3).uniform(0.1, 1.0, (50, 50))
        lam, v = cl.power_iterate(a)[:2]
        w, vecs = np.linalg.eig(a)
        i = np.argmax(np.abs(w))
        assert lam == pytest.approx(float(w[i].real), rel=1e-12)
        ref = vecs[:, i].real / vecs[:, i].real.sum()
        assert np.max(np.abs(v - ref)) < 1e-12
        assert v.sum() == pytest.approx(1.0, abs=1e-14)

    def test_records_its_steps_and_final_change(self):
        # diag(1, 1/2) from 1/n: the second coordinate halves each step,
        # so the k-th step changes the iterate by 2^-(k+1) after rescaling
        # (the vector is (1, 2^-k) / (1 + 2^-k))
        res = cl.power_iterate(np.diag([1.0, 0.5]))
        w = [np.array([1.0, 2.0 ** -k]) / (1.0 + 2.0 ** -k) for k in range(res.steps + 1)]
        assert res.change == float(np.max(np.abs(w[-1] - w[-2])))
        assert res.change <= transfer._POWER_TOL * np.max(res.v)
        prev = float(np.max(np.abs(w[-2] - w[-3])))
        assert prev > transfer._POWER_TOL * np.max(w[-2])
        assert np.array_equal(res.v, w[-1])
        assert res.lam == pytest.approx(1.0, abs=1e-12)

    def test_equal_moduli_do_not_converge(self, monkeypatch):
        # dominant eigenvalues +-sqrt(2): the iterates alternate forever
        monkeypatch.setattr(transfer, "_POWER_STEPS", 1000)
        with pytest.raises(RuntimeError, match="did not converge"):
            cl.power_iterate(np.array([[0.0, 2.0], [1.0, 0.0]]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_change_stops_at_once(self):
        # a NaN entry, or a sum that overflows to inf and then divides 0 by
        # 0, used to run all _POWER_STEPS steps before raising
        with pytest.raises(RuntimeError, match="sup-change nan at step 1$"):
            cl.power_iterate(np.array([[1.0, np.nan], [0.5, 0.5]]))
        with pytest.raises(RuntimeError, match="sup-change nan at step 2$"):
            cl.power_iterate(np.full((2, 2), 1e308))


class TestNormalizedMatrix:
    def test_rows_sum_exactly_to_one(self, perturbed_eigen_k0, perturbed):
        op = cl.ulam_matrix("L", 0, 256, perturbed, eigen=perturbed_eigen_k0)
        sums = np.asarray(op.matrix.sum(axis=1)).ravel()
        assert np.max(np.abs(sums - 1.0)) < 1e-14

    def test_records_the_quad_of_the_p_operator(self, perturbed, metric):
        pot = cl.srb_potential(perturbed, max_k=0, metric=metric)
        eigen = cl.leading_eigenpair(
            cl.ulam_matrix("P", 0, 64, perturbed, potential=pot, quad=8)
        )
        with pytest.raises(ValueError, match="quad"):
            cl.ulam_matrix("L", 0, 64, perturbed, eigen=eigen)
        op = cl.ulam_matrix("L", 0, 64, perturbed, eigen=eigen, quad=8)
        assert op.quad == 8 and "quad=8" in op.fingerprint()

    def test_mu_is_stationary(self, perturbed_eigen_k0, perturbed):
        op = cl.ulam_matrix("L", 0, 256, perturbed, eigen=perturbed_eigen_k0)
        mu = perturbed_eigen_k0.mu
        assert np.max(np.abs(op.matrix.T @ mu - mu)) < 1e-12

    def test_carries_the_p_triple_without_its_operator(self, perturbed_eigen_k0, perturbed):
        op = cl.ulam_matrix("L", 0, 256, perturbed, eigen=perturbed_eigen_k0)
        assert op.eigen.operator is None
        assert op.eigen.lam == perturbed_eigen_k0.lam
        assert np.array_equal(op.eigen.mu, perturbed_eigen_k0.mu)
        with pytest.raises(ValueError, match="'P' operator"):
            cl.ulam_matrix("L", 0, 256, perturbed, eigen=op.eigen)


class TestSeminormEstimators:
    def test_coordinate_observable(self, metric):
        phi = cl.node_coordinate()
        est = cl.estimate_holder_seminorm(phi, metric, k=1, samples=2000)
        assert 0.95 <= est <= 1.0 + 1e-9

    def test_sine_observable(self, metric):
        phi = cl.node_sine_potential(0.25)
        est = cl.estimate_holder_seminorm(phi, metric, k=0, samples=4000)
        assert 0.9 * 2 * math.pi * 0.25 <= est <= phi.declared_beta_norm + 1e-9


def reference_seminorm(vec, grid, m, samples, rng):
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
        if np.any(ok):
            quot = np.abs(vec[ca] - vec[cb])[ok] / dist[ok] ** m.beta
            best = max(best, float(np.max(quot)))
    return best


class TestStackedSeminorm:
    """The seminorm sampler, and the rows of the LY check, against
    per-iterate references."""

    SAMPLES = 300

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_rows_match_per_vector_calls(self, dtype, metric):
        grid = transfer.Grid(k=1, n_bins=8)
        rng = np.random.default_rng(12)
        vec = rng.normal(size=grid.n_cells).astype(dtype)
        if dtype is complex:
            vec += 1j * rng.normal(size=vec.shape)
        one = transfer.grid_holder_seminorm(
            vec, grid, metric, self.SAMPLES, np.random.default_rng(5)
        )
        assert type(one) is float
        assert one == reference_seminorm(
            vec, grid, metric, self.SAMPLES, np.random.default_rng(5)
        )

    def test_lasota_yorke_rows_match_per_iterate_loop(
        self, perturbed_eigen_k0, perturbed, metric
    ):
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


def _points_in_box(pts, grid, box):
    inside = np.ones(pts.shape[1], dtype=bool)
    for axis, (lo, hi) in enumerate(box):
        inside &= (pts[axis] >= lo / grid.n_bins) & (pts[axis] < hi / grid.n_bins)
    return inside


def _preimage_in_box(pts, grid, box, node_map):
    """Whether some row of the b**d branch table of each point (d, n)
    lies in the box."""
    hit = np.zeros(pts.shape[1], dtype=bool)
    for pre in cl.lattice.branch_preimage_table(pts, node_map):
        hit |= _points_in_box(pre, grid, box)
    return hit


def _cli_boxes(grid, node_map, seed, count=20):
    """The boxes the conformality step of `cml-lab run` draws."""
    rng = np.random.default_rng(seed)
    return [
        cl.random_admissible_box(
            grid, node_map, rng, min_bins=max(1, grid.n_bins // 8)
        )
        for _ in range(count)
    ]


@pytest.fixture(scope="module")
def flat_op(doubling):
    """The flat workload's operator: 'L' of the doubling map with the zero
    potential at k=1, N=16."""
    p = cl.ulam_matrix("P", 1, 16, doubling, potential=cl.zero_potential())
    return cl.ulam_matrix("L", 1, 16, doubling, eigen=cl.leading_eigenpair(p))


@pytest.fixture(scope="module")
def flat_op_k0(doubling_eigen_k0, doubling):
    return cl.ulam_matrix("L", 0, 256, doubling, eigen=doubling_eigen_k0)


@pytest.fixture(scope="module")
def coupled_op_n24(raw_coupled_n24):
    """Desk's coupled operator at N=24, normalized by its triple."""
    return transfer._normalized("coupled", cl.leading_eigenpair(raw_coupled_n24))


def _with_nu(op, nu):
    """op with the nu of its triple replaced."""
    return dataclasses.replace(op, eigen=dataclasses.replace(op.eigen, nu=nu))


@pytest.fixture(scope="module")
def tilted_op(perturbed, metric):
    # the coupled operator at eps=0.2 with a steep, unnormalized nu: the
    # image mass then depends visibly on the coupling's change of variables
    # and on the normalization by sum(nu)
    op = cl.ulam_matrix(
        "coupled", 1, 16, perturbed,
        potential=cl.srb_potential(perturbed, max_k=1, metric=metric),
        coupling=cl.Coupling(epsilon=0.2),
    )
    reps = op.grid.reps()
    nu = 3.0 * np.exp(4.0 * reps[0] - 3.0 * reps[2])
    return _with_nu(op, nu / nu.mean())


def _ratio_stats(op, seed):
    """Mean and spread, max |ratio - mean| / mean, of the conformality
    ratios on the boxes `cml-lab run` draws at seed."""
    ratios = np.array([
        cl.check_conformality(op, box).ratio
        for box in _cli_boxes(op.grid, op.node_map, seed)
    ])
    mean = float(ratios.mean())
    return mean, float(np.max(np.abs(ratios - mean))) / mean


class TestConformality:
    def test_quarter_interval_ratio(self, flat_op_k0):
        # the doubling map stretches [0, 1/4) onto [0, 1/2); per-branch
        # image mass carries the factor 1/b
        res = cl.check_conformality(flat_op_k0, [(0, 64)])
        assert res.ratio == pytest.approx(0.5, abs=1e-12)

    def test_ratio_is_box_independent(self, flat_op_k0, doubling):
        rng = np.random.default_rng(4)
        grid = flat_op_k0.grid
        ratios = []
        for _ in range(3):
            box = cl.random_admissible_box(
                grid, doubling, rng, min_bins=grid.n_bins // 8
            )
            ratios.append(cl.check_conformality(flat_op_k0, box).ratio)
        assert max(ratios) - min(ratios) < 1e-12

    def test_flat_ratios_are_exact(self, flat_op, doubling):
        # the boxes of the flat workload: every ratio is 1/b^d
        for box in _cli_boxes(flat_op.grid, doubling, seed=42):
            res = cl.check_conformality(flat_op, box)
            assert res.ratio == pytest.approx(1.0 / 8.0, abs=1e-12), box

    @pytest.mark.parametrize("seed", [7, 42])
    def test_desk_ratios_are_per_branch(self, seed, coupled_op_k1):
        # desk's system: its coupled triple makes each box carry 1/b^d
        mean, spread = _ratio_stats(coupled_op_k1, seed)
        assert abs(mean * 8.0 - 1.0) <= 0.01, mean
        assert spread <= 0.02, spread

    def test_node_sine_ratios_are_per_branch(self, perturbed, metric):
        op = cl.ulam_matrix(
            "coupled", 1, 16, perturbed,
            potential=cl.node_sine_potential(0.1, 0, metric),
            coupling=cl.Coupling(epsilon=0.05),
        )
        mean, spread = _ratio_stats(op, seed=7)
        assert abs(mean * 8.0 - 1.0) <= 0.01, mean
        assert spread <= 0.02, spread

    @pytest.mark.parametrize("seed", [7, 42])
    def test_boxes_on_unreachable_cells(self, seed, coupled_op_n24):
        # at N=24 the coupling range misses 983 cells; nu is the conformal
        # measure there too, so a box that holds some reads 1/b^d
        grid, node_map = coupled_op_n24.grid, coupled_op_n24.node_map
        unreachable = coupled_op_n24.eigen.v == 0.0
        boxes = [
            box for box in _cli_boxes(grid, node_map, seed)
            if unreachable[transfer._box_cell_mask(grid, box)].any()
        ]
        assert boxes
        for box in boxes:
            ratio = cl.check_conformality(coupled_op_n24, box).ratio
            assert abs(ratio * 8.0 - 1.0) <= 0.01, (box, ratio)
        mean, spread = _ratio_stats(coupled_op_n24, seed)
        assert abs(mean * 8.0 - 1.0) <= 0.01, mean
        assert spread <= 0.02, spread

    @pytest.mark.parametrize("seed", [7, 42])
    def test_node_sine_ratios_with_unreachable_cells(self, seed, perturbed, metric):
        # eps = 0.1 leaves 718 of the 4,096 cells off the coupling range
        op = cl.ulam_matrix(
            "coupled", 1, 16, perturbed,
            potential=cl.node_sine_potential(0.1, 0, metric),
            coupling=cl.Coupling(epsilon=0.1),
        )
        assert np.count_nonzero(op.eigen.v == 0.0) == 718
        mean, spread = _ratio_stats(op, seed)
        assert abs(mean * 8.0 - 1.0) <= 0.01, mean
        assert spread <= 0.02, spread

    def test_operator_without_triple_raises(self, coupled_op_k1, tmp_path):
        path = os.path.join(tmp_path, "op.txt")
        cl.save_operator(coupled_op_k1, path)
        with pytest.raises(ValueError, match="ulam_matrix"):
            cl.check_conformality(cl.load_operator(path), [(0, 8), (8, 16), (2, 6)])

    def test_doubling_the_lattice_moves_desk_ratios_little(
        self, coupled_op_k1, perturbed
    ):
        # the same operator, with the lattice of quad 8
        finer = dataclasses.replace(coupled_op_k1, quad=8)
        ratios = np.array([
            [cl.check_conformality(op, box).ratio for op in (coupled_op_k1, finer)]
            for box in _cli_boxes(coupled_op_k1.grid, perturbed, seed=42)
        ])
        mean = ratios.mean(axis=0)
        assert abs(mean[1] / mean[0] - 1.0) < 1e-3
        # each box, well inside the 0.5% noise of a 200k-sample estimate
        assert np.max(np.abs(ratios[:, 1] / ratios[:, 0] - 1.0)) < 5e-3

    @pytest.mark.parametrize("map_name", ["doubling", "perturbed"])
    def test_per_axis_box_test_matches_branch_table(self, map_name, request):
        # a point lies in the product of the per-axis images exactly when
        # some row of the full b**d branch table lies in the box
        node_map = request.getfixturevalue(map_name)
        grid = cl.Grid(k=1, n_bins=16)
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.0, np.nextafter(1.0, 0.0), (grid.d, 20_000))
        boxes = [cl.random_admissible_box(grid, node_map, rng) for _ in range(5)]
        # boxes whose axis intervals touch the ends of a branch domain,
        # [0, 1/2) and [1/2, 1) for both maps, and a few interior ones
        boxes += [
            [(0, 8), (8, 16), (0, 1)],
            [(7, 8), (15, 16), (8, 9)],
            [(0, 3), (13, 16), (9, 11)],
            [(8, 16), (0, 8), (2, 6)],
        ]
        for box in boxes:
            image = transfer._box_image(grid, box, node_map)
            got = np.ones(pts.shape[1], dtype=bool)
            for row, (y_lo, y_hi) in zip(pts, image):
                got &= (row >= y_lo) & (row < y_hi)
            ref = _preimage_in_box(pts, grid, box, node_map)
            assert ref.any()
            assert np.array_equal(got, ref), box

    def test_non_injective_box_rejected(self, flat_op_k0):
        with pytest.raises(ValueError):
            cl.check_conformality(flat_op_k0, [(0, 256)])

    # the ids name the systems of the flat and desk workloads
    @pytest.mark.parametrize("case", [
        pytest.param("flat_op", id="doubling_eigen_k1"),
        pytest.param("coupled_op_k1", id="perturbed_eigen_k1"),
    ])
    def test_box_crossing_a_domain_boundary_raises(self, case, request):
        op = request.getfixturevalue(case)
        for box in (
            [(0, 8), (7, 9), (8, 16)],
            [(0, 16), (0, 8), (8, 16)],
            [(0, 3), (13, 16), (5, 11)],
        ):
            with pytest.raises(ValueError, match="not injective"):
                cl.check_conformality(op, box)
        with pytest.raises(ValueError, match="empty"):
            cl.check_conformality(op, [(0, 8), (3, 3), (8, 16)])
        res = cl.check_conformality(op, [(0, 8), (8, 16), (2, 6)])
        assert 0.0 < res.rhs < 1.0

    @pytest.mark.parametrize("fault", ["nan", "inf", "negative", "zero_sum"])
    def test_invalid_nu_raises(self, fault, flat_op_k0):
        nu = flat_op_k0.eigen.nu.copy()
        if fault == "zero_sum":
            nu[:] = 0.0
        else:
            nu[7] = {"nan": np.nan, "inf": np.inf, "negative": -1e-3}[fault]
        with pytest.raises(ValueError, match="nu must be finite"):
            cl.check_conformality(_with_nu(flat_op_k0, nu), [(0, 64)])

    @pytest.mark.parametrize("box", [
        [(0, 8), (8, 16)],
        [(0, 8), (8, 16), (2, 6), (3, 5)],
    ])
    def test_box_of_other_than_d_intervals_raises(self, box, flat_op):
        with pytest.raises(ValueError, match=f"box has {len(box)} axis intervals, the grid has 3"):
            cl.check_conformality(flat_op, box)


def _reference_rhs(op, box):
    """The right side of check_conformality and its point count, point by
    point: every point of the tensor grid on tau B is formed in
    _SLAB_POINTS passes, coupled on all d axes, and binned by Grid.cell_of."""
    grid, node_map, nu = op.grid, op.node_map, op.eigen.nu
    coupling = op.coupling or cl.Coupling(epsilon=0.0)
    fine = grid.n_bins * op.quad
    weight = abs(np.linalg.det(coupling.dense_matrix(grid.k)))
    axes = []
    for y_lo, y_hi in transfer._box_image(grid, box, node_map):
        n = math.ceil((y_hi - y_lo) * fine)
        step = (y_hi - y_lo) / n
        axes.append(y_lo + (np.arange(n) + 0.5) * step)
        weight *= step
    rho = nu * (grid.n_cells / float(np.sum(nu)))
    shape = tuple(a.size for a in axes)
    n_pts = math.prod(shape)
    total = 0.0
    for lo in range(0, n_pts, transfer._SLAB_POINTS):
        idx = np.unravel_index(
            np.arange(lo, min(lo + transfer._SLAB_POINTS, n_pts)), shape
        )
        y = np.stack([a[i] for a, i in zip(axes, idx)])
        x = coupling.apply_to_array(y, node_map.p_tau)
        total += float(np.sum(rho[grid.cell_of(x)]))
    return weight * total, n_pts


def _shifted_tail(node_map, p_tau):
    """node_map with the tail value p_tau, which its forward map fixes."""
    forward = node_map.forward
    return dataclasses.replace(
        node_map, p_tau=p_tau,
        forward=lambda x: np.where(np.asarray(x) == p_tau, p_tau, forward(x)),
    )


# grids small enough for the point-by-point reference at each window
_TABLE_BINS = {0: 64, 1: 16, 2: 4}


@pytest.fixture(scope="module")
def table_ops(perturbed, metric):
    """The coupled operator of each (k, eps) that the table tests take."""
    ops = {}

    def get(k, eps):
        if (k, eps) not in ops:
            ops[k, eps] = cl.ulam_matrix(
                "coupled", k, _TABLE_BINS[k], perturbed,
                potential=cl.srb_potential(perturbed, max_k=k, metric=metric),
                coupling=cl.Coupling(epsilon=eps),
            )
        return ops[k, eps]

    return get


class TestConformalityTables:
    """check_conformality's per-node tables sum the same values, in the
    same passes, as the point-by-point right side: equal bit for bit."""

    @staticmethod
    def assert_matches_reference(op, boxes):
        for box in boxes:
            got = cl.check_conformality(op, box)
            rhs, n_pts = _reference_rhs(op, box)
            assert (got.rhs, got.points) == (rhs, n_pts), box

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.2])
    def test_windows_and_strengths(self, k, eps, table_ops):
        op = table_ops(k, eps)
        rng = np.random.default_rng(11)
        boxes = [cl.random_admissible_box(op.grid, op.node_map, rng) for _ in range(3)]
        self.assert_matches_reference(op, boxes)

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("eps", [0.0, 0.2])
    def test_tail_off_zero(self, k, eps, table_ops):
        # the edge nodes read p_tau beyond the window
        op = table_ops(k, eps)
        op = dataclasses.replace(op, node_map=_shifted_tail(op.node_map, 0.3))
        rng = np.random.default_rng(12)
        boxes = [cl.random_admissible_box(op.grid, op.node_map, rng) for _ in range(3)]
        self.assert_matches_reference(op, boxes)

    @pytest.mark.parametrize("case", ["tilted_op", "flat_op", "coupled_op_k1"])
    def test_workload_boxes(self, case, request):
        # the boxes `cml-lab run` draws; tilted_op's nu is far from uniform
        op = request.getfixturevalue(case)
        self.assert_matches_reference(op, _cli_boxes(op.grid, op.node_map, seed=7))

    @pytest.mark.parametrize("slab", [None, 700, 7])
    def test_boxes_over_several_passes(self, slab, tilted_op, monkeypatch):
        # 64 x 64 x 56 points are 3.5 passes of 2^16; a pass of 700 points
        # walks the two leading axes in rows, and one of 7 all three
        if slab is not None:
            monkeypatch.setattr(transfer, "_SLAB_POINTS", slab)
        op = dataclasses.replace(
            tilted_op, node_map=_shifted_tail(tilted_op.node_map, 0.3)
        )
        boxes = [[(0, 8), (8, 16), (0, 7)]] if slab is None else [
            [(0, 3), (9, 12), (2, 5)], [(1, 2), (8, 11), (3, 7)]
        ]
        for box in boxes:
            n_pts = _reference_rhs(op, box)[1]
            assert n_pts > transfer._SLAB_POINTS and n_pts % transfer._SLAB_POINTS
        self.assert_matches_reference(op, boxes)

    def test_memory_stays_per_pass(self, tilted_op):
        # 256^3 points: a whole-grid int64 cell index alone would take 128 MB
        op = dataclasses.replace(tilted_op, quad=16)
        tracemalloc.start()
        try:
            res = cl.check_conformality(op, [(0, 8), (8, 16), (0, 8)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.points == 256 ** 3
        assert peak < 8 * 2**20, peak


def _reference_box_cell_mask(grid, box):
    bins = np.unravel_index(np.arange(grid.n_cells), (grid.n_bins,) * grid.d)
    mask = np.ones(grid.n_cells, dtype=bool)
    for axis, (lo, hi) in enumerate(box):
        mask &= (bins[axis] >= lo) & (bins[axis] < hi)
    return mask


def reference_image_mass(op, box, mc_samples, rng):
    """nu(T B) by Monte Carlo, as check_conformality once estimated it:
    the share of points drawn from the nu of op's triple (cells by
    rng.choice, uniform within) whose pull-back through op's coupling
    lies in [0, 1)^d and has a branch preimage in the box."""
    grid, node_map, nu = op.grid, op.node_map, op.eigen.nu
    coupling = op.coupling or cl.Coupling(epsilon=0.0)
    cells = rng.choice(grid.n_cells, size=mc_samples, p=nu / nu.sum())
    bins = np.array(np.unravel_index(cells, (grid.n_bins,) * grid.d))
    hits = 0
    for lo in range(0, mc_samples, 100_000):
        part = bins[:, lo:lo + 100_000]
        x = (part + rng.uniform(0.0, 1.0, part.shape)) / grid.n_bins
        y = coupling.invert_on_array(x, grid.k, node_map.p_tau)
        valid = np.all((y >= 0.0) & (y < 1.0), axis=0)
        hits += int(np.sum(_preimage_in_box(y[:, valid], grid, box, node_map)))
    return hits / mc_samples


class TestConformalityReference:
    MC_SAMPLES = 1_000_000

    # the ids name each system and its coupling strength
    @pytest.mark.parametrize("case", [
        pytest.param("coupled_op_k1", id="perturbed_eigen_k1-0.05"),  # desk
        pytest.param("flat_op", id="doubling_eigen_k1-0.0"),  # flat
        pytest.param("flat_op_k0", id="doubling_eigen_k0-0.0"),  # criterion 8
        pytest.param("tilted_op", id="tilted_eigen_k1-0.2"),
    ])
    def test_matches_choice_implementation(self, case, request):
        # the quadrature lies within 5 standard errors of the Monte Carlo
        op = request.getfixturevalue(case)
        grid = op.grid
        rng = np.random.default_rng(5)
        for _ in range(3):
            box = cl.random_admissible_box(
                grid, op.node_map, rng, min_bins=max(1, grid.n_bins // 8)
            )
            got = cl.check_conformality(op, box)
            mask = _reference_box_cell_mask(grid, box)
            f = op.potential.on_array(grid.reps()[:, mask], grid.k)
            assert got.lhs == op.eigen.lam * float(np.sum(np.exp(-f) * op.eigen.nu[mask]))
            ref = reference_image_mass(op, box, self.MC_SAMPLES, rng)
            se = math.sqrt(ref * (1.0 - ref) / self.MC_SAMPLES)
            assert abs(got.rhs - ref) < 5.0 * se, (box, got.rhs, ref, se)
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

    def test_stationary_vector_is_the_triples_mu(self, perturbed, metric):
        # mu = h * nu of the raw block's triple, against the left Perron
        # vector of the normalized matrix by transposed power iteration;
        # N=32 leaves cells off the coupling range
        pot = cl.srb_potential(perturbed, max_k=1, metric=metric)
        op = cl.ulam_matrix(
            "coupled", 1, 32, perturbed, potential=pot,
            coupling=cl.Coupling(epsilon=0.05),
        )
        mu = cl.stationary_distribution(op)
        ref = cl.power_iterate(op.matrix.T.tocsr())[1]
        assert (mu == 0.0).any()
        assert np.max(np.abs(mu - ref)) <= 1e-12 * np.max(ref)
        assert np.max(np.abs(op.matrix.T @ mu - mu)) <= 1e-12 * np.max(mu)

    def test_triple_lives_on_the_reachable_cells(self, coupled_op_k1, perturbed):
        # v on the reachable cells, nu, the conformal measure, on all
        eigen = coupled_op_k1.eigen
        sums = np.asarray(coupled_op_k1.matrix.sum(axis=1)).ravel()
        assert np.array_equal(eigen.v > 0.0, sums > 0.0)
        assert np.all(eigen.nu > 0.0)
        assert eigen.nu.sum() == pytest.approx(1.0, abs=1e-12)
        assert eigen.nu @ eigen.h == pytest.approx(1.0, abs=1e-12)
        # the raw matrix is not kept once normalized
        assert eigen.operator is None
        # with the SRB potential every point carries weight |det E| in the
        # 1/b-per-node convention, and no mass leaves the reachable cells
        det_e = abs(np.linalg.det(cl.Coupling(epsilon=0.05).dense_matrix(1)))
        assert eigen.lam == pytest.approx(det_e, rel=1e-12)

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


def _coupled_points(grid, node_map, potential, coupling, quad):
    """Every quadrature point's image cell (row), parent cell (column) and
    weight, all at once, points in C order."""
    pts, cols = _all_quad_points(grid, quad)
    fwd = node_map.forward(pts)
    images = coupling.apply_to_array(fwd, node_map.p_tau)
    np.clip(images, 0.0, np.nextafter(1.0, 0.0), out=images)
    rows = grid.cell_of(images)
    log_det = np.sum(np.log(node_map.forward_deriv(pts)), axis=0)
    log_det += math.log(abs(np.linalg.det(coupling.dense_matrix(grid.k))))
    weight = np.exp(potential.on_array(pts, grid.k) + log_det)
    weight /= (node_map.b * quad) ** grid.d
    return rows, cols, weight


def _monolithic_coupled(grid, node_map, potential, coupling, quad):
    """Reference 'coupled' assembly that sums each entry's weights one by
    one in the defined point order: cell by cell, and in C order within a
    cell."""
    rows, cols, weight = _coupled_points(grid, node_map, potential, coupling, quad)
    order = np.argsort(cols, kind="stable")
    dense = np.zeros((grid.n_cells, grid.n_cells))
    np.add.at(dense, (rows[order], cols[order]), weight[order])
    return sp.csr_matrix(dense)


def _scipy_coupled(grid, node_map, potential, coupling, quad):
    """The triplet assembly: scipy sums each entry in the order its row
    sort leaves."""
    rows, cols, weight = _coupled_points(grid, node_map, potential, coupling, quad)
    return sp.coo_matrix(
        (weight, (rows, cols)), shape=(grid.n_cells, grid.n_cells)
    ).tocsr()


def _slab_points(idx):
    """A slab's per-axis quadrature indices broadcast to its points, as one
    (d, n * quad**d) array: cell by cell, and C order within a cell."""
    d, n = len(idx), idx[0].shape[-1]
    full = np.stack(np.broadcast_arrays(*idx)).reshape(d, -1, n)
    return full.transpose(0, 2, 1).reshape(d, -1)


def _assert_same_bytes(got, ref, names=("indptr", "indices", "data")):
    for name in names:
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def _assert_same_pattern(got, ref, rtol):
    """Identical sparsity pattern, data within rtol of the reference's."""
    _assert_same_bytes(got, ref, ("indptr", "indices"))
    assert np.max(np.abs(got.data - ref.data) / np.abs(ref.data)) <= rtol


class TestSlabAssembly:
    """Each assembly against its all-at-once reference.  The coupled
    assembly works in slabs of whole cells and gives the raw matrix of
    the point-order reference bit for bit at every point budget: one
    point (one-cell slabs), budgets that leave a slab short of dividing
    the cells, and a single slab.  'P', the Kronecker product of 1-d
    factors, keeps the reference's sparsity pattern, and its data agree
    to roundoff."""

    CASES = [(0, 64), (1, 6)]
    # at k=1 (64 points a cell) 63 is one point short of a cell, so every
    # slab is one cell, and 448 is 7 cells, which do not divide 216; at
    # k=0, 50 points is 12 of 64 cells
    BUDGETS = [1, 5, 50, 63, 448, 1200, None]

    @staticmethod
    def _budget(grid, quad, budget):
        return budget or grid.n_cells * quad ** grid.d

    @pytest.mark.parametrize(
        "k,n_bins,budget",
        [(k, n, b) for (k, n), b in itertools.product(CASES, BUDGETS)]
        + [(2, 2, 50), (2, 2, 1200), (2, 2, None)],  # d = 5
    )
    def test_slabs_enumerate_all_points_in_order(self, k, n_bins, budget):
        # the slabs are runs of whole cells, every cell once and in order;
        # axis a's indices vary on dimension a and the cells on the last,
        # and the axis table read at their broadcast gives every quadrature
        # point of each cell, cell by cell and in C order within a cell
        grid = cl.Grid(k=k, n_bins=n_bins)
        per_cell = 4 ** grid.d
        max_points = self._budget(grid, 4, budget)
        axis = transfer._quad_axis(grid, 4)
        slabs = list(transfer._cell_slabs(grid, 4, max_points))
        sizes = [idx[0].shape[-1] for idx in slabs]
        assert all(
            len(idx) == grid.d
            and all(
                i.shape == (1,) * a + (4,) + (1,) * (grid.d - 1 - a) + (n,)
                for a, i in enumerate(idx)
            )
            for idx, n in zip(slabs, sizes)
        )
        # full slabs of at most the budget (one cell if a cell is over
        # it), a short one last
        step = max(1, max_points // per_cell)
        assert sizes[:-1] == [step] * (len(slabs) - 1) and sizes[-1] <= step
        assert max(sizes) * per_cell <= max(max_points, per_cell)
        pts, parent = _all_quad_points(grid, 4)
        order = np.argsort(parent, kind="stable")
        got = np.concatenate([axis[_slab_points(idx)] for idx in slabs], axis=1)
        assert np.array_equal(got, pts[:, order])

    def test_slabs_hold_the_budget_at_five_nodes(self):
        # at k=2, N=8 a cell holds 4**5 = 1,024 points: every slab is 64
        # whole cells, the budget exactly
        grid = cl.Grid(k=2, n_bins=8)
        slabs = transfer._cell_slabs(grid, 4, transfer._SLAB_POINTS)
        assert {idx[0].shape[-1] * 4 ** 5 for idx in slabs} == {transfer._SLAB_POINTS}

    # The reference sums exp(f) over each point's b**d branch preimages.
    # At k=0 'P' is its one factor, built from the reference's triplets in
    # the same order, so its data are the same bytes; for d >= 2 a product
    # of per-node exponentials rounds differently from the exponential of
    # the sum.  quad=1 puts one point in each bin, quad=5 an odd number.
    @pytest.mark.parametrize("quad", [1, 5, None])
    @pytest.mark.parametrize(
        "k,n_bins,map_name",
        [(0, 64, "doubling"), (0, 64, "perturbed"), (1, 6, "perturbed"),
         (2, 2, "perturbed")],
    )
    def test_p_matrix_matches_monolithic(
        self, k, n_bins, map_name, quad, metric, request
    ):
        node_map = request.getfixturevalue(map_name)
        grid = cl.Grid(k=k, n_bins=n_bins)
        quad = quad or 4
        pot = cl.node_sine_potential(0.1, 0, metric)
        op = cl.ulam_matrix("P", k, n_bins, node_map, potential=pot, quad=quad)
        ref = _monolithic_p(grid, node_map, pot, quad)
        if k == 0:
            _assert_same_bytes(op.matrix, ref)
        _assert_same_pattern(op.matrix, ref, 1e-13)

    # node_sine at the centre node cannot tell which axis a branch preimage
    # was read on, nor the order of the factors; srb and decaying_sine
    # have a term on every node, node_sine at node 1 breaks the symmetry
    # between node -k and node k
    @pytest.mark.parametrize("quad", [1, None])
    @pytest.mark.parametrize("k,n_bins", [(0, 64), (1, 6), (2, 2)])
    def test_p_matrix_with_every_node_potential(
        self, k, n_bins, quad, perturbed, metric
    ):
        grid = cl.Grid(k=k, n_bins=n_bins)
        quad = quad or 4
        for pot in (
            cl.srb_potential(perturbed, max_k=k, metric=metric),
            cl.decaying_sine_potential(0.1, 4.0, metric),
            cl.node_sine_potential(0.1, 1, metric),
        ):
            op = cl.ulam_matrix("P", k, n_bins, perturbed, potential=pot, quad=quad)
            _assert_same_pattern(op.matrix, _monolithic_p(grid, perturbed, pot, quad), 1e-13)

    # flat: every factor weight is 1/(b quad) = 1/8 and every product and
    # sum of them is exact
    @pytest.mark.parametrize("k,n_bins", [(0, 64), (1, 6), (2, 2)])
    def test_flat_p_matrix_is_byte_identical(self, k, n_bins, doubling):
        grid = cl.Grid(k=k, n_bins=n_bins)
        pot = cl.zero_potential()
        op = cl.ulam_matrix("P", k, n_bins, doubling, potential=pot)
        _assert_same_bytes(op.matrix, _monolithic_p(grid, doubling, pot, 4))

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("k,n_bins", CASES)
    def test_coupled_matrix_matches_monolithic(
        self, k, n_bins, budget, perturbed, metric, monkeypatch
    ):
        grid = cl.Grid(k=k, n_bins=n_bins)
        monkeypatch.setattr(transfer, "_SLAB_POINTS", self._budget(grid, 4, budget))
        coupling = cl.Coupling(epsilon=0.05)
        # srb has the same term on every node; node_sine at node 1 tells
        # which axis a node's term table is read on
        for pot in (
            cl.srb_potential(perturbed, max_k=k, metric=metric),
            cl.node_sine_potential(0.1, 1, metric),
        ):
            raw = transfer._assemble_coupled_matrix(grid, perturbed, pot, coupling, 4)
            _assert_same_bytes(raw, _monolithic_coupled(grid, perturbed, pot, coupling, 4))
            # the triplet assembly sums in another order: same pattern
            _assert_same_pattern(
                raw, _scipy_coupled(grid, perturbed, pot, coupling, 4), 1e-15
            )

    # Where the per-axis kernel differs in structure: at d = 5 three
    # interior nodes read three of the five axes and no node reads all;
    # quad 1 and 3 put one point and an odd number of points in each bin;
    # at eps = 0 a node's image is its own coordinate.  The budgets are one
    # cell a slab, 7 cells (which divide none of the cell counts) and one
    # slab.  decaying_sine has a different term on every node, so the
    # order of the node-term sum shows in the bits; srb's cancels against
    # log|det DT| to within the rounding of the sum.
    @pytest.mark.parametrize("cells", [1, 7, None])
    @pytest.mark.parametrize(
        "k,n_bins,quad,eps",
        [(2, 2, 4, 0.05), (2, 3, 4, 0.05), (1, 6, 1, 0.05), (1, 6, 3, 0.05),
         (1, 6, 4, 0.0)],
    )
    def test_coupled_matrix_matches_monolithic_on_every_shape(
        self, k, n_bins, quad, eps, cells, perturbed, metric, monkeypatch
    ):
        grid = cl.Grid(k=k, n_bins=n_bins)
        per_cell = quad ** grid.d
        monkeypatch.setattr(transfer, "_SLAB_POINTS", (cells or grid.n_cells) * per_cell)
        coupling = cl.Coupling(epsilon=eps)
        for pot in (
            cl.srb_potential(perturbed, max_k=k, metric=metric),
            cl.node_sine_potential(0.1, 1, metric),
            cl.decaying_sine_potential(0.1, 4.0, metric),
        ):
            raw = transfer._assemble_coupled_matrix(grid, perturbed, pot, coupling, quad)
            _assert_same_bytes(
                raw, _monolithic_coupled(grid, perturbed, pot, coupling, quad)
            )

    # k=0, N=64: 64 cells of 4 points, 256 sort keys up to 255, and 159
    # non-zeros; a limit one below either raises before it wraps
    @pytest.mark.parametrize(
        "limit,value,message",
        [("_KEY_MAX", 254, "= 255, over 254"),
         ("_INDEX_MAX", 158, "non-zeros")],
    )
    def test_coupled_index_overflow_raises(
        self, limit, value, message, perturbed, metric, monkeypatch
    ):
        monkeypatch.setattr(transfer, limit, value)
        pot = cl.srb_potential(perturbed, max_k=0, metric=metric)
        with pytest.raises(MemoryError, match=message):
            transfer._assemble_coupled_matrix(
                cl.Grid(k=0, n_bins=64), perturbed, pot, cl.Coupling(epsilon=0.05), 4
            )

    def test_coupled_assembly_memory_is_matrix_and_one_slab(self, perturbed, metric):
        # k=1, N=24: 884,736 quadrature points, whose triplets alone take
        # 14.2 MB at 16 bytes each; the matrix takes 2.5 MB
        grid = cl.Grid(k=1, n_bins=24)
        pot = cl.srb_potential(perturbed, max_k=1, metric=metric)
        tracemalloc.start()
        try:
            raw = transfer._assemble_coupled_matrix(
                grid, perturbed, pot, cl.Coupling(epsilon=0.05), 4
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a slab's temporaries at d=3: the five 8-byte rows of its work
        # block and, at most, a node's image and bins or the grouping's
        # gathered weights, entries and row products, so under 160 bytes
        # a point; measured peak 6.5 MB, bound 18.0 MB, and 30.2 MB for
        # the triplet assembly
        matrix_bytes = raw.data.nbytes + raw.indices.nbytes + raw.indptr.nbytes
        assert peak <= 3 * matrix_bytes + 160 * transfer._SLAB_POINTS

    def test_blocks_are_freed_before_the_matrix_is_built(
        self, perturbed, metric, monkeypatch
    ):
        # when the CSC matrix is formed, memory holds its three arrays and
        # not the per-slab blocks they were joined from: a loop variable
        # that kept the list of index blocks held 34% more at k=1, N=16
        monkeypatch.setenv("CML_LAB_THREADS", "1")
        seen = []
        csc = sp.csc_matrix

        def recording(arrays, shape):
            seen.append((tracemalloc.get_traced_memory()[0], sum(a.nbytes for a in arrays)))
            return csc(arrays, shape=shape)

        monkeypatch.setattr(sp, "csc_matrix", recording)
        pot = cl.srb_potential(perturbed, max_k=1, metric=metric)
        tracemalloc.start()
        try:
            transfer._assemble_coupled_matrix(
                cl.Grid(k=1, n_bins=16), perturbed, pot, cl.Coupling(epsilon=0.05), 4
            )
        finally:
            tracemalloc.stop()
        [(traced, arrays)] = seen
        assert traced <= 1.05 * arrays, (traced, arrays)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="shares past the first need os.fork")
@pytest.mark.usefixtures("deadline")
class TestAssemblyShares:
    """The coupled assembly's slabs split into contiguous shares, all but
    the first computed by forked workers: the same matrix bytes for any
    number of shares.  k=1, N=6 in slabs of 7 cells: 31 slabs."""

    GRID = cl.Grid(k=1, n_bins=6)

    @pytest.fixture(autouse=True)
    def small_shares(self, monkeypatch):
        # every quadrature point is worth a share, and slabs of 7 cells
        monkeypatch.setattr(transfer, "_SHARE_POINTS", 1)
        monkeypatch.setattr(transfer, "_SLAB_POINTS", 448)

    @pytest.fixture
    def assemble(self, perturbed, metric):
        pot = cl.node_sine_potential(0.1, 1, metric)
        return lambda: transfer._assemble_coupled_matrix(
            self.GRID, perturbed, pot, cl.Coupling(epsilon=0.05), 4
        )

    def test_matrix_is_byte_identical_for_any_split(self, assemble, perturbed, metric, cpus):
        pot = cl.node_sine_potential(0.1, 1, metric)
        ref = _monolithic_coupled(self.GRID, perturbed, pot, cl.Coupling(epsilon=0.05), 4)
        for n in (1, 2, 3):
            cpus(n)
            assert len(transfer.assembly_shares(self.GRID, 4)) == n
            raw = assemble()
            _assert_same_bytes(raw, ref)
            assert raw.has_sorted_indices
        assert_no_children()

    def test_share_count(self, cpus, monkeypatch):
        cpus(64)
        assert len(transfer.assembly_shares(self.GRID, 4)) == 31  # no more than the slabs
        # 13,824 points: one share per 4,608 gives three, or the CPUs
        monkeypatch.setattr(transfer, "_SHARE_POINTS", 4608)
        assert len(transfer.assembly_shares(self.GRID, 4)) == 3
        cpus(2)
        assert transfer.assembly_shares(self.GRID, 4) == [range(15), range(15, 31)]
        monkeypatch.setattr(transfer, "_SHARE_POINTS", 13_825)
        assert transfer.assembly_shares(self.GRID, 4) == [range(31)]

    @pytest.mark.parametrize("n", [2, 3, 31])
    def test_shares_enumerate_all_points_in_order(self, n, cpus):
        cpus(n)
        shares = transfer.assembly_shares(self.GRID, 4)
        assert [s.start for s in shares[1:]] == [s.stop for s in shares[:-1]]
        assert shares[0].start == 0 and shares[-1].stop == 31
        whole = np.concatenate(
            [_slab_points(idx) for idx in transfer._cell_slabs(self.GRID, 4, 448)], axis=1
        )
        parts = [
            _slab_points(idx)
            for share in shares for idx in transfer._cell_slabs(self.GRID, 4, 448, share)
        ]
        assert np.array_equal(np.concatenate(parts, axis=1), whole)
        assert whole.shape == (3, 216 * 64)

    def test_worker_error_surfaces_and_is_reaped(self, assemble, cpus, monkeypatch):
        parent = os.getpid()
        image = cl.Coupling.node_image

        def in_worker(self, *args):
            if os.getpid() != parent:
                raise ZeroDivisionError(f"in worker {os.getpid()}")
            return image(self, *args)

        monkeypatch.setattr(cl.Coupling, "node_image", in_worker)
        cpus(3)
        with pytest.raises(ZeroDivisionError, match="in worker"):
            assemble()
        assert_no_children()

    def test_worker_exit_without_result_raises(self, assemble, cpus, monkeypatch):
        parent = os.getpid()
        image = cl.Coupling.node_image

        def in_worker(self, *args):
            if os.getpid() != parent:
                os._exit(3)
            return image(self, *args)

        monkeypatch.setattr(cl.Coupling, "node_image", in_worker)
        cpus(2)
        with pytest.raises(RuntimeError, match="slabs 15-30 exited without a result"):
            assemble()
        assert_no_children()

    def test_one_thread_assembles_in_process(self, assemble, cpus, monkeypatch):
        cpus(4)
        ref = assemble()
        monkeypatch.setenv("CML_LAB_THREADS", "1")
        assert transfer.assembly_shares(self.GRID, 4) == [range(31)]

        def no_fork():
            raise AssertionError("one share must not fork")

        monkeypatch.setattr(os, "fork", no_fork)
        _assert_same_bytes(assemble(), ref)


def _explicit_block_triple(raw):
    """leading_eigenpair with the reachable block copied out of the matrix
    and its transpose converted to CSR: (lam, active cells, v, nu) there."""
    active = np.arange(raw.n_cells)
    block = raw.matrix
    while True:
        keep = np.asarray(block.sum(axis=1)).ravel() > 0.0
        if keep.all():
            break
        active = active[keep]
        block = raw.matrix[active][:, active].tocsr()
    lam, v = cl.power_iterate(block)[:2]
    return lam, active, v, cl.power_iterate(block.T.tocsr())[1]


class TestSolvesOnTheMatrix:
    """The eigen-solve and the normalization work on the matrix they are
    given.  The triple of the whole matrix restricts to the triple of the
    reachable block copied out (3,378 of 4,096 cells at eps = 0.1), and
    the normalization gives the bits of diag(1/Mv) M diag(v) as sparse
    products."""

    def test_triple_matches_explicit_block(self, raw_coupled_eps01):
        eigen = cl.leading_eigenpair(raw_coupled_eps01)
        lam, active, v, nu = _explicit_block_triple(raw_coupled_eps01)
        assert active.size == 3378
        assert eigen.lam == pytest.approx(float(lam), rel=1e-13, abs=0.0)
        off = np.ones(raw_coupled_eps01.n_cells, dtype=bool)
        off[active] = False
        assert not eigen.v[off].any()
        # no cell off the block feeds it, so nu on the block is the
        # block's left eigenvector, scaled by its mass there
        on_block = eigen.nu[active] / eigen.nu[active].sum()
        for got, ref in ((eigen.v[active], v), (on_block, nu)):
            assert np.max(np.abs(got / ref - 1.0)) <= 1e-13

    def test_normalization_matches_sparse_products(self, raw_coupled_eps01):
        eigen = cl.leading_eigenpair(raw_coupled_eps01)
        raw_data = raw_coupled_eps01.matrix.data.tobytes()
        got = transfer._normalized("coupled", eigen).matrix
        assert raw_coupled_eps01.matrix.data.tobytes() == raw_data
        # the broadcast product keeps M's pattern, so each row is summed
        # with the zero products of v's zeros in place
        ref = raw_coupled_eps01.matrix.multiply(eigen.v).tocsr()
        sums = np.asarray(ref.sum(axis=1)).ravel()
        inv_rows = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0.0)
        ref = (sp.diags(inv_rows) @ ref).tocsr()
        ref.sort_indices()
        assert got.has_sorted_indices
        _assert_same_bytes(got, ref)

    def test_normalization_leaves_the_callers_matrices(
        self, raw_coupled_eps01, perturbed, perturbed_eigen_k0
    ):
        # a shared raw operator, and the 'P' operator that 'L' is built
        # from, are not the normalization's to scale: each keeps its bytes
        def arrays(matrix):
            return [a.tobytes() for a in (matrix.data, matrix.indices, matrix.indptr)]

        for normalize, matrix in (
            (
                lambda: transfer._normalized("coupled", cl.leading_eigenpair(raw_coupled_eps01)),
                raw_coupled_eps01.matrix,
            ),
            (
                lambda: cl.ulam_matrix("L", 0, 256, perturbed, eigen=perturbed_eigen_k0),
                perturbed_eigen_k0.operator.matrix,
            ),
        ):
            before = arrays(matrix)
            normalize()
            assert arrays(matrix) == before

    def test_normalization_does_not_depend_on_the_row_chunk(
        self, perturbed, metric, perturbed_eigen_k0, monkeypatch
    ):
        # the owned coupled matrix at k=1, N=32, whose raw matrix has 2,991
        # empty rows, and 'L': the same bytes in chunks of 7 rows, of the
        # default and of more rows than the grid has
        builds = (
            lambda: _coupled_n32(perturbed, metric),
            lambda: cl.ulam_matrix("L", 0, 256, perturbed, eigen=perturbed_eigen_k0),
        )
        for build in builds:
            ref = build().matrix
            for chunk in (7, ref.shape[0] + 1):
                monkeypatch.setattr(transfer, "_ROW_CHUNK", chunk)
                _assert_same_bytes(build().matrix, ref)
            monkeypatch.undo()

    def test_normalized_matrix_lives_on_the_reachable_cells(self, perturbed, metric):
        # N=32: no stored zero, and the rows and the columns of the cells
        # where v = 0 are empty, those of every other cell not
        op = _coupled_n32(perturbed, metric)
        reachable = op.eigen.v > 0.0
        assert 0 < reachable.sum() < op.n_cells
        assert op.matrix.nnz and np.all(op.matrix.data != 0.0)
        assert np.array_equal(np.diff(op.matrix.indptr) > 0, reachable)
        filled = np.bincount(op.matrix.indices, minlength=op.n_cells) > 0
        assert np.array_equal(filled, reachable)

    def test_owned_matrix_is_normalized_in_place(self, perturbed, metric, monkeypatch):
        # k=1, N=32: ulam_matrix("coupled") owns its raw matrix and scales
        # it where it lies.  Traced from the end of the eigen-solve, the
        # normalization adds 3.8% of the raw arrays' bytes (5.4 MB), its
        # per-row factors formed _ROW_CHUNK rows at a time; a scaled copy
        # of the matrix added 124%.
        solved = {}
        solve = transfer.leading_eigenpair

        def solve_then_trace(op):
            eigen = solve(op)
            solved["matrix"] = m = op.matrix
            solved["bytes"] = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
            tracemalloc.start()
            return eigen

        monkeypatch.setattr(transfer, "leading_eigenpair", solve_then_trace)
        pot = cl.srb_potential(perturbed, max_k=1, metric=metric)
        try:
            op = cl.ulam_matrix(
                "coupled", 1, 32, perturbed, potential=pot,
                coupling=cl.Coupling(epsilon=0.05), cell_budget=32 ** 3,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * solved["bytes"]
        assert np.shares_memory(op.matrix.data, solved["matrix"].data)


def _coupled_n32(perturbed, metric):
    """The coupled operator at k=1, N=32, eps = 0.05, built by ulam_matrix,
    which owns its raw matrix and normalizes it in place."""
    pot = cl.srb_potential(perturbed, max_k=1, metric=metric)
    return cl.ulam_matrix(
        "coupled", 1, 32, perturbed, potential=pot,
        coupling=cl.Coupling(epsilon=0.05), cell_budget=32 ** 3,
    )


@pytest.fixture(scope="module")
def whole_cube_triples(raw_coupled_eps01, raw_coupled_n24):
    """(raw operator, its triple, its unreachable cells) at eps = 0.1,
    N=16 and at desk's eps = 0.05, N=24."""
    return {
        name: (raw, cl.leading_eigenpair(raw), unreachable)
        for name, raw, unreachable in (
            ("eps01", raw_coupled_eps01, 718), ("n24", raw_coupled_n24, 983)
        )
    }


class TestConformalMeasure:
    """nu is the eigenmeasure of the dual on the whole cube, including the
    cells off the coupling range, where v vanishes."""

    @pytest.mark.parametrize("case", ["eps01", "n24"])
    def test_srb_nu_is_lebesgue(self, case, whole_cube_triples):
        # with the SRB potential Lebesgue measure is conformal
        raw, eigen, unreachable = whole_cube_triples[case]
        assert np.count_nonzero(eigen.v == 0.0) == unreachable
        assert np.max(np.abs(eigen.nu * raw.n_cells - 1.0)) <= 1e-14

    @pytest.mark.parametrize("case", ["eps01", "n24"])
    def test_nu_off_the_support_is_the_dual_step(self, case, whole_cube_triples):
        raw, eigen, unreachable = whole_cube_triples[case]
        off = eigen.v == 0.0
        assert np.count_nonzero(off) == unreachable
        step = (raw.matrix.T @ eigen.nu)[off] / eigen.lam
        assert np.all(eigen.nu[off] > 0.0)
        assert np.max(np.abs(eigen.nu[off] / step - 1.0)) <= 1e-13

    @pytest.mark.parametrize("rows", [
        # a negative entry: v is proportional to (2, -1)
        [[1.0, 0.0], [-0.25, 0.5]],
        # v = (1, 2, 0) / 3 is zero on cell 2, which has sources in v's
        # support
        [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [2.0, -1.0, 0.0]],
    ])
    def test_eigenfunction_must_be_positive_where_fed(self, rows):
        grid = cl.Grid(k=0, n_bins=len(rows))
        op = cl.UlamOperator(kind="P", grid=grid, quad=1, matrix=sp.csr_matrix(rows))
        with pytest.raises(ValueError, match="not strictly positive"):
            cl.leading_eigenpair(op)


class TestRowSplitProducts:
    """_SplitBlock cuts a CSR matrix of at least _SPLIT_NNZ non-zeros in
    two row halves, and one helper thread, started by ``with`` and joined
    at its end, runs the second part of each product and of each of the
    gap solve's vector passes: the bits of one thread, with the helper
    gone when the block is left.  The threshold is forced down to one
    non-zero and two CPUs are allowed."""

    @pytest.fixture(autouse=True)
    def split_from_one(self, monkeypatch, cpus):
        monkeypatch.setattr(transfer, "_SPLIT_NNZ", 1)
        cpus(2)

    @pytest.fixture
    def helpers(self, monkeypatch):
        """The helper threads _SplitBlock starts, in order."""
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(transfer, "threading", types.SimpleNamespace(Thread=Counted))
        return started

    @staticmethod
    def _matrix(dtype):
        # 3,000 rows, about 45k non-zeros, every tenth row empty
        m = sp.random(3000, 3000, density=0.005, format="csr", random_state=4)
        if dtype is complex:
            m = m + 1j * sp.random(3000, 3000, density=0.005, format="csr", random_state=5)
        m = sp.diags(np.arange(3000) % 10 != 0, dtype=float) @ m
        m.sort_indices()
        return m.tocsr()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_split_equals_single_product(self, dtype, helpers, cpus):
        m = self._matrix(dtype)
        rng = np.random.default_rng(6)
        start = threading.active_count()
        for cells in (
            np.arange(3000),
            np.sort(rng.choice(3000, 1700, replace=False)),
            np.arange(100, 900),  # every cell in the first half
        ):
            x = rng.standard_normal(cells.size).astype(dtype)
            buf = np.zeros(3000, dtype=dtype)
            buf[cells] = x
            ref = (m @ buf)[cells]
            got = []
            for n in (2, 1):
                cpus(n)
                with transfer._SplitBlock(m, cells) as block:
                    got += [block @ x, block @ x]
                assert threading.active_count() == start
            for product in got:
                assert product.dtype == ref.dtype and product.tobytes() == ref.tobytes()
        # one helper per block on two CPUs, none on one
        assert len(helpers) == 3
        assert not any(h.is_alive() for h in helpers)

    def test_split_products_under_fast_thread_switches(self, helpers):
        # the two threads write disjoint parts of one output; with the
        # interpreter switching threads every microsecond, 300 products
        # on one helper must still give the single product's bits
        m = self._matrix(float)
        cells = np.arange(1, 3000, 2)
        x = np.random.default_rng(8).standard_normal(cells.size)
        buf = np.zeros(3000)
        buf[cells] = x
        ref = (m @ buf)[cells].tobytes()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with transfer._SplitBlock(m, cells) as block:
                assert all((block @ x).tobytes() == ref for _ in range(300))
        finally:
            sys.setswitchinterval(previous)
        assert len(helpers) == 1
        assert not any(h.is_alive() for h in helpers)

    def test_run_keeps_part_order_and_reraises(self, helpers, monkeypatch):
        # run gives part 0 to the caller and part 1 to the helper, results
        # in part order; an exception on either part reaches the caller
        # (the caller's own first), and the helper serves on after it
        m = self._matrix(float)
        start = threading.active_count()

        def fails(s, which):
            if s in which:
                raise FloatingPointError(f"part {s} failed")
            return s

        with transfer._SplitBlock(m, np.arange(3000)) as block:
            assert block.threads == 2
            ran = block.run(lambda s: (s, threading.current_thread()))
            assert ran == [(0, threading.current_thread()), (1, helpers[0])]
            for which, raised in (((1,), "part 1"), ((0,), "part 0"), ((0, 1), "part 0")):
                with pytest.raises(FloatingPointError, match=raised):
                    block.run(fails, which)
                assert block.run(fails, ()) == [0, 1]
        assert threading.active_count() == start
        assert len(helpers) == 1 and not helpers[0].is_alive()
        with transfer._SplitBlock(m, np.arange(3000)) as block:
            assert (len(block.spans), block.threads) == (2, 2)
        monkeypatch.setattr(transfer, "_SPLIT_NNZ", m.nnz + 1)
        with transfer._SplitBlock(m, np.arange(3000)) as block:
            assert (block.spans, block.threads) == ([slice(0, 3000)], 1)
            assert block.run(fails, ()) == [0]

    def test_halves_share_the_matrix(self):
        m = self._matrix(float)
        cells = np.arange(0, 3000, 3)
        (top, top_cells), (bottom, bottom_cells) = transfer._row_halves(m, cells)
        for half in (top, bottom):
            assert np.shares_memory(half.data, m.data)
            assert np.shares_memory(half.indices, m.indices)
        longest = int(np.diff(m.indptr).max())
        assert abs(top.nnz - bottom.nnz) <= 2 * longest
        _assert_same_bytes(sp.vstack([top, bottom], format="csr"), m)
        assert np.array_equal(np.concatenate([top_cells, bottom_cells + top.shape[0]]), cells)

    def test_csc_transpose_runs_on_one_thread(self, raw_coupled_eps01, helpers, monkeypatch):
        # every v step and the positivity check's product split, on the
        # one helper of the eigenpair; the nu solve, on the CSC transpose,
        # runs here
        parts = []
        product = transfer._SplitBlock.product

        def counted(block, s, out):
            parts.append((s, threading.current_thread()))
            product(block, s, out)

        monkeypatch.setattr(transfer._SplitBlock, "product", counted)
        eigen = cl.leading_eigenpair(raw_coupled_eps01)
        assert len(helpers) == 1
        steps = eigen.v_iteration[0]
        assert [s for s, _ in parts] == [0, 1] * (steps + 1)
        assert {t for s, t in parts if s == 1} == {helpers[0]}

    def test_solves_are_bitwise_equal(self, raw_coupled_eps01, helpers, cpus):
        # eps = 0.1, N = 16: 3,378 reachable cells, so the gap solve runs
        # Arnoldi with its products in two row halves; the row cut does
        # not depend on the CPUs, and each row sums in the same order
        start = threading.active_count()
        runs = []
        for n in (2, 1):
            cpus(n)
            eigen = cl.leading_eigenpair(raw_coupled_eps01)
            assert threading.active_count() == start
            spectrum = cl.spectral_gap(transfer._normalized("coupled", eigen))
            assert threading.active_count() == start
            assert spectrum.solver == "arnoldi"
            runs.append((eigen, spectrum))
            # one helper for the v iteration and one for the gap solve on
            # two CPUs, none on one
            assert len(helpers) == 2
        assert not any(h.is_alive() for h in helpers)
        (split, split_gap), (single, single_gap) = runs
        assert split.lam == single.lam
        assert split.v_iteration == single.v_iteration
        assert split.nu_iteration == single.nu_iteration
        for name in ("v", "nu", "mu"):
            assert getattr(split, name).tobytes() == getattr(single, name).tobytes()
        assert split_gap == single_gap

    def test_correlations_keep_their_bits_and_join_the_helper(
        self, raw_coupled_eps01, helpers, monkeypatch, cpus
    ):
        # Green-Kubo and operator_correlation multiply through a block of
        # every cell, in two row halves here: the bits of the unsplit
        # matrix product, and the helper joined when the step returns,
        # also when the Green-Kubo sum stops on its own
        from cml_lab import spectral

        op = transfer._normalized("coupled", cl.leading_eigenpair(raw_coupled_eps01))
        phi = cl.node_coordinate(0)
        start = threading.active_count()
        runs = []
        for n in (2, 1):
            cpus(n)
            helpers.clear()
            gk = spectral.variance_green_kubo(phi, op)
            assert threading.active_count() == start
            c_n = spectral.operator_correlation(phi, phi, op, 10)
            assert threading.active_count() == start
            assert len(helpers) == (2 if n == 2 else 0)
            assert not any(h.is_alive() for h in helpers)
            runs.append((gk, c_n.tobytes()))
        monkeypatch.setattr(transfer, "_SPLIT_NNZ", op.matrix.nnz + 1)
        assert runs[0] == runs[1] == (
            spectral.variance_green_kubo(phi, op),
            spectral.operator_correlation(phi, phi, op, 10).tobytes(),
        )

    @pytest.mark.parametrize("failing", [0, 1])
    def test_helper_is_joined_when_a_product_raises(
        self, raw_coupled_eps01, helpers, monkeypatch, failing
    ):
        # a product that raises on the caller's part or on the helper's
        # ends the solve with that error, and the helper with it
        op = transfer._normalized("coupled", cl.leading_eigenpair(raw_coupled_eps01))
        product = transfer._SplitBlock.product
        calls = itertools.count()

        def fails_later(block, s, out):
            if s == failing and next(calls) == 40:
                raise FloatingPointError("product failed")
            product(block, s, out)

        monkeypatch.setattr(transfer._SplitBlock, "product", fails_later)
        start = threading.active_count()
        with pytest.raises(FloatingPointError, match="product failed"):
            cl.spectral_gap(op)
        assert threading.active_count() == start
        assert not any(h.is_alive() for h in helpers)

    @pytest.mark.parametrize("failing", [0, 1])
    def test_helper_is_joined_when_a_vector_pass_raises(
        self, raw_coupled_eps01, helpers, monkeypatch, failing
    ):
        # the gap solve's normalization pass loads each part of the new
        # basis vector; one that raises on either part, the helper's
        # included, ends the solve with that error, and the helper with it
        op = transfer._normalized("coupled", cl.leading_eigenpair(raw_coupled_eps01))
        load = transfer._SplitBlock.load
        calls = itertools.count()

        def fails_later(block, s, x):
            if s == failing and next(calls) == 40:
                raise FloatingPointError("load failed")
            load(block, s, x)

        monkeypatch.setattr(transfer._SplitBlock, "load", fails_later)
        start = threading.active_count()
        with pytest.raises(FloatingPointError, match="load failed"):
            cl.spectral_gap(op)
        assert threading.active_count() == start
        assert len(helpers) == 2 and not any(h.is_alive() for h in helpers)

    def test_solves_under_fast_thread_switches(self, perturbed, metric, monkeypatch, cpus):
        # 300 gap solves, with the interpreter switching threads every
        # microsecond, keep the bits of the solve on one thread: k=1, N=8
        # (512 cells) solved by Arnoldi below the dense limit, whose
        # products, dot products, updates, loads and rotations run on the
        # two row halves
        from cml_lab import spectral

        monkeypatch.setattr(spectral, "_DENSE_LIMIT", 64)
        pot = cl.srb_potential(perturbed, max_k=1, metric=metric)
        op = cl.ulam_matrix(
            "coupled", 1, 8, perturbed, potential=pot, coupling=cl.Coupling(epsilon=0.05)
        )
        cpus(1)
        ref = cl.spectral_gap(op)
        assert (ref.solver, ref.parts, ref.threads) == ("arnoldi", 2, 1)
        cpus(2)
        start = threading.active_count()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            solves = [cl.spectral_gap(op) for _ in range(300)]
        finally:
            sys.setswitchinterval(previous)
        assert all(rep == ref and rep.threads == 2 for rep in solves)
        assert threading.active_count() == start


class TestKroneckerEigenData:
    def test_eigen_data_is_the_product_of_the_node_factor(self, perturbed, metric):
        # 'P' at k=1 is F (x) F (x) F for the 1-d factor F, so its leading
        # pair is (lam0**3, h0 (x) h0 (x) h0)
        pot = cl.srb_potential(perturbed, max_k=1, metric=metric)
        eig = cl.leading_eigenpair(cl.ulam_matrix("P", 1, 16, perturbed, potential=pot))
        eig0 = cl.leading_eigenpair(cl.ulam_matrix("P", 0, 16, perturbed, potential=pot))
        assert eig.lam == pytest.approx(eig0.lam ** 3, rel=1e-12, abs=0.0)
        h = eig.h / eig.h.sum()
        h_prod = np.kron(np.kron(eig0.h, eig0.h), eig0.h)
        h_prod /= h_prod.sum()
        assert np.max(np.abs(h - h_prod)) <= 1e-12 * np.max(h_prod)



class TestNodewiseTriple:
    """The 'P' triple from the 1-d factors against power iteration on the
    d-dimensional matrix, on both maps and on potentials whose node terms
    differ from node to node."""

    # n_bins per k: the d-dimensional reference at k=2 stays small
    BINS = {0: 64, 1: 16, 2: 6}

    @staticmethod
    def _close(got, ref, rel):
        assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("case", ["doubling-zero", "perturbed-srb", "perturbed-decaying",
                                      "doubling-decaying"])
    def test_factors_match_the_d_dimensional_power_iteration(
        self, k, case, doubling, perturbed, metric
    ):
        map_name, pot_name = case.split("-")
        nm = doubling if map_name == "doubling" else perturbed
        pot = {
            "zero": cl.zero_potential(),
            "srb": cl.srb_potential(nm, max_k=k, metric=metric),
            "decaying": cl.decaying_sine_potential(0.1, base=4.0, metric=metric),
        }[pot_name]
        n_bins = self.BINS[k]
        eig = cl.nodewise_eigenpair(k, n_bins, nm, pot)
        p = cl.ulam_matrix("P", k, n_bins, nm, potential=pot).matrix
        right, left = cl.power_iterate(p), cl.power_iterate(p.T)
        assert eig.lam == pytest.approx(float(right.lam), rel=1e-12, abs=0.0)
        h = right.v / (left.v @ right.v)
        mu = h * left.v
        self._close(eig.v, right.v, 1e-12)
        self._close(eig.h, h, 1e-12)
        self._close(eig.nu, left.v, 1e-12)
        self._close(eig.mu, mu / mu.sum(), 1e-12)
        assert eig.operator.kind == "P" and eig.operator.grid == cl.Grid(k, n_bins)
        # the iterations reported are the factors' worst
        factors = eig.operator.matrix.factors
        assert len(factors) == 2 * k + 1
        steps = [cl.power_iterate(f).steps for f in factors]
        assert eig.v_iteration[0] == max(steps)

    @pytest.mark.parametrize("k", [1, 2])
    def test_row_defect_from_the_factors(self, k, perturbed, metric):
        # the eigen step's |P h / (lam h) - 1|, P applied one factor per
        # axis, against the d-dimensional matrix's product
        pot = cl.decaying_sine_potential(0.1, base=4.0, metric=metric)
        eig = cl.nodewise_eigenpair(k, self.BINS[k], perturbed, pot)
        p = cl.ulam_matrix("P", k, self.BINS[k], perturbed, potential=pot).matrix
        defects = [
            float(np.max(np.abs(m @ eig.h / (eig.lam * eig.h) - 1.0)))
            for m in (eig.operator.matrix, p)
        ]
        assert abs(defects[0] - defects[1]) <= 1e-13
        assert max(defects) <= 1e-12
        x = np.random.default_rng(k).uniform(-1.0, 1.0, p.shape[0])
        self._close(eig.operator.matrix @ x, p @ x, 1e-14)

    def test_l_forms_the_matrix_it_normalizes(self, doubling):
        # 'L' from the factor triple equals 'L' from the d-dimensional one
        # on the doubling map, whose factors give the same triple bit for bit
        zero = cl.zero_potential()
        eig = cl.nodewise_eigenpair(1, 16, doubling, zero)
        ref = cl.leading_eigenpair(cl.ulam_matrix("P", 1, 16, doubling, potential=zero))
        for name in ("v", "nu", "mu"):
            assert getattr(eig, name).tobytes() == getattr(ref, name).tobytes()
        assert eig.lam == ref.lam
        got = cl.ulam_matrix("L", 1, 16, doubling, eigen=eig).matrix
        want = cl.ulam_matrix("L", 1, 16, doubling, eigen=ref).matrix
        _assert_same_bytes(got, want)


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
