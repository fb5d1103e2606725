import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest

import cml_lab as cl
from cml_lab import harness
from conftest import assert_no_children


def make_cfg(perturbed, **kw):
    base = dict(
        node_map=perturbed,
        coupling=cl.Coupling(epsilon=0.05),
        observable=cl.node_coordinate(),
        k_sim=1,
        n_steps=400,
        n_replicas=4,
        burn_in=100,
        seed=7,
    )
    base.update(kw)
    return cl.EnsembleConfig(**base)


class TestSimulation:
    def test_bitwise_determinism(self, perturbed):
        cfg = make_cfg(perturbed)
        a = cl.ensemble_series(cfg)
        b = cl.ensemble_series(cfg)
        assert np.array_equal(a, b)

    def test_replica_prefix_stability(self, perturbed):
        # replica r of an m-replica run equals replica r of a larger run:
        # streams are keyed by replica index, not drawn sequentially
        small = cl.ensemble_series(make_cfg(perturbed, n_replicas=3))
        large = cl.ensemble_series(make_cfg(perturbed, n_replicas=6))
        assert np.array_equal(small, large[:3])

    def test_output_shape(self, perturbed):
        out = cl.ensemble_series(make_cfg(perturbed, n_steps=250, burn_in=50))
        assert out.shape == (4, 200)

    def test_values_in_range(self, perturbed):
        out = cl.ensemble_series(make_cfg(perturbed))
        assert np.all((out >= 0.0) & (out < 1.0))

    @pytest.mark.parametrize("k_sim", [1, 3])
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_forward_matches_per_step_loop(self, k_sim, eps, perturbed):
        # reference: replica-major states, the node map and a coupling
        # built from concatenated neighbour arrays, one step at a time
        cfg = make_cfg(
            perturbed, coupling=cl.Coupling(epsilon=eps), k_sim=k_sim,
            n_steps=300, n_replicas=6, burn_in=40,
        )
        d = 2 * k_sim + 1
        x = np.array([
            np.random.Generator(np.random.Philox(key=[cfg.seed, r])).uniform(
                0.0, harness._ONE_MINUS, d
            )
            for r in range(cfg.n_replicas)
        ])
        pad = np.full((cfg.n_replicas, 1), perturbed.p_tau)
        ref = np.empty((cfg.n_replicas, cfg.n_steps - cfg.burn_in))
        for step in range(cfg.n_steps):
            x = perturbed.forward(x)
            if eps:
                left = np.concatenate([pad, x[:, :-1]], axis=1)
                right = np.concatenate([x[:, 1:], pad], axis=1)
                x = (1.0 - eps) * x + 0.5 * eps * (left + right)
            x = np.clip(x, 0.0, harness._ONE_MINUS)
            if step >= cfg.burn_in:
                ref[:, step - cfg.burn_in] = cfg.observable.on_array(x.T, k_sim)
        got = cl.ensemble_series(cfg)
        assert np.array_equal(got, ref)
        assert got.flags.c_contiguous

    def test_forward_doubling_refused(self, doubling):
        with pytest.raises(ValueError):
            make_cfg(doubling)

    def test_pullback_doubling_is_uniform(self, doubling):
        cfg = cl.EnsembleConfig(
            node_map=doubling,
            coupling=cl.Coupling(epsilon=0.0),
            observable=cl.node_coordinate(),
            k_sim=0,
            n_steps=4000,
            n_replicas=8,
            burn_in=200,
            seed=3,
            method="pullback",
        )
        out = cl.ensemble_series(cfg)
        assert abs(out.mean() - 0.5) < 0.01
        assert abs(out.var() - 1.0 / 12.0) < 0.005

    # one chunk, one replica per chunk, and chunks of 2 and of 4 replicas
    # out of 6 (a chunk holds at most chunk_points // (n_steps * d) replicas)
    @pytest.mark.parametrize("chunk_points", [None, 1, 4 * 180 * 3, 4 * 300 * 3])
    def test_pullback_matches_per_step_loop(self, chunk_points, doubling, monkeypatch):
        # reference: one replica at a time, one branch draw per step
        if chunk_points is not None:
            monkeypatch.setattr(harness, "_PULLBACK_POINTS", chunk_points)
        cfg = cl.EnsembleConfig(
            node_map=doubling,
            coupling=cl.Coupling(epsilon=0.0),
            observable=cl.node_coordinate(),
            k_sim=1,
            n_steps=300,
            n_replicas=6,
            burn_in=120,
            seed=42,
            method="pullback",
        )
        ref = np.empty((cfg.n_replicas, cfg.n_steps - cfg.burn_in))
        for r in range(cfg.n_replicas):
            rng = np.random.Generator(np.random.Philox(key=[cfg.seed, r]))
            x = rng.uniform(0.0, np.nextafter(1.0, 0.0), 3)
            path = np.empty((cfg.n_steps, 3))
            for step in range(cfg.n_steps):
                choice = rng.integers(0, doubling.b, 3)
                x = np.array(
                    [doubling.inverse_branches[c](v) for c, v in zip(choice, x)]
                )
                path[step] = x
            ref[r] = cfg.observable.on_array(path[cfg.burn_in:][::-1].T, 1)
        assert np.array_equal(cl.ensemble_series(cfg), ref)

    # one chunk of all 5 replicas, and chunks of 2 (a chunk holds at most
    # chunk_points // (n_steps * d) replicas)
    @pytest.mark.parametrize("chunk_points", [None, 2 * 200 * 3])
    def test_pullback_three_branches_match_per_step_loop(self, chunk_points, monkeypatch):
        # x -> 3x mod 1: every branch but the first is selected into the
        # block, and each choice is one of three
        if chunk_points is not None:
            monkeypatch.setattr(harness, "_PULLBACK_POINTS", chunk_points)
        tripling = cl.NodeMap(
            name="tripling",
            b=3,
            forward=lambda x: np.mod(3.0 * np.asarray(x, dtype=float), 1.0),
            inverse_branches=tuple(
                (lambda y, j=j: (np.asarray(y, dtype=float) + j) / 3.0) for j in range(3)
            ),
            eta=1.0 / 3.0,
            trajectory_safe=False,
        )
        cfg = cl.EnsembleConfig(
            node_map=tripling,
            coupling=cl.Coupling(epsilon=0.0),
            observable=cl.random_trig_observable(np.random.default_rng(5), n_terms=6),
            k_sim=1,
            n_steps=200,
            n_replicas=5,
            burn_in=60,
            seed=11,
            method="pullback",
        )
        ref = np.empty((cfg.n_replicas, cfg.n_steps - cfg.burn_in))
        for r in range(cfg.n_replicas):
            rng = np.random.Generator(np.random.Philox(key=[cfg.seed, r]))
            x = rng.uniform(0.0, np.nextafter(1.0, 0.0), 3)
            path = np.empty((cfg.n_steps, 3))
            for step in range(cfg.n_steps):
                choice = rng.integers(0, 3, 3)
                x = np.array(
                    [tripling.inverse_branches[c](v) for c, v in zip(choice, x)]
                )
                path[step] = x
            ref[r] = cfg.observable.on_array(path[cfg.burn_in:][::-1].T, 1)
        assert np.array_equal(cl.ensemble_series(cfg), ref)

    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**63])
    def test_rekeyed_streams_match_fresh_generators(self, seed):
        # each replica's stream draws as a Philox built with key [seed, r];
        # the odd integer count leaves half a 64-bit word buffered, which
        # the next replica must not see
        replicas = range(3, 9)
        for r, rng in zip(replicas, harness._replica_streams(seed, replicas)):
            fresh = np.random.Generator(np.random.Philox(key=[seed, r]))
            for draw in (
                lambda g: g.uniform(0.0, harness._ONE_MINUS, 5),
                lambda g: g.integers(0, 2, (7, 3)),
                lambda g: g.integers(0, 3, 5),
            ):
                assert np.array_equal(draw(rng), draw(fresh)), (seed, r)

    def test_pullback_of_a_coupled_system_is_refused(self, doubling):
        with pytest.raises(ValueError, match="uncoupled system only"):
            cl.EnsembleConfig(
                node_map=doubling,
                coupling=cl.Coupling(epsilon=0.05),
                observable=cl.node_coordinate(),
                method="pullback",
            )

    def test_pullback_choice_table_holds_the_chunk_bound(self, doubling, monkeypatch):
        # every step's branch choices are drawn up front, so the chunk is
        # sized by n_steps, not by the kept steps: one table for all 2,000
        # replicas would hold 12M choices here (96 MB as the int64 draws)
        # to keep 2,000 values.  A chunk's table holds at most
        # _PULLBACK_POINTS choices, and one table serves every chunk.
        cfg = cl.EnsembleConfig(
            node_map=doubling,
            coupling=cl.Coupling(epsilon=0.0),
            observable=cl.node_coordinate(),
            k_sim=1,
            n_steps=2000,
            n_replicas=2000,
            burn_in=1999,
            seed=7,
            method="pullback",
        )
        # one share, so that tracemalloc sees every chunk
        monkeypatch.setenv("CML_LAB_THREADS", "1")
        tracemalloc.start()
        try:
            cl.ensemble_series(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * harness._PULLBACK_POINTS * 8

    def test_pullback_burns_in_the_transient(self):
        # the first kept step must be as well mixed as the last: with the
        # transient kept, P(x < 0.1) differs between them by about 7
        # standard errors on this perturbed map
        cfg = cl.EnsembleConfig(
            node_map=cl.perturbed_doubling_map(0.15),
            coupling=cl.Coupling(epsilon=0.0),
            observable=cl.node_coordinate(),
            k_sim=0,
            n_steps=300,
            n_replicas=20_000,
            burn_in=100,
            seed=7,
            method="pullback",
        )
        out = cl.ensemble_series(cfg)
        first, last = np.mean(out[:, 0] < 0.1), np.mean(out[:, -1] < 0.1)
        se = math.sqrt((first * (1 - first) + last * (1 - last)) / cfg.n_replicas)
        assert abs(first - last) < 4.0 * se

    def test_mean_matches_operator_measure(self, perturbed, perturbed_eigen_k0):
        cfg = make_cfg(
            perturbed,
            coupling=cl.Coupling(epsilon=0.0),
            k_sim=0,
            n_steps=4000,
            n_replicas=32,
            burn_in=500,
        )
        out = cl.ensemble_series(cfg)
        grid = perturbed_eigen_k0.operator.grid
        x = cl.node_coordinate().on_array(grid.reps(), 0)
        mu_mean = float(perturbed_eigen_k0.mu @ x)
        assert abs(out.mean() - mu_mean) < 0.01

    @pytest.mark.parametrize("k_sim", [1, 3])
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_forward_sums_match_series(self, k_sim, eps, perturbed):
        cfg = make_cfg(
            perturbed, coupling=cl.Coupling(epsilon=eps), k_sim=k_sim,
            n_steps=300, n_replicas=6, burn_in=40,
        )
        sums = cl.simulate_ensemble(cfg)
        ref = cl.ensemble_series(cfg).sum(axis=1)
        assert sums.shape == (cfg.n_replicas,)
        assert np.max(np.abs(sums - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("chunk_points", [None, 4 * 180 * 3])
    def test_pullback_sums_match_series(self, chunk_points, doubling, monkeypatch):
        if chunk_points is not None:
            monkeypatch.setattr(harness, "_PULLBACK_POINTS", chunk_points)
        cfg = cl.EnsembleConfig(
            node_map=doubling,
            coupling=cl.Coupling(epsilon=0.0),
            observable=cl.node_coordinate(),
            k_sim=1,
            n_steps=300,
            n_replicas=6,
            burn_in=120,
            seed=42,
            method="pullback",
        )
        sums = cl.simulate_ensemble(cfg)
        ref = cl.ensemble_series(cfg).sum(axis=1)
        assert np.max(np.abs(sums - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_sums_memory_does_not_grow_with_steps(self, perturbed, monkeypatch):
        # the per-replica sums stream: a 4x longer run holds no more than
        # the node states and one step's values, never the 500 x n series
        # (2.4 MB at 600 steps, 9.6 MB at 2,400); one share, so that
        # tracemalloc sees every replica
        monkeypatch.setenv("CML_LAB_THREADS", "1")
        peaks = []
        for n_steps in (600, 2400):
            cfg = make_cfg(
                perturbed, n_steps=n_steps, n_replicas=500, burn_in=100
            )
            tracemalloc.start()
            try:
                cl.simulate_ensemble(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]
        assert peaks[1] < 1 << 20

    def test_clamping_past_the_bound_raises(self, perturbed):
        # every node update lands on 1, outside [0,1): both consumers
        # drain the stepping kernel, so both see its final check
        stuck = dataclasses.replace(
            perturbed,
            forward=lambda x: np.where(np.asarray(x) == perturbed.p_tau,
                                       perturbed.p_tau, 1.0),
        )
        cfg = make_cfg(stuck)
        for run in (cl.simulate_ensemble, cl.ensemble_series):
            with pytest.raises(RuntimeError, match="trajectory-safe"):
                run(cfg)

    def test_burn_in_validation(self, perturbed):
        with pytest.raises(ValueError):
            make_cfg(perturbed, burn_in=400)

    def test_negative_burn_in_rejected(self, perturbed):
        # it used to return burn_in uninitialised leading columns
        with pytest.raises(ValueError, match="nonnegative"):
            make_cfg(perturbed, burn_in=-1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="shares past the first need os.fork")
class TestShares:
    """The ensemble split into contiguous replica shares, all but the first
    run by forked workers: the same bits for any number of shares."""

    @pytest.fixture(autouse=True)
    def split_from_one_step(self, monkeypatch, deadline):
        # every replica-step is worth a share
        monkeypatch.setattr(harness, "_MIN_SHARE", 1)

    @pytest.mark.parametrize("k_sim", [1, 3])
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_forward_is_bitwise_equal_for_any_split(self, k_sim, eps, perturbed, cpus):
        cfg = make_cfg(
            perturbed, coupling=cl.Coupling(epsilon=eps), k_sim=k_sim,
            n_steps=200, n_replicas=7, burn_in=40,
        )
        runs = []
        for n in (1, 2, 3):
            cpus(n)
            assert cl.ensemble_shares(cfg) == n
            runs.append((cl.simulate_ensemble(cfg), cl.ensemble_series(cfg)))
        for sums, series in runs[1:]:
            assert np.array_equal(sums, runs[0][0])
            assert np.array_equal(series, runs[0][1])
            assert series.flags.c_contiguous
        assert_no_children()

    @pytest.mark.parametrize("chunk_points", [None, 2 * 300 * 3])
    def test_pullback_is_bitwise_equal_for_any_split(
        self, chunk_points, doubling, cpus, monkeypatch
    ):
        if chunk_points is not None:
            monkeypatch.setattr(harness, "_PULLBACK_POINTS", chunk_points)
        cfg = cl.EnsembleConfig(
            node_map=doubling, coupling=cl.Coupling(epsilon=0.0),
            observable=cl.node_coordinate(), k_sim=1, n_steps=300,
            n_replicas=7, burn_in=120, seed=42, method="pullback",
        )
        runs = []
        for n in (1, 2, 3):
            cpus(n)
            runs.append((cl.simulate_ensemble(cfg), cl.ensemble_series(cfg)))
        for sums, series in runs[1:]:
            assert np.array_equal(sums, runs[0][0])
            assert np.array_equal(series, runs[0][1])
        assert_no_children()

    def test_share_count(self, perturbed, cpus, monkeypatch):
        cfg = make_cfg(perturbed, n_steps=400, n_replicas=4)
        cpus(8)
        assert cl.ensemble_shares(cfg) == 4  # no more shares than replicas
        monkeypatch.setattr(harness, "_MIN_SHARE", 800)
        assert cl.ensemble_shares(cfg) == 2  # 1,600 replica-steps
        monkeypatch.setattr(harness, "_MIN_SHARE", 1601)
        assert cl.ensemble_shares(cfg) == 1

    def test_one_thread_runs_in_process(self, perturbed, cpus, monkeypatch):
        cfg = make_cfg(perturbed)
        cpus(4)
        ref = cl.simulate_ensemble(cfg)
        monkeypatch.setenv("CML_LAB_THREADS", "1")
        assert cl.ensemble_shares(cfg) == 1

        def no_fork():
            raise AssertionError("one share must not fork")

        monkeypatch.setattr(os, "fork", no_fork)
        assert np.array_equal(cl.simulate_ensemble(cfg), ref)

    def test_clamp_bound_applies_to_the_total(self, perturbed, cpus):
        # every node update lands on 1, outside [0,1); 4 replicas in shares
        # of 1, 1 and 2, so 400 steps x 3 nodes give 1,200, 1,200 and 2,400
        # clamps, and the one abort reports their sum
        parent = os.getpid()

        def stuck(in_parent):
            def forward(x):
                y = np.where(np.asarray(x) == perturbed.p_tau, perturbed.p_tau, 1.0)
                return y if in_parent or os.getpid() != parent else perturbed.forward(x)
            nm = dataclasses.replace(perturbed, forward=forward)
            return make_cfg(nm, coupling=cl.Coupling(epsilon=0.0))

        cpus(3)
        for run in (cl.simulate_ensemble, cl.ensemble_series):
            with pytest.raises(RuntimeError, match="at 4800 node updates"):
                run(stuck(in_parent=True))
        # the workers' shares alone: the parent's own share clamps nothing
        with pytest.raises(RuntimeError, match="at 3600 node updates"):
            cl.simulate_ensemble(stuck(in_parent=False))
        assert_no_children()

    def test_worker_error_surfaces_and_is_reaped(self, perturbed, cpus):
        parent = os.getpid()

        def forward(x):
            if os.getpid() != parent:
                raise ZeroDivisionError(f"in worker {os.getpid()}")
            return perturbed.forward(x)

        cfg = make_cfg(dataclasses.replace(perturbed, forward=forward))
        cpus(3)
        with pytest.raises(ZeroDivisionError, match="in worker"):
            cl.simulate_ensemble(cfg)
        assert_no_children()

    def test_worker_exit_without_result_raises(self, perturbed, cpus):
        parent = os.getpid()

        def forward(x):
            if os.getpid() != parent:
                os._exit(3)
            return perturbed.forward(x)

        cfg = make_cfg(dataclasses.replace(perturbed, forward=forward))
        cpus(2)
        with pytest.raises(RuntimeError, match="replicas 2-3 exited without a result"):
            cl.simulate_ensemble(cfg)
        assert_no_children()

    def test_series_is_held_once(self, perturbed, cpus):
        # the workers' rows are read into the result in place: the parent
        # holds the 2,000 x 300 series (4.8 MB) once, as with one share
        cfg = make_cfg(perturbed, n_steps=400, n_replicas=2000, burn_in=100)
        cpus(2)
        tracemalloc.start()
        try:
            series = cl.ensemble_series(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * series.nbytes

    def test_parent_error_kills_the_workers(self, perturbed, cpus):
        # the workers would run for minutes; the parent's own share fails
        # at once, and the workers are killed and reaped
        parent = os.getpid()

        def forward(x):
            if os.getpid() == parent and np.ndim(x) == 2:
                raise ZeroDivisionError("in the parent")
            return perturbed.forward(x)

        cfg = make_cfg(
            dataclasses.replace(perturbed, forward=forward), n_steps=10_000_000
        )
        cpus(3)
        with pytest.raises(ZeroDivisionError, match="in the parent"):
            cl.simulate_ensemble(cfg)
        assert_no_children()


class TestAutocorrelationFit:
    def test_ar1_rate_recovery(self):
        rng = np.random.default_rng(0)
        n, rho = 400_000, 0.8
        eps = rng.standard_normal(n)
        x = np.empty(n)
        x[0] = eps[0]
        for i in range(1, n):
            x[i] = rho * x[i - 1] + eps[i]
        fit = cl.autocorrelation_fit(x, n_max=20)
        assert fit.fitted
        assert fit.rate == pytest.approx(rho, abs=0.02)
        assert fit.r_squared > 0.99

    def test_iid_yields_no_fit(self):
        rng = np.random.default_rng(1)
        fit = cl.autocorrelation_fit(rng.standard_normal(100_000), n_max=10)
        assert not fit.fitted
        assert fit.rate is None and fit.n_lags_used == 0

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            cl.autocorrelation_fit(np.zeros(50), n_max=10)

    def test_lag_zero_is_variance(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.0, 1.0, 50_000)
        fit = cl.autocorrelation_fit(x, n_max=5)
        assert fit.autocovariance[0] == pytest.approx(np.var(x), rel=1e-10)


class TestKsDistance:
    def test_normal_sample_is_close(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal(20_000)
        assert cl.ks_distance_to_normal(z) < 1.63 / math.sqrt(20_000)

    def test_self_distance_of_inverse_cdf_grid(self):
        # evaluating the normal quantile on a uniform grid makes the
        # empirical CDF straddle the normal CDF at distance 1/(2n)
        from scipy.special import ndtri

        n = 1000
        q = ndtri((np.arange(n) + 0.5) / n)
        assert cl.ks_distance_to_normal(q) == pytest.approx(0.5 / n, abs=1e-12)

    def test_normal_cdf_matches_ndtr(self):
        # math.erf and math.erfc under ndtr's branch rule: scipy's ndtr, as
        # a reference only, to one unit in the last place of 1
        from scipy.special import ndtr

        from cml_lab.harness import _normal_cdf

        x = np.concatenate([
            np.linspace(-40.0, 40.0, 8001),
            np.random.default_rng(9).standard_normal(20_000) * 3.0,
        ])
        got = np.array([_normal_cdf(v) for v in x.tolist()])
        assert np.max(np.abs(got - ndtr(x))) <= np.finfo(float).eps
        assert _normal_cdf(0.0) == 0.5 and _normal_cdf(-40.0) == 0.0
        assert _normal_cdf(40.0) == 1.0

    def test_shift_is_detected(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal(20_000) + 0.1
        assert cl.ks_distance_to_normal(z) > 0.03


class TestCltTest:
    def test_calibrated_gaussian_sums_pass(self):
        rng = np.random.default_rng(5)
        n, reps, sigma2 = 400, 2000, 1.7
        sums = rng.normal(0.0, math.sqrt(n * sigma2), reps)
        res = cl.clt_test(sums, n, sigma2)
        assert res.passed
        assert res.critical_value == pytest.approx(1.63 / math.sqrt(reps))

    def test_wrong_variance_fails(self):
        rng = np.random.default_rng(6)
        n, reps = 400, 2000
        sums = rng.normal(0.0, math.sqrt(n * 1.0), reps)
        res = cl.clt_test(sums, n, sigma2=4.0)
        assert not res.passed

    def test_degenerate_variance_rejected(self):
        with pytest.raises(ValueError):
            cl.clt_test(np.zeros(600), 100, 0.0)

    def test_too_few_replicas_rejected(self):
        with pytest.raises(ValueError):
            cl.clt_test(np.zeros(100), 100, 1.0)


class TestAsipDiagnostics:
    def test_iid_calibration(self):
        rng = np.random.default_rng(7)
        sigma2 = 2.3
        ens = rng.normal(0.0, math.sqrt(sigma2), (600, 4096))
        long = rng.normal(0.0, math.sqrt(sigma2), 200_000)
        diag = cl.asip_diagnostic(long, ens, sigma2)
        assert diag.variance_slope == pytest.approx(1.0, abs=0.05)
        assert diag.variance_r_squared > 0.99
        assert diag.lil_statistic <= 1.2
        for _, ks in diag.ks_by_scale:
            assert ks < 1.63 / math.sqrt(600)

    def test_degenerate_variance_rejected(self):
        with pytest.raises(ValueError):
            cl.asip_diagnostic(np.zeros(2000), np.zeros((10, 64)), 0.0)
