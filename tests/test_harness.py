import math

import numpy as np
import pytest

import cml_lab as cl
from cml_lab import harness


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
        a = cl.simulate_ensemble(cfg)
        b = cl.simulate_ensemble(cfg)
        assert np.array_equal(a, b)

    def test_replica_prefix_stability(self, perturbed):
        # replica r of an m-replica run equals replica r of a larger run:
        # streams are keyed by replica index, not drawn sequentially
        small = cl.simulate_ensemble(make_cfg(perturbed, n_replicas=3))
        large = cl.simulate_ensemble(make_cfg(perturbed, n_replicas=6))
        assert np.array_equal(small, large[:3])

    def test_output_shape(self, perturbed):
        out = cl.simulate_ensemble(make_cfg(perturbed, n_steps=250, burn_in=50))
        assert out.shape == (4, 200)

    def test_values_in_range(self, perturbed):
        out = cl.simulate_ensemble(make_cfg(perturbed))
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
            harness._replica_rng(cfg.seed, r).uniform(0.0, harness._ONE_MINUS, d)
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
        got = cl.simulate_ensemble(cfg)
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
        out = cl.simulate_ensemble(cfg)
        assert abs(out.mean() - 0.5) < 0.01
        assert abs(out.var() - 1.0 / 12.0) < 0.005

    # one chunk, one replica per chunk, and chunks of 4 replicas out of 6
    @pytest.mark.parametrize("chunk_points", [None, 1, 4 * 180 * 3])
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
        assert np.array_equal(cl.simulate_ensemble(cfg), ref)

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
        out = cl.simulate_ensemble(cfg)
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
        out = cl.simulate_ensemble(cfg)
        grid = perturbed_eigen_k0.operator.grid
        x = cl.node_coordinate().on_array(grid.reps(), 0)
        mu_mean = float(perturbed_eigen_k0.mu @ x)
        assert abs(out.mean() - mu_mean) < 0.01

    def test_burn_in_validation(self, perturbed):
        with pytest.raises(ValueError):
            make_cfg(perturbed, burn_in=400)

    def test_negative_burn_in_rejected(self, perturbed):
        # it used to return burn_in uninitialised leading columns
        with pytest.raises(ValueError, match="nonnegative"):
            make_cfg(perturbed, burn_in=-1)


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
