"""Trajectory-level statistics: reproducible ensembles, autocorrelation
fits against the operator's spectral prediction, the CLT check, and the
invariance-principle proxy diagnostics.

Run:  python3 demos/04_trajectory_statistics.py   (about a minute)
"""

import math

import numpy as np

import cml_lab as cl


def main() -> None:
    m = cl.MetricParams()
    nm = cl.perturbed_doubling_map(0.05)
    coupling = cl.Coupling(epsilon=0.05)
    phi = cl.node_coordinate()

    ens = cl.EnsembleConfig(
        node_map=nm, coupling=coupling, observable=phi,
        k_sim=1, n_steps=5200, n_replicas=1000, burn_in=200, seed=42,
    )
    series = cl.ensemble_series(ens)
    print(f"simulated {series.shape[0]} replicas x {series.shape[1]} steps "
          "(Philox stream per replica; bitwise reproducible from the seed)")
    again = cl.ensemble_series(ens)
    print("  re-run is bitwise identical:", np.array_equal(series, again))

    fit = cl.autocorrelation_fit(series, n_max=12)
    print(f"\nfitted geometric decay rate {fit.rate:.4f} over "
          f"{fit.n_lags_used} significant lags (R^2 = {fit.r_squared:.3f})")
    pot = cl.srb_potential(nm, max_k=1, metric=m)
    op = cl.ulam_matrix("coupled", 1, 16, nm, potential=pot, coupling=coupling)
    print(f"operator |lambda_2| for comparison: "
          f"{cl.spectral_gap(op).lambda2_modulus:.4f}")

    sigma2 = cl.variance_green_kubo(phi, op).sigma2
    # the CLT needs only each replica's sum, which simulate_ensemble keeps
    # as the trajectories run instead of the whole series
    sums = cl.simulate_ensemble(ens)
    print(f"\nper-replica sums of the same trajectories agree with the "
          f"series' row sums to {np.max(np.abs(sums - series.sum(axis=1))):.1e}")
    sums -= sums.mean()
    n = ens.n_steps - ens.burn_in
    res = cl.clt_test(sums, n, sigma2)
    print(f"\nCLT: KS distance {res.ks_distance:.4f} vs critical "
          f"{res.critical_value:.4f} at the 1% level -> passed: {res.passed}")
    print(f"  empirical Var(S_n)/n = {sums.var() / n:.4f}, operator sigma^2 = "
          f"{sigma2:.4f}")

    long_cfg = cl.EnsembleConfig(
        node_map=nm, coupling=coupling, observable=phi,
        k_sim=1, n_steps=100_200, n_replicas=1, burn_in=200, seed=7,
    )
    long_series = cl.ensemble_series(long_cfg)[0]
    diag = cl.asip_diagnostic(long_series, series, sigma2)
    print("\ninvariance-principle proxies:")
    print(f"  partial-sum variance slope / sigma^2 = "
          f"{diag.variance_slope:.3f} (R^2 = {diag.variance_r_squared:.3f})")
    print(f"  iterated-logarithm statistic = {diag.lil_statistic:.3f} "
          "(iid calibration envelope ~1.2)")
    worst = max(ks for _, ks in diag.ks_by_scale)
    print(f"  worst KS over dyadic scales = {worst:.4f} "
          f"(critical {1.63 / math.sqrt(series.shape[0]):.4f})")


if __name__ == "__main__":
    main()
