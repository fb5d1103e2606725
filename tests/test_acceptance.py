"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL verdict line with the measured
numbers, then asserts.  Heavy artifacts (operators, ensembles) are built
once in module-scoped fixtures and shared.
"""

import filecmp
import math
import os
import time

import numpy as np
import pytest

import cml_lab as cl


def verdict(number: int, passed: bool, detail: str) -> None:
    word = "PASS" if passed else "FAIL"
    print(f"acceptance {number}: {word} - {detail}")


@pytest.fixture(scope="module")
def coupled_setup():
    """Reference coupled system: perturbed doubling a=0.05, diffusive
    eps=0.05, k=1 window on a 16-bin grid."""
    m = cl.MetricParams()
    nm = cl.perturbed_doubling_map(0.05)
    f = cl.node_sine_potential(0.1, metric=m)
    p = cl.ulam_matrix("P", 1, 16, nm, potential=f)
    eigen = cl.leading_eigenpair(p)
    coupling = cl.Coupling(epsilon=0.05)
    # quadrature order 8: the forward-image assembly needs the finer
    # per-cell sampling to keep cell-scale roughness out of the measured
    # Hoelder quotients of low iterates
    op = cl.ulam_matrix(
        "coupled", 1, 16, nm, potential=f, coupling=coupling, quad=8
    )
    ce = cl.estimate_coupling_constant(coupling, nm, m, k=1).value
    return dict(m=m, nm=nm, f=f, eigen=eigen, coupling=coupling, op=op, ce=ce)


def test_criterion_1_exact_uncoupled_baseline():
    start = time.perf_counter()
    nm = cl.doubling_map()
    op = cl.ulam_matrix("P", 0, 1024, nm, potential=cl.zero_potential())
    e = cl.leading_eigenpair(op)
    elapsed = time.perf_counter() - start
    lam_err = abs(e.lam - 1.0)
    h_err = float(np.max(np.abs(e.h - 1.0)))
    nu_err = float(np.max(np.abs(e.nu * 1024 - 1.0)))
    passed = lam_err < 1e-10 and h_err < 1e-10 and nu_err < 1e-3 and elapsed < 5.0
    verdict(
        1,
        passed,
        f"lambda err {lam_err:.2e}, h dev {h_err:.2e}, "
        f"nu dev {nu_err:.2e}, {elapsed:.1f} s",
    )
    assert passed


def test_criterion_2_operator_family_is_cauchy_in_width():
    start = time.perf_counter()
    m = cl.MetricParams()
    f = cl.decaying_sine_potential(0.1, 4.0, m)
    rep = cl.check_Pk_cauchy(
        cl.constant_potential(1.0),
        f,
        k_max=3,
        samples=100,
        node_map=cl.doubling_map(),
    )
    elapsed = time.perf_counter() - start
    passed = (
        rep.fitted_ratio is not None
        and rep.fitted_ratio <= 0.35
        and elapsed < 60.0
    )
    diffs = ", ".join(f"{d:.2e}" for d in rep.sup_differences)
    verdict(
        2,
        passed,
        f"sup diffs [{diffs}], fitted ratio {rep.fitted_ratio:.3f} "
        f"<= 0.35, {elapsed:.1f} s",
    )
    assert passed


def test_criterion_3_iterated_seminorm_margins(coupled_setup):
    start = time.perf_counter()
    s = coupled_setup
    rng = np.random.default_rng(11)
    observables = [
        cl.random_trig_observable(rng, max_node=1, metric=s["m"])
        for _ in range(50)
    ]
    rep = cl.check_lasota_yorke(
        s["op"], s["eigen"], observables, n_max=10, m=s["m"],
        ce=s["ce"], tol=0.05, rng=rng,
    )
    elapsed = time.perf_counter() - start
    worst = max(r.measured / r.bound for r in rep.rows)
    passed = rep.all_ok and elapsed < 120.0
    verdict(
        3,
        passed,
        f"{len(rep.rows)} rows, worst measured/bound {worst:.2f} "
        f"(allowed 1.05), C6 {rep.c6:.2f}, C_E {s['ce']:.3f}, {elapsed:.1f} s",
    )
    assert passed


def test_criterion_4_gap_agrees_with_trajectory_decay():
    start = time.perf_counter()
    # weak perturbation and coupling keep the second eigenvalue real
    # enough that the coordinate autocorrelation sees the same rate
    m = cl.MetricParams()
    nm = cl.perturbed_doubling_map(0.02)
    pot = cl.srb_potential(nm, max_k=1, metric=m)
    coupling = cl.Coupling(epsilon=0.02)
    op = cl.ulam_matrix("coupled", 1, 16, nm, potential=pot, coupling=coupling)
    sigma_hat = cl.spectral_gap(op).lambda2_modulus
    ens = cl.EnsembleConfig(
        node_map=nm, coupling=coupling, observable=cl.node_coordinate(),
        k_sim=1, n_steps=900, n_replicas=8000, burn_in=100, seed=42,
    )
    series = cl.simulate_ensemble(ens)
    fit = cl.autocorrelation_fit(series, n_max=12)
    elapsed = time.perf_counter() - start
    diff = abs(fit.rate - sigma_hat) if fit.fitted else math.inf
    passed = sigma_hat < 1.0 and fit.fitted and diff < 0.1 and elapsed < 120.0
    verdict(
        4,
        passed,
        f"|lambda2| {sigma_hat:.4f} < 1, trajectory rate "
        f"{fit.rate:.4f} ({fit.n_lags_used} lags), |diff| {diff:.3f} < 0.1, "
        f"{elapsed:.1f} s",
    )
    assert passed


def test_criterion_5_analytic_autocovariance_oracle():
    # oracle first: integrate (x - 1/2)((2^n x mod 1) - 1/2) dx on a fine
    # midpoint grid, independently of any operator machinery
    big_m = 1 << 22
    xs = (np.arange(big_m) + 0.5) / big_m
    left = xs - 0.5
    oracle = np.empty(11)
    y = xs.copy()
    for n in range(11):
        oracle[n] = float(np.mean(left * (y - 0.5)))
        y = (2.0 * y) % 1.0
    assert np.max(np.abs(oracle - 2.0 ** -np.arange(11) / 12.0)) < 1e-9
    r = oracle[10] / oracle[9]
    sigma2_oracle = oracle[0] + 2.0 * oracle[1:].sum() + 2.0 * oracle[10] * r / (1 - r)

    nm = cl.doubling_map()
    op = cl.ulam_matrix("P", 0, 1024, nm, potential=cl.zero_potential())
    eigen = cl.leading_eigenpair(op)
    l_op = cl.ulam_matrix("L", 0, 1024, nm, eigen=eigen)
    phi = cl.node_coordinate()
    c = cl.operator_correlation(phi, phi, l_op, 10)
    corr_err = float(np.max(np.abs(c - oracle)))
    sigma2 = cl.variance_green_kubo(phi, l_op)
    var_err = abs(sigma2 - sigma2_oracle)
    passed = corr_err < 1e-3 and var_err < 1e-3 and abs(sigma2_oracle - 0.25) < 1e-6
    verdict(
        5,
        passed,
        f"max |C_n - oracle| {corr_err:.2e} < 1e-3, sigma^2 {sigma2:.6f} vs "
        f"oracle {sigma2_oracle:.6f} (err {var_err:.2e} < 1e-3)",
    )
    assert passed


def test_criterion_6_central_limit_theorem():
    start = time.perf_counter()
    m = cl.MetricParams()
    nm = cl.perturbed_doubling_map(0.05)
    pot = cl.srb_potential(nm, max_k=1, metric=m)
    coupling = cl.Coupling(epsilon=0.05)
    # sigma^2 from the coupled operator on a fine grid (48 bins per axis)
    op = cl.ulam_matrix(
        "coupled", 1, 48, nm, potential=pot, coupling=coupling,
        cell_budget=120_000,
    )
    sigma2 = cl.variance_green_kubo(cl.node_coordinate(), op)
    ens = cl.EnsembleConfig(
        node_map=nm, coupling=coupling, observable=cl.node_coordinate(),
        k_sim=1, n_steps=5200, n_replicas=2000, burn_in=200, seed=42,
    )
    series = cl.simulate_ensemble(ens)
    centered = series - series.mean()
    sums = centered.sum(axis=1)
    n = series.shape[1]
    res = cl.clt_test(sums, n, sigma2)
    emp = float(sums.var() / n)
    ratio = emp / sigma2
    elapsed = time.perf_counter() - start
    passed = res.passed and abs(ratio - 1.0) <= 0.10 and elapsed < 300.0
    verdict(
        6,
        passed,
        f"KS {res.ks_distance:.4f} < {res.critical_value:.4f}, empirical "
        f"sigma^2 {emp:.4f} vs operator {sigma2:.4f} (ratio {ratio:.3f}), "
        f"{elapsed:.0f} s",
    )
    assert passed


def test_criterion_7_twisted_operator_boundedness(coupled_setup):
    # the twisted spectrum carries the CLT (Nagaev-Guivarc'h): |lambda(t)| < 1
    # off t = 0, and -log|lambda(t)| = sigma^2 t^2 / 2 + O(t^4), with sigma^2
    # the Green-Kubo variance
    start = time.perf_counter()
    op = coupled_setup["op"]
    phi = cl.node_coordinate()
    sigma2 = cl.variance_green_kubo(phi, op)
    rows = cl.check_twisted_bound(op, phi, [0.01, -0.01, 0.05, -0.05, 0.1, -0.1])
    max_modulus = max(r.modulus for r in rows)
    small_dev = abs(rows[0].sigma2 / sigma2 - 1.0)
    curv_dev = abs(cl.variance_from_twisted_curvature(op, phi) / sigma2 - 1.0)
    elapsed = time.perf_counter() - start
    passed = (
        max_modulus < 1.0 and small_dev <= 1e-4 and curv_dev <= 1e-5
        and elapsed < 60.0
    )
    verdict(
        7,
        passed,
        f"max |lambda(t)| {max_modulus:.8f} < 1 over 6 twists, "
        f"-2 log|lambda(0.01)|/t^2 off sigma^2 {sigma2:.5f} by {small_dev:.1e} "
        f"<= 1e-4, curvature off by {curv_dev:.1e} <= 1e-5, {elapsed:.1f} s",
    )
    assert passed


def test_criterion_8_conformal_mass_transport():
    nm = cl.doubling_map()
    op = cl.ulam_matrix("P", 0, 256, nm, potential=cl.zero_potential())
    l_op = cl.ulam_matrix("L", 0, 256, nm, eigen=cl.leading_eigenpair(op))
    rng = np.random.default_rng(8)
    grid = l_op.grid
    ratios = []
    for _ in range(20):
        box = cl.random_admissible_box(grid, nm, rng, min_bins=grid.n_bins // 8)
        res = cl.check_conformality(l_op, box)
        ratios.append(res.ratio)
    ratios = np.array(ratios)
    spread = float((ratios.max() - ratios.min()) / ratios.mean())
    mean = float(ratios.mean())
    passed = spread < 0.02 and abs(mean - 0.5) < 0.005
    verdict(
        8,
        passed,
        f"20 boxes, ratio {mean:.4f} (spread {spread:.1%} < 2%); the "
        f"measured constant is 1/b = 0.5: image mass is counted per "
        f"branch, a unit-normalized transport convention would report 1",
    )
    assert passed


def test_criterion_9_byte_identical_reports(tmp_path):
    cfg_text = (
        "[map]\nkind = perturbed_doubling\na = 0.05\n\n"
        "[coupling]\nkind = diffusive\nepsilon = 0.05\n\n"
        "[operator]\nk = 1\nn_bins = 16\nquad = 4\n\n"
        "[run]\nexperiments = eigen, spectral, correlation\nseed = 42\n"
    )
    cfg_path = os.path.join(tmp_path, "exp.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(cfg_text)
    cfg = cl.parse_config(cfg_path)
    dirs = [os.path.join(tmp_path, d) for d in ("a", "b")]
    for d in dirs:
        report = cl.run_experiment(cfg)
        assert report.errors == {}
        cl.emit_report(report, d)
    names = sorted(n for n in os.listdir(dirs[0]) if n != "timing.txt")
    match, mismatch, errors = filecmp.cmpfiles(*dirs, names, shallow=False)
    passed = mismatch == [] and errors == [] and len(match) == len(names)
    verdict(
        9,
        passed,
        f"re-run of {cfg.fingerprint()[:12]} produced byte-identical "
        f"{names} (timing.txt excluded)",
    )
    assert passed
