"""Configuration, experiment orchestration, and report emission.

The config format is line-based key-value text with ``[section]`` headers
(documented in the README).  Parsing is strict: unknown sections or keys
are errors, and all violations are collected before reporting.  Reports
are deterministic given (config, package version): wall-clock times are
emitted to a separate timing file that is excluded from the fingerprint.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .lattice import (
    Coupling,
    MetricParams,
    NodeMap,
    Potential,
    doubling_map,
    estimate_coupling_constant,
    perturbed_doubling_map,
)
from .observables import (
    decaying_sine_potential,
    node_coordinate,
    node_sine_potential,
    random_trig_observable,
    srb_potential,
    zero_potential,
)
# leading_eigenpair, stationary_distribution and operator_correlation are
# not called here: they stay for perfbench/child.py, which wraps them here
from .transfer import (  # noqa: F401
    Grid,
    assembly_shares,
    check_conformality,
    check_lasota_yorke,
    leading_eigenpair,
    nodewise_eigenpair,
    random_admissible_box,
    save_operator,
    ulam_matrix,
)
from .spectral import (  # noqa: F401
    check_twisted_bound,
    operator_correlation,
    spectral_gap,
    stationary_distribution,
    variance_from_twisted_curvature,
    variance_green_kubo,
)
from .harness import (
    CLT_MIN_REPLICAS,
    EnsembleConfig,
    clt_test,
    ensemble_shares,
    simulate_ensemble,
)

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "RunReport",
    "parse_config",
    "run_experiment",
    "emit_report",
    "main",
]


EXPERIMENTS = (
    "eigen",
    "spectral",
    "correlation",
    "ly",
    "conformality",
    "twisted",
    "clt",
)

MAP_KINDS = ("doubling", "perturbed_doubling")
POTENTIAL_KINDS = ("zero", "node_sine", "decaying_sine", "srb")
# the widest window the contraction pre-flight reads C_E on
CE_MAX_K = 64


class ConfigError(ValueError):
    """All constraint violations found in a config file, not just the first."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__(
            "invalid configuration:\n" + "\n".join(f"  - {v}" for v in violations)
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment description.

    Defaults encode the desk-scale reference experiment: perturbed
    doubling a=0.05, diffusive eps=0.05, theta=0.5, beta=1, alpha=0.5,
    k=1, N=16, Q=4, seed 42.
    """

    map_kind: str = "perturbed_doubling"
    a: float = 0.05
    coupling_kind: str = "diffusive"
    epsilon: float = 0.05
    theta: float = 0.5
    beta: float = 1.0
    alpha: float = 0.5
    potential_kind: str = "srb"
    amplitude: float = 0.1
    node: int = 0
    base: float = 4.0
    k: int = 1
    n_bins: int = 16
    quad: int = 4
    cell_budget: int = 100_000
    experiments: tuple[str, ...] = EXPERIMENTS
    seed: int = 42
    output_dir: str = "reports"
    n_steps: int = 5000
    n_replicas: int = 2000
    burn_in: int = 200
    n_lags: int = 10

    def node_map(self) -> NodeMap:
        # the builders are looked up in this module at call time, so that
        # a wrapper set on it (perfbench/child.py sets one) is the one run
        if self.map_kind == "doubling":
            return doubling_map()
        if self.map_kind == "perturbed_doubling":
            return perturbed_doubling_map(self.a)
        raise ValueError(f"map kind {self.map_kind!r} not in {MAP_KINDS}")

    def metric(self) -> MetricParams:
        return MetricParams(theta=self.theta, beta=self.beta, alpha=self.alpha)

    def coupling(self) -> Coupling:
        return Coupling(kind=self.coupling_kind, epsilon=self.epsilon)

    def potential(self) -> Potential:
        if self.potential_kind == "zero":
            return zero_potential()
        if self.potential_kind == "node_sine":
            return node_sine_potential(self.amplitude, self.node, self.metric())
        if self.potential_kind == "decaying_sine":
            return decaying_sine_potential(self.amplitude, base=self.base, metric=self.metric())
        if self.potential_kind == "srb":
            return srb_potential(self.node_map(), max_k=self.k, metric=self.metric())
        raise ValueError(f"potential kind {self.potential_kind!r} not in {POTENTIAL_KINDS}")

    def observable(self) -> Potential:
        """x_0, whose correlations, variance and sums the experiments test."""
        return node_coordinate(0, metric=self.metric())

    def ensemble(self) -> EnsembleConfig:
        return EnsembleConfig(
            node_map=self.node_map(), coupling=self.coupling(),
            observable=self.observable(), k_sim=self.k, n_steps=self.n_steps,
            n_replicas=self.n_replicas, burn_in=self.burn_in, seed=self.seed,
        )

    def canonical_text(self) -> str:
        """Config re-serialized in a fixed order; the fingerprint input."""
        lines = []
        for sec, keys in _SCHEMA.items():
            lines.append(f"[{sec}]")
            for key, attr in sorted(keys.items()):
                val = getattr(self, attr)
                if isinstance(val, tuple):
                    val = ", ".join(val)
                lines.append(f"{key} = {val}")
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> str:
        payload = self.canonical_text() + f"version = {__version__}\n"
        return hashlib.sha256(payload.encode()).hexdigest()


# the config attributes of each section: a key is its attribute without
# the section prefix, and it parses as the type of the attribute's default
_SECTIONS = {
    "map": ("map_kind", "a"),
    "coupling": ("coupling_kind", "epsilon"),
    "metric": ("theta", "beta", "alpha"),
    "potential": ("potential_kind", "amplitude", "node", "base"),
    "operator": ("k", "n_bins", "quad", "cell_budget"),
    "run": ("experiments", "seed", "output_dir", "n_steps", "n_replicas", "burn_in", "n_lags"),
}
_SCHEMA = {
    sec: {a.removeprefix(f"{sec}_"): a for a in attrs} for sec, attrs in _SECTIONS.items()
}


def parse_config(path: str) -> ExperimentConfig:
    """Read and validate a config file, collecting every violation."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    violations: list[str] = []
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                violations.append(f"line {lineno}: unknown section [{section}]")
                section = None
            continue
        if "=" not in line:
            violations.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        if section is None:
            violations.append(f"line {lineno}: key outside any known section")
            continue
        key, _, val = (s.strip() for s in line.partition("="))
        if key not in _SCHEMA[section]:
            violations.append(f"line {lineno}: unknown key {key!r} in [{section}]")
            continue
        attr = _SCHEMA[section][key]
        if attr in lines:
            violations.append(f"line {lineno}: [{section}] {key} repeats line {lines[attr]}")
            continue
        lines[attr] = lineno
        typ = type(getattr(ExperimentConfig, attr))
        try:
            if typ is tuple:
                val = [s.strip() for s in val.split(",") if s.strip()]
            values[attr] = typ(val)
        except ValueError:
            violations.append(
                f"line {lineno}: {key} = {val!r} is not a valid {typ.__name__}"
            )
    if violations:
        raise ConfigError(violations)
    cfg = ExperimentConfig(**values)
    violations = validate_config(cfg)
    if violations:
        raise ConfigError(violations)
    return cfg


def validate_config(cfg: ExperimentConfig) -> list[str]:
    """Every violation of a config: the messages of the objects that own a
    rule, each once, and the rules of a run, which no object owns."""
    v: list[str] = []

    def owned(build):
        try:
            build()
        except (ValueError, OverflowError) as exc:
            # an overflow's own text names neither the object nor the cause
            msg = str(exc) if isinstance(exc, ValueError) else f"{build.__name__}(): {exc!r}"
            if msg not in v:
                v.append(msg)

    owned(cfg.node_map)
    owned(cfg.coupling)
    owned(cfg.metric)
    if cfg.k < 0:
        v.append(f"k={cfg.k} must be nonnegative")
    if cfg.n_bins < 2:
        v.append(f"n_bins={cfg.n_bins} must be at least 2")
    grid_ok = cfg.k >= 0 and cfg.n_bins >= 2
    over = grid_ok and Grid(k=cfg.k, n_bins=cfg.n_bins).budget_violation(cfg.cell_budget)
    if over:
        v.append(over)
    else:
        # built only within the budget: the srb bound sums theta^-|j| over
        # the window, which overflows on a far wider one
        owned(cfg.potential)
    if cfg.quad < 1:
        v.append(f"quad={cfg.quad} must be at least 1")
    unknown = [e for e in cfg.experiments if e not in EXPERIMENTS]
    if unknown:
        v.append(f"unknown experiments {unknown}; valid: {EXPERIMENTS}")
    repeated = sorted({e for e in cfg.experiments if cfg.experiments.count(e) > 1})
    if repeated:
        v.append(f"experiments {repeated} listed more than once")
    before_run = len(v)
    if cfg.burn_in >= cfg.n_steps:
        v.append(f"burn_in={cfg.burn_in} must be smaller than n_steps={cfg.n_steps}")
    if cfg.burn_in < 0:
        v.append(f"burn_in={cfg.burn_in} must be nonnegative")
    if cfg.seed < 0:
        v.append(f"seed={cfg.seed} must be nonnegative")
    if min(cfg.n_replicas, cfg.n_lags) < 1:
        v.append("n_replicas and n_lags must be positive")
    if "clt" in cfg.experiments and cfg.n_replicas < CLT_MIN_REPLICAS:
        v.append(
            f"n_replicas={cfg.n_replicas} is below the {CLT_MIN_REPLICAS} "
            "replicas the clt experiment needs"
        )
    # built once the run's rules hold, which the ensemble checks again
    if "clt" in cfg.experiments and len(v) == before_run:
        owned(cfg.ensemble)
    # pre-flight contraction check with the lattice C_E: the largest C_E over
    # windows widened from the configured k until it settles to 1e-12
    # relative or C_E*eta >= 1; skipped when the map parameters are invalid,
    # and refused at the first window whose C_E leaves float range
    if not v:
        eta, coupling, m, k = cfg.node_map().eta, cfg.coupling(), cfg.metric(), cfg.k
        ce = estimate_coupling_constant(coupling, m, k)
        settled = False
        while k < CE_MAX_K and math.isfinite(ce):
            k += 1
            wider = estimate_coupling_constant(coupling, m, k)
            settled = abs(wider - ce) < 1e-12 * wider
            ce = max(ce, wider)
            if settled or ce * eta >= 1.0:
                break
        if not math.isfinite(ce):
            v.append(
                f"contraction pre-flight failed: C_E is not finite at theta={m.theta}, "
                f"beta={m.beta} (window k = {k}): the metric's weights theta^-|j| "
                "leave float range"
            )
        elif ce * eta >= 1.0:
            v.append(
                f"contraction pre-flight failed: C_E*eta >= {ce * eta:.4f} on the "
                f"lattice, whose C_E >= {ce:.4f} (window k = {k}, configured k = {cfg.k})"
            )
        elif not settled:
            v.append(f"contraction pre-flight failed: C_E had not settled by k = {k}")
    return v


# ---------------------------------------------------------------------------
# experiment runner


@dataclass
class RunReport:
    """Everything an experiment run produced.

    ``results`` maps experiment name to a dict of named scalar entries;
    each numeric entry is a dict holding the value together with the
    tolerance it was tested against (and the pass flag when a target is
    defined).  ``diagnostics`` maps a solve to how it ran (deterministic,
    never a verdict); ``arrays`` holds plot-ready columnar data, ``errors``
    the experiments that failed, ``wall_times`` the (non-deterministic)
    per-experiment durations in seconds, ``peak_rss_mb`` the process's
    resident-set high-water mark in MB after each experiment and
    ``counts`` an experiment's work counts by name: the processes its
    ensemble ran in (``shares``), those of the coupled assembly it built
    (``assembly_shares``) and the threads of its Arnoldi gap solve
    (``gap_threads``), which depend on the machine, not the config, the
    row parts that solve ran in (``gap_parts``) and the quadrature points
    it summed (``points``).
    """

    fingerprint: str
    config: ExperimentConfig
    results: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    arrays: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    wall_times: dict = field(default_factory=dict)
    peak_rss_mb: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


def _peak_rss_mb() -> float:
    """The process's resident-set high-water mark so far, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def _entry(value, tol=None, target=None, passed=None):
    out = {"value": value}
    if tol is not None:
        out["tolerance"] = tol
    if target is not None:
        out["target"] = target
    if passed is not None:
        out["passed"] = bool(passed)
    return out


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Run the requested experiments in dependency order.

    Eigen-data and the Green-Kubo variance are computed once, by the
    first experiment that needs them, and each experiment writes only its
    own report section.  A failing experiment is recorded and the run
    continues.
    """
    violations = validate_config(cfg)
    if violations:
        raise ConfigError(violations)
    report = RunReport(fingerprint=cfg.fingerprint(), config=cfg)
    state: dict[str, object] = {}
    for name in EXPERIMENTS:
        if name not in cfg.experiments:
            continue
        start = time.perf_counter()
        try:
            _EXPERIMENT_STEPS[name](cfg, state, report)
        except Exception as exc:  # recorded, run continues
            report.errors[name] = f"{type(exc).__name__}: {exc}"
        report.wall_times[name] = time.perf_counter() - start
        report.peak_rss_mb[name] = _peak_rss_mb()
        if "assembly_shares" in state:
            report.counts.setdefault(name, {})["assembly_shares"] = state.pop(
                "assembly_shares"
            )
    return report


def _eigen_data(cfg: ExperimentConfig, state: dict):
    """Eigen-data of the nodewise operator, from its factors, once per run."""
    if "eigen" not in state:
        state["eigen"] = nodewise_eigenpair(
            cfg.k, cfg.n_bins, cfg.node_map(), cfg.potential(), quad=cfg.quad
        )
    return state["eigen"]


def _sigma2(cfg: ExperimentConfig, state: dict, report: RunReport) -> float:
    """Green-Kubo variance of x_0 under the coupled operator, computed once
    per run with the correlations to lag n_lags (``state["correlations"]``);
    its products and last norm go in ``diagnostics.correlation``."""
    if "sigma2" not in state:
        gk = variance_green_kubo(cfg.observable(), _coupled_op(cfg, state), cfg.n_lags)
        report.diagnostics["correlation"] = {
            "green_kubo_products": gk.products,
            "green_kubo_last_norm": gk.last_norm,
        }
        state["sigma2"], state["correlations"] = gk.sigma2, gk.correlations
    return state["sigma2"]


def _coupled_op(cfg: ExperimentConfig, state: dict):
    if "coupled" not in state:
        if cfg.epsilon == 0.0:
            state["coupled"] = ulam_matrix(
                "L", cfg.k, cfg.n_bins, cfg.node_map(),
                eigen=_eigen_data(cfg, state), quad=cfg.quad,
                cell_budget=cfg.cell_budget,
            )
        else:
            state["coupled"] = ulam_matrix(
                "coupled", cfg.k, cfg.n_bins, cfg.node_map(),
                potential=cfg.potential(), coupling=cfg.coupling(),
                quad=cfg.quad, cell_budget=cfg.cell_budget,
            )
            # for the timing line of the step that built it
            state["assembly_shares"] = len(
                assembly_shares(Grid(k=cfg.k, n_bins=cfg.n_bins), cfg.quad)
            )
    return state["coupled"]


def _step_eigen(cfg, state, report):
    eigen = _eigen_data(cfg, state)
    # P's eigen-solve residual, |P h / (lam h) - 1| (P applied one factor per
    # axis), which 'L' divides out of its rows: diag(1/Ph) P diag(h) sums to one
    p_h = eigen.operator.matrix @ eigen.h
    row_defect = float(np.max(np.abs(p_h / (eigen.lam * eigen.h) - 1.0)))
    report.results["eigen"] = {
        "lambda": _entry(eigen.lam),
        "normalized_row_defect": _entry(
            row_defect, tol=1e-12, target=0.0, passed=row_defect <= 1e-12
        ),
        "h_min": _entry(float(np.min(eigen.h))),
        "h_max": _entry(float(np.max(eigen.h))),
    }
    report.diagnostics["eigen"] = _power_diagnostics(eigen)
    report.arrays["eigen_h"] = np.column_stack([eigen.h, eigen.nu, eigen.mu])


def _power_diagnostics(eigen) -> dict:
    """How the power iterations of a triple ended, for v and for nu."""
    out = {}
    for name, (steps, change) in (("v", eigen.v_iteration), ("nu", eigen.nu_iteration)):
        out[f"{name}_power_steps"] = steps
        out[f"{name}_power_change"] = change
    return out


def _step_spectral(cfg, state, report):
    op = _coupled_op(cfg, state)
    spec = spectral_gap(op)
    sigma_hat = spec.lambda2_modulus
    report.results["spectral"] = {
        "lambda1": _entry(
            spec.lambda1, tol=1e-10, target=1.0,
            passed=abs(spec.lambda1 - 1.0) <= 1e-10,
        ),
        "sigma_hat": _entry(sigma_hat, target="< 1", passed=sigma_hat < 1.0),
        "gap": _entry(spec.gap),
    }
    report.diagnostics["spectral"] = {
        "solver": spec.solver,
        "cells_solved": spec.cells_solved,
        "n_cells": op.n_cells,
        "operator_applications": spec.operator_applications,
        "restarts": spec.restarts,
        "ritz_residual": spec.ritz_residual,
        **_power_diagnostics(op.eigen),
    }
    if spec.solver == "arnoldi":
        report.counts["spectral"] = {"gap_parts": spec.parts, "gap_threads": spec.threads}
    eigs = np.asarray(spec.eigenvalues)
    report.arrays["spectrum"] = np.column_stack([eigs.real, eigs.imag])


def _step_correlation(cfg, state, report):
    sigma2 = _sigma2(cfg, state, report)
    c_n = state["correlations"]
    report.results["correlation"] = {
        "c0": _entry(c_n[0]),
        "green_kubo_sigma2": _entry(sigma2, target="> 0", passed=sigma2 > 0.0),
    }
    report.arrays["correlations"] = np.column_stack([np.arange(cfg.n_lags + 1), c_n])


def _step_ly(cfg, state, report):
    eigen = _eigen_data(cfg, state)
    op = _coupled_op(cfg, state)
    m = cfg.metric()
    rng = np.random.default_rng(cfg.seed)
    obs = [
        random_trig_observable(rng, max_node=cfg.k, max_freq=3, metric=m)
        for _ in range(10)
    ]
    ce = estimate_coupling_constant(cfg.coupling(), m, cfg.k)
    ly = check_lasota_yorke(op, eigen, obs, n_max=5, m=m, ce=ce, rng=rng)
    worst = max(r.measured / r.bound for r in ly.rows)
    report.results["ly"] = {
        "c6": _entry(ly.c6),
        "ce": _entry(ly.ce),
        "worst_measured_over_bound": _entry(
            worst, tol=0.05, target="<= 1.05", passed=ly.all_ok
        ),
    }
    report.arrays["ly_rows"] = np.array(
        [[r.n, r.measured, r.bound] for r in ly.rows]
    )


def _step_conformality(cfg, state, report):
    op = _coupled_op(cfg, state)
    rng = np.random.default_rng(cfg.seed)
    ratios, points = [], 0
    for _ in range(20):
        box = random_admissible_box(
            op.grid, op.node_map, rng, min_bins=max(1, cfg.n_bins // 8)
        )
        res = check_conformality(op, box)
        ratios.append(res.ratio)
        points += res.points
    report.counts["conformality"] = {"points": points}
    ratios = np.array(ratios)
    mean = float(np.mean(ratios))
    spread = float(np.max(np.abs(ratios - mean))) / mean
    # the per-branch conformality constant is 1/b^d on the d-node window
    per_branch = 1.0 / op.node_map.b ** op.grid.d
    report.results["conformality"] = {
        "ratio_mean": _entry(
            mean, target=f"1/b^d = {per_branch}",
            passed=abs(mean - per_branch) <= 0.01 * per_branch,
        ),
        "ratio_spread": _entry(spread, tol=0.02, passed=spread <= 0.02),
        "deviation_from_one": _entry(abs(mean - 1.0)),
    }
    report.arrays["conformality_ratios"] = ratios[:, None]


def _step_twisted(cfg, state, report):
    op = _coupled_op(cfg, state)
    phi = cfg.observable()
    sigma2 = _sigma2(cfg, state, report)
    rows = check_twisted_bound(op, phi, [0.01, -0.01, 0.05, -0.05, 0.1, -0.1])
    max_modulus = max(r.modulus for r in rows)
    # the smallest twist carries the least O(t^2) bias; -t twists by the
    # complex conjugate, so its row is the same
    small = min(rows, key=lambda r: abs(r.t)).sigma2
    curvature = variance_from_twisted_curvature(op, phi)
    report.results["twisted"] = {
        "max_modulus": _entry(
            max_modulus, target="< 1", passed=max_modulus < 1.0
        ),
        "small_twist_sigma2": _entry(
            small, tol=1e-4, target=sigma2,
            passed=abs(small / sigma2 - 1.0) <= 1e-4,
        ),
        "curvature_sigma2": _entry(
            curvature, tol=1e-5, target=sigma2,
            passed=abs(curvature / sigma2 - 1.0) <= 1e-5,
        ),
    }
    report.arrays["twisted_rows"] = np.array(
        [[r.t, r.modulus, r.sigma2] for r in rows]
    )


def _step_clt(cfg, state, report):
    sigma2 = _sigma2(cfg, state, report)
    ens = cfg.ensemble()
    report.counts["clt"] = {"shares": ensemble_shares(ens)}
    sums = simulate_ensemble(ens)
    sums -= sums.mean()
    n = cfg.n_steps - cfg.burn_in
    res = clt_test(sums, n, sigma2)
    emp_var = float(sums.var() / n)
    ratio = emp_var / sigma2
    report.results["clt"] = {
        "ks_distance": _entry(
            res.ks_distance, tol=res.critical_value, passed=res.passed
        ),
        "empirical_sigma2": _entry(
            emp_var, tol=0.10, target=sigma2, passed=abs(ratio - 1.0) <= 0.10
        ),
    }
    # emp_var is the mean of the R values (S_r - mean S)^2 / n, so its
    # standard error is their standard deviation over sqrt(R)
    report.diagnostics["clt"] = {
        "replicas": cfg.n_replicas,
        "kept_steps": n,
        "empirical_sigma2_stderr": float(
            np.std(sums * sums) / (math.sqrt(sums.size) * n)
        ),
    }


_EXPERIMENT_STEPS = {
    "eigen": _step_eigen,
    "spectral": _step_spectral,
    "correlation": _step_correlation,
    "ly": _step_ly,
    "conformality": _step_conformality,
    "twisted": _step_twisted,
    "clt": _step_clt,
}


# ---------------------------------------------------------------------------
# report emission


def _json_payload(report: RunReport) -> str:
    doc = {
        "fingerprint": report.fingerprint,
        "version": __version__,
        "config": asdict(report.config),
        "results": report.results,
        "diagnostics": report.diagnostics,
        "errors": report.errors,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _summary_text(report: RunReport) -> str:
    lines = [
        f"cml-lab {__version__} run report",
        f"fingerprint: {report.fingerprint}",
        "",
        "config:",
    ]
    lines += ["  " + line for line in report.config.canonical_text().splitlines()]
    lines.append("")
    for name in EXPERIMENTS:
        if name in report.errors:
            lines.append(f"[{name}] FAILED: {report.errors[name]}")
            continue
        if name not in report.results:
            continue
        lines.append(f"[{name}]")
        for key, entry in report.results[name].items():
            parts = [f"  {key} = {entry['value']!r}"]
            if "target" in entry:
                parts.append(f"target {entry['target']}")
            if "tolerance" in entry:
                parts.append(f"tol {entry['tolerance']!r}")
            if "passed" in entry:
                parts.append("PASS" if entry["passed"] else "FAIL")
            lines.append("  ".join(parts))
    return "\n".join(lines) + "\n"


def emit_report(report: RunReport, out_dir: str) -> list[str]:
    """Write the report files (summary, JSON, one CSV per array, timing);
    returns the paths written.

    Output is byte-stable for equal (config, version): the per-experiment
    wall times, peak RSS and work counts go to timing.txt, which is
    excluded from that guarantee.
    """
    os.makedirs(out_dir, exist_ok=True)
    if not os.access(out_dir, os.W_OK):
        raise PermissionError(f"output directory {out_dir!r} is not writable")
    written = []

    def save(name: str, text: str):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        written.append(path)

    save("summary.txt", _summary_text(report))
    save("report.json", _json_payload(report))
    for name, arr in report.arrays.items():
        # tolist gives each row's Python floats, whose repr is float()'s
        rows = [
            ",".join(map(repr, row.tolist()))
            for row in np.atleast_2d(np.asarray(arr, dtype=float))
        ]
        save(f"{name}.csv", "\n".join(rows) + "\n")
    save(
        "timing.txt",
        "".join(
            f"{k}: {v:.3f} s  peak RSS {report.peak_rss_mb[k]:.1f} MB"
            + "".join(f"  {name} {n}" for name, n in report.counts.get(k, {}).items())
            + "\n"
            for k, v in report.wall_times.items()
        ),
    )
    return written


# ---------------------------------------------------------------------------
# command line entry point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cml-lab",
        description="Transfer-operator laboratory for coupled expanding map lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the experiments of a config file")
    p_run.add_argument("config")
    p_val = sub.add_parser("validate", help="parse and validate a config file")
    p_val.add_argument("config")
    p_exp = sub.add_parser(
        "export-operator", help="assemble the configured operator and save triplets"
    )
    p_exp.add_argument("config")
    p_exp.add_argument("-o", "--output", default="operator.txt")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"config OK; fingerprint {cfg.fingerprint()}")
        return 0

    if args.command == "export-operator":
        state: dict[str, object] = {}
        op = _coupled_op(cfg, state)
        save_operator(op, args.output)
        print(f"wrote {args.output} ({op.fingerprint()})")
        return 0

    out_dir = os.environ.get("CML_LAB_OUTPUT_DIR", cfg.output_dir)
    report = run_experiment(cfg)
    paths = emit_report(report, out_dir)
    for path in paths:
        print(f"wrote {path}")
    if report.errors:
        for name, err in report.errors.items():
            print(f"experiment {name} failed: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
