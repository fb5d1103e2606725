"""Trajectory-level verification: ensemble simulation, autocorrelation
fits, CLT normality testing and invariance-principle proxy diagnostics.

Replicas draw from independent streams of a counter-based generator
(Philox, keyed by the run seed and the replica index), so every replica
is independently reproducible and the whole ensemble replays bitwise from
the seed.  Aggregations run in fixed replica order.  So an ensemble can
be split into contiguous replica shares, run by forked worker processes,
with the same bits for any number of shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from ._shares import run_shares, share_count, split
from .lattice import Coupling, NodeMap, Potential

__all__ = [
    "EnsembleConfig",
    "simulate_ensemble",
    "ensemble_series",
    "ensemble_shares",
    "AutocorrelationFit",
    "autocorrelation_fit",
    "CltResult",
    "clt_test",
    "AsipDiagnostics",
    "asip_diagnostic",
    "ks_distance_to_normal",
]

_ONE_MINUS = np.nextafter(1.0, 0.0)

# Most branch choices the pull-back sampler holds at once.
_PULLBACK_POINTS = 1 << 20

# Fewest replica-steps (replicas x n_steps) per share worth a forked
# worker; below it the fork costs more than the share saves.
_MIN_SHARE = 1 << 20

# Fewest replicas clt_test accepts; config validation reads it too.
CLT_MIN_REPLICAS = 500


@dataclass(frozen=True)
class EnsembleConfig:
    """A reproducible ensemble run of the coupled dynamics.

    ``k_sim`` is the trajectory window half-width (may be much wider than
    any operator grid).  The map decides how the ensemble is sampled: a
    trajectory-safe map is iterated forward, and any other, whose orbits
    collapse in floating point, is pulled back by backward branch
    sampling, which supports the uncoupled system only.
    """

    node_map: NodeMap
    coupling: Coupling
    observable: Potential
    k_sim: int = 1
    n_steps: int = 1000
    n_replicas: int = 1
    burn_in: int = 100
    seed: int = 42

    def __post_init__(self) -> None:
        if self.burn_in >= self.n_steps:
            raise ValueError("burn_in must be smaller than n_steps")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        if self.n_replicas < 1:
            raise ValueError("need at least one replica")
        if not self.node_map.trajectory_safe and self.coupling.epsilon != 0.0:
            raise ValueError(
                f"clt samples the {self.node_map.name} map by pull-back, which supports "
                f"the uncoupled system only: epsilon={self.coupling.epsilon} must be 0"
            )


def _replica_streams(seed: int, replicas: range):
    """Yield one generator per replica, in order: a single Philox re-keyed
    to key [seed, r], counter 0 and empty buffers, which draws as
    ``Generator(Philox(key=[seed, r]))`` does without building a
    SeedSequence (and drawing OS entropy) per replica.  Each yielded
    generator is valid until the next one is."""
    bits = np.random.Philox(key=[seed, 0])
    rng = np.random.Generator(bits)
    for r in replicas:
        bits.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.zeros(4, np.uint64),
                "key": np.array([seed, r], np.uint64),
            },
            "buffer": np.zeros(4, np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def simulate_ensemble(cfg: EnsembleConfig) -> np.ndarray:
    """Per-replica sums of the observable over the kept steps, shape
    (n_replicas,): S_r = sum of phi(x_t) for t from burn_in to n_steps - 1.

    The sums are taken as the trajectories run, so memory is O(n_replicas)
    for the forward sampler whatever n_steps is; the CLT verdicts need
    nothing else.  ``ensemble_series`` keeps every value instead.
    """
    return _run_shares(cfg, np.zeros(cfg.n_replicas), _add_sums)


def ensemble_series(cfg: EnsembleConfig) -> np.ndarray:
    """Observable time series per replica, shape (n_replicas, n_steps - burn_in),
    for statistics that need the whole path (autocorrelation, partial-sum
    growth).  Its rows sum to ``simulate_ensemble`` up to roundoff."""
    out = np.empty((cfg.n_replicas, cfg.n_steps - cfg.burn_in))
    return _run_shares(cfg, out, _put_series)


def _add_sums(out, rows, _, values):
    out[rows] += values.sum(axis=1)


def _put_series(out, rows, steps, values):
    out[rows, steps] = values


def ensemble_shares(cfg: EnsembleConfig) -> int:
    """How many contiguous replica shares the ensemble is split into, each
    run by its own process: the CPUs this process may run on, capped by
    ``CML_LAB_THREADS`` when set, by one share per _MIN_SHARE replica-steps
    and by the replicas.  One share (always, without ``os.fork``) runs in
    this process alone."""
    return share_count(min(cfg.n_replicas * cfg.n_steps // _MIN_SHARE, cfg.n_replicas))


def _run_shares(cfg: EnsembleConfig, out: np.ndarray, consume: Callable) -> np.ndarray:
    """Fill ``out`` (one row per replica) by ``consume(rows, *block)`` for
    every block of the observed series, over contiguous replica shares,
    each other than the first in a forked worker whose rows are read into
    ``out`` in place.  Every replica draws from its own stream, so ``out``
    has the same bits however the replicas are split.  The clamp bound is
    applied once, to the count summed over the shares.  The kernels run
    numpy's elementwise loops and the config's functions, and call no
    BLAS, so a worker needs no thread but its own."""

    def rows(share):
        return [out[share.start : share.stop]]

    def fill(share):
        part = out[share.start : share.stop]
        return _observed_blocks(cfg, share, partial(consume, part)), [part]

    shares = split(cfg.n_replicas, ensemble_shares(cfg))
    results = run_shares(shares, fill, "the ensemble worker for replicas", rows)
    clamped = sum(value for value, _ in results)
    if clamped > 1e-4 * cfg.n_steps * cfg.n_replicas * (2 * cfg.k_sim + 1):
        raise RuntimeError(
            f"trajectories left [0,1) at {clamped} node updates; "
            "the configuration is not numerically trajectory-safe"
        )
    return out


def _observed_blocks(cfg: EnsembleConfig, replicas: range, sink: Callable) -> int:
    """Pass ``sink(row slice, kept-step slice, values)`` blocks that
    together cover the (len(replicas), n_steps - burn_in) observable series
    of the given replicas once, rows counted from the first of them; return
    the number of clamped node updates.

    The forward sampler passes one kept step of every replica.  Initial
    states are uniform on the window.  Forward steps clamp stray values at
    the interval edge and count them.
    """
    if not cfg.node_map.trajectory_safe:
        return _pullback_blocks(cfg, replicas, sink)
    d = 2 * cfg.k_sim + 1
    # node-major states (d, replicas): each node's values are contiguous,
    # so the coupling shifts whole rows
    states = np.empty((d, len(replicas)))
    for i, rng in enumerate(_replica_streams(cfg.seed, replicas)):
        states[:, i] = rng.uniform(0.0, _ONE_MINUS, d)
    everyone = slice(0, len(replicas))
    clamped = 0
    for step in range(cfg.n_steps):
        states = cfg.node_map.forward(states)
        states = cfg.coupling.apply_to_array(states, cfg.node_map.p_tau)
        if states.min() < 0.0 or states.max() >= 1.0:
            clamped += int(np.count_nonzero((states < 0.0) | (states >= 1.0)))
            np.clip(states, 0.0, _ONE_MINUS, out=states)
        if step >= cfg.burn_in:
            kept = step - cfg.burn_in
            values = cfg.observable.on_array(states, cfg.k_sim)
            sink(everyone, slice(kept, kept + 1), values[:, None])
    return clamped


def _pullback_blocks(cfg: EnsembleConfig, replicas: range, sink: Callable) -> int:
    """Backward branch sampling: iterate uniformly chosen inverse branches
    and reverse the orbit.  Samples the equal-branch-weight invariant
    measure of the nodewise map, so it is exact for the flat potential
    (Lebesgue for the doubling map) and immune to orbit collapse.

    Each replica's stream draws its initial state, then its branch choices
    for every step in one call, which yields the same numbers as one call
    per step.  The first ``burn_in`` pull-back steps, the transient nearest
    the uniform start, are dropped, and the rest are reversed into forward
    time.  All replicas of a chunk step together as one node-major block:
    each step runs every inverse branch on the whole block and selects each
    entry's image by its choice, and each kept step's observable goes
    straight into its forward-time column.  A chunk holds at most
    ``_PULLBACK_POINTS`` branch choices.  Passes one chunk of replicas over
    all kept steps at a time to ``sink``; no node update is clamped.
    """
    d = 2 * cfg.k_sim + 1
    n_keep = cfg.n_steps - cfg.burn_in
    b = cfg.node_map.b
    chunk = min(len(replicas), max(1, _PULLBACK_POINTS // (cfg.n_steps * d)))
    # one step-major table for the run, so that each step's choices are
    # contiguous and no chunk's table is allocated while the last one's is
    # alive; the draws are int64, stored in the smallest type that holds b
    table = np.empty((cfg.n_steps, d, chunk), dtype=np.min_scalar_type(b - 1))
    streams = _replica_streams(cfg.seed, replicas)
    for lo in range(0, len(replicas), chunk):
        n = min(chunk, len(replicas) - lo)
        x = np.empty((d, n))
        choice = table[:, :, :n]
        for i, rng in zip(range(n), streams):
            x[:, i] = rng.uniform(0.0, _ONE_MINUS, d)
            choice[:, :, i] = rng.integers(0, b, (cfg.n_steps, d))
        values = np.empty((n, n_keep))
        for step in range(cfg.n_steps):
            images = [branch(x) for branch in cfg.node_map.inverse_branches]
            x = images[0]
            for j in range(1, b):
                np.copyto(x, images[j], where=choice[step] == j)
            if step >= cfg.burn_in:
                values[:, cfg.n_steps - 1 - step] = cfg.observable.on_array(x, cfg.k_sim)
        sink(slice(lo, lo + n), slice(0, n_keep), values)
    return 0


@dataclass(frozen=True)
class AutocorrelationFit:
    rate: float | None
    r_squared: float | None
    n_lags_used: int
    autocovariance: np.ndarray = field(repr=False)

    @property
    def fitted(self) -> bool:
        return self.rate is not None


def autocorrelation_fit(series: np.ndarray, n_max: int) -> AutocorrelationFit:
    """Fit a geometric decay rate to the empirical autocovariances.

    Accepts a single series or a replica stack (replicas averaged).  The
    fit is weighted log-linear over the lags where |C_n| exceeds three
    times its standard error; a series with no such lags yields an
    explicit no-fit result rather than an exception.
    """
    series = np.atleast_2d(np.asarray(series, dtype=float))
    n = series.shape[1]
    if n < 10 * n_max:
        raise ValueError(f"series length {n} is below 10 * n_max = {10 * n_max}")
    centered = series - series.mean(axis=1, keepdims=True)
    cov = np.zeros(n_max + 1)
    for lag in range(n_max + 1):
        prods = centered[:, : n - lag] * centered[:, lag:]
        cov[lag] = float(prods.mean())
    rho = cov / cov[0] if cov[0] > 0 else cov
    # Bartlett-style standard error for the autocovariance estimates
    n_eff = series.size
    se = cov[0] * math.sqrt((1.0 + 2.0 * float(np.sum(rho[1:] ** 2))) / n_eff)
    lags = np.arange(1, n_max + 1)
    keep = np.abs(cov[1:]) > 3.0 * se
    # fit over the initial contiguous run of significant lags
    run_end = 0
    for flag in keep:
        if not flag:
            break
        run_end += 1
    if run_end < 2:
        return AutocorrelationFit(
            rate=None, r_squared=None, n_lags_used=0, autocovariance=cov
        )
    x = lags[:run_end].astype(float)
    y = np.log(np.abs(cov[1 : run_end + 1]))
    w = (np.abs(cov[1 : run_end + 1]) / se) ** 2
    coeffs = np.polyfit(x, y, 1, w=np.sqrt(w))
    fit = np.polyval(coeffs, x)
    ss_res = float(np.sum(w * (y - fit) ** 2))
    ss_tot = float(np.sum(w * (y - np.average(y, weights=w)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return AutocorrelationFit(
        rate=float(np.exp(coeffs[0])),
        r_squared=r2,
        n_lags_used=run_end,
        autocovariance=cov,
    )


_SQRT_HALF = math.sqrt(0.5)


def _normal_cdf(x: float) -> float:
    """The standard normal CDF by cephes' ndtr rule: 1/2 + erf(x/sqrt 2)/2
    while |x/sqrt 2| < 1/sqrt 2, erfc in the tails, where 1/2 + erf/2
    would cancel."""
    t = x * _SQRT_HALF
    if abs(t) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(t)
    y = 0.5 * math.erfc(abs(t))
    return 1.0 - y if t > 0.0 else y


def ks_distance_to_normal(sample: np.ndarray) -> float:
    """Exact sup-distance between the empirical CDF of the sample and the
    standard normal CDF (erf-based evaluation)."""
    z = np.sort(np.asarray(sample, dtype=float))
    n = z.size
    cdf = np.fromiter(map(_normal_cdf, z.tolist()), float, n)
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return float(max(upper, lower))


@dataclass(frozen=True)
class CltResult:
    ks_distance: float
    critical_value: float
    passed: bool


def clt_test(sums: np.ndarray, n: int, sigma2: float) -> CltResult:
    """Standardize per-replica sums by sqrt(n sigma^2) and compare with the
    standard normal at the 1% level (critical value 1.63/sqrt(replicas))."""
    if sigma2 <= 0.0:
        raise ValueError("sigma^2 must be positive; the observable is degenerate")
    sums = np.asarray(sums, dtype=float)
    if sums.size < CLT_MIN_REPLICAS:
        raise ValueError(f"CLT test needs at least {CLT_MIN_REPLICAS} replicas")
    z = sums / math.sqrt(n * sigma2)
    ks = ks_distance_to_normal(z)
    crit = 1.63 / math.sqrt(sums.size)
    return CltResult(ks_distance=ks, critical_value=crit, passed=ks < crit)


@dataclass(frozen=True)
class AsipDiagnostics:
    """Proxy diagnostics for the almost-sure invariance principle.

    These do not construct the Brownian coupling; they check its testable
    footprints: linear variance growth of partial sums, a bounded
    law-of-iterated-logarithm statistic on a long path, and normality at
    dyadic scales.  Pass envelopes come from an iid calibration run, not
    from theory.
    """

    variance_slope: float
    variance_r_squared: float
    lil_statistic: float
    ks_by_scale: tuple[tuple[int, float], ...]


def asip_diagnostic(
    long_series: np.ndarray,
    ensemble: np.ndarray,
    sigma2: float,
    lil_min_n: int = 1000,
) -> AsipDiagnostics:
    """Compute the three proxy diagnostics from a long single path and a
    replica ensemble of the same centered observable."""
    if sigma2 <= 0.0:
        raise ValueError("sigma^2 must be positive; the observable is degenerate")
    ensemble = np.atleast_2d(np.asarray(ensemble, dtype=float))
    long_series = np.asarray(long_series, dtype=float)

    centered = ensemble - ensemble.mean()
    cums = np.cumsum(centered, axis=1)
    n_steps = ensemble.shape[1]
    dyadic = [2 ** j for j in range(3, int(math.log2(n_steps)) + 1)]
    var_n = np.array([float(np.var(cums[:, n - 1])) for n in dyadic])
    coeffs = np.polyfit(np.array(dyadic, dtype=float), var_n, 1)
    fit = np.polyval(coeffs, np.array(dyadic, dtype=float))
    ss_res = float(np.sum((var_n - fit) ** 2))
    ss_tot = float(np.sum((var_n - var_n.mean()) ** 2))
    slope = float(coeffs[0] / sigma2)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0

    s = np.cumsum(long_series - long_series.mean())
    ns = np.arange(1, s.size + 1)
    window = ns >= lil_min_n
    lil = float(
        np.max(
            np.abs(s[window])
            / np.sqrt(2.0 * sigma2 * ns[window] * np.log(np.log(ns[window])))
        )
    )

    ks_scales = []
    for n in dyadic:
        z = cums[:, n - 1] / math.sqrt(n * sigma2)
        ks_scales.append((n, ks_distance_to_normal(z)))
    return AsipDiagnostics(
        variance_slope=slope,
        variance_r_squared=r2,
        lil_statistic=lil,
        ks_by_scale=tuple(ks_scales),
    )
