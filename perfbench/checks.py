"""Output checks for the benchmark workloads, computed apart from cml_lab.

Each check reads the files `cml-lab run` wrote and returns a list of
failure messages; an empty list means the outputs are right.  The
references are closed forms, properties every Ulam transfer operator has,
or the benchmark's own solver below.  Nothing here imports cml_lab.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# timing.txt holds wall-clock times; every other report file is promised to
# be byte-identical for equal (config, version).
NOT_FINGERPRINTED = frozenset({"timing.txt"})

# The flat chain is nilpotent off the constants with index log2(N) = 4, so a
# roundoff of 1e-16 moves its zero eigenvalues by up to 1e-16 ** (1/4) = 1e-4.
NILPOTENT_ROUNDOFF = 1e-3

# check_conformality's default Monte Carlo sample count per box.
CONFORMALITY_SAMPLES = 200_000

# Gates further than this many standard errors from the target are wrong.
MC_SIGMAS = 5.0

EXACT = 1e-12


def load_outputs(out_dir: Path) -> dict:
    """report.json as a dict plus every CSV as a 2-D array, keyed by stem."""
    outs = {"report": json.loads((out_dir / "report.json").read_text())}
    for path in out_dir.glob("*.csv"):
        outs[path.stem] = np.loadtxt(path, delimiter=",", ndmin=2)
    return outs


def fingerprint_digest(out_dir: Path, unstable: tuple[str, ...] = ()) -> str:
    """SHA-256 over the names and bytes of every fingerprinted report file.

    ``unstable`` names spectral entries ('sigma_hat', 'gap') that a known
    fault makes differ between identical runs; they are blanked in
    report.json and summary.txt, and spectrum.csv keeps only lambda_1.
    """
    sha = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name in NOT_FINGERPRINTED:
            continue
        data = path.read_bytes()
        if unstable and path.name == "report.json":
            doc = json.loads(data)
            for key in unstable:
                doc["results"]["spectral"][key]["value"] = None
            data = json.dumps(doc, sort_keys=True).encode()
        elif unstable and path.name == "summary.txt":
            data = b"".join(
                line for line in data.splitlines(keepends=True)
                if not line.lstrip().startswith(tuple(f"{k} =".encode() for k in unstable))
            )
        elif unstable and path.name == "spectrum.csv":
            data = data.splitlines(keepends=True)[0]
        sha.update(path.name.encode() + b"\0" + data + b"\0")
    return sha.hexdigest()


def _value(outs: dict, experiment: str, key: str) -> float:
    return float(outs["report"]["results"][experiment][key]["value"])


def _moduli(outs: dict) -> np.ndarray:
    eig = outs["spectrum"]
    return np.hypot(eig[:, 0], eig[:, 1])


# ---------------------------------------------------------------------------
# properties of every normalized Ulam operator (desk and fine)


def check_spectrum(outs: dict) -> list[str]:
    """|lambda_1 - 1| <= 1e-10 and 0 < |lambda_2| < 1."""
    mods = _moduli(outs)
    fails = []
    if not abs(mods[0] - 1.0) <= 1e-10:
        fails.append(f"|lambda_1| = {mods[0]!r} is not 1 within 1e-10")
    if not 0.0 < mods[1] < 1.0:
        fails.append(f"|lambda_2| = {mods[1]!r} is outside (0, 1)")
    return fails


def check_correlations(outs: dict) -> list[str]:
    """0 < C_0 <= 1/4, |C_n| <= C_0 and sigma^2 > 0.

    C_0 is the variance of [0,1)-valued data, at most 1/4 (Popoviciu); a
    stochastic operator is a contraction in L^2 of its stationary measure,
    so no later covariance exceeds it.
    """
    c = outs["correlations"][:, 1]
    fails = []
    if not 0.0 < c[0] <= 0.25:
        fails.append(f"C_0 = {c[0]!r} is outside (0, 1/4]")
    worst = int(np.argmax(np.abs(c)))
    if abs(c[worst]) > c[0] * (1.0 + EXACT):
        fails.append(f"|C_{worst}| = {abs(c[worst])!r} exceeds C_0 = {c[0]!r}")
    sigma2 = _value(outs, "correlation", "green_kubo_sigma2")
    if not sigma2 > 0.0:
        fails.append(f"Green-Kubo sigma^2 = {sigma2!r} is not positive")
    return fails


# ---------------------------------------------------------------------------
# flat: doubling map, zero potential, no coupling


def flat_ulam_covariance(n: int, n_bins: int) -> float:
    """C_n of the centre coordinate under the N-bin Ulam chain of the
    doubling map: 2^-n (1 - 4^n/N^2)/12 while 2^n < N, then 0."""
    if 2 ** n >= n_bins:
        return 0.0
    return 2.0 ** -n * (1.0 - 4.0 ** n / n_bins ** 2) / 12.0


def flat_ulam_sigma2(n_bins: int) -> float:
    """Green-Kubo sum of the Ulam covariances; 225/1024 at N = 16."""
    lags = range(1, int(math.log2(n_bins)) + 1)
    return flat_ulam_covariance(0, n_bins) + 2.0 * sum(
        flat_ulam_covariance(n, n_bins) for n in lags
    )


def conformality_allowance(n_bins: int, d: int, b: int = 2) -> float:
    """MC_SIGMAS relative standard errors of the smallest box's image mass.

    The CLI draws boxes at least max(1, N // 8) bins wide per axis; its
    image under the doubling map has mass p >= (b * width / N)^d, counted
    from CONFORMALITY_SAMPLES uniform draws.
    """
    p_min = (b * max(1, n_bins // 8) / n_bins) ** d
    return MC_SIGMAS * math.sqrt((1.0 - p_min) / (p_min * CONFORMALITY_SAMPLES))


def check_flat(outs: dict, n_bins: int, k: int) -> list[str]:
    """Closed forms of the uncoupled doubling map with zero potential."""
    d = 2 * k + 1
    fails = []
    mods = _moduli(outs)
    if not abs(mods[0] - 1.0) <= 1e-10:
        fails.append(f"|lambda_1| = {mods[0]!r} is not 1 within 1e-10")
    if not mods[1] <= NILPOTENT_ROUNDOFF:
        fails.append(f"|lambda_2| = {mods[1]!r} is not 0 within {NILPOTENT_ROUNDOFF}")
    lam = _value(outs, "eigen", "lambda")
    if not abs(lam - 1.0) <= EXACT:
        fails.append(f"lambda = {lam!r}, not 1")
    h, _, mu = outs["eigen_h"].T
    if not np.max(np.abs(h - 1.0)) <= EXACT:
        fails.append(f"h is not identically 1 (max |h - 1| = {np.max(np.abs(h - 1.0))!r})")
    if not np.max(np.abs(mu * n_bins ** d - 1.0)) <= EXACT:
        fails.append("mu is not uniform")

    # Within the N-bin Ulam error of the continuum 2^-n/12 and 1/4; a method
    # that converges faster is closer still.
    c = outs["correlations"][:, 1]
    for n, c_n in enumerate(c):
        exact = 2.0 ** -n / 12.0
        allowed = abs(flat_ulam_covariance(n, n_bins) - exact) + EXACT
        if not abs(c_n - exact) <= allowed:
            fails.append(f"C_{n} = {c_n!r} is further than {allowed!r} from 2^-{n}/12")
    sigma2 = _value(outs, "correlation", "green_kubo_sigma2")
    allowed = abs(flat_ulam_sigma2(n_bins) - 0.25) + EXACT
    if not abs(sigma2 - 0.25) <= allowed:
        fails.append(f"sigma^2 = {sigma2!r} is further than {allowed!r} from 1/4")

    # Each per-branch ratio is 1/b^d = 1/8 up to Monte Carlo error.
    ratios = outs["conformality_ratios"][:, 0]
    target = 2.0 ** -d
    allowed = conformality_allowance(n_bins, d)
    dev = np.abs(ratios / target - 1.0)
    if not np.max(dev) <= allowed:
        fails.append(
            f"conformality ratio {ratios[np.argmax(dev)]!r} is not 1/{2 ** d} "
            f"within {allowed:.4f} relative"
        )
    if not abs(np.mean(ratios) / target - 1.0) <= allowed / math.sqrt(ratios.size):
        fails.append(f"mean conformality ratio {np.mean(ratios)!r} is not 1/{2 ** d}")
    return fails


# ---------------------------------------------------------------------------
# desk: perturbed doubling map 2x + a sin(2 pi x) with the SRB potential


def perturbed_inverse(y: np.ndarray, branch: int, a: float) -> np.ndarray:
    """Inverse branch of x -> 2x + a sin(2 pi x) (mod 1) by bisection."""
    target = np.asarray(y, dtype=float) + branch
    lo = np.full_like(target, branch / 2.0 - 0.25)
    hi = np.full_like(target, (branch + 1) / 2.0 + 0.25)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = 2.0 * mid + a * np.sin(2.0 * math.pi * mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def invariant_density_1d(a: float, n_bins: int) -> np.ndarray:
    """Bin averages of the invariant density of 2x + a sin(2 pi x), by
    Ulam's method with exact interval preimages on n_bins bins.

    Each step pushes the piecewise-constant density forward: a bin's new
    mass is the old mass of its two preimage intervals, read off the
    cumulative distribution.  The result has mean 1.
    """
    edges = np.arange(n_bins + 1) / n_bins
    preimages = [perturbed_inverse(edges, b, a) for b in (0, 1)]
    rho = np.ones(n_bins)
    for _ in range(1000):
        cdf = np.concatenate([[0.0], np.cumsum(rho) / n_bins])
        new = sum(np.diff(np.interp(p, edges, cdf)) for p in preimages) * n_bins
        change = float(np.max(np.abs(new - rho)))
        rho = new
        if change < 1e-10:
            return rho
    raise RuntimeError(f"density iteration did not converge ({change:.1e})")


def desk_reference(a: float, n_bins: int, d: int) -> tuple[np.ndarray, float]:
    """Tensor-product bin averages of the invariant density on the N-bin
    grid (C order, nodes -k..k), and the allowance for an N-bin Ulam
    estimate of it.

    The reference density comes from 1024 N bins.  Ulam's method on N bins
    is first-order accurate; the allowance is twice the error that the
    exact-preimage Ulam density on N bins itself makes, carried to d nodes.
    """
    fine = invariant_density_1d(a, 1024 * n_bins).reshape(n_bins, -1).mean(axis=1)
    coarse_err = float(np.max(np.abs(invariant_density_1d(a, n_bins) - fine)))
    h_ref = fine
    for _ in range(d - 1):
        h_ref = np.multiply.outer(h_ref, fine)
    return h_ref.ravel(), 2.0 * ((1.0 + coarse_err) ** d - 1.0)


def check_desk(outs: dict, n_bins: int, k: int, quad: int, a: float,
               reference: tuple[np.ndarray, float]) -> list[str]:
    """lambda within a grid allowance of 1, h against the tensor-product
    invariant density, plus the properties of every normalized operator."""
    d = 2 * k + 1
    fails = check_spectrum(outs) + check_correlations(outs)
    # midpoint quadrature on N*quad points per axis is second order
    lam = _value(outs, "eigen", "lambda")
    allowed = d / (n_bins * quad) ** 2
    if not abs(lam - 1.0) <= allowed:
        fails.append(f"lambda = {lam!r} is not 1 within the grid allowance {allowed!r}")
    h_ref, allowed = reference
    err = float(np.max(np.abs(outs["eigen_h"][:, 0] - h_ref)))
    if not err <= allowed:
        fails.append(
            f"h is {err:.3e} from the tensor-product invariant density "
            f"(allowance {allowed:.3e})"
        )
    return fails


def check_fine(outs: dict) -> list[str]:
    return check_spectrum(outs) + check_correlations(outs)
