"""Spectrum of discretized operators: gap, correlation decay, twisted
operators and the central-limit variance.

The decay rate is reported as the modulus of the second eigenvalue of the
normalized Ulam matrix; correlations are computed by repeated matrix
application against the stationary cell measure; the variance comes from
a Green-Kubo sum with a twisted-eigenvalue curvature cross-check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .lattice import MetricParams, Potential
from .transfer import EigenData, UlamOperator, grid_holder_seminorm

__all__ = [
    "SpectrumReport",
    "TwistedOperator",
    "spectral_gap",
    "stationary_distribution",
    "operator_correlation",
    "twisted_matrix",
    "twisted_leading_eigenvalue",
    "check_twisted_bound",
    "TwistedBoundReport",
    "variance_green_kubo",
    "variance_from_twisted_curvature",
]

_DENSE_LIMIT = 2048


@dataclass(frozen=True)
class SpectrumReport:
    """Top eigenvalues of a normalized operator, sorted by modulus
    (ties broken by argument, documented for reproducibility)."""

    eigenvalues: tuple[complex, ...]
    lambda1: float
    lambda2_modulus: float

    @property
    def gap(self) -> float:
        return 1.0 - self.lambda2_modulus


def _sort_eigenvalues(vals: np.ndarray) -> np.ndarray:
    order = np.lexsort((np.angle(vals), -np.abs(vals)))
    return vals[order]


def spectral_gap(
    op: UlamOperator, m: int = 6, dense_limit: int = _DENSE_LIMIT
) -> SpectrumReport:
    """Top-m eigenvalues by modulus: dense solver at small dimension,
    implicitly restarted Arnoldi above it.

    Arnoldi starts from a fixed vector that is no eigenvector: from the
    constant vector, the leading eigenvector of every normalized operator,
    the Krylov space breaks down at once and ARPACK restarts from a vector
    of its own that differs per process.
    """
    if op.kind not in ("L", "coupled"):
        raise ValueError("spectral gap is defined for normalized operator kinds")
    n = op.n_cells
    if n <= dense_limit:
        vals = np.linalg.eigvals(op.matrix.toarray())
    else:
        v0 = np.random.default_rng(0).uniform(0.5, 1.5, n)
        try:
            vals = spla.eigs(
                op.matrix, k=min(m, n - 2), which="LM", v0=v0,
                return_eigenvectors=False,
            )
        except spla.ArpackNoConvergence as exc:
            raise RuntimeError(
                f"Arnoldi iteration did not converge; "
                f"{len(exc.eigenvalues)} of {m} eigenvalues found"
            ) from exc
    vals = _sort_eigenvalues(np.asarray(vals))[:m]
    lam1 = float(np.abs(vals[0]))
    if not lam1 - 1.0 < 1e-6:
        raise ValueError(f"leading eigenvalue modulus {lam1} exceeds 1 + 1e-6")
    lam2 = float(np.abs(vals[1])) if len(vals) > 1 else 0.0
    return SpectrumReport(
        eigenvalues=tuple(complex(v) for v in vals),
        lambda1=lam1,
        lambda2_modulus=lam2,
    )


def stationary_distribution(
    op: UlamOperator, tol: float = 1e-13, max_iter: int = 100_000
) -> np.ndarray:
    """The probability vector fixed by the adjoint of a normalized operator."""
    mt = op.matrix.T.tocsr()
    n = op.n_cells
    v = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        w = mt @ v
        w /= w.sum()
        delta = float(np.max(np.abs(w - v)))
        v = w
        if delta < tol:
            return v
    raise RuntimeError(
        f"stationary distribution did not converge; final sup-change {delta:.3e}"
    )


def _correlation_terms(
    phi1: Potential, phi2: Potential, op: UlamOperator, nu: np.ndarray | None
) -> Iterator[float]:
    """C_0, C_1, ... of :func:`operator_correlation`, one operator
    application per term, without end."""
    grid = op.grid
    reps = grid.reps()
    if nu is None:
        nu = stationary_distribution(op)
    v1 = phi1.on_array(reps, grid.k)
    v = phi2.on_array(reps, grid.k) - float(nu @ phi2.on_array(reps, grid.k))
    while True:
        yield float(nu @ (v1 * v))
        v = op.matrix @ v


def operator_correlation(
    phi1: Potential,
    phi2: Potential,
    op: UlamOperator,
    n_max: int,
    nu: np.ndarray | None = None,
) -> np.ndarray:
    """Correlation sequence C_n = <phi1, M^n (phi2 - nu(phi2))>_nu.

    Returns the signed values for lags 0..n_max; C_0 is the covariance of
    the two observables under the stationary cell measure.
    """
    terms = _correlation_terms(phi1, phi2, op, nu)
    return np.fromiter(itertools.islice(terms, n_max + 1), float, n_max + 1)


@dataclass(frozen=True)
class TwistedOperator:
    """The base operator with columns twisted by exp(i t f(source cell))."""

    t: float
    base: UlamOperator
    observable: Potential
    matrix: sp.csr_matrix


def twisted_matrix(
    base: UlamOperator, observable: Potential, t: float
) -> TwistedOperator:
    if base.kind not in ("L", "coupled"):
        raise ValueError("twisting applies to normalized operator kinds")
    if t == 0.0:
        matrix = base.matrix.astype(complex)
    else:
        reps = base.grid.reps()
        phase = np.exp(1j * t * observable.on_array(reps, base.grid.k))
        matrix = (base.matrix @ sp.diags(phase)).tocsr()
    return TwistedOperator(t=t, base=base, observable=observable, matrix=matrix)


def twisted_leading_eigenvalue(
    tw: TwistedOperator, tol: float = 1e-13, max_iter: int = 100_000
) -> complex:
    """Leading eigenvalue of the twisted matrix by complex power iteration."""
    n = tw.matrix.shape[0]
    v = np.full(n, 1.0 / n, dtype=complex)
    lam = 1.0 + 0j
    for _ in range(max_iter):
        w = tw.matrix @ v
        lam_new = complex(np.vdot(v, w) / np.vdot(v, v))
        w /= np.linalg.norm(w)
        delta = abs(lam_new - lam)
        lam, v = lam_new, w
        if delta < tol:
            return lam
    raise RuntimeError(f"twisted eigenvalue iteration stalled at change {delta:.3e}")


@dataclass(frozen=True)
class TwistedBoundRow:
    t: float
    sup_norm_max: float
    holder_max: float
    c9: float
    sup_ok: bool
    holder_ok: bool


@dataclass(frozen=True)
class TwistedBoundReport:
    rows: tuple[TwistedBoundRow, ...]
    all_ok: bool


def check_twisted_bound(
    base: UlamOperator,
    observable: Potential,
    probe: Potential,
    t_grid: Sequence[float],
    n_max: int,
    m: MetricParams,
    c6: float,
    ce: float,
    samples: int = 4000,
    rng: np.random.Generator | None = None,
) -> TwistedBoundReport:
    """Iterate twisted operators on the constant function and on a probe,
    tracking the sup norm and the discrete Hoelder quotient.

    The comparison value is a computed candidate assembled from measured
    seminorms (the theory only asserts existence of a bound); |t| beyond
    0.2 is outside the small-twist regime and rejected.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    grid = base.grid
    reps = grid.reps()
    # off-support cells of a coupled operator carry identically zero
    # iterates; keep them out of the seminorm pairs
    support = np.asarray(base.matrix.sum(axis=1)).ravel() > 0.0
    f_vals = observable.on_array(reps, grid.k)
    f_beta = grid_holder_seminorm(f_vals, grid, m, samples, rng, mask=support)
    probe_vec = probe.on_array(reps, grid.k).astype(complex)
    probe_sup = float(np.max(np.abs(probe_vec[support])))
    probe_beta = grid_holder_seminorm(probe_vec, grid, m, samples, rng, mask=support)
    ce_eta = ce * base.node_map.eta
    rows = []
    for t in t_grid:
        if abs(t) > 0.2:
            raise ValueError(f"twist t={t} outside the small-twist regime |t| <= 0.2")
        tw = twisted_matrix(base, observable, t)
        c2 = abs(t) * f_beta
        # sup over n of (|phi|_beta + c2 |phi|_inf) (C_E eta)^n sits at n=0
        # in the contraction regime ce * eta < 1
        factor = max(1.0, ce_eta)
        c9 = max((probe_beta + c2 * probe_sup) * factor + c6, 1.0)
        ones = np.ones(grid.n_cells, dtype=complex)
        w = probe_vec.copy()
        sup_max = 0.0
        holder_max = 0.0
        for _ in range(n_max):
            ones = tw.matrix @ ones
            w = tw.matrix @ w
            sup_max = max(sup_max, float(np.max(np.abs(ones))))
            holder_max = max(
                holder_max, grid_holder_seminorm(w, grid, m, samples, rng, mask=support)
            )
        rows.append(
            TwistedBoundRow(
                t=t,
                sup_norm_max=sup_max,
                holder_max=holder_max,
                c9=c9,
                sup_ok=sup_max <= 1.0 + 1e-10,
                holder_ok=holder_max <= c9,
            )
        )
    return TwistedBoundReport(
        rows=tuple(rows), all_ok=all(r.sup_ok and r.holder_ok for r in rows)
    )


def variance_green_kubo(
    phi: Potential,
    op: UlamOperator,
    nu: np.ndarray | None = None,
    tail_tol: float = 1e-6,
    n_cap: int = 500,
) -> float:
    """Limit variance as the summed autocovariance sequence of phi.

    The series is truncated once |C_n| falls below tail_tol * C_0, and a
    geometric tail estimate (from the ratio of the last terms) is added.
    A materially negative result signals a discretization artifact.
    """
    terms = _correlation_terms(phi, phi, op, nu)
    c0 = next(terms)
    if c0 == 0.0:
        return 0.0
    total = c0
    last = abs(c0)
    c_n = c0
    n_used = 0
    for n in range(1, n_cap + 1):
        c_n = next(terms)
        total += 2.0 * c_n
        n_used = n
        if abs(c_n) < tail_tol * abs(c0):
            break
        last = abs(c_n)
    # geometric tail from the final observed ratio
    if n_used >= 2 and last > 0.0 and abs(c_n) > 0.0:
        r = abs(c_n) / last
        if 0.0 < r < 1.0:
            total += 2.0 * abs(c_n) * r / (1.0 - r) * np.sign(c_n)
    if total < -1e-8:
        raise ValueError(
            f"Green-Kubo variance {total} is negative: grid too coarse for phi"
        )
    return float(max(total, 0.0))


def variance_from_twisted_curvature(
    op: UlamOperator,
    observable: Potential,
    step: float = 1e-3,
) -> float:
    """Variance as minus the curvature of log lambda(t) at t=0, by central
    differences with one Richardson refinement."""

    def curvature(h: float) -> float:
        lam_p = twisted_leading_eigenvalue(twisted_matrix(op, observable, h))
        lam_m = twisted_leading_eigenvalue(twisted_matrix(op, observable, -h))
        return -(
            (np.log(lam_p) + np.log(lam_m)).real
        ) / h ** 2

    d1 = curvature(step)
    d2 = curvature(2.0 * step)
    return float((4.0 * d1 - d2) / 3.0)
