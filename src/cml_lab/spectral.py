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

from .lattice import Potential
from .transfer import UlamOperator, _on_cells, _require_eigen, power_iterate

__all__ = [
    "SpectrumReport",
    "spectral_gap",
    "stationary_distribution",
    "operator_correlation",
    "twisted_matrix",
    "check_twisted_bound",
    "TwistedBoundRow",
    "GreenKubo",
    "variance_green_kubo",
    "variance_from_twisted_curvature",
]

# Eigenvalues spectral_gap reports, the largest matrix it solves densely,
# and the Krylov dimension (ARPACK's ncv) of its Arnoldi solve.
_SPECTRUM_SIZE = 6
_DENSE_LIMIT = 2048
_ARNOLDI_NCV = 30

# Green-Kubo truncation: relative tail tolerance and lag cap.
_GK_TAIL_TOL = 1e-6
_GK_MAX_LAG = 500


@dataclass(frozen=True)
class SpectrumReport:
    """Top eigenvalues of a normalized operator, sorted by modulus
    (ties broken by argument, documented for reproducibility), with how
    the solve ran: the solver ('dense' or 'arnoldi'), the cells of the
    block it solved, and its operator applications (0 when dense)."""

    eigenvalues: tuple[complex, ...]
    lambda1: float
    lambda2_modulus: float
    solver: str
    cells_solved: int
    operator_applications: int

    @property
    def gap(self) -> float:
        return 1.0 - self.lambda2_modulus


def _sort_eigenvalues(vals: np.ndarray) -> np.ndarray:
    order = np.lexsort((np.angle(vals), -np.abs(vals)))
    return vals[order]


def spectral_gap(op: UlamOperator) -> SpectrumReport:
    """Top eigenvalues by modulus: dense solver at small dimension,
    implicitly restarted Arnoldi above it.

    Both solve the block of the non-empty rows, where every non-zero of a
    normalized operator lies (a coupled operator's unreachable cells have
    empty rows and columns), so the spectrum differs from the whole
    matrix's only by zeros.  The dense solver takes the block explicitly.
    Arnoldi applies ``op.matrix`` itself on the block's cells
    (:func:`~cml_lab.transfer._on_cells`: the matrix has no entries off
    the block, so each product only adds +0.0 terms and has the explicit
    block's bits) and holds no copy of it.  It runs with _ARNOLDI_NCV
    Krylov vectors and starts from a fixed vector on the whole grid,
    restricted to the block, that is no eigenvector: from the constant
    vector, the leading eigenvector of every normalized operator, the
    Krylov space breaks down at once and ARPACK restarts from a vector of
    its own that differs per process.  When the cut splits a conjugate
    pair, the kept member is the one with positive imaginary part, so the
    report depends on the spectrum alone, not on which member the solver
    returned.
    """
    if op.kind not in ("L", "coupled"):
        raise ValueError("spectral gap is defined for normalized operator kinds")
    active = np.flatnonzero(np.diff(op.matrix.indptr))
    n = active.size
    dense = n <= _DENSE_LIMIT
    applications = 0
    if dense:
        vals = np.linalg.eigvals(op.matrix[active][:, active].toarray())
    else:
        block = _on_cells(op.matrix, active)

        def matvec(v: np.ndarray) -> np.ndarray:
            nonlocal applications
            applications += 1
            return block @ v

        lin = spla.LinearOperator(block.shape, matvec=matvec, dtype=block.dtype)
        v0 = np.random.default_rng(0).uniform(0.5, 1.5, op.n_cells)[active]
        try:
            vals = spla.eigs(
                lin, k=_SPECTRUM_SIZE, which="LM", v0=v0, ncv=_ARNOLDI_NCV,
                return_eigenvectors=False,
            )
        except spla.ArpackNoConvergence as exc:
            raise RuntimeError(
                f"Arnoldi iteration did not converge; "
                f"{len(exc.eigenvalues)} of {_SPECTRUM_SIZE} eigenvalues found"
            ) from exc
    vals = _sort_eigenvalues(np.asarray(vals))[:_SPECTRUM_SIZE]
    # a kept pair sorts as (negative, positive) imaginary part, so a last
    # value with negative imaginary part had its partner cut
    if vals[-1].imag < 0.0:
        vals[-1] = np.conj(vals[-1])
    lam1 = float(np.abs(vals[0]))
    if not lam1 - 1.0 < 1e-6:
        raise ValueError(f"leading eigenvalue modulus {lam1} exceeds 1 + 1e-6")
    lam2 = float(np.abs(vals[1])) if len(vals) > 1 else 0.0
    return SpectrumReport(
        eigenvalues=tuple(complex(v) for v in vals),
        lambda1=lam1,
        lambda2_modulus=lam2,
        solver="dense" if dense else "arnoldi",
        cells_solved=n,
        operator_applications=applications,
    )


def stationary_distribution(op: UlamOperator) -> np.ndarray:
    """The probability vector fixed by the adjoint of a normalized operator:
    mu = h*nu of the triple it was normalized by.  An operator without one
    (from load_operator, or built by hand) raises ValueError."""
    return _require_eigen(op).mu


def _correlation_terms(
    phi1: Potential, phi2: Potential, op: UlamOperator
) -> Iterator[float]:
    """C_0, C_1, ... of :func:`operator_correlation`, one operator
    application per term, without end."""
    grid = op.grid
    reps = grid.reps()
    mu = stationary_distribution(op)
    v1 = phi1.on_array(reps, grid.k)
    v2 = phi2.on_array(reps, grid.k)
    v = v2 - float(mu @ v2)
    while True:
        yield float(mu @ (v1 * v))
        v = op.matrix @ v


def operator_correlation(
    phi1: Potential, phi2: Potential, op: UlamOperator, n_max: int
) -> np.ndarray:
    """Correlation sequence C_n = <phi1, M^n (phi2 - mu(phi2))>_mu.

    Returns the signed values for lags 0..n_max; C_0 is the covariance of
    the two observables under the stationary cell measure.
    """
    terms = _correlation_terms(phi1, phi2, op)
    return np.fromiter(itertools.islice(terms, n_max + 1), float, n_max + 1)


def twisted_matrix(
    base: UlamOperator, observable: Potential, t: float
) -> sp.csr_matrix:
    """The base matrix with columns twisted by exp(i t f(source cell))."""
    if base.kind not in ("L", "coupled"):
        raise ValueError("twisting applies to normalized operator kinds")
    if t == 0.0:
        return base.matrix.astype(complex)
    reps = base.grid.reps()
    phase = np.exp(1j * t * observable.on_array(reps, base.grid.k))
    return (base.matrix @ sp.diags(phase)).tocsr()


@dataclass(frozen=True)
class TwistedBoundRow:
    """The leading eigenvalue lambda(t) of the operator twisted by t: its
    modulus, and the variance it implies, -2 log|lambda(t)| / t^2."""

    t: float
    modulus: float
    sigma2: float


def check_twisted_bound(
    base: UlamOperator, observable: Potential, t_grid: Sequence[float]
) -> tuple[TwistedBoundRow, ...]:
    """Leading eigenvalue of the operator twisted by each t, by power
    iteration.

    With a spectral gap, lambda(t) is analytic, |lambda(t)| < 1 for t != 0,
    and -log|lambda(t)| = sigma^2 t^2 / 2 + O(t^4), sigma^2 the limit
    variance of the observable (Nagaev-Guivarc'h): the row's sigma2 tends
    to it as t -> 0.  A twist of 0 or beyond |t| = 0.2, outside the
    small-twist regime, is rejected.

    The matrix twisted by -t is the complex conjugate of the one twisted
    by t, and power iteration on it returns the conjugate eigenvalue bit
    for bit, so a -t whose +t was solved takes that solve's conjugate.
    """
    solved: dict[float, complex] = {}
    rows = []
    for t in t_grid:
        if not 0.0 < abs(t) <= 0.2:
            raise ValueError(
                f"twist t={t} outside the small-twist regime 0 < |t| <= 0.2"
            )
        if -t in solved:
            lam = np.conj(solved[-t])
        else:
            lam = solved[t] = power_iterate(twisted_matrix(base, observable, t)).lam
        modulus = float(abs(lam))
        rows.append(TwistedBoundRow(t, modulus, -2.0 * math.log(modulus) / t ** 2))
    return tuple(rows)


@dataclass(frozen=True)
class GreenKubo:
    """The Green-Kubo variance and how its sum ended: the lags summed, whether
    the sum stopped at the lag cap, and the geometric tail added to it."""

    sigma2: float
    lags: int
    capped: bool
    tail: float

    @property
    def tail_share(self) -> float:
        """The tail's share of sigma2 (0 when sigma2 is 0)."""
        return self.tail / self.sigma2 if self.sigma2 > 0.0 else 0.0


def variance_green_kubo(phi: Potential, op: UlamOperator) -> GreenKubo:
    """Limit variance as the summed autocovariance sequence of phi.

    The series is truncated once |C_n| falls below _GK_TAIL_TOL * C_0 (or
    at lag _GK_MAX_LAG), and a geometric tail estimate, from the ratio
    |C_n| / |C_{n-1}| of the last two terms, is added.
    A materially negative result signals a discretization artifact.
    """
    terms = _correlation_terms(phi, phi, op)
    c0 = next(terms)
    if c0 == 0.0:
        return GreenKubo(sigma2=0.0, lags=0, capped=False, tail=0.0)
    total = c0
    prev = last = abs(c0)
    c_n = c0
    n_used = 0
    for n in range(1, _GK_MAX_LAG + 1):
        c_n = next(terms)
        total += 2.0 * c_n
        n_used = n
        prev, last = last, abs(c_n)
        if last < _GK_TAIL_TOL * abs(c0):
            break
    tail = 0.0
    if n_used >= 2 and prev > 0.0 and last > 0.0:
        r = last / prev
        if 0.0 < r < 1.0:
            tail = 2.0 * last * r / (1.0 - r) * np.sign(c_n)
            total += tail
    if total < -1e-8:
        raise ValueError(
            f"Green-Kubo variance {total} is negative: grid too coarse for phi"
        )
    return GreenKubo(
        sigma2=float(max(total, 0.0)), lags=n_used,
        capped=last >= _GK_TAIL_TOL * abs(c0), tail=float(tail),
    )


def variance_from_twisted_curvature(
    op: UlamOperator,
    observable: Potential,
    step: float = 1e-3,
) -> float:
    """Variance as minus the curvature of log lambda(t) at t=0, by central
    differences with one Richardson refinement.  lambda(-h) is the
    conjugate of lambda(h) (see :func:`check_twisted_bound`), so the
    central sum log lambda(h) + log lambda(-h) is 2 Re log lambda(h)."""

    def curvature(h: float) -> float:
        lam = power_iterate(twisted_matrix(op, observable, h)).lam
        return -2.0 * np.log(lam).real / h ** 2

    d1 = curvature(step)
    d2 = curvature(2.0 * step)
    return float((4.0 * d1 - d2) / 3.0)
