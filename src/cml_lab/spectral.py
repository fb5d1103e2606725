"""Spectrum of discretized operators: gap, correlation decay, twisted
operators and the central-limit variance.

The decay rate is the modulus of the second eigenvalue of the normalized
Ulam matrix.  Correlations pair the iterates L^n phi~ of a centred
observable with a second one under the stationary cell measure; the
variance sums them into the resolvent (I - L)^-1 phi~, with a
twisted-eigenvalue curvature cross-check.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from .lattice import Potential
from .transfer import UlamOperator, _require_eigen, _SplitBlock, power_iterate

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
# and the Krylov dimension of its Arnoldi solve (ARPACK's ncv).
_SPECTRUM_SIZE = 6
_DENSE_LIMIT = 2048
_ARNOLDI_NCV = 20

# The Ritz values an Arnoldi restart keeps: the reported ones and half of
# the rest.  Its relative tolerance on the Ritz residuals, the restarts it
# may take, the basis columns a restart rotates at once, and the Newton
# steps that may refine the basis of the space it keeps.
_ARNOLDI_KEEP = _SPECTRUM_SIZE + (_ARNOLDI_NCV - _SPECTRUM_SIZE) // 2
_ARNOLDI_TOL = 1e-14
_ARNOLDI_RESTARTS = 500
_ROTATE_COLUMNS = 4096
_INVARIANT_STEPS = 4

# ARPACK's floor on the modulus a Ritz residual is measured against.
_EPS23 = np.finfo(float).eps ** (2.0 / 3.0)

# The Green-Kubo resolvent sum: it stops at the first re-centred iterate
# whose sup-norm is at most _GK_TOL times phi~'s, within _GK_MAX_PRODUCTS
# operator applications.
_GK_TOL = 1e-14
_GK_MAX_PRODUCTS = 500

# Finite-difference step of the twisted-eigenvalue curvature.
_CURVATURE_STEP = 1e-3


@dataclass(frozen=True)
class SpectrumReport:
    """Top eigenvalues of a normalized operator, sorted by modulus
    (ties broken by argument, documented for reproducibility), with how
    the solve ran: the solver ('dense' or 'arnoldi'), the cells of the
    block it solved, its operator applications and restarts (0 when
    dense), the largest relative Ritz residual of the reported values
    (None when dense), and the parts and threads Arnoldi ran on (1 when
    dense).  The threads depend on the CPUs allowed, not on the operator,
    so reports that differ only in them compare equal."""

    eigenvalues: tuple[complex, ...]
    lambda1: float
    lambda2_modulus: float
    solver: str
    cells_solved: int
    operator_applications: int
    restarts: int
    ritz_residual: float | None
    parts: int = 1
    threads: int = field(default=1, compare=False)

    @property
    def gap(self) -> float:
        return 1.0 - self.lambda2_modulus


def _modulus_order(vals: np.ndarray) -> np.ndarray:
    return np.lexsort((np.angle(vals), -np.abs(vals)))


class _ArnoldiResult(NamedTuple):
    """Ritz values and how the solve ended (see :class:`SpectrumReport`)."""

    values: np.ndarray
    applications: int
    restarts: int
    residual: float | None


def _invariant_basis(h: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the invariant subspace of h that the real
    eigenvector ``columns`` span.

    The QR basis of the columns is taken when its invariance defect
    |h Q - Q Q^T h Q| is at most _ARNOLDI_TOL |h| (Frobenius norms).
    Nearly parallel eigenvectors (a tight cluster, a near-defective pair)
    fix their span only to about eps over their angle; such a basis is
    refined by Newton steps on the Sylvester equation of the invariant
    subspace, G22 X - X G11 = -G21 in the blocks of h on Q and its
    orthogonal complement (Stewart, SIAM Review 15, 1973), solved as a
    dense Kronecker system.  Raises ``RuntimeError`` when
    _INVARIANT_STEPS steps leave the defect above the bound.
    """
    q = np.linalg.qr(columns)[0]
    kept = q.shape[1]
    bound = _ARNOLDI_TOL * np.linalg.norm(h)
    for steps in itertools.count():
        hq = h @ q
        defect = np.linalg.norm(hq - q @ (q.T @ hq))
        if defect <= bound:
            return q
        if steps == _INVARIANT_STEPS:
            break
        full = np.linalg.qr(q, mode="complete")[0]
        q, rest = full[:, :kept], full[:, kept:]
        g11, g21, g22 = q.T @ h @ q, rest.T @ h @ q, rest.T @ h @ rest
        sylvester = np.kron(g22, np.eye(kept)) - np.kron(np.eye(rest.shape[1]), g11.T)
        x = np.linalg.solve(sylvester, -g21.ravel()).reshape(rest.shape[1], kept)
        q = np.linalg.qr(q + rest @ x)[0]
    raise RuntimeError(
        f"Arnoldi restart found no invariant subspace of the kept Ritz values: "
        f"defect {defect:.3e} against {bound:.3e}"
    )


def _in_part_order(partials: Sequence):
    """The parts' partial sums added in part order, so the total has the
    same bits whichever thread ran each part; one part's is taken whole."""
    total = partials[0]
    for more in partials[1:]:
        total = total + more
    return total


def _krylov_schur(block: _SplitBlock, v0: np.ndarray) -> _ArnoldiResult:
    """The _SPECTRUM_SIZE eigenvalues of largest modulus of a real block,
    by Arnoldi with Krylov-Schur restarts (Stewart, SIAM J. Matrix Anal.
    Appl. 23, 2001), started from v0.

    The basis holds _ARNOLDI_NCV Krylov vectors and the residual's
    direction, one per row, and the Rayleigh quotient H is their
    projection: A V = V H + v r^T, r the residual row.  Each new vector is
    orthogonalized by classical Gram-Schmidt, repeated once when it loses
    more than 1 - 1/sqrt(2) of its norm (DGKS, as ARPACK does).  At the
    end of a cycle the Ritz values are the eigenvalues of H, and the Ritz
    residual of (theta, y) is |r . y|, measured against max(|theta|,
    _EPS23); the solve ends once the reported ones are below _ARNOLDI_TOL.
    Otherwise the restart keeps the _ARNOLDI_KEEP largest (a conjugate pair
    whole): an orthonormal basis Q of the invariant subspace of H that
    their real eigenvectors span (:func:`_invariant_basis`) makes V Q,
    Q^T H Q and r Q again such a decomposition, and Arnoldi extends it.
    A Krylov space invariant to _ARNOLDI_TOL (|r| at most _ARNOLDI_TOL
    |A v|) ends the solve at once when it holds _SPECTRUM_SIZE vectors; a
    smaller one is extended by a fixed random vector orthogonal to it, as
    ARPACK extends it, since its residual is roundoff, whose direction is
    not orthogonal to it.

    The vector work runs on the block's parts (:meth:`_SplitBlock.run`),
    on two threads when the helper runs: each part holds the basis
    columns of its span, contiguous, whose products with a vector
    ``np.dot`` takes without holding the interpreter lock.  A step takes
    three passes: the product with the new vector's dot products against
    the basis and itself, the Gram-Schmidt update with its norm (and
    DGKS's dot products and update when it repeats), and the
    normalization, which loads the vector for the next product.  The
    caller adds the parts' partial sums in part order
    (:func:`_in_part_order`), so the solve has the same bits on one thread
    or two.  A restart rotates each part's columns in chunks of
    _ROTATE_COLUMNS.  The extension vector is drawn whole, here.
    """
    k, m = _SPECTRUM_SIZE, _ARNOLDI_NCV
    spans = block.spans
    bases = [np.empty((m + 1, span.stop - span.start)) for span in spans]
    w = np.empty(v0.size)
    rq = np.zeros((m + 1, m))

    def dots(s, j):
        return np.dot(bases[s][: j + 1], w[spans[s]])

    def multiply(s, j):
        block.product(s, w)
        part = w[spans[s]]
        return dots(s, j), np.dot(part, part)

    def update(s, j, h):
        part = w[spans[s]]
        part -= h @ bases[s][: j + 1]
        return np.dot(part, part)

    def normalize(s, j, beta):
        np.divide(w[spans[s]], beta, out=bases[s][j + 1])
        block.load(s, bases[s][j + 1])

    def rotate(s, qt, kept):
        basis = bases[s]
        for lo in range(0, basis.shape[1], _ROTATE_COLUMNS):
            cols = slice(lo, lo + _ROTATE_COLUMNS)
            basis[:kept, cols] = qt @ basis[:m, cols]
        basis[kept] = basis[m]

    # basis row 0 is v0 normalized, as row j + 1 is w
    w[:] = v0
    block.run(normalize, -1, np.linalg.norm(v0))
    kept = applications = 0
    for restarts in range(_ARNOLDI_RESTARTS + 1):
        for j in range(kept, m):
            h, ww = map(_in_part_order, zip(*block.run(multiply, j)))
            applications += 1
            rr = _in_part_order(block.run(update, j, h))
            if rr <= 0.5 * ww:
                again = _in_part_order(block.run(dots, j))
                h += again
                rr = _in_part_order(block.run(update, j, again))
            beta = math.sqrt(rr)
            rq[: j + 1, j] = h
            rq[j + 1, j] = beta
            invariant = beta <= _ARNOLDI_TOL * math.sqrt(ww)
            if invariant and j + 1 >= k:
                break
            if invariant:
                # a fixed random vector, orthogonalized twice, in place of
                # a residual that is roundoff
                w[:] = np.random.default_rng(j + 1).uniform(-1.0, 1.0, w.size)
                for _ in range(2):
                    again = _in_part_order(block.run(dots, j))
                    rr = _in_part_order(block.run(update, j, again))
                beta = math.sqrt(rr)
                rq[j + 1, j] = 0.0
            block.run(normalize, j, beta)
        size = j + 1
        theta, vecs = np.linalg.eig(rq[:size, :size])
        order = _modulus_order(theta)
        residual = np.abs(rq[size, :size] @ vecs) / np.maximum(np.abs(theta), _EPS23)
        wanted = order[:k]
        found = int(np.count_nonzero(residual[wanted] <= _ARNOLDI_TOL))
        if invariant or found == k:
            return _ArnoldiResult(
                theta[wanted], applications, restarts, float(residual[wanted].max())
            )
        if restarts == _ARNOLDI_RESTARTS:
            break
        # eig lists a conjugate pair together, positive imaginary part first
        keep = set(order[:_ARNOLDI_KEEP].tolist())
        keep |= {i + 1 for i in keep if theta[i].imag > 0.0}
        keep |= {i - 1 for i in keep if theta[i].imag < 0.0}
        columns = []
        for i in order:
            if i in keep and theta[i].imag >= 0.0:
                columns.append(vecs[:, i].real)
                if theta[i].imag > 0.0:
                    columns.append(vecs[:, i].imag)
        q = _invariant_basis(rq[:m, :m], np.column_stack(columns))
        kept = q.shape[1]
        qt = np.ascontiguousarray(q.T)
        # the new last row is the residual's direction, which is loaded
        block.run(rotate, qt, kept)
        rotated = qt @ rq[:m, :m] @ q, rq[m, :m] @ q
        rq[:] = 0.0
        rq[:kept, :kept], rq[kept, :kept] = rotated
    raise RuntimeError(
        f"Arnoldi iteration did not converge in {_ARNOLDI_RESTARTS} restarts; "
        f"{found} of {k} eigenvalues found"
    )


def spectral_gap(op: UlamOperator) -> SpectrumReport:
    """Top eigenvalues by modulus: dense solver at small dimension,
    Arnoldi with Krylov-Schur restarts (:func:`_krylov_schur`) above it.

    Both solve the block of the non-empty rows, where every non-zero of a
    normalized operator lies: the cells where its triple's v > 0 (a
    coupled operator's unreachable cells, where v vanishes, have empty
    rows and columns), so the spectrum differs from the whole matrix's
    only by zeros.  The dense solver takes the block explicitly.
    Arnoldi applies ``op.matrix`` itself on the block's cells through a
    :class:`~cml_lab.transfer._SplitBlock` (the matrix has no entries off
    the block, so each product only adds +0.0 terms and has the explicit
    block's bits) and holds no copy of it; a large matrix is cut in two
    row halves, and each step's product and vector work runs on both, the
    second on a helper thread that lives for the solve, with the same bits
    as on one thread.  It starts from a fixed vector on the
    whole grid, restricted to the block, that is no eigenvector: from the
    constant vector, the leading eigenvector of every normalized operator,
    the Krylov space is invariant at once.  When the cut splits a
    conjugate pair, the kept member is the one with positive imaginary
    part, so the report depends on the spectrum alone, not on which
    member the solver returned.
    """
    if op.kind not in ("L", "coupled"):
        raise ValueError("spectral gap is defined for normalized operator kinds")
    active = np.flatnonzero(np.diff(op.matrix.indptr))
    n = active.size
    dense = n <= _DENSE_LIMIT
    parts = threads = 1
    if dense:
        vals = np.linalg.eigvals(op.matrix[active][:, active].toarray())
        solve = _ArnoldiResult(vals, 0, 0, None)
    else:
        v0 = np.random.default_rng(0).uniform(0.5, 1.5, op.n_cells)[active]
        with _SplitBlock(op.matrix, active) as block:
            solve = _krylov_schur(block, v0)
            parts, threads = len(block.spans), block.threads
    vals = np.asarray(solve.values)
    vals = vals[_modulus_order(vals)][:_SPECTRUM_SIZE]
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
        operator_applications=solve.applications,
        restarts=solve.restarts,
        ritz_residual=solve.residual,
        parts=parts,
        threads=threads,
    )


def stationary_distribution(op: UlamOperator) -> np.ndarray:
    """The probability vector fixed by the adjoint of a normalized operator:
    mu = h*nu of the triple it was normalized by.  An operator without one
    (from load_operator, or built by hand) raises ValueError."""
    return _require_eigen(op).mu


def _iterates(phi: Potential, op: UlamOperator) -> Iterator[np.ndarray]:
    """phi~ = phi - mu(phi) on every cell, then L phi~, L^2 phi~, ..., one
    operator application each, without end; each is a new array.  The
    products go through a :class:`~cml_lab.transfer._SplitBlock` of every
    cell, whose helper thread, if any, ends when the generator is closed."""
    mu = stationary_distribution(op)
    v = phi.on_array(op.grid.reps(), op.grid.k)
    v = v - float(mu @ v)
    with _SplitBlock(op.matrix, np.arange(op.n_cells)) as block:
        while True:
            yield v
            v = block @ v


def operator_correlation(
    phi1: Potential, phi2: Potential, op: UlamOperator, n_max: int
) -> np.ndarray:
    """Correlation sequence C_n = <phi1, M^n (phi2 - mu(phi2))>_mu.

    Returns the signed values for lags 0..n_max; C_0 is the covariance of
    the two observables under the stationary cell measure.
    """
    mu = stationary_distribution(op)
    v1 = phi1.on_array(op.grid.reps(), op.grid.k)
    with contextlib.closing(_iterates(phi2, op)) as iterates:
        terms = (float(mu @ (v1 * v)) for v in itertools.islice(iterates, n_max + 1))
        return np.fromiter(terms, float, n_max + 1)


def twisted_matrix(
    base: UlamOperator, observable: Potential, t: float
) -> sp.csr_matrix:
    """The base matrix with columns twisted by exp(i t f(source cell)):
    a complex copy whose stored entries are each multiplied by the phase
    of their column, in the base matrix's index order."""
    if base.kind not in ("L", "coupled"):
        raise ValueError("twisting applies to normalized operator kinds")
    phase = np.exp(1j * t * observable.on_array(base.grid.reps(), base.grid.k))
    twisted = base.matrix.astype(complex)
    twisted.data *= phase[twisted.indices]
    return twisted


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
    """The Green-Kubo variance and how its resolvent sum ended: the operator
    applications it took and the sup-norm of its last re-centred iterate,
    at most _GK_TOL times phi~'s."""

    sigma2: float
    products: int
    last_norm: float


def variance_green_kubo(phi: Potential, op: UlamOperator) -> GreenKubo:
    """Limit variance of phi, sigma^2 = C_0 + 2 sum_{n>=1} C_n, by the
    fundamental-matrix formula (Kemeny and Snell, Finite Markov Chains,
    1960): sigma^2 = <mu, phi~ (2x - phi~)>, x = (I - L)^-1 phi~ on
    mean-zero vectors.

    x is the Neumann sum of the iterates L^n phi~ (:func:`_iterates`),
    each re-centred by its mean mu(L^n phi~): L keeps that mean, so the
    roundoff along the constant mode would never decay.  The sum stops at
    the first iterate whose re-centred sup-norm over the cells where
    mu > 0 is at most _GK_TOL times phi~'s (cells where mu = 0 keep the
    mean's roundoff and carry no weight); reaching _GK_MAX_PRODUCTS raises
    ``ValueError``.  A materially negative result signals an operator that
    is not stochastic.
    """
    mu = stationary_distribution(op)
    support = mu > 0.0
    x = np.zeros(op.n_cells)
    with contextlib.closing(_iterates(phi, op)) as iterates:
        phi_c = next(iterates)
        bound = _GK_TOL * float(np.abs(phi_c[support]).max())
        for products, v in enumerate(itertools.chain([phi_c], iterates)):
            v = v - float(mu @ v)
            x += v
            last_norm = float(np.abs(v[support]).max())
            if last_norm <= bound:
                break
            if products == _GK_MAX_PRODUCTS:
                raise ValueError(
                    f"Green-Kubo sum did not converge in {_GK_MAX_PRODUCTS} products: "
                    f"last sup-norm {last_norm:.3e} against {bound:.3e}"
                )
    sigma2 = float(mu @ (phi_c * (2.0 * x - phi_c)))
    if sigma2 < -1e-8:
        raise ValueError(
            f"Green-Kubo variance {sigma2} is negative: the operator is not stochastic"
        )
    return GreenKubo(sigma2=max(sigma2, 0.0), products=products, last_norm=last_norm)


def variance_from_twisted_curvature(op: UlamOperator, observable: Potential) -> float:
    """Variance as minus the curvature of log lambda(t) at t=0, by central
    differences at _CURVATURE_STEP and twice it, with one Richardson
    refinement.  lambda(-h) is the conjugate of lambda(h) (see
    :func:`check_twisted_bound`), so the central sum
    log lambda(h) + log lambda(-h) is 2 Re log lambda(h)."""

    def curvature(h: float) -> float:
        lam = power_iterate(twisted_matrix(op, observable, h)).lam
        return -2.0 * np.log(lam).real / h ** 2

    d1 = curvature(_CURVATURE_STEP)
    d2 = curvature(2.0 * _CURVATURE_STEP)
    return float((4.0 * d1 - d2) / 3.0)
