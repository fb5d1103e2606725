"""Pointwise and discretized transfer operators on lattice windows.

The pointwise operator averages an observable over the b**(2k+1) inverse
branches of the nodewise map, weighted by the exponential of a potential.
The discretized version is an Ulam-type sparse matrix over a tensor grid
of half-open cells, assembled by midpoint-refined quadrature of the
branch sum, from which leading eigen-data (growth rate, eigenfunction,
eigen-measure, normalized potential) are extracted by power iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .lattice import (
    Coupling,
    FiniteState,
    MetricParams,
    NodeMap,
    Potential,
    branch_preimage_table,
    embed,
    project,
)

__all__ = [
    "Grid",
    "UlamOperator",
    "EigenData",
    "ConeParams",
    "eval_Pk",
    "check_Pk_cauchy",
    "CauchyReport",
    "ulam_matrix",
    "leading_eigenpair",
    "power_iterate",
    "cone_membership",
    "estimate_holder_seminorm",
    "grid_holder_seminorm",
    "check_lasota_yorke",
    "check_conformality",
    "random_admissible_box",
    "save_operator",
    "load_operator",
]

_ONE_MINUS = np.nextafter(1.0, 0.0)

# Most quadrature points an assembly holds at once (counting each branch
# preimage of a point for 'P').  It bounds the slab temporaries, so peak
# memory scales with cells and non-zeros, not with the quadrature cloud.
_SLAB_POINTS = 1 << 16


# ---------------------------------------------------------------------------
# pointwise operators


def _branch_values(x: FiniteState, k: int, node_map: NodeMap) -> np.ndarray:
    """All branch preimages of x at window half-width k, shape (d, b**d)."""
    if x.k > k:
        x = project(x, k)
    elif x.k < k:
        x = embed(x, k, node_map)
    table = branch_preimage_table(x.values[:, None], node_map)  # (b**d, d, 1)
    return table[:, :, 0].T


def eval_Pk(
    phi: Potential,
    f: Potential,
    x: FiniteState,
    k: int,
    node_map: NodeMap,
) -> float:
    """Branch-sum average (1/b_k) sum_zeta exp(f(zeta_x)) phi(zeta_x).

    The operator at width k only sees the central 2k+1 nodes of x; wider
    states are projected, narrower ones embedded.  When the potential is
    large the weights are accumulated in log space.
    """
    vals = _branch_values(x, k, node_map)
    fv = f.on_array(vals, k)
    pv = phi.on_array(vals, k)
    if f.declared_sup_norm > 30.0:
        m = np.max(fv)
        return float(math.exp(m) * np.mean(np.exp(fv - m) * pv))
    return float(np.mean(np.exp(fv) * pv))


@dataclass(frozen=True)
class CauchyReport:
    """Sup-differences of consecutive-width operators and their fitted decay."""

    k_values: tuple[int, ...]
    sup_differences: tuple[float, ...]
    fitted_ratio: float | None


def check_Pk_cauchy(
    phi: Potential,
    f: Potential,
    k_max: int,
    samples: int,
    node_map: NodeMap,
    rng: np.random.Generator | None = None,
) -> CauchyReport:
    """Measure sup_x |P_{k+1} phi(x) - P_k phi(x)| for k < k_max.

    The cost grows as b**(2k+1); k_max beyond 5 is not desk scale.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    rng = np.random.default_rng(0) if rng is None else rng
    width = 2 * (k_max + 1) + 1
    states = [
        FiniteState(k=k_max + 1, values=rng.uniform(0.0, _ONE_MINUS, width))
        for _ in range(samples)
    ]
    diffs = []
    evals = {
        k: [eval_Pk(phi, f, x, k, node_map) for x in states] for k in range(k_max + 1)
    }
    for k in range(k_max):
        diffs.append(
            max(abs(a - b) for a, b in zip(evals[k + 1], evals[k]))
        )
    positive = [d for d in diffs if d > 1e-300]
    ratio = None
    if len(positive) == len(diffs) and len(diffs) >= 2:
        slope = np.polyfit(np.arange(len(diffs)), np.log(diffs), 1)[0]
        ratio = float(np.exp(slope))
    return CauchyReport(
        k_values=tuple(range(k_max)),
        sup_differences=tuple(diffs),
        fitted_ratio=ratio,
    )


# ---------------------------------------------------------------------------
# Ulam grids


@dataclass(frozen=True)
class Grid:
    """Tensor-product partition of [0,1)^(2k+1) into n_bins**(2k+1) cells.

    Cells are half-open boxes; a point on an upper cell boundary belongs
    to the next cell.  Flat indices run in C order over the per-node bin
    indices, nodes ordered from -k to k.
    """

    k: int
    n_bins: int

    @property
    def d(self) -> int:
        return 2 * self.k + 1

    @property
    def n_cells(self) -> int:
        return self.n_bins ** self.d

    def cell_of(self, values: np.ndarray) -> np.ndarray:
        """Flat cell index of points given as a (d, n) array."""
        bins = np.floor(np.asarray(values) * self.n_bins).astype(np.int64)
        np.clip(bins, 0, self.n_bins - 1, out=bins)
        return np.ravel_multi_index(bins, (self.n_bins,) * self.d)

    def reps(self) -> np.ndarray:
        """Cell midpoints, shape (d, n_cells), read-only."""
        return self._reps

    @cached_property
    def _bins(self) -> np.ndarray:
        """Per-axis bin of every cell, shape (d, n_cells), read-only.  The
        smallest unsigned type that holds n_bins, so box bounds compare in
        range; the midpoints, box masks and conformality samples share it."""
        bins = np.stack(
            np.unravel_index(np.arange(self.n_cells), (self.n_bins,) * self.d)
        ).astype(np.min_scalar_type(self.n_bins))
        bins.setflags(write=False)
        return bins

    @cached_property
    def _reps(self) -> np.ndarray:
        # computed once per grid: the seminorm samplers ask for it per call
        reps = (self._bins + 0.5) / self.n_bins
        reps.setflags(write=False)
        return reps

    def quad_slabs(
        self, quad: int, max_points: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Midpoint-refined quadrature, quad**d points per cell, in slabs.

        A slab is a run of consecutive first-axis bins, as many as fit in
        ``max_points`` points (at least one), so it holds whole cells.  The
        first axis varies slowest, so the slabs are consecutive ranges of
        the C-order enumeration of all points, yielded in that order.  Each
        slab is its points (d, M) with their parent cell indices (M,).
        """
        fine = self.n_bins * quad
        per_bin = quad * fine ** (self.d - 1)
        step = max(1, max_points // per_bin)
        for lo in range(0, self.n_bins, step):
            hi = min(lo + step, self.n_bins)
            bins = np.unravel_index(
                np.arange(lo * per_bin, hi * per_bin), (fine,) * self.d
            )
            pts = (np.stack(bins) + 0.5) / fine
            parent = np.ravel_multi_index(
                tuple(b // quad for b in bins), (self.n_bins,) * self.d
            )
            yield pts, parent

    def node_weights(self, m: MetricParams) -> np.ndarray:
        return m.theta ** np.abs(np.arange(-self.k, self.k + 1, dtype=float))

    def rep_distance(
        self, cells_a: np.ndarray, cells_b: np.ndarray, m: MetricParams
    ) -> np.ndarray:
        """Metric distance of cell midpoints of paired cells.

        One axis at a time: a gather per axis and a running maximum cost a
        fraction of a (d, n) gather reduced over its first axis.
        """
        dist = np.zeros(np.shape(cells_a))
        for rep, weight in zip(self.reps(), self.node_weights(m)):
            np.maximum(
                dist, weight * m.node_distance(rep[cells_a], rep[cells_b]), out=dist
            )
        return dist


@dataclass(frozen=True)
class UlamOperator:
    """Sparse Ulam discretization of a transfer operator.

    ``matrix`` acts on cell-wise constant functions: row c holds the
    quadrature-averaged branch weights drawn from each source cell.  The
    ``kind`` is 'P' (raw weights exp(f)), 'L' (normalized by the leading
    eigen-data, fixes the constants) or 'coupled' (normalized transfer
    operator of the full coupled step: nodewise map followed by the
    coupling).
    """

    kind: str
    grid: Grid
    quad: int
    matrix: sp.csr_matrix
    node_map: NodeMap | None = None
    potential: Potential | None = None
    coupling: Coupling | None = None

    @property
    def n_cells(self) -> int:
        return self.grid.n_cells

    def fingerprint(self) -> str:
        pot = self.potential.name if self.potential is not None else "-"
        nm = self.node_map.name if self.node_map is not None else "-"
        cpl = "-"
        if self.coupling is not None:
            cpl = f"{self.coupling.kind}(eps={self.coupling.epsilon})"
        return (
            f"kind={self.kind} k={self.grid.k} n_bins={self.grid.n_bins} "
            f"quad={self.quad} map={nm} potential={pot} coupling={cpl}"
        )


def ulam_matrix(
    kind: str,
    k: int,
    n_bins: int,
    node_map: NodeMap,
    potential: Potential | None = None,
    eigen: "EigenData | None" = None,
    coupling: Coupling | None = None,
    quad: int = 4,
    cell_budget: int = 100_000,
) -> UlamOperator:
    """Assemble the sparse Ulam matrix of the requested operator kind.

    'P' needs a potential; 'L' needs the eigen-data of the matching 'P'
    operator (the normalized matrix is its exact similarity transform, so
    its rows sum to one).  'coupled' needs the coupling plus a potential
    (given directly or through ``eigen``) and discretizes the transfer
    operator of the full coupled step by forward images.  The coupling is
    not surjective on the finite window -- it maps the cube onto a strictly
    smaller parallelepiped -- so cells outside its range have no preimages:
    their rows stay empty and the normalization runs on the reachable cells
    only.
    """
    grid = Grid(k=k, n_bins=n_bins)
    if grid.n_cells > cell_budget:
        raise MemoryError(
            f"grid needs {grid.n_cells} cells, over the budget of {cell_budget}; "
            f"raise cell_budget to at least {grid.n_cells} to proceed"
        )
    if kind == "P":
        if potential is None:
            raise ValueError("kind 'P' needs a potential")
        matrix = _assemble_p_matrix(grid, node_map, potential, quad)
        return UlamOperator(
            kind="P", grid=grid, quad=quad, matrix=matrix,
            node_map=node_map, potential=potential,
        )
    if kind == "L":
        if eigen is None:
            raise ValueError("kind 'L' needs eigen-data of the 'P' operator")
        if eigen.operator.grid != grid:
            raise ValueError("eigen-data grid does not match the requested grid")
        return UlamOperator(
            kind="L", grid=grid, quad=quad,
            matrix=_similarity(eigen.operator.matrix, eigen.h, eigen.lam),
            node_map=node_map, potential=eigen.operator.potential,
        )
    if kind == "coupled":
        if coupling is None:
            raise ValueError("kind 'coupled' needs a coupling")
        if potential is None and eigen is not None:
            potential = eigen.operator.potential
        if potential is None:
            raise ValueError("kind 'coupled' needs a potential (or eigen-data)")
        matrix = _assemble_coupled_matrix(grid, node_map, potential, coupling, quad)
        return UlamOperator(
            kind="coupled", grid=grid, quad=quad, matrix=matrix,
            node_map=node_map, potential=potential, coupling=coupling,
        )
    raise ValueError(f"unknown operator kind {kind!r}")


def _assemble_p_matrix(
    grid: Grid, node_map: NodeMap, potential: Potential, quad: int
) -> sp.csr_matrix:
    """Raw branch-weight matrix, stacked from the row blocks of slabs.

    A slab's quadrature points are its rows' points, so every row gets the
    same entries in the same order as from one all-at-once assembly, and
    the same bytes after the per-row sort and duplicate sum.  That takes
    the same branch values: Newton branches stop on the largest step of
    the call, and for d >= 2 every slab holds the whole 1-d grid on its
    other axes, so each call takes the same steps.
    """
    b_k = node_map.b ** grid.d
    weight = 1.0 / (b_k * quad ** grid.d)
    blocks = []
    # the (b_k, d, n) branch table is the largest array of a slab
    for pts, rows in grid.quad_slabs(quad, _SLAB_POINTS // b_k):
        first = rows[0]
        table = branch_preimage_table(pts, node_map)  # (b_k, d, n)
        data, col_idx = [], []
        for pre in table:
            fv = potential.on_array(pre, grid.k)
            data.append(np.exp(fv) * weight)
            col_idx.append(grid.cell_of(pre))
        blocks.append(
            sp.coo_matrix(
                (
                    np.concatenate(data),
                    (np.tile(rows - first, b_k), np.concatenate(col_idx)),
                ),
                shape=(rows[-1] - first + 1, grid.n_cells),
            ).tocsr()
        )
    return sp.vstack(blocks, format="csr")


def _similarity(matrix: sp.csr_matrix, h: np.ndarray, lam: float) -> sp.csr_matrix:
    """diag(1/h) M diag(h) / lam, the normalized operator of the eigen-pair
    (lam, h) of M.  The continuum normalized operator fixes constants
    exactly; its rows are rescaled to divide out the residual row defect
    left by the finite eigen-solve tolerance."""
    if np.min(h) <= 0.0:
        raise ValueError("leading eigenvector is not strictly positive")
    mat = ((sp.diags(1.0 / h) @ matrix @ sp.diags(h)) / lam).tocsr()
    row_sums = np.asarray(mat.sum(axis=1)).ravel()
    return (sp.diags(1.0 / row_sums) @ mat).tocsr()


def _assemble_coupled_matrix(
    grid: Grid, node_map: NodeMap, potential: Potential,
    coupling: Coupling, quad: int,
) -> sp.csr_matrix:
    """Normalized Ulam matrix of the coupled-step transfer operator.

    The raw matrix is assembled from forward images: every quadrature
    point z of a source cell contributes weight exp(f(z))|det DT(z)| to
    the cell holding its image under the coupled step T.  This is the
    change-of-variables form of the preimage sum, and it keeps the mass
    on the range of the coupling without ever inverting it.  The leading
    eigen-pair is then solved on the reachable cells (nonempty rows) and
    divided out as an exact similarity transform, as for kind 'L'; the
    right eigenfunction vanishes off the coupling range, which kills the
    unreachable columns as well.
    """
    if node_map.forward_deriv is None:
        raise ValueError(
            f"node map {node_map.name!r} has no forward derivative; "
            "the coupled assembly needs it for the change of variables"
        )
    # A slab owns whole columns, but a row can take entries from several
    # slabs, and scipy sums duplicates after an unstable per-row sort: so
    # collect every triplet first and convert once, in the same order as an
    # all-at-once assembly.  Cell indices fit int32 on any grid whose
    # triplets fit in memory; scipy would cast int64 ones to int32 anyway.
    n_pts = grid.n_cells * quad ** grid.d
    rows = np.empty(n_pts, dtype=np.int32)
    cols = np.empty(n_pts, dtype=np.int32)
    weight = np.empty(n_pts)
    log_det_e = math.log(abs(np.linalg.det(coupling.dense_matrix(grid.k))))
    start = 0
    for pts, parent in grid.quad_slabs(quad, _SLAB_POINTS):
        stop = start + parent.size
        fwd = node_map.forward(pts)
        images = coupling.apply_to_array(fwd.T, grid.k, node_map.p_tau).T
        np.clip(images, 0.0, _ONE_MINUS, out=images)
        rows[start:stop] = grid.cell_of(images)
        cols[start:stop] = parent
        log_det = np.sum(np.log(node_map.forward_deriv(pts)), axis=0)
        log_det += log_det_e
        np.divide(
            np.exp(potential.on_array(pts, grid.k) + log_det),
            quad ** grid.d,
            out=weight[start:stop],
        )
        start = stop
    raw = sp.coo_matrix(
        (weight, (rows, cols)), shape=(grid.n_cells, grid.n_cells)
    ).tocsr()
    del rows, cols, weight
    return _normalize_on_reachable(raw)


def _normalize_on_reachable(raw: sp.csr_matrix) -> sp.csr_matrix:
    """Normalize a raw coupled matrix by its leading eigen-pair on the
    reachable cells; rows and columns of the other cells stay empty."""
    n_cells = raw.shape[0]
    # Reachable set: cells with preimage mass from within the set.  Start
    # from the nonempty rows and shrink until stable -- restricting the
    # columns can empty a row whose only sources were themselves dropped.
    active = np.flatnonzero(np.asarray(raw.sum(axis=1)).ravel() > 0.0)
    while True:
        sub = raw[active][:, active].tocsr()
        keep = np.asarray(sub.sum(axis=1)).ravel() > 0.0
        if keep.all():
            break
        active = active[keep]
    lam, h = power_iterate(sub)
    mat = _similarity(sub, h, lam).tocoo()
    full = sp.coo_matrix(
        (mat.data, (active[mat.row], active[mat.col])),
        shape=(n_cells, n_cells),
    )
    return full.tocsr()


# Stop rule and step cap of power_iterate.
_POWER_TOL = 1e-13
_POWER_STEPS = 100_000


def power_iterate(matrix) -> tuple[float | complex, np.ndarray]:
    """Dominant eigenvalue and right eigenvector of a square matrix, real
    or complex, by power iteration.

    Starts from the constant vector 1/n and rescales every iterate to sum
    one, so the eigenvalue is the sum of the product.  Stops once the
    sup-change is at most _POWER_TOL times the iterate's sup norm; raises
    with the final change after _POWER_STEPS steps.
    """
    v = np.full(matrix.shape[0], 1.0 / matrix.shape[0])
    for _ in range(_POWER_STEPS):
        w = matrix @ v
        lam = w.sum()
        w /= lam
        delta = float(np.max(np.abs(w - v)))
        v = w
        if delta <= _POWER_TOL * float(np.max(np.abs(v))):
            return lam, v
    raise RuntimeError(
        f"power iteration did not converge in {_POWER_STEPS} steps; "
        f"final sup-change {delta:.3e}"
    )


# ---------------------------------------------------------------------------
# eigen-data


@dataclass(frozen=True)
class EigenData:
    """Leading eigen-data of an Ulam 'P' operator.

    lam is the leading eigenvalue, h the strictly positive eigenfunction
    (scaled so nu(h)=1), nu the probability eigenvector of the adjoint,
    g the normalized potential on cell midpoints, and mu = h*nu the
    invariant probability vector of the nodewise dynamics.
    """

    lam: float
    h: np.ndarray
    nu: np.ndarray
    g: np.ndarray
    mu: np.ndarray
    operator: UlamOperator

    @cached_property
    def _nu_sampler(self) -> "_CellSampler":
        # built once: every conformality box draws its cells from nu
        return _CellSampler(self.nu / self.nu.sum())


def leading_eigenpair(op: UlamOperator) -> EigenData:
    """Power iteration on the matrix (for lam and h) and its transpose (for
    nu), with h scaled so that nu(h) = 1."""
    if op.kind != "P":
        raise ValueError("leading eigen-data is extracted from the 'P' operator")
    lam, h = power_iterate(op.matrix)
    lam = float(lam)
    _, nu = power_iterate(op.matrix.T.tocsr())
    h = h / (nu @ h)
    if np.min(h) <= 0.0:
        raise ValueError("eigenfunction is not strictly positive on the grid")
    reps = op.grid.reps()
    fv = op.potential.on_array(reps, op.grid.k)
    log_h = np.log(h)
    fwd_cells = op.grid.cell_of(op.node_map.forward(reps))
    g = fv - math.log(lam) - log_h[fwd_cells] + log_h
    mu = h * nu
    mu = mu / mu.sum()
    return EigenData(lam=lam, h=h, nu=nu, g=g, mu=mu, operator=op)


# ---------------------------------------------------------------------------
# cone membership


@dataclass(frozen=True)
class ConeParams:
    """The regularity cone envelope B(z) = exp(f_beta eta^beta/(1-eta^beta) z^beta)."""

    f_beta: float
    eta: float
    beta: float

    def envelope(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        coeff = self.f_beta * self.eta ** self.beta / (1.0 - self.eta ** self.beta)
        return np.exp(coeff * z ** self.beta)

    def scaling_identity_defect(self, z: np.ndarray) -> float:
        """Max defect of B(eta z) exp(f_beta eta^beta z^beta) = B(z)."""
        z = np.asarray(z, dtype=float)
        lhs = self.envelope(self.eta * z) * np.exp(
            self.f_beta * self.eta ** self.beta * z ** self.beta
        )
        return float(np.max(np.abs(lhs - self.envelope(z))))


@dataclass(frozen=True)
class ConeReport:
    worst_margin: float
    nu_h_error: float
    passed: bool


def cone_membership(
    eigen: EigenData,
    cone: ConeParams,
    m: MetricParams,
    samples: int = 2000,
    tol: float = 1e-3,
    rng: np.random.Generator | None = None,
) -> ConeReport:
    """Check h(x) <= B(d(x,y)) h(y) (1+tol) over sampled cell-midpoint pairs.

    Reports the worst relative margin instead of failing; a positive
    margin beyond tol indicates the grid is too coarse for the cone.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    grid = eigen.operator.grid
    a = rng.integers(0, grid.n_cells, samples)
    b = rng.integers(0, grid.n_cells, samples)
    dist = grid.rep_distance(a, b, m)
    bound = cone.envelope(dist) * eigen.h[b]
    margin = float(np.max(eigen.h[a] / bound - 1.0))
    nu_h_error = float(abs(eigen.nu @ eigen.h - 1.0))
    return ConeReport(
        worst_margin=margin, nu_h_error=nu_h_error, passed=margin <= tol
    )


# ---------------------------------------------------------------------------
# seminorm estimators


def estimate_holder_seminorm(
    phi: Potential,
    m: MetricParams,
    k: int,
    samples: int = 2000,
    node_map: NodeMap | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Sampled lower bound on the Hoelder seminorm at window half-width k.

    Mixes random pairs with engineered pairs differing at a single node,
    which realize the supremum for single-node observables.
    """
    if samples < 2:
        raise ValueError("need at least two sample pairs")
    rng = np.random.default_rng(0) if rng is None else rng
    d = 2 * k + 1
    weights = m.theta ** np.abs(np.arange(-k, k + 1, dtype=float))
    best = 0.0
    xs = rng.uniform(0.0, _ONE_MINUS, (samples, d))
    ys = rng.uniform(0.0, _ONE_MINUS, (samples, d))
    # engineered single-node pairs: one third of the budget per style
    n_single = samples
    base = rng.uniform(0.0, _ONE_MINUS, (n_single, d))
    nodes = rng.integers(0, d, n_single)
    alt = base.copy()
    alt[np.arange(n_single), nodes] = rng.uniform(0.0, _ONE_MINUS, n_single)
    for a, b in ((xs, ys), (base, alt)):
        fa = phi.on_array(a.T, k)
        fb = phi.on_array(b.T, k)
        dist = np.max(weights[None, :] * m.node_distance(a, b), axis=1)
        ok = dist > 0.0
        if np.any(ok):
            best = max(best, float(np.max(np.abs(fa - fb)[ok] / dist[ok] ** m.beta)))
    return best


def grid_holder_seminorm(
    vec: np.ndarray,
    grid: Grid,
    m: MetricParams,
    samples: int = 4000,
    rng: np.random.Generator | None = None,
    mask: np.ndarray | None = None,
) -> float | np.ndarray:
    """Sampled lower bound on the Hoelder seminorm of a cell function,
    using cell midpoints as representatives (complex values allowed).
    ``mask`` restricts the pairs to a subset of cells, e.g. the support
    of a coupled operator.

    ``vec`` may also be a stack (rows, n_cells) of cell functions: the
    result is then one value per row, and row i draws its pairs from
    ``rng`` exactly as the i-th of as many one-vector calls would.  Rows
    are sampled one at a time: on the desk grid, batches of 2 to 8 rows
    ran no faster and kept up to 6 MB of temporaries resident.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    if np.ndim(vec) == 2:
        return np.array([
            grid_holder_seminorm(row, grid, m, samples, rng, mask) for row in vec
        ])
    n = grid.n_cells
    a = rng.integers(0, n, samples)
    b = rng.integers(0, n, samples)
    # engineered pairs: a cell and its copy moved to a new bin on one axis;
    # in C order that moves the flat index by the axis's stride
    a2 = rng.integers(0, n, samples)
    axis = rng.integers(0, grid.d, samples)
    new_bin = rng.integers(0, grid.n_bins, samples)
    stride = (grid.n_bins ** np.arange(grid.d - 1, -1, -1))[axis]
    b2 = a2 + (new_bin - a2 // stride % grid.n_bins) * stride
    best = 0.0
    for ca, cb in ((a, b), (a2, b2)):
        dist = grid.rep_distance(ca, cb, m)
        ok = dist > 0.0
        if mask is not None:
            ok &= mask[ca] & mask[cb]
        if np.any(ok):
            quot = np.abs(vec[ca] - vec[cb])[ok] / dist[ok] ** m.beta
            best = max(best, float(np.max(quot)))
    return best


def _iterate_passes(matrix, v: np.ndarray, n_max: int) -> Iterator[np.ndarray]:
    """The iterates matrix^n v for n = 1..n_max of a vector or a column
    block v, in passes: arrays (rows, *v.shape) of consecutive iterates,
    each of at most _SLAB_POINTS values (at least one iterate)."""
    per_pass = max(1, _SLAB_POINTS // v.size)
    dtype = np.result_type(matrix.dtype, v.dtype)
    for lo in range(0, n_max, per_pass):
        block = np.empty((min(per_pass, n_max - lo),) + v.shape, dtype=dtype)
        for i in range(block.shape[0]):
            v = matrix @ v
            block[i] = v
        yield block


# ---------------------------------------------------------------------------
# Lasota-Yorke checker


@dataclass(frozen=True)
class LYRow:
    observable: str
    n: int
    measured: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class LYReport:
    c6: float
    ce: float
    rows: tuple[LYRow, ...]
    all_ok: bool


def check_lasota_yorke(
    op: UlamOperator,
    eigen: EigenData,
    observables: Sequence[Potential],
    n_max: int,
    m: MetricParams,
    ce: float,
    tol: float = 0.05,
    samples: int = 4000,
    rng: np.random.Generator | None = None,
) -> LYReport:
    """Compare measured seminorms of operator iterates against the
    perturbed inequality bound.

    The constant is instantiated from measured seminorms via the recipe
    3|h|_beta + eta^beta/(1-eta^beta) |f|_beta; measured lower bounds sit
    on the left and declared upper bounds on the right, the conservative
    direction.  A violation beyond tol (relative) fails the row.

    Each observable's n_max iterates are stacked, in passes of at most
    _SLAB_POINTS cell values, and sampled by one stacked
    :func:`grid_holder_seminorm` call per pass; the rng draws each
    iterate's pairs in the order of one call per iterate.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    grid = op.grid
    eta = op.node_map.eta
    eta_b = eta ** m.beta
    h_beta = grid_holder_seminorm(eigen.h, grid, m, samples, rng)
    f_beta = estimate_holder_seminorm(
        op.potential, m, grid.k, samples=samples, rng=rng
    )
    c6 = 3.0 * h_beta + eta_b / (1.0 - eta_b) * f_beta
    ce_eta_b = (ce * eta) ** m.beta
    if ce_eta_b >= 1.0:
        raise ValueError(
            f"(C_E eta)^beta = {ce_eta_b} >= 1: outside the contraction regime"
        )
    geom = 1.0 / (1.0 - ce_eta_b)
    reps = grid.reps()
    rows = []
    for phi in observables:
        v = phi.on_array(reps, grid.k)
        measured = [
            value
            for block in _iterate_passes(op.matrix, v, n_max)
            for value in grid_holder_seminorm(block, grid, m, samples, rng).tolist()
        ]
        for n, value in enumerate(measured, start=1):
            bound = (
                phi.declared_beta_norm * ce_eta_b ** n
                + c6 * phi.declared_sup_norm * ce ** m.beta * geom
            )
            rows.append(
                LYRow(
                    observable=phi.name,
                    n=n,
                    measured=value,
                    bound=bound,
                    ok=value <= bound * (1.0 + tol),
                )
            )
    return LYReport(
        c6=c6, ce=ce, rows=tuple(rows), all_ok=all(r.ok for r in rows)
    )


# ---------------------------------------------------------------------------
# conformality


@dataclass(frozen=True)
class ConformalityResult:
    lhs: float
    rhs: float
    ratio: float


def random_admissible_box(
    grid: Grid,
    node_map: NodeMap,
    rng: np.random.Generator,
    min_bins: int = 1,
) -> list[tuple[int, int]]:
    """A random grid-aligned box on which the nodewise map is injective:
    each axis interval sits inside a single monotone branch domain.

    ``min_bins`` keeps the box from being so small that a Monte Carlo
    image-mass estimate is noise-dominated.
    """
    domains = node_map.branch_domains()
    box = []
    for _ in range(grid.d):
        j = int(rng.integers(0, node_map.b))
        lo_bin = math.ceil(domains[j] * grid.n_bins)
        hi_bin = math.floor(domains[j + 1] * grid.n_bins)
        if hi_bin <= lo_bin:
            raise ValueError("grid too coarse to fit a box inside a branch domain")
        if min_bins > hi_bin - lo_bin:
            raise ValueError("min_bins exceeds the widest box fitting a branch domain")
        w = int(rng.integers(min_bins, hi_bin - lo_bin + 1))
        start = int(rng.integers(lo_bin, hi_bin - w + 1))
        box.append((start, start + w))
    return box


def _box_cell_mask(grid: Grid, box: Sequence[tuple[int, int]]) -> np.ndarray:
    mask = np.ones(grid.n_cells, dtype=bool)
    for bins, (lo, hi) in zip(grid._bins, box):
        mask &= (bins >= lo) & (bins < hi)
    return mask


def _points_in_box(pts: np.ndarray, grid: Grid, box: Sequence[tuple[int, int]]) -> np.ndarray:
    inside = np.ones(pts.shape[1], dtype=bool)
    for axis, (lo, hi) in enumerate(box):
        inside &= (pts[axis] >= lo / grid.n_bins) & (pts[axis] < hi / grid.n_bins)
    return inside


# numpy's tolerance on the sum of Generator.choice's probabilities
_P_ATOL = math.sqrt(np.finfo(float).eps)


class _CellSampler:
    """Draws indices from a probability vector p exactly as
    ``rng.choice(p.size, size, p=p)`` does, without its binary search of
    the whole CDF.

    choice draws ``rng.random(size)`` and binary-searches each uniform u in
    the CDF ``p.cumsum() / p.cumsum()[-1]``: the index is the count of CDF
    entries <= u.  This sampler builds the same CDF, raises ValueError with
    choice's message for NaN, negative or non-unit-sum p, draws the same
    uniforms and returns the same indices through a guide table (Chen &
    Asau 1974; Devroye 1986, III.2.4).

    It cuts [0, 1) into m equal buckets, m a power of two at least 4
    p.size, so u*m and j/m are exact and u lies in bucket floor(u*m).  The
    count of entries <= j/m starts every answer in bucket j; the entries
    inside the bucket that are <= u are added by binary lifting, one
    vectorised pass per bit of the largest such count: at most
    ceil(log2 p.size) passes whatever p is.
    """

    def __init__(self, p: np.ndarray) -> None:
        p = np.asarray(p, dtype=float)
        p_sum = float(np.sum(p))
        if math.isnan(p_sum):
            raise ValueError("Probabilities contain NaN")
        if np.any(p < 0.0):
            raise ValueError("Probabilities are not non-negative")
        if abs(p_sum - 1.0) > _P_ATOL:
            raise ValueError("Probabilities do not sum to 1")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        self.m = 1 << (4 * p.size - 1).bit_length()
        edges = np.arange(self.m + 1) / self.m
        self.start = cdf.searchsorted(edges[:-1], side="right")
        widest = int(np.max(cdf.searchsorted(edges[1:], side="left") - self.start))
        self.steps = [1 << bit for bit in reversed(range(widest.bit_length()))]
        # a lifted index runs at most widest - 1 past the last entry; the
        # padding reads 1, above every u
        self.cdf = np.concatenate([cdf, np.ones(widest)])

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        idx = self.start[(u * self.m).astype(np.intp)]
        for step in self.steps:
            idx += (self.cdf[idx + (step - 1)] <= u) * step
        return idx


def _preimage_meets_box(
    pts: np.ndarray, grid: Grid, box: Sequence[tuple[int, int]], node_map: NodeMap
) -> np.ndarray:
    """Whether some nodewise branch preimage of each point (d, n) lies in
    the box.

    The preimages are the full product of per-axis branch choices, so one
    lies in the box exactly when every axis has a branch value inside the
    box's interval on that axis.  A branch is an increasing bijection from
    [0,1) onto its domain [left, right), so its value lies in [lo_x, hi_x)
    exactly when the point lies in the forward image of that interval cut
    to the domain: [F(lo_x), F(hi_x)), with 0 for a cut at left and 1 for
    a cut at right.  Only branches whose domain meets the interval count:
    one per axis on an admissible box.
    """
    lefts = [float(br(np.array(0.0))) for br in node_map.inverse_branches]
    domains = np.array(sorted(lefts) + [1.0])
    rights = domains[np.searchsorted(domains, lefts, side="right")]
    inside = np.ones(pts.shape[1], dtype=bool)
    for axis, (lo, hi) in enumerate(box):
        lo_x, hi_x = lo / grid.n_bins, hi / grid.n_bins
        on_axis = np.zeros(pts.shape[1], dtype=bool)
        for left, right in zip(lefts, rights):
            if left < hi_x and lo_x < right:
                y_lo = 0.0 if lo_x <= left else float(node_map.forward(np.array(lo_x)))
                y_hi = 1.0 if hi_x >= right else float(node_map.forward(np.array(hi_x)))
                on_axis |= (pts[axis] >= y_lo) & (pts[axis] < y_hi)
        inside &= on_axis
    return inside


def check_conformality(
    eigen: EigenData,
    box: Sequence[tuple[int, int]],
    node_map: NodeMap,
    coupling: Coupling | None = None,
    mc_samples: int = 200_000,
    rng: np.random.Generator | None = None,
) -> ConformalityResult:
    """Compare sum over the box of exp(-g) d nu with the Monte Carlo mass
    of the forward image of the box.

    The left side is evaluated on grid cells; the right by drawing samples
    from nu (cells by weight, uniform within) and counting those whose
    pull-back through the coupling -- one product by the precomputed E^-1,
    :meth:`Coupling.invert_on_array` -- lies in [0, 1)^d and has a nodewise
    preimage in the box (:func:`_preimage_meets_box`, no Newton solve).
    Cells are drawn by the eigen-data's guide-table sampler, built once,
    which returns ``rng.choice``'s cells from the same draws; the samples
    then run node-major, one contiguous row per axis.  Injectivity of the
    dynamics on the box is verified by checking that no sampled point has
    two branch preimages inside it.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    grid = eigen.operator.grid
    coupling = coupling or Coupling(kind="diffusive", epsilon=0.0)
    mask = _box_cell_mask(grid, box)
    lhs = float(np.sum(np.exp(-eigen.g[mask]) * eigen.nu[mask]))

    # injectivity probe on uniform samples of the whole cube
    probe = rng.uniform(0.0, _ONE_MINUS, (grid.d, 2000))
    table = branch_preimage_table(probe, node_map)
    counts = np.zeros(probe.shape[1], dtype=int)
    for branch in range(table.shape[0]):
        counts += _points_in_box(table[branch], grid, box)
    if np.any(counts >= 2):
        raise ValueError("dynamics is not injective on the supplied box")

    # Monte Carlo image counting for nu(T box)
    cells = eigen._nu_sampler.draw(rng, mc_samples)
    x = rng.uniform(0.0, 1.0, (grid.d, mc_samples))
    for row, bins in zip(x, grid._bins):
        row += bins[cells]
    x /= grid.n_bins
    y = np.ascontiguousarray(
        coupling.invert_on_array(x.T, grid.k, node_map.p_tau).T
    )
    valid = np.ones(mc_samples, dtype=bool)
    for row in y:
        valid &= row >= 0.0
        valid &= row < 1.0
    # a valid y is below 1, so at most _ONE_MINUS: the box test needs no clip
    hit = _preimage_meets_box(y, grid, box, node_map)
    hit &= valid
    rhs = float(np.mean(hit))
    ratio = lhs / rhs if rhs > 0.0 else math.inf
    return ConformalityResult(lhs=lhs, rhs=rhs, ratio=ratio)


# ---------------------------------------------------------------------------
# operator export


def save_operator(op: UlamOperator, path: str) -> None:
    """Triplet text export: a header line followed by 'row col value' lines."""
    coo = op.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        fh.write(f"# ulam-operator {op.fingerprint()}\n")
        for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{r} {c} {float(v)!r}\n")


def load_operator(path: str) -> UlamOperator:
    """Reload a triplet export; callable metadata is not reconstructed."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# ulam-operator "):
            raise ValueError(f"{path} is not an operator triplet file")
        fields = dict(
            item.split("=", 1) for item in header[len("# ulam-operator "):].split(" ")
            if "=" in item
        )
        rows, cols, vals = [], [], []
        for line in fh:
            r, c, v = line.split()
            rows.append(int(r))
            cols.append(int(c))
            vals.append(float(v))
    grid = Grid(k=int(fields["k"]), n_bins=int(fields["n_bins"]))
    matrix = sp.coo_matrix(
        (vals, (rows, cols)), shape=(grid.n_cells, grid.n_cells)
    ).tocsr()
    return UlamOperator(
        kind=fields["kind"], grid=grid, quad=int(fields["quad"]), matrix=matrix
    )
