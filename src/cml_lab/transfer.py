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
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterator, Sequence

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
    "eval_Pk",
    "check_Pk_cauchy",
    "CauchyReport",
    "ulam_matrix",
    "leading_eigenpair",
    "power_iterate",
    "estimate_holder_seminorm",
    "grid_holder_seminorm",
    "check_lasota_yorke",
    "check_conformality",
    "random_admissible_box",
    "save_operator",
    "load_operator",
]

_ONE_MINUS = np.nextafter(1.0, 0.0)

# Most quadrature points the coupled assembly and the conformality
# integral hold at once.  It bounds their temporaries, so peak memory
# scales with cells and non-zeros, not with the quadrature cloud.
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

    def bin_of(self, values: np.ndarray) -> np.ndarray:
        """Bin index of each coordinate, elementwise."""
        bins = np.floor(np.asarray(values) * self.n_bins).astype(np.int64)
        np.clip(bins, 0, self.n_bins - 1, out=bins)
        return bins

    def cell_of(self, values: np.ndarray) -> np.ndarray:
        """Flat cell index of points given as a (d, n) array."""
        return np.ravel_multi_index(self.bin_of(values), (self.n_bins,) * self.d)

    def reps(self) -> np.ndarray:
        """Cell midpoints, shape (d, n_cells), read-only."""
        return self._reps

    @cached_property
    def _bins(self) -> np.ndarray:
        """Per-axis bin of every cell, shape (d, n_cells), read-only.  The
        smallest unsigned type that holds n_bins, so box bounds compare in
        range; the midpoints and box masks share it."""
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

    Both assemblies run the node map once per quadrature axis.  'P' is the
    Kronecker product of one 1-d factor per node; 'coupled' reads the node
    map and the potential's node terms at the quadrature points, slab by
    slab, from per-axis tables, and its matrix is that of one all-at-once
    assembly, to the byte.
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
        if eigen.operator.quad != quad:
            raise ValueError(
                f"eigen-data quad={eigen.operator.quad} does not match the "
                f"requested quad={quad}"
            )
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


def _quad_axis(grid: Grid, quad: int) -> np.ndarray:
    """The 1-d quadrature axis: midpoints of n_bins*quad equal intervals."""
    fine = grid.n_bins * quad
    return (np.arange(fine) + 0.5) / fine


def _quad_slabs(
    grid: Grid, quad: int, max_points: int
) -> Iterator[tuple[tuple[slice, ...], np.ndarray]]:
    """Midpoint-refined quadrature, quad**d points per cell, in slabs.

    The points are the C-order product of d copies of the quadrature axis.
    A slab holds at most ``max_points`` points (at least one): it fixes
    every axis before a cut axis to one point, takes a run of the cut axis
    and all of every later axis, the cut being the first axis whose later
    axes fit.  Slabs are yielded in point order, as their per-axis slices
    of the axis with the parent cells (M,) of their points.
    """
    d, fine = grid.d, grid.n_bins * quad
    cut = next(a for a in range(d) if fine ** (d - 1 - a) <= max_points)
    step = max(1, max_points // fine ** (d - 1 - cut))
    rest = (slice(0, fine),) * (d - 1 - cut)
    # an axis point's bin times the axis's stride in the flat cell index
    strided = [np.arange(fine) // quad * grid.n_bins ** (d - 1 - a) for a in range(d)]
    for lead in np.ndindex((fine,) * cut):
        fixed = tuple(slice(i, i + 1) for i in lead)
        for lo in range(0, fine, step):
            axes = fixed + (slice(lo, lo + step),) + rest
            yield axes, _axis_sum(strided, axes)


def _axis_views(tables: Sequence[np.ndarray], axes: tuple[slice, ...]) -> list:
    """tables[a][axes[a]], shaped to broadcast along axis a of a slab."""
    return [
        t[s].reshape((-1,) + (1,) * (len(axes) - 1 - a))
        for a, (t, s) in enumerate(zip(tables, axes))
    ]


def _on_slab(tables: Sequence[np.ndarray], axes: tuple[slice, ...]) -> np.ndarray:
    """Per-axis tables read at a slab's points, shape (d, M)."""
    views = np.broadcast_arrays(*_axis_views(tables, axes))
    return np.stack(views).reshape(len(axes), -1)


def _axis_sum(tables: Sequence[np.ndarray], axes: tuple[slice, ...]) -> np.ndarray:
    """Per-axis tables read at a slab's points and summed first axis to
    last, shape (M,): np.sum(_on_slab(...), axis=0) without the (d, M) array."""
    return reduce(np.add, _axis_views(tables, axes)).reshape(-1)


def _assemble_p_matrix(
    grid: Grid, node_map: NodeMap, potential: Potential, quad: int
) -> sp.csr_matrix:
    """Raw branch-weight matrix: the Kronecker product of one 1-d Ulam
    factor per node, node -k the slowest axis as in the C-order cell index.

    The potential is a sum of node terms, so a point's branch weight
    exp(f(pre)) / (b**d quad**d) is the product over nodes of
    exp(term_j(pre_j)) / (b quad), and the sum over the b**d branch
    choices factors node by node.  Factor j's rows are the bins of the
    quadrature axis points, its columns the bins of their preimages under
    each inverse branch, which runs once, on the axis.  The result is in
    canonical CSR form: sorted indices, duplicates summed.
    """
    axis = _quad_axis(grid, quad)
    pre = np.concatenate([br(axis) for br in node_map.inverse_branches])
    rows = np.tile(np.arange(axis.size) // quad, node_map.b)
    cols = grid.bin_of(pre)
    weight = 1.0 / (node_map.b * quad)
    factors = [
        sp.coo_matrix(
            (np.exp(potential.node_term(j, pre, grid.k)) * weight, (rows, cols)),
            shape=(grid.n_bins, grid.n_bins),
        ).tocsr()
        for j in range(-grid.k, grid.k + 1)
    ]
    matrix = reduce(lambda a, b: sp.kron(a, b, format="csr"), factors)
    matrix.sum_duplicates()
    return matrix


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

    The node map, its log-derivative and the potential's node terms run
    once, on the quadrature axis, and are read from those tables, summed
    from node -k to node k as :meth:`Potential.on_array` sums them; the
    coupling step and the image cells are evaluated per point.
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
    axis = _quad_axis(grid, quad)
    forward = node_map.forward(axis)
    log_deriv = np.log(node_map.forward_deriv(axis))
    terms = [potential.node_term(j, axis, grid.k) for j in range(-grid.k, grid.k + 1)]
    start = 0
    for axes, parent in _quad_slabs(grid, quad, _SLAB_POINTS):
        stop = start + parent.size
        fwd = _on_slab([forward] * grid.d, axes)
        images = coupling.apply_to_array(fwd.T, grid.k, node_map.p_tau).T
        np.clip(images, 0.0, _ONE_MINUS, out=images)
        rows[start:stop] = grid.cell_of(images)
        cols[start:stop] = parent
        log_det = _axis_sum([log_deriv] * grid.d, axes)
        log_det += log_det_e
        np.divide(
            np.exp(_axis_sum(terms, axes) + log_det),
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
# seminorm estimators


def estimate_holder_seminorm(
    phi: Potential,
    m: MetricParams,
    k: int,
    samples: int = 2000,
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
) -> float:
    """Sampled lower bound on the Hoelder seminorm of a cell function,
    using cell midpoints as representatives (complex values allowed).
    """
    rng = np.random.default_rng(0) if rng is None else rng
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
        if np.any(ok):
            quot = np.abs(vec[ca] - vec[cb])[ok] / dist[ok] ** m.beta
            best = max(best, float(np.max(quot)))
    return best


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
        for n in range(1, n_max + 1):
            v = op.matrix @ v
            value = grid_holder_seminorm(v, grid, m, samples, rng)
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

    ``min_bins`` is the narrowest axis interval drawn, in bins.
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


def _box_image(
    grid: Grid, box: Sequence[tuple[int, int]], node_map: NodeMap
) -> list[tuple[float, float]]:
    """The nodewise image of a box, one interval [F(lo), F(hi)) per axis.

    Each axis interval [lo, hi) must lie in one monotone branch domain
    [left, right), where the map is injective: otherwise ValueError.  The
    branch's inverse is an increasing bijection from [0,1) onto the
    domain, so the interval's image is [F(lo), F(hi)), read as 0 at a cut
    at left and 1 at a cut at right.
    """
    domains = node_map.branch_domains()
    image = []
    for lo, hi in box:
        if not lo < hi:
            raise ValueError(f"box axis interval [{lo}, {hi}) is empty")
        lo_x, hi_x = lo / grid.n_bins, hi / grid.n_bins
        j = int(np.searchsorted(domains, lo_x, side="right")) - 1
        if not (0 <= j < node_map.b and hi_x <= domains[j + 1]):
            raise ValueError("dynamics is not injective on the supplied box")
        y_lo = 0.0 if lo_x == domains[j] else float(node_map.forward(np.array(lo_x)))
        y_hi = 1.0 if hi_x == domains[j + 1] else float(node_map.forward(np.array(hi_x)))
        image.append((y_lo, y_hi))
    return image


def check_conformality(
    eigen: EigenData,
    box: Sequence[tuple[int, int]],
    node_map: NodeMap,
    coupling: Coupling | None = None,
) -> ConformalityResult:
    """Compare sum over the box of exp(-g) d nu with the nu-mass of the
    image of the box under the coupled step.

    The left side is evaluated on grid cells.  The right side is the
    change of variables x = E y + c of the coupling, as in the coupled
    assembly: nu(T B) = |det E| * integral over tau B of rho(E y + c) dy,
    where rho = n_cells * nu_c / sum(nu) on cell c and tau B is the
    product of the per-axis images of :func:`_box_image`.  The integral
    is a midpoint rule on n_bins * quad points per unit length of each
    axis, quad being the eigen-data operator's, taken in passes of at most
    _SLAB_POINTS points.  A NaN, infinite, negative or zero-sum nu raises
    ValueError.
    """
    grid = eigen.operator.grid
    coupling = coupling or Coupling(kind="diffusive", epsilon=0.0)
    nu_sum = float(np.sum(eigen.nu))
    if not (math.isfinite(nu_sum) and nu_sum > 0.0) or np.any(eigen.nu < 0.0):
        raise ValueError("nu must be finite and non-negative, with a positive sum")
    mask = _box_cell_mask(grid, box)
    lhs = float(np.sum(np.exp(-eigen.g[mask]) * eigen.nu[mask]))

    fine = grid.n_bins * eigen.operator.quad
    weight = abs(np.linalg.det(coupling.dense_matrix(grid.k)))
    axes = []
    for y_lo, y_hi in _box_image(grid, box, node_map):
        n = math.ceil((y_hi - y_lo) * fine)
        step = (y_hi - y_lo) / n
        axes.append(y_lo + (np.arange(n) + 0.5) * step)
        weight *= step
    rho = eigen.nu * (grid.n_cells / nu_sum)
    shape = tuple(a.size for a in axes)
    n_pts = math.prod(shape)
    total = 0.0
    for lo in range(0, n_pts, _SLAB_POINTS):
        idx = np.unravel_index(np.arange(lo, min(lo + _SLAB_POINTS, n_pts)), shape)
        y = np.stack([a[i] for a, i in zip(axes, idx)])
        x = coupling.apply_to_array(y.T, grid.k, node_map.p_tau).T
        total += float(np.sum(rho[grid.cell_of(x)]))
    rhs = weight * total
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
