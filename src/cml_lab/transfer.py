"""Pointwise and discretized transfer operators on lattice windows.

The pointwise operator averages an observable over the b**(2k+1) inverse
branches of the nodewise map, weighted by the exponential of a potential;
both are sums of node terms, so the average is built from per-node factors.
The discretized version is an Ulam-type sparse matrix over a tensor grid
of half-open cells, assembled by midpoint-refined quadrature of the
branch sum, from which the leading eigen-triple (growth rate,
eigenfunction, eigen-measure) is extracted by power iteration.
"""

from __future__ import annotations

import dataclasses
import math
import queue
import threading
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterator, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from ._shares import cpus, run_shares, share_count, split
from .lattice import Coupling, MetricParams, NodeMap, Potential

__all__ = [
    "Grid",
    "UlamOperator",
    "EigenData",
    "eval_Pk",
    "check_Pk_cauchy",
    "CauchyReport",
    "ulam_matrix",
    "assembly_shares",
    "leading_eigenpair",
    "nodewise_eigenpair",
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

# Most quadrature points the coupled assembly (at least one cell's) holds
# at once, and the points of one pass of the conformality integral (whose
# rows hold at most three passes' points).  It bounds their temporaries, so
# peak memory scales with cells and non-zeros, not with the quadrature cloud.
_SLAB_POINTS = 1 << 16

# Fewest quadrature points per share of the coupled assembly worth a
# forked worker: fine's 7.08M points take two shares, desk's 262k one.
_SHARE_POINTS = 1 << 20

# Fewest non-zeros of a CSR matrix that _SplitBlock multiplies in two row
# halves on two threads: fine's 1.60M (raw) and 1.41M take them, desk's
# 63k and 97k ('P') do not.
_SPLIT_NNZ = 1 << 20

# Rows the normalization scales at once: its temporaries are a run of
# rows' scale factors and sums, not a vector of the grid's size or one
# row index per non-zero.
_ROW_CHUNK = 1 << 10

# Largest int64 (row, point) sort key of the coupled assembly, and largest
# cell index and non-zero count of the int32 index arrays scipy keeps.
_KEY_MAX = np.iinfo(np.int64).max
_INDEX_MAX = np.iinfo(np.int32).max


# ---------------------------------------------------------------------------
# pointwise operators


def eval_Pk(
    phi: Potential,
    f: Potential,
    values: np.ndarray,
    k: int,
    node_map: NodeMap,
) -> float | np.ndarray:
    """Branch-sum average (1/b_k) sum_zeta exp(f(zeta_x)) phi(zeta_x).

    ``values`` are node-major window values of half-width m: shape
    (2m+1,) for one state, which gives a float, or (2m+1, n) for n states,
    which gives n values.  The operator at width k only sees the central
    2k+1 nodes: a wider window is cut to them, a narrower one padded with
    p_tau.  f and phi are sums of node terms and a branch choice is one
    branch per node, so the average factors node by node: with A_j the
    branch mean of exp(f_j) and B_j that of exp(f_j) phi_j at node j,

        P_k phi(x) = exp(sum_j log A_j) * sum_j B_j / A_j,

    d*b terms in place of b**d, one pass over the nodes for all states.
    Each node's weights are shifted by their largest exponent, which
    cancels in B_j / A_j, so no weight overflows however large the
    potential.
    """
    values = np.asarray(values, dtype=float)
    if k < 0 or values.ndim not in (1, 2) or values.shape[0] % 2 == 0:
        raise ValueError(
            f"eval_Pk needs k >= 0 and an odd number of node rows, got k={k} "
            f"and values of shape {values.shape}"
        )
    if np.any(values < 0.0) or np.any(values >= 1.0):
        raise ValueError("window values must lie in [0, 1)")
    window = values.reshape(values.shape[0], -1)
    m, n = (window.shape[0] - 1) // 2, window.shape[1]
    if m >= k:
        window = window[m - k : m + k + 1]
    else:
        window = np.pad(window, [(k - m, k - m), (0, 0)], constant_values=node_map.p_tau)
    b = node_map.b
    # (d, b, n): node j's branch preimages of every state
    pre = np.stack([br(window) for br in node_map.inverse_branches], axis=1)
    log_a, ratio = np.zeros(n), np.zeros(n)
    for j, node in zip(range(-k, k + 1), pre):
        flat = node.reshape(-1)
        exponent = f.node_term(j, flat, k).reshape(b, n)
        top = np.max(exponent, axis=0)
        weights = np.exp(exponent - top)
        a = np.mean(weights, axis=0)
        log_a += top + np.log(a)
        ratio += np.mean(weights * phi.node_term(j, flat, k).reshape(b, n), axis=0) / a
    out = np.exp(log_a) * ratio
    return float(out[0]) if values.ndim == 1 else out


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

    Each evaluation costs (2k+1)*b node terms, so the cost grows linearly
    in k.  The samples are states of half-width k_max + 1, each width
    evaluated on their central nodes in one pass.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    rng = np.random.default_rng(0) if rng is None else rng
    wide = k_max + 1
    # node-major (2 wide + 1, samples): sample i is row i of the draw
    values = rng.uniform(0.0, _ONE_MINUS, (samples, 2 * wide + 1)).T
    evals = [eval_Pk(phi, f, values, k, node_map) for k in range(k_max + 1)]
    diffs = [float(np.max(np.abs(evals[k + 1] - evals[k]))) for k in range(k_max)]
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

    def budget_violation(self, cell_budget: int) -> str | None:
        """Why the grid is over ``cell_budget`` cells, or None.  The cell
        count is formed only up to a power that exceeds the budget, so a
        wide window costs nothing and its count prints as n_bins^d."""
        cap = max(cell_budget, 1).bit_length() + 1
        if self.n_bins ** min(self.d, cap) <= cell_budget:
            return None
        cells = self.n_cells if self.d <= cap else f"{self.n_bins}^{self.d}"
        return (
            f"grid needs {cells} cells, over the budget of {cell_budget}; "
            f"raise cell_budget to at least {cells} to proceed"
        )

    def bin_of(self, values: np.ndarray) -> np.ndarray:
        """Bin index of each coordinate, elementwise."""
        values = np.asarray(values)
        # the cast truncates: the floor of a non-negative product, and the
        # clip puts a negative one in bin 0 either way
        bins = np.multiply(
            values, self.n_bins, out=np.empty(values.shape, dtype=np.int64),
            casting="unsafe",
        )
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
    eigen-triple of 'P', fixes the constants) or 'coupled' (normalized
    transfer operator of the full coupled step: nodewise map followed by
    the coupling).  A normalized operator built by :func:`ulam_matrix`
    carries in ``eigen`` the triple it was normalized by.
    """

    kind: str
    grid: Grid
    quad: int
    matrix: sp.csr_matrix
    node_map: NodeMap | None = None
    potential: Potential | None = None
    coupling: Coupling | None = None
    eigen: "EigenData | None" = None

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

    'P' needs a potential; 'L' needs the eigen-triple of the matching 'P'
    operator (:func:`nodewise_eigenpair`): the normalized matrix is
    diag(1/Mv) M diag(v), M the matrix of 'P' and v its right
    eigenvector, so its rows sum to one.  'coupled' needs the coupling and
    a potential, discretizes the transfer operator of the full coupled
    step by forward images, and is normalized the same way by the triple
    of that raw matrix.  The coupling is not surjective on the finite
    window -- it maps the cube onto a strictly smaller parallelepiped --
    so cells outside its range have no preimages: their rows stay empty,
    and v vanishes there.  Both normalized kinds carry their triple.  Both
    assemblies (:func:`_assemble_p_matrix`, :func:`_assemble_coupled_matrix`)
    run the node map once per quadrature axis.
    """
    grid = Grid(k=k, n_bins=n_bins)
    over = grid.budget_violation(cell_budget)
    if over:
        raise MemoryError(over)
    if kind == "P":
        if potential is None:
            raise ValueError("kind 'P' needs a potential")
        matrix = _assemble_p_matrix(grid, node_map, potential, quad).tocsr()
        return UlamOperator(
            kind="P", grid=grid, quad=quad, matrix=matrix,
            node_map=node_map, potential=potential,
        )
    if kind == "L":
        if eigen is None or eigen.operator is None:
            raise ValueError("kind 'L' needs eigen-data of the 'P' operator")
        if eigen.operator.grid != grid:
            raise ValueError("eigen-data grid does not match the requested grid")
        if eigen.operator.quad != quad:
            raise ValueError(
                f"eigen-data quad={eigen.operator.quad} does not match the "
                f"requested quad={quad}"
            )
        return _normalized("L", eigen)
    if kind == "coupled":
        if coupling is None:
            raise ValueError("kind 'coupled' needs a coupling")
        if potential is None:
            raise ValueError("kind 'coupled' needs a potential")
        raw = UlamOperator(
            kind="coupled", grid=grid, quad=quad,
            matrix=_assemble_coupled_matrix(grid, node_map, potential, coupling, quad),
            node_map=node_map, potential=potential, coupling=coupling,
        )
        # the raw matrix is this call's own: it is normalized in place
        return _normalized("coupled", leading_eigenpair(raw), in_place=True)
    raise ValueError(f"unknown operator kind {kind!r}")


def _quad_axis(grid: Grid, quad: int) -> np.ndarray:
    """The 1-d quadrature axis: midpoints of n_bins*quad equal intervals."""
    fine = grid.n_bins * quad
    return (np.arange(fine) + 0.5) / fine


def _slab_cells(grid: Grid, quad: int, max_points: int) -> int:
    """Cells per slab of :func:`_cell_slabs`: as many whole cells as
    max_points holds, and at least one."""
    return max(1, max_points // quad ** grid.d)


def _cell_slabs(
    grid: Grid, quad: int, max_points: int, slabs: range | None = None
) -> Iterator[list[np.ndarray]]:
    """Midpoint-refined quadrature, quad**d points per cell, in slabs of
    whole cells.

    A slab is a run of consecutive cells, at most max_points // quad**d of
    them and at least one, with all quad**d points of each.  Yields, per
    slab of n cells, the index on the quadrature axis of each coordinate
    of its points, bin * quad + offset, as one array per axis: axis a's
    has shape (1, ..., quad, ..., 1, n), quad on dimension a, so the d
    arrays broadcast to the slab's points, shape (quad, ..., quad, n):
    a cell's points in C order down a column, the cells in order along
    the last dimension, which a broadcast operation runs its inner loop
    over.  Every slab, or those numbered in ``slabs``.
    """
    d = grid.d
    offsets = [
        np.arange(quad).reshape((1,) * a + (quad,) + (1,) * (d - a)) for a in range(d)
    ]
    step = _slab_cells(grid, quad, max_points)
    if slabs is None:
        slabs = range(-(-grid.n_cells // step))
    for lo in range(slabs.start * step, min(slabs.stop * step, grid.n_cells), step):
        cells = np.arange(lo, min(lo + step, grid.n_cells))
        bins = np.unravel_index(cells, (grid.n_bins,) * d)
        yield [b * quad + o for b, o in zip(bins, offsets)]


def _assemble_p_matrix(
    grid: Grid, node_map: NodeMap, potential: Potential, quad: int
) -> "_Kronecker":
    """Raw branch-weight matrix, held as the Kronecker product of one 1-d
    Ulam factor per node, node -k the slowest axis as in the cell index.

    The potential is a sum of node terms, so a point's branch weight
    exp(f(pre)) / (b**d quad**d) is the product over nodes of
    exp(term_j(pre_j)) / (b quad), and the sum over the b**d branch
    choices factors node by node.  Factor j's rows are the bins of the
    quadrature axis points, its columns the bins of their preimages under
    each inverse branch, which runs once, on the axis.
    """
    axis = _quad_axis(grid, quad)
    pre = np.concatenate([br(axis) for br in node_map.inverse_branches])
    rows = np.tile(np.arange(axis.size) // quad, node_map.b)
    cols = grid.bin_of(pre)
    weight = 1.0 / (node_map.b * quad)
    return _Kronecker([
        sp.coo_matrix(
            (np.exp(potential.node_term(j, pre, grid.k)) * weight, (rows, cols)),
            shape=(grid.n_bins, grid.n_bins),
        ).tocsr()
        for j in range(-grid.k, grid.k + 1)
    ])


class _Kronecker(NamedTuple):
    """The Kronecker product of square CSR factors, the first the slowest
    axis, held as them: a product with a vector applies each factor along
    its own axis of the vector read as a grid; :meth:`tocsr` forms it in
    canonical CSR form, a new matrix whatever ``copy`` says."""

    factors: list[sp.csr_matrix]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = np.asarray(x).reshape([f.shape[0] for f in self.factors])
        for axis, factor in enumerate(self.factors):
            front = np.moveaxis(y, axis, 0)
            y = np.moveaxis((factor @ front.reshape(len(front), -1)).reshape(front.shape), 0, axis)
        return y.reshape(-1)

    def tocsr(self, copy: bool = True) -> sp.csr_matrix:
        matrix = reduce(lambda a, b: sp.kron(a, b, format="csr"), self.factors)
        matrix.sum_duplicates()
        return matrix


def _normalized(kind: str, eigen: "EigenData", in_place: bool = False) -> UlamOperator:
    """The operator the triple (lam, v) of the raw matrix M was solved
    for, normalized by it, as ``kind``, carrying the triple without M:
    diag(1/Mv) M diag(v), which is diag(1/v) M diag(v) / lam with the
    eigen-solve's residual divided out, so every row sums to one; the rows
    and columns of the cells where v = 0 are left empty.  One pass,
    _ROW_CHUNK rows at a time (no vector of the grid's size): each stored
    entry times v of its column, then each row, summed as ``sum(axis=1)``
    sums it, times the reciprocal of its sum (0 for a zero sum); vanished
    entries are dropped at the end.  With ``in_place`` M itself is scaled:
    only a caller that owns the raw operator and drops it may ask that; a
    'P' held as its factors is formed anew (:meth:`_Kronecker.tocsr`)."""
    raw, v = eigen.operator, eigen.v
    mat = raw.matrix.tocsr(copy=not in_place)
    for lo in range(0, mat.shape[0], _ROW_CHUNK):
        starts = mat.indptr[lo : lo + _ROW_CHUNK + 1]
        part = slice(starts[0], starts[-1])
        data = mat.data[part]
        data *= v[mat.indices[part]]
        counts = np.diff(starts)
        filled = np.flatnonzero(counts)
        sums = np.zeros(counts.size)
        sums[filled] = np.add.reduceat(data, starts[filled] - starts[0])
        data *= np.repeat(np.divide(1.0, sums, out=sums, where=sums > 0.0), counts)
    mat.eliminate_zeros()
    return dataclasses.replace(
        raw, kind=kind, matrix=mat, eigen=dataclasses.replace(eigen, operator=None)
    )


def _assemble_coupled_matrix(
    grid: Grid, node_map: NodeMap, potential: Potential,
    coupling: Coupling, quad: int,
) -> sp.csr_matrix:
    """Raw Ulam matrix of the coupled-step transfer operator.

    The matrix is assembled from forward images: every quadrature point z
    of a source cell contributes weight exp(f(z))|det DT(z)| / b**d to the
    cell holding its image under the coupled step T.  This is the
    change-of-variables form of the preimage sum, in the 1/b-per-node
    convention of 'P', and it keeps the mass on the range of the coupling
    without ever inverting it.  For b = 2 the 1/b**d is a power of two,
    so it moves no bits of the normalized matrix.

    The node map, its log-derivative and the potential's node terms run
    once, on the quadrature axis.  A slab's points are the broadcast of
    one index array per axis (:func:`_cell_slabs`), and every per-point
    quantity is formed on the axes it reads: the tables are read at their
    own axis's indices, and the sums of node terms and of log-derivatives
    run from node -k to node k, as :meth:`Potential.on_array` sums, so
    only their last sum is over every point.  Node j's image coordinate
    (:meth:`Coupling.node_image`) and its bin (:meth:`Grid.bin_of`) are
    formed on the axes j-1, j and j+1, and the bins times their cell
    strides add up to each point's image cell, bit for bit the cells of
    the coupled step applied to whole points.  A slab of whole cells owns
    its columns: each entry is the sum of its points' weights in point
    order (the cell's points in C order).  The slabs are split into the
    contiguous runs of :func:`assembly_shares`, each other than the first
    computed by a forked worker.  A share copies each slab's CSC column
    block into one (counts, data, indices) triple as it is made, so memory
    holds the matrix and one slab, not the quadrature cloud or a heap of
    per-slab blocks, and a worker sends three arrays.  The triples are
    joined in share order, so the matrix has the same bytes for any
    number of shares.
    """
    if node_map.forward_deriv is None:
        raise ValueError(
            f"node map {node_map.name!r} has no forward derivative; "
            "the coupled assembly needs it for the change of variables"
        )
    n, per_cell = grid.n_cells, quad ** grid.d
    if n * per_cell - 1 > _KEY_MAX or n - 1 > _INDEX_MAX:
        raise MemoryError(
            f"{n} cells of {per_cell} points overflow the coupled assembly's "
            f"index types: its (row, point) keys reach n_cells * quad**d - 1 "
            f"= {n * per_cell - 1}, over {_KEY_MAX}, or its cell indices "
            f"{n - 1}, over {_INDEX_MAX}"
        )
    log_det_e = math.log(abs(np.linalg.det(coupling.dense_matrix(grid.k))))
    axis = _quad_axis(grid, quad)
    forward = node_map.forward(axis)
    log_deriv = np.log(node_map.forward_deriv(axis))
    terms = [potential.node_term(j, axis, grid.k) for j in range(-grid.k, grid.k + 1)]
    scale = (node_map.b * quad) ** grid.d
    # a point's sort key, image cell * quad**d + point, is its point number
    # plus each node's bin times that node's cell stride times quad**d
    key_strides = [grid.n_bins ** (grid.d - 1 - j) * per_cell for j in range(grid.d)]
    point = np.arange(per_cell).reshape((quad,) * grid.d + (1,))

    def column_block(idx):
        """Row counts, data and row indices of a slab's columns, from its
        per-axis indices."""
        n = idx[0].shape[-1]
        shape = point.shape[:-1] + (n,)
        # the slab's full-size arrays are rows of one block, which the C
        # allocator hands back to the next slab, where separate arrays'
        # pages go back to the system and fault in anew (a cold one-share
        # fine assembly: 8.6k minor faults, 45k-95k with separate arrays)
        work = np.empty((5, n * per_cell))
        weight, log_det = (w.reshape(shape) for w in work[:2])
        key = work[2].view(np.int64).reshape(shape)
        order, rows = (w.view(np.int64).reshape(n, per_cell) for w in work[3:])
        # sums from node -k to node k, each node's operand read on its own
        # axis: only the last sum of each runs over every point
        _sum_into(weight, [t[i] for t, i in zip(terms, idx)])
        _sum_into(log_det, [log_deriv[i] for i in idx])
        log_det += log_det_e
        weight += log_det
        np.exp(weight, out=weight)
        weight /= scale
        # node j's image coordinate reads the axes j-1, j and j+1 only
        values = [forward[i] for i in idx]
        key[...] = point
        for j, stride in enumerate(key_strides):
            bins = grid.bin_of(coupling.node_image(values, j, node_map.p_tau))
            bins *= stride
            key += bins
        # one row of keys per cell, sorted: each column's rows in CSC
        # order, and each entry's points in point order, the order
        # bincount sums them in
        order[...] = key.reshape(per_cell, n).T
        order.sort(axis=1)
        np.floor_divide(order, per_cell, out=rows)
        # point p of cell c is weight's entry p * n + c
        order -= rows * per_cell
        order *= n
        order += np.arange(n)[:, None]
        new = np.ones(rows.shape, dtype=bool)
        np.not_equal(rows[:, 1:], rows[:, :-1], out=new[:, 1:])
        # each point's entry, counted from 0 in slab order: a cell's
        # entries end at its last point's
        entry = np.cumsum(new).reshape(n, per_cell)
        entry -= 1
        data = np.bincount(entry.ravel(), weights=weight.ravel()[order.ravel()])
        counts = np.diff(entry[:, -1], prepend=-1)
        return counts, data, rows[new].astype(np.int32)

    def share_blocks(slabs):
        """The column blocks of a run of slabs, copied into one (counts,
        data, indices) triple as each is made, in slab order."""
        triple = [np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int32)]
        used = [0, 0, 0]
        for idx in _cell_slabs(grid, quad, _SLAB_POINTS, slabs):
            for i, block in enumerate(column_block(idx)):
                end = used[i] + block.size
                if end > triple[i].size:
                    # in place, by realloc: a large array's pages are
                    # remapped, not copied, and the spare tail is not touched
                    triple[i].resize(max(end, 2 * triple[i].size), refcheck=False)
                triple[i][used[i] : end] = block
                used[i] = end
            _check_nnz(used[1])
        for array, size in zip(triple, used):
            array.resize(size, refcheck=False)
        return None, triple

    counts, data, indices = zip(*(
        arrays for _, arrays in run_shares(
            assembly_shares(grid, quad), share_blocks, "the assembly worker for slabs"
        )
    ))
    _check_nnz(sum(share.size for share in data))
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    # each kind's share arrays are freed as the array that joins them is made
    del counts
    data = np.concatenate(data)
    indices = np.concatenate(indices)
    # rows come out sorted and free of duplicates, so nothing is summed
    return sp.csc_matrix((data, indices, indptr), shape=(n, n)).tocsr()


def _sum_into(out: np.ndarray, operands: list[np.ndarray]) -> None:
    """out[...] = reduce(np.add, operands): the operands broadcast and
    added left to right, only the last sum written over out's shape."""
    if len(operands) == 1:
        out[...] = operands[0]
    else:
        np.add(reduce(np.add, operands[:-1]), operands[-1], out=out)


def _check_nnz(nnz: int) -> None:
    """MemoryError if scipy's int32 index arrays cannot hold nnz entries."""
    if nnz > _INDEX_MAX:
        raise MemoryError(
            f"the coupled matrix has at least {nnz} non-zeros, more than "
            f"scipy's int32 index arrays hold ({_INDEX_MAX})"
        )


def assembly_shares(grid: Grid, quad: int) -> list[range]:
    """The contiguous runs of slabs the coupled assembly of ``grid`` is
    split into, each run by its own process: as many as the CPUs this
    process may run on, capped by ``CML_LAB_THREADS`` when set, by one
    share per _SHARE_POINTS quadrature points and by the slabs.  One share
    (always, without ``os.fork``) runs in this process alone."""
    n_slabs = -(-grid.n_cells // _slab_cells(grid, quad, _SLAB_POINTS))
    points = grid.n_cells * quad ** grid.d
    return split(n_slabs, share_count(min(points // _SHARE_POINTS, n_slabs)))


# Stop rule and step cap of power_iterate.
_POWER_TOL = 1e-13
_POWER_STEPS = 100_000


class PowerIteration(NamedTuple):
    """How :func:`power_iterate` ended: the eigenvalue, the eigenvector
    (summing to one), the steps taken and the last step's sup-change."""

    lam: float | complex
    v: np.ndarray
    steps: int
    change: float


def power_iterate(matrix) -> PowerIteration:
    """Dominant eigenvalue and right eigenvector of a square matrix, real
    or complex, by power iteration.

    Starts from the constant vector 1/n and rescales every iterate to sum
    one, so the eigenvalue is the sum of the product.  Stops once the
    sup-change is at most _POWER_TOL times the iterate's sup norm; raises
    at the first non-finite sup-change, and with the final change after
    _POWER_STEPS steps.
    """
    v = np.full(matrix.shape[0], 1.0 / matrix.shape[0])
    for step in range(1, _POWER_STEPS + 1):
        w = matrix @ v
        lam = w.sum()
        w /= lam
        delta = float(np.max(np.abs(w - v)))
        if not math.isfinite(delta):
            raise RuntimeError(f"power iteration: sup-change {delta} at step {step}")
        v = w
        if delta <= _POWER_TOL * float(np.max(np.abs(v))):
            return PowerIteration(lam, v, step, delta)
    raise RuntimeError(
        f"power iteration did not converge in {_POWER_STEPS} steps; "
        f"final sup-change {delta:.3e}"
    )


# ---------------------------------------------------------------------------
# eigen-data


@dataclass(frozen=True)
class EigenData:
    """Leading eigen-triple of a raw Ulam matrix M ('P', or the coupled
    matrix before its normalization).

    lam is the leading eigenvalue; v the right eigenvector as power
    iteration returns it (summing to one), zero off the reachable cells;
    nu the probability eigenvector of the adjoint, the conformal measure,
    positive on the whole grid; and mu = h*nu, normalized, the invariant
    probability vector of the normalized operator diag(1/Mv) M diag(v),
    which carries the triple with ``operator``, the raw one, set to None.
    ``v_iteration`` and ``nu_iteration`` are the (steps, final sup-change)
    of the power iterations, the factors' worst for 'P' (None for a triple
    built by hand).
    """

    lam: float
    v: np.ndarray
    nu: np.ndarray
    mu: np.ndarray
    operator: UlamOperator | None
    v_iteration: tuple[int, float] | None = None
    nu_iteration: tuple[int, float] | None = None

    @property
    def h(self) -> np.ndarray:
        """The eigenfunction: v scaled so that nu(h) = 1."""
        return self.v / (self.nu @ self.v)


class _SplitBlock:
    """``matrix`` on the rows and columns ``cells`` (increasing), applied
    without a copy of that block: the iterate is loaded onto a whole-grid
    source that stays zero off the cells, multiplied, and the cells'
    entries are gathered.  Each entry of the product adds the block's
    terms in the matrix's stored order, and a +0.0 for each source off the
    cells, so a matrix with sorted indices, CSR or CSC, gives the bits of
    the explicit block ``matrix[cells][:, cells]`` in CSR form.

    A CSR matrix of at least _SPLIT_NNZ non-zeros is cut in the two row
    halves of :func:`_row_halves`; any other matrix is one part.  A part's
    cells are a contiguous span of the block (``spans``), and :meth:`run`
    runs a function on each part: ``with`` starts a helper thread that
    runs the second part of every call while the caller runs the first,
    when there are two parts and two CPUs are allowed (``threads``), and
    joins it on the way out.  A product takes two such calls, one that
    loads each part of the iterate and one that multiplies each part's
    rows (scipy's sparse product releases the interpreter lock), and the
    gap solve runs its vector work the same way.  Each row's sum, and so
    the product, is the same on one thread or two.
    """

    def __init__(self, matrix: sp.spmatrix, cells: np.ndarray):
        self.shape = (cells.size, cells.size)
        self.dtype = matrix.dtype
        if matrix.format == "csr" and matrix.nnz >= _SPLIT_NNZ:
            self._parts = _row_halves(matrix, cells)
        else:
            self._parts = [(matrix, cells)]
        first = self._parts[0][1].size
        self.spans = [slice(0, first), slice(first, cells.size)][: len(self._parts)]
        self._source = np.zeros(matrix.shape[1], dtype=matrix.dtype)
        whole = cells.size == matrix.shape[1]
        self._targets = self.spans if whole else [cells[span] for span in self.spans]
        self._helper = None

    @property
    def threads(self) -> int:
        """The threads :meth:`run` runs the parts on: 2 while the helper runs."""
        return 1 if self._helper is None else 2

    def __enter__(self) -> "_SplitBlock":
        if len(self._parts) == 2 and cpus() >= 2:
            self._tasks, self._results = queue.SimpleQueue(), queue.SimpleQueue()
            self._helper = threading.Thread(target=self._serve, daemon=True)
            self._helper.start()
        return self

    def __exit__(self, *exc) -> None:
        if self._helper is not None:
            self._tasks.put(None)
            self._helper.join()
            self._helper = None

    def _serve(self) -> None:
        for work, args in iter(self._tasks.get, None):
            try:
                self._results.put((work(1, *args), None))
            except BaseException as exc:  # re-raised by the caller
                self._results.put((None, exc))

    def run(self, work, *args) -> list:
        """``[work(s, *args) for each part s]``, in part order.  With the
        helper running, the caller runs part 0 while the helper runs part
        1, and the helper's exception is re-raised once the caller's part
        has ended (the caller's own exception first)."""
        if self._helper is None:
            return [work(s, *args) for s in range(len(self._parts))]
        self._tasks.put((work, args))
        try:
            first = work(0, *args)
        finally:
            second, failed = self._results.get()
        if failed is not None:
            raise failed
        return [first, second]

    def load(self, s: int, x: np.ndarray) -> None:
        """Part s's entries of the iterate, ``x``, onto the source, which
        has the matrix's dtype."""
        self._source[self._targets[s]] = x

    def product(self, s: int, out: np.ndarray) -> None:
        """Part s's rows of the matrix times the source, once every part
        is loaded, with its cells' entries gathered straight into their
        span of ``out``: with in-range indices, mode "clip" takes no
        copy."""
        part, rows = self._parts[s]
        np.take(part @ self._source, rows, out=out[self.spans[s]], mode="clip")

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(self.shape[0], dtype=self.dtype)
        self.run(lambda s: self.load(s, x[self.spans[s]]))
        self.run(self.product, out)
        return out


def _row_halves(matrix: sp.csr_matrix, cells: np.ndarray) -> list:
    """The rows of a CSR matrix before and from the row where half its
    non-zeros are stored, each as a CSR matrix that shares the matrix's
    data and indices, with the rows among ``cells`` it holds (counted from
    its first row).  The arrays are set on empty matrices: the constructor
    would copy a view of less than half of an array."""
    indptr = matrix.indptr
    cut = int(np.searchsorted(indptr, matrix.nnz // 2))
    mid, first = indptr[cut], int(np.searchsorted(cells, cut))
    halves = []
    for rows, part, starts, mine in (
        (cut, slice(None, mid), indptr[: cut + 1], cells[:first]),
        (matrix.shape[0] - cut, slice(mid, None), indptr[cut:] - mid, cells[first:] - cut),
    ):
        half = sp.csr_matrix((rows, matrix.shape[1]), dtype=matrix.dtype)
        half.data, half.indices, half.indptr = matrix.data[part], matrix.indices[part], starts
        halves.append((half, mine))
    return halves


def leading_eigenpair(op: UlamOperator) -> EigenData:
    """The triple of the whole raw matrix M (:func:`_triple`): M through a
    :class:`_SplitBlock` of every cell (a large M in two row halves, the
    second on a helper thread), its CSC view ``.T`` on one thread.  v
    vanishes off the reachable cells: those off the coupling range, and
    those fed only from there; nu_c = (M^T nu)_c / lam > 0 on every cell.
    """
    if op.kind == "L" or op.eigen is not None:
        raise ValueError("leading eigen-data is solved for a raw operator")
    with _SplitBlock(op.matrix, np.arange(op.n_cells)) as block:
        return _triple(op, [(block, op.matrix.T)])


def nodewise_eigenpair(
    k: int, n_bins: int, node_map: NodeMap, potential: Potential, quad: int = 4
) -> EigenData:
    """The leading triple of 'P' from its 2k+1 1-d factors, forming no
    d-dimensional matrix: 'P' is their Kronecker product, so its triple is
    the Kronecker product of theirs (:func:`_triple`).  ``operator`` is 'P'
    with its matrix held as the factors, which 'L' forms to normalize it."""
    grid = Grid(k=k, n_bins=n_bins)
    matrix = _assemble_p_matrix(grid, node_map, potential, quad)
    op = UlamOperator("P", grid, quad, matrix, node_map, potential)
    return _triple(op, [(f, f.T) for f in matrix.factors])


def _triple(op: UlamOperator, factors: list) -> EigenData:
    """The triple of op, the Kronecker product of the raw matrices M_j in
    ``factors`` (each with its adjoint): power iteration on M_j for lam_j
    and v_j, which must be non-negative, and positive on every cell with a
    source where v_j > 0, and on the adjoint for nu_j; lam = prod lam_j,
    v = (x) v_j, nu = (x) nu_j, mu = h nu normalized, and per side the
    most steps and the largest final sup-change."""
    rights, lefts = [], []
    for matrix, adjoint in factors:
        right = power_iterate(matrix)
        support = right.v > 0.0
        fed = matrix @ support.astype(float) > 0.0
        if np.min(right.v) < 0.0 or not support[fed].all():
            raise ValueError("eigenfunction is not strictly positive on the reachable cells")
        rights.append(right)
        lefts.append(power_iterate(adjoint))
    v, nu = (reduce(np.kron, [it.v for it in its]) for its in (rights, lefts))
    mu = v / (nu @ v) * nu
    return EigenData(
        lam=math.prod(float(r.lam) for r in rights), v=v, nu=nu, mu=mu / mu.sum(),
        operator=op,
        v_iteration=(max(r.steps for r in rights), max(r.change for r in rights)),
        nu_iteration=(max(r.steps for r in lefts), max(r.change for r in lefts)),
    )


def _require_eigen(op: UlamOperator) -> EigenData:
    """The triple op was normalized by; ValueError if it carries none."""
    if op.eigen is None:
        raise ValueError(f"this {op.kind!r} operator has no triple; build it with ulam_matrix")
    return op.eigen


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
    points: int


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
    op: UlamOperator, box: Sequence[tuple[int, int]]
) -> ConformalityResult:
    """Compare lam * sum over the box of exp(-f) d nu with the nu-mass of
    the image of the box under the step of op, (lam, nu) from the triple
    op carries ('P''s for 'L').

    Both operators are (1/b**d) sum over Tx = y of exp(f(x)) g(x), so the
    eigenmeasure of the dual has nu(T B) = b**d lam nu(1_B exp(-f)) where
    T is injective on B: the ratio is 1/b**d.  The left side is evaluated
    on cell midpoints.  The right side is the change of variables
    x = E y + c of the coupling (the identity for 'L'), as in the coupled
    assembly: nu(T B) = |det E| * integral over tau B of rho(E y + c) dy,
    where rho = n_cells * nu_c / sum(nu) on cell c and tau B is the
    product of the per-axis images of :func:`_box_image`.  The integral is
    a midpoint rule on n_bins * quad points per unit length of each axis,
    summed in C order in passes of _SLAB_POINTS points.  Node j of E y + c
    reads only y_{j-1}, y_j and y_{j+1}, so no pass forms its points: a
    pass takes the rows of the leading axes it touches, each row a
    broadcast block of the trailing axes, computes every node's image
    coordinate (:meth:`Coupling.node_image`) and bin on the axes that node
    reads, a 1-d table at eps = 0 and at most 3-d otherwise, and adds the
    bins times their cell strides into the flat cell indices.  Each pass
    gathers and sums the same values as a pass over the points would, so
    the result keeps its bits.  ``points`` is the number of points summed.
    A box with other than d axis intervals, an operator without a triple,
    or a NaN, infinite, negative or zero-sum nu, raises ValueError.
    """
    grid, node_map = op.grid, op.node_map
    if len(box) != grid.d:
        raise ValueError(
            f"box has {len(box)} axis intervals, the grid has {grid.d} axes"
        )
    eigen = _require_eigen(op)
    coupling = op.coupling or Coupling(kind="diffusive", epsilon=0.0)
    nu_sum = float(np.sum(eigen.nu))
    if not (math.isfinite(nu_sum) and nu_sum > 0.0) or np.any(eigen.nu < 0.0):
        raise ValueError("nu must be finite and non-negative, with a positive sum")
    mask = _box_cell_mask(grid, box)
    f = op.potential.on_array(grid.reps()[:, mask], grid.k)
    lhs = eigen.lam * float(np.sum(np.exp(-f) * eigen.nu[mask]))

    fine = grid.n_bins * op.quad
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
    # a row, one index of the leading `lead` axes by all of the trailing
    # ones, holds at most one pass, so the rows a pass touches hold at
    # most three passes' points
    lead = 1
    while math.prod(shape[lead:]) > _SLAB_POINTS:
        lead += 1
    row = math.prod(shape[lead:])
    # the rows run along block dimension 0, trailing axis i along 1 + i
    trailing = [
        a.reshape((1,) * (1 + i) + (-1,) + (1,) * (grid.d - lead - i - 1))
        for i, a in enumerate(axes[lead:])
    ]
    strides = [grid.n_bins ** (grid.d - 1 - j) for j in range(grid.d)]
    total = 0.0
    for lo in range(0, n_pts, _SLAB_POINTS):
        hi = min(lo + _SLAB_POINTS, n_pts)
        first, last = lo // row, -(-hi // row)
        rows = np.unravel_index(np.arange(first, last), shape[:lead])
        y = [
            a[i].reshape((-1,) + (1,) * (grid.d - lead)) for a, i in zip(axes, rows)
        ] + trailing
        cells = sum(
            grid.bin_of(coupling.node_image(y, j, node_map.p_tau)) * strides[j]
            for j in range(grid.d)
        )
        cells = cells.reshape(-1)[lo - first * row : hi - first * row]
        total += float(np.sum(rho[cells]))
    rhs = weight * total
    ratio = lhs / rhs if rhs > 0.0 else math.inf
    return ConformalityResult(lhs=lhs, rhs=rhs, ratio=ratio, points=n_pts)


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
