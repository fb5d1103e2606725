"""Metrics, node maps, couplings and potentials on finite lattice truncations.

A lattice state lives on the symmetric window of node indices -k..k, held
as node-major values: row j of a (2k+1,) or (2k+1, n) array is node j - k
of one or n states.  All nodes outside the window are implicitly equal to
the map's fixed point ``p_tau``.  Boundary conditions everywhere in this package are the
fill-with-fixed-point convention (never periodic), so the finite-window
operators agree with their infinite-lattice counterparts restricted to
the window.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "MetricParams",
    "NodeMap",
    "Coupling",
    "Potential",
    "doubling_map",
    "perturbed_doubling_map",
    "estimate_coupling_constant",
]


@dataclass(frozen=True)
class MetricParams:
    """Parameters of the weighted sup-metric d(x,y) = sup_i theta^|i| d_I(x_i,y_i).

    ``alpha`` is the base of the variation seminorm and must satisfy
    alpha >= theta**beta so that the variation seminorm is dominated by
    the Hoelder seminorm.
    """

    theta: float = 0.5
    beta: float = 1.0
    alpha: float | None = None

    def __post_init__(self) -> None:
        broken = []  # every failed rule, in one ValueError
        if not 0.0 < self.theta < 1.0:
            broken.append(f"theta={self.theta} outside the open interval (0, 1)")
        if not 0.0 < self.beta <= 1.0:
            broken.append(f"beta={self.beta} outside (0, 1]")
        if not broken:
            floor = self.theta ** self.beta
            if self.alpha is None:
                object.__setattr__(self, "alpha", floor)
            if not floor <= self.alpha < 1.0:
                broken.append(f"alpha={self.alpha} outside [theta^beta, 1) = [{floor}, 1)")
        if broken:
            raise ValueError("; ".join(broken))

    def node_distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.abs(np.asarray(a) - np.asarray(b))


@dataclass(frozen=True)
class NodeMap:
    """A full-branch expanding map of [0,1) together with its inverse branches.

    ``forward`` and every inverse branch are vectorized over numpy arrays.
    Every inverse branch is an increasing bijection from [0,1) onto its
    monotone branch domain, so it maps an interval [u, v) onto
    [br(u), br(v)) and ``forward`` maps subintervals of a domain back.
    ``eta`` is the uniform contraction factor of the inverse branches and
    ``p_tau`` a fixed point of the forward map.  ``trajectory_safe`` marks
    maps whose forward orbits survive binary floating point (the pure
    doubling map does not: it collapses to 0 in ~53 iterations).
    """

    name: str
    b: int
    forward: Callable[[np.ndarray], np.ndarray]
    inverse_branches: tuple[Callable[[np.ndarray], np.ndarray], ...]
    eta: float
    p_tau: float = 0.0
    trajectory_safe: bool = True
    forward_deriv: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.b < 1:
            raise ValueError("branch count must be positive")
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie in (0,1), got {self.eta}")
        if abs(float(self.forward(np.array(self.p_tau))) - self.p_tau) > 1e-12:
            raise ValueError("p_tau is not fixed by the forward map")

    def branch_domains(self) -> np.ndarray:
        """Left endpoints of the monotone branch domains, plus the right end 1."""
        lefts = [float(br(np.array(0.0))) for br in self.inverse_branches]
        return np.array(sorted(lefts) + [1.0])


def doubling_map() -> NodeMap:
    """The doubling map 2x mod 1: analytically transparent, but its forward
    floating-point orbits collapse, so it is barred from forward simulation."""
    return NodeMap(
        name="doubling",
        b=2,
        forward=lambda x: np.mod(2.0 * np.asarray(x, dtype=float), 1.0),
        inverse_branches=(
            lambda y: 0.5 * np.asarray(y, dtype=float),
            lambda y: 0.5 * np.asarray(y, dtype=float) + 0.5,
        ),
        eta=0.5,
        p_tau=0.0,
        trajectory_safe=False,
        forward_deriv=lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
    )


def perturbed_doubling_map(a: float = 0.05) -> NodeMap:
    """tau(x) = 2x + a sin(2 pi x) mod 1, expanding for a < 1/(2 pi).

    The two inverse branches are computed by a Newton iteration (the branch
    functions are smooth, strictly monotone with derivative >= 2 - 2 pi a).
    """
    if not 0.0 <= a < 1.0 / (2.0 * math.pi):
        raise ValueError(f"perturbation amplitude a={a} outside [0, 1/(2 pi))")
    two_pi = 2.0 * math.pi

    def forward(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.sin(two_pi * x)
        y *= a
        y += 2.0 * x
        # y - floor(y) is np.mod(y, 1.0) to the bit, at half its cost
        y -= np.floor(y)
        return y

    def inverse(y: np.ndarray, branch: int) -> np.ndarray:
        # Solve 2x + a sin(2 pi x) = y + branch on the branch domain; each
        # point stops once its own step is below 1e-15, so its bits do not
        # depend on the other points of the call.
        target = np.asarray(y, dtype=float) + branch
        x = target / 2.0
        moving = np.ones(x.shape, dtype=bool)
        for _ in range(60):
            fx = 2.0 * x + a * np.sin(two_pi * x) - target
            dfx = 2.0 + two_pi * a * np.cos(two_pi * x)
            step = np.where(moving, fx / dfx, 0.0)
            x = x - step
            moving &= np.abs(step) >= 1e-15
            if not moving.any():
                break
        return np.clip(x, 0.0, np.nextafter(1.0, 0.0))

    return NodeMap(
        name=f"perturbed_doubling(a={a})",
        b=2,
        forward=forward,
        inverse_branches=(
            lambda y: inverse(y, 0),
            lambda y: inverse(y, 1),
        ),
        eta=1.0 / (2.0 - two_pi * a),
        p_tau=0.0,
        trajectory_safe=True,
        forward_deriv=lambda x: 2.0 + two_pi * a * np.cos(two_pi * np.asarray(x, dtype=float)),
    )


@dataclass(frozen=True)
class Coupling:
    """The diffusive interaction between lattice nodes: each node is
    averaged with its nearest neighbors with weight epsilon; nodes beyond
    the window contribute as p_tau."""

    kind: str = "diffusive"
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.kind != "diffusive" or not 0.0 <= self.epsilon < 0.5:
            raise ValueError(
                f"coupling kind {self.kind!r} with epsilon={self.epsilon}: the "
                "kind must be 'diffusive' and epsilon lie in [0, 1/2) "
                "(invertibility bound)"
            )

    def dense_matrix(self, k: int) -> np.ndarray:
        """The linear part acting on the 2k+1 window values."""
        d = 2 * k + 1
        a = np.eye(d) * (1.0 - self.epsilon)
        idx = np.arange(d - 1)
        a[idx, idx + 1] = self.epsilon / 2.0
        a[idx + 1, idx] = self.epsilon / 2.0
        return a

    def boundary_offset(self, k: int, p_tau: float) -> np.ndarray:
        """Constant contribution of the p_tau tail to the edge nodes."""
        c = np.zeros(2 * k + 1)
        c[0] += self.epsilon / 2.0 * p_tau
        c[-1] += self.epsilon / 2.0 * p_tau
        return c

    def inverse_matrix(self, k: int) -> np.ndarray:
        """E^-1 of the linear part on the 2k+1 window values."""
        return np.linalg.inv(self.dense_matrix(k))

    def node_image(
        self, vals: Sequence[np.ndarray], j: int, p_tau: float
    ) -> np.ndarray:
        """Coordinate j (0 for node -k) of the coupled image of a window
        given as one broadcastable array per node: the only formula for
        the coupling.  Only the left, centre and right values vals[j-1],
        vals[j], vals[j+1] are read, p_tau beyond the window; the result
        has their broadcast shape."""
        centre = np.asarray(vals[j], dtype=float)
        if self.epsilon == 0.0:
            return centre
        left = np.asarray(vals[j - 1], dtype=float) if j > 0 else p_tau
        right = np.asarray(vals[j + 1], dtype=float) if j + 1 < len(vals) else p_tau
        return centre * (1.0 - self.epsilon) + (left + right) * (0.5 * self.epsilon)

    def apply_to_array(self, vals: np.ndarray, p_tau: float) -> np.ndarray:
        """The coupled image of node-major values of shape (2k+1, ...):
        :meth:`node_image` of every row at once, its neighbours read from
        the window padded with p_tau."""
        pad = np.full((1,) + np.shape(vals)[1:], p_tau)
        padded = np.concatenate([pad, vals, pad])
        return self.node_image((padded[:-2], padded[1:-1], padded[2:]), 1, p_tau)

    def invert_on_array(self, vals: np.ndarray, k: int, p_tau: float) -> np.ndarray:
        """E^-1 (vals - c) for node-major values of shape (2k+1, ...),
        where c holds the boundary terms of the p_tau tail: one product
        with the precomputed inverse, not one solve per point."""
        if self.epsilon == 0.0:
            # E is the identity: the product would return the right-hand side
            return np.asarray(vals, dtype=float)
        c = self.boundary_offset(k, p_tau).reshape((-1,) + (1,) * (np.ndim(vals) - 1))
        return np.tensordot(self.inverse_matrix(k), vals - c, axes=1)


def branch_preimage_table(values: np.ndarray, node_map: NodeMap) -> np.ndarray:
    """All b**d nodewise branch preimages of point arrays.

    ``values`` has shape (d, n); the result has shape (b**d, d, n), rows
    in lexicographic order of the branch choice: node -k's branch index
    varies slowest.
    """
    values = np.asarray(values, dtype=float)
    d, _ = values.shape
    per_branch = np.stack(
        [br(values) for br in node_map.inverse_branches]
    )  # (b, d, n)
    choices = np.array(list(itertools.product(range(node_map.b), repeat=d)))
    return per_branch[choices, np.arange(d)[None, :], :]


def estimate_coupling_constant(
    coupling: Coupling, m: MetricParams, k: int = 3
) -> float:
    """C_E, the largest ratio d_s(E^-1 x, E^-1 y) / d_s(x, y) over pairs
    and over the metrics d_s re-centred on each node s of the window -k..k.

    With D_s = diag(theta^|j - s|), d_s(x, y) = |D_s (x - y)|_inf, so the
    ratio's supremum is the operator norm |D_s E^-1 D_s^-1|_inf, the
    largest absolute row sum, attained by x - y = D_s^-1 sign(that row).
    """
    e_inv = np.abs(coupling.inverse_matrix(k))
    nodes = np.arange(-k, k + 1)
    dist = np.abs(nodes[None, :] - nodes[:, None])
    # ratio[s, i, j] = theta^|i - s| / theta^|j - s| re-centres the metric
    # on node s.  It is formed as one power, so weights that underflow give
    # no 0/0; past float range it is inf, and so is C_E, which the caller
    # refuses.  An entry of E^-1 that is 0 adds 0, never inf * 0.
    with np.errstate(over="ignore"):
        ratio = m.theta ** (dist[:, :, None] - dist[:, None, :]).astype(float)
    scaled = np.multiply(ratio, e_inv, out=np.zeros(ratio.shape), where=e_inv > 0.0)
    return float(np.max(np.sum(scaled, axis=2)))


@dataclass(frozen=True)
class Potential:
    """An observable/potential on lattice states: a sum of node terms, with
    declared norm bounds.

    ``node_term(j, x, k)`` maps the values x (a 1-d array) of node j of a
    window of half-width k to that node's term; the potential is the sum
    of the terms from node -k to node k, in that order.  It must be
    consistent across window widths under the p_tau tail convention.  The
    declared seminorms are a priori upper bounds; sampling estimators must
    stay below them.
    """

    name: str
    node_term: Callable[[int, np.ndarray, int], np.ndarray]
    declared_sup_norm: float
    declared_beta_norm: float

    def on_array(self, values: np.ndarray, k: int) -> np.ndarray:
        """Evaluate on (d, n) arrays of window values, d = 2k+1, rows
        ordered from node -k to node k."""
        terms = (
            self.node_term(j, x, k)
            for j, x in zip(range(-k, k + 1), np.asarray(values, dtype=float))
        )
        return np.asarray(reduce(np.add, terms), dtype=float)
