"""Named potentials and observables on lattice windows.

Each is a sum of node terms: a term maps the values of node j (a 1-d
array) to that node's contribution, nodes running from -k to k.
Declared seminorm bounds are computed for a given metric (theta, beta)
and are upper bounds; the sampling estimators in :mod:`cml_lab.transfer`
produce lower bounds, so declared >= measured is the consistency check.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import MetricParams, NodeMap, Potential

__all__ = [
    "zero_potential",
    "constant_potential",
    "node_sine_potential",
    "decaying_sine_potential",
    "srb_potential",
    "node_coordinate",
    "random_trig_observable",
]

_TWO_PI = 2.0 * math.pi


def _weight_sum(m: MetricParams, nodes: range, what: str, base: float = 1.0) -> float:
    """sum over the nodes j of base^-|j| theta^(-beta |j|), the node
    weights of a declared Hoelder bound: one node's, or the window's
    -k..k.  ValueError, naming theta, beta and the node or the window k,
    where it leaves float range."""
    try:
        total = sum(base ** -abs(j) * m.theta ** (-m.beta * abs(j)) for j in nodes)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        where = f"node {nodes[0]}" if len(nodes) == 1 else f"the window k = {nodes[-1]}"
        raise ValueError(
            f"{what}'s Hoelder bound sums theta^(-beta |j|) over {where}, which "
            f"leaves float range at theta={m.theta}, beta={m.beta}"
        )
    return total


def zero_potential() -> Potential:
    return constant_potential(0.0, name="zero")


def constant_potential(c: float, name: str | None = None) -> Potential:
    # the constant is the centre node's term, the one node of every window
    def term(j: int, x: np.ndarray, k: int) -> np.ndarray:
        return np.full(x.shape, float(c) if j == 0 else 0.0)

    return Potential(
        name=name or f"const({c})",
        node_term=term,
        declared_sup_norm=abs(c),
        declared_beta_norm=0.0,
    )


def node_sine_potential(
    amplitude: float, node: int = 0, metric: MetricParams | None = None
) -> Potential:
    """f(x) = amplitude * sin(2 pi x_node); zero when the node is outside
    the window (consistent with a p_tau = 0 tail)."""
    if not math.isfinite(amplitude):
        raise ValueError(f"amplitude={amplitude} must be finite")
    m = metric or MetricParams()

    def term(j: int, x: np.ndarray, k: int) -> np.ndarray:
        return amplitude * np.sin(_TWO_PI * x) if j == node else np.zeros(x.shape)

    return Potential(
        name=f"sine(node={node}, c={amplitude})",
        node_term=term,
        declared_sup_norm=abs(amplitude),
        declared_beta_norm=_TWO_PI * abs(amplitude)
        * _weight_sum(m, range(node, node + 1), "node_sine potential"),
    )


def decaying_sine_potential(
    amplitude: float = 0.1,
    base: float = 4.0,
    metric: MetricParams | None = None,
) -> Potential:
    """f(x) = amplitude * sum_j base^-|j| sin(2 pi x_j) over the window.

    Assumes p_tau = 0 so that tail nodes contribute nothing and the value
    is consistent across window widths.  The node weight decays at rate
    1/base, so the k-th variation decays like base^-k.
    """
    if not math.isfinite(amplitude):
        raise ValueError(f"amplitude={amplitude} must be finite")
    if not base > 1.0:
        raise ValueError(f"base={base} must exceed 1 for the decaying_sine potential")
    m = metric or MetricParams()
    sup = abs(amplitude) * (base + 1.0) / (base - 1.0)
    lip = _TWO_PI * abs(amplitude) * _weight_sum(
        m, range(-60, 61), "decaying_sine potential", base
    )

    def term(j: int, x: np.ndarray, k: int) -> np.ndarray:
        return amplitude * base ** -abs(j) * np.sin(_TWO_PI * x)

    return Potential(
        name=f"decaying_sine(c={amplitude}, base={base})",
        node_term=term,
        declared_sup_norm=sup,
        declared_beta_norm=lip,
    )


def srb_potential(
    node_map: NodeMap, max_k: int = 3, metric: MetricParams | None = None
) -> Potential:
    """The physical-measure potential sum_j (log b - log tau'(x_j)) over
    the window, making the branch weights proportional to 1/|tau'|.

    Each node contributes equally, so the Hoelder bound grows with the
    window; the declared bound is valid for windows up to half-width
    ``max_k`` only.  Trajectory statistics of uniformly-initialized orbits
    equilibrate to the eigen-measure of the operator built from this
    potential.
    """
    if node_map.forward_deriv is None:
        raise ValueError(f"{node_map.name} does not expose a derivative")
    m = metric or MetricParams()
    grid = np.linspace(0.0, 1.0, 4097)
    deriv = node_map.forward_deriv(grid)
    per_node_sup = float(np.max(np.abs(np.log(node_map.b) - np.log(deriv))))
    # Lipschitz constant of log tau' from a fine finite-difference scan.
    log_d = np.log(deriv)
    per_node_lip = float(np.max(np.abs(np.diff(log_d)) / np.diff(grid)))
    width_weight = _weight_sum(m, range(-max_k, max_k + 1), "srb potential")
    sup = per_node_sup * (2 * max_k + 1)

    def term(j: int, x: np.ndarray, k: int) -> np.ndarray:
        return np.log(node_map.b) - np.log(node_map.forward_deriv(x))

    return Potential(
        name=f"srb({node_map.name})",
        node_term=term,
        declared_sup_norm=sup,
        declared_beta_norm=per_node_lip * width_weight,
    )


def node_coordinate(
    node: int = 0, offset: float = 0.0, metric: MetricParams | None = None
) -> Potential:
    """phi(x) = x_node - offset (p_tau - offset when outside the window)."""
    m = metric or MetricParams()

    def term(j: int, x: np.ndarray, k: int) -> np.ndarray:
        if abs(node) > k:
            raise ValueError(f"node {node} outside window of half-width {k}")
        return x - offset if j == node else np.zeros(x.shape)

    return Potential(
        name=f"coord(node={node}, offset={offset})",
        node_term=term,
        declared_sup_norm=max(abs(offset), abs(1.0 - offset)),
        declared_beta_norm=_weight_sum(m, range(node, node + 1), "node_coordinate"),
    )


def random_trig_observable(
    rng: np.random.Generator,
    max_node: int = 1,
    max_freq: int = 2,
    n_terms: int = 3,
    metric: MetricParams | None = None,
) -> Potential:
    """A random low-order trigonometric observable: a few terms of
    amp * cos(2 pi freq x_node + phase) on nodes inside the window."""
    m = metric or MetricParams()
    terms = []
    for _ in range(n_terms):
        terms.append(
            (
                float(rng.uniform(-1.0, 1.0)),
                int(rng.integers(-max_node, max_node + 1)),
                int(rng.integers(1, max_freq + 1)),
                float(rng.uniform(0.0, _TWO_PI)),
            )
        )

    def term(j: int, x: np.ndarray, k: int) -> np.ndarray:
        out = np.zeros(x.shape)
        for amp, node, freq, phase in terms:
            if node == j:
                out += amp * np.cos(_TWO_PI * freq * x + phase)
        return out

    sup = sum(abs(amp) for amp, *_ in terms)
    beta_norm = sum(
        abs(amp) * _TWO_PI * freq
        * _weight_sum(m, range(node, node + 1), "random_trig observable")
        for amp, node, freq, _ in terms
    )
    return Potential(
        name="random_trig",
        node_term=term,
        declared_sup_norm=sup,
        declared_beta_norm=beta_norm,
    )
