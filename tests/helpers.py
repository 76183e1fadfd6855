"""Shared test fixtures: random networks and random feasible distortions."""

from __future__ import annotations

import numpy as np

import reference
from gausstree.network import TreeNetwork


def random_tree(
    rng: np.random.Generator,
    n_sources: int,
    mode: str = "aggregation",
    weight_range: tuple[float, float] = (0.2, 3.0),
) -> TreeNetwork:
    """Uniform random recursive tree with weights drawn from ``weight_range``.

    ``aggregation`` gives ``n_sources`` weighted nodes under an unweighted
    sink 0; ``consensus`` gives ``n_sources`` nodes that are all weighted
    (node 0 included).
    """
    lo, hi = weight_range
    if mode == "aggregation":
        parents = {i: int(rng.integers(0, i)) for i in range(1, n_sources + 1)}
        weights = {i: float(rng.uniform(lo, hi)) for i in range(1, n_sources + 1)}
    elif mode == "consensus":
        parents = {i: int(rng.integers(0, i)) for i in range(1, n_sources)}
        weights = {i: float(rng.uniform(lo, hi)) for i in range(n_sources)}
    else:
        raise ValueError(mode)
    return TreeNetwork(root=0, parents=parents, weights=weights)


def random_feasible_d(
    rng: np.random.Generator,
    net: TreeNetwork,
    fractions: tuple[float, float] = (0.05, 0.7),
) -> dict[int, float]:
    """Per-link distortions that are feasible by construction: each node
    describes a random fraction of its own test-channel variance."""
    return _fractions(lambda: float(rng.uniform(*fractions)), net, consensus=False)


def random_feasible_consensus_d(
    rng: np.random.Generator,
    net: TreeNetwork,
    fractions: tuple[float, float] = (0.05, 0.7),
) -> dict:
    return _fractions(lambda: float(rng.uniform(*fractions)), net, consensus=True)


def fixed_fraction_d(net: TreeNetwork, fraction: float, consensus: bool = False) -> dict:
    """Per-link distortions where every link describes the same ``fraction``
    of its own test-channel variance: feasible, and never tiny next to the
    variance a link carries."""
    return _fractions(lambda: fraction, net, consensus)


def _fractions(draw, net: TreeNetwork, consensus: bool) -> dict:
    view = net.links(consensus)
    d = [0.0] * len(view.keys)

    def describe(k: int, var: float) -> float:
        d[k] = draw() * var
        return var - d[k]

    view.variances(describe)
    return view.keyed(d)


def equal_split(net: TreeNetwork, total: float) -> dict[int, float]:
    n = len(net.sources)
    return {i: total / n for i in net.sources}


def uniform_edge_d(net: TreeNetwork, value: float) -> dict:
    return {e: value for e in reference.Tree(net).edges()}


def shaped_tree(
    rng: np.random.Generator, shape: str, n_nodes: int, mode: str = "aggregation"
) -> TreeNetwork:
    """``line``, ``star``, ``caterpillar`` (even ids form the spine, each odd
    id hangs off the spine node before it) or ``random`` tree on ``n_nodes``
    nodes rooted at 0; in ``aggregation`` mode node 0 is an unweighted sink."""
    if shape == "line":
        parents = {i: i - 1 for i in range(1, n_nodes)}
    elif shape == "star":
        parents = {i: 0 for i in range(1, n_nodes)}
    elif shape == "caterpillar":
        parents = {i: i - 1 if i % 2 else i - 2 for i in range(1, n_nodes)}
    elif shape == "random":
        parents = {i: int(rng.integers(0, i)) for i in range(1, n_nodes)}
    else:
        raise ValueError(shape)
    first = 1 if mode == "aggregation" else 0
    weights = {i: float(rng.uniform(0.2, 3.0)) for i in range(first, n_nodes)}
    return TreeNetwork(root=0, parents=parents, weights=weights)

