"""Shared test fixtures: random networks, random feasible distortions, tree
documents, keyed access to the per-link formulas of ``bounds``, and keyed
entry points to the list functions of ``simulator`` and ``allocation``."""

from __future__ import annotations

import json
import math

import numpy as np

import reference
from gausstree import allocation, bounds
from gausstree.network import TreeNetwork


class Keyed:
    """The list functions of ``bounds`` on one mode's links, with maps keyed
    by link in and out: a test hands in ``{node: d}`` or ``{(src, dst): d}``
    and looks results up by link.  Consensus needs a weight on every node
    and two nodes, as every consensus function does."""

    def __init__(self, net: TreeNetwork, consensus: bool = False) -> None:
        self.view = bounds._consensus_view(net) if consensus else net.links()

    def derive(self, inc: dict):
        """The distortion profile of ``inc``."""
        return bounds._derive(self.view, self.view.read(inc, "incremental distortions"))

    def penalty(self, key, x: float) -> float:
        """The square-root penalty of link ``key`` at ``x``."""
        return bounds._link_penalty(self.view, self.view.index[key], x)

    def outer(self, profile) -> tuple[float, dict]:
        """The incremental outer bound of ``profile``, in all and per link."""
        return self._outer_bound(profile.inc, profile.tx)

    def gap(self, profile) -> tuple[float, dict]:
        """The incremental minus the cut-set bound, in all and per link."""
        return self._outer_bound(profile.inc, profile.tx, profile.rx)

    def _outer_bound(self, *maps: dict) -> tuple[float, dict]:
        total, per_link = bounds._outer_bound(self.view, *map(self.view.listed, maps))
        return total, self.view.keyed(per_link)

    def cutset(self, profile) -> float:
        """The cut-set bound ``0.5 * sum log2(carried / rx)``."""
        return math.fsum(bounds._link_rates(self.view, self.view.listed(profile.rx)))

    def inner(self, d: dict) -> tuple[float, dict]:
        """The inner bound's sum rate and per-link rates at ``d``."""
        rate, per_link = bounds._inner_bound(self.view, self.view.read(d, "distortion parameters"))
        return rate, self.view.keyed(per_link)

    def sigma_hat(self, d: dict) -> dict:
        """The test-channel variances at ``d``."""
        d = self.view.read(d, "distortion parameters")
        return self.view.keyed(bounds._test_channel_variances(self.view, d))


def simulate_consensus(net: TreeNetwork, d: dict, cfg):
    """The test-channel consensus run at ``{(src, dst): d}``: the map read
    into link order, as ``consensus-simulate --d-per-link`` reads it."""
    from gausstree import simulator

    view = bounds._consensus_view(net)
    return simulator.simulate_test_channel(net, view, view.read(d, "distortion parameters"), cfg)


def certify(net: TreeNetwork, result, total: float) -> None:
    """The KKT certificate of a consensus allocation ``result`` at budget
    ``total``, as ``consensus-allocate`` checks its numeric solve; raises
    ConsistencyError if it fails."""
    view = net.links(True)
    mult = view.keyed(view.mult)
    level = [mult[edge] * d for edge, d in result.profile.inc.items()]
    allocation._certify(level, total, result.method)


def consensus_line(weights) -> TreeNetwork:
    """Fully weighted line on ``len(weights)`` nodes, rooted at 0, with
    ``parent(i) = i - 1``."""
    parents = {i: i - 1 for i in range(1, len(weights))}
    return TreeNetwork(root=0, parents=parents, weights=dict(enumerate(weights)))


def tree_json(net: TreeNetwork) -> str:
    """``net`` as a tree document: every weighted node, ascending, with its
    parent (an unweighted aggregation sink appears only as ``root``)."""
    nodes = [
        {"id": i, "weight": w, **({"parent": net.parents[i]} if i in net.parents else {})}
        for i, w in sorted(net.weights.items())
    ]
    return json.dumps({"root": net.root, "nodes": nodes}, sort_keys=True)


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

