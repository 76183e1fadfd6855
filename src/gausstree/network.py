"""Rooted weighted tree networks and their structural quantities.

A :class:`TreeNetwork` is the universe every bound, allocator and
simulator runs over: a rooted tree whose nodes observe independent unit
Gaussians scaled by per-node weights.  Two flavours exist:

* aggregation mode -- the root is an unweighted sink that collects the
  weighted sum of every other node's data, and
* consensus mode -- every node (the root included) carries a weight and
  wants the full weighted sum, so every node acts as the root of its own
  directed tree.

All derived quantities (subtree member sets, subtree variances, directed
trees, oriented subtrees, edge multiplicities) are computed here so that
the bound/allocation modules stay purely arithmetic.

The :class:`TreeNetwork` constructor builds the structure every
recursion needs, one :class:`LinkCascade` with no reference back to the
network.  One leaves-first DFS gives every node's subtree size and its
position in that order, so every subtree is a contiguous slice; a node it
misses lies on or under a cycle.  The ``2(n-1)`` directed links follow:
oriented subtree sizes ``size(c -> p) = |subtree(c)|`` and ``size(p -> c)
= n - size(c -> p)``, the multiplicities ``n - size``, an evaluation
order, and every oriented member set as one slice or the complement of
one.  The link ``b -> a`` is fed by the links ``k -> b`` from the other
neighbours ``k`` of ``b``.

Every per-link recursion of the package -- subtree and oriented
variances, test-channel variances, quantizer designs, the oracle's
linear rows and each Monte-Carlo chunk of trials -- is one call of
:meth:`LinkCascade.fold`.  It evaluates ``step(link, src, fed)`` once per
link, after every link that feeds it: in aggregation over the uplinks
``i -> parent(i)`` (keyed by ``i``) leaves-first, in consensus over all
directed links in :attr:`LinkCascade.order`.  ``fed`` holds the results of
the feeding links ascending by their source node, which is the order
``children[i]`` and ``neighbors[src]`` list them in.  The visiting order is
part of the contract: steps that draw random numbers or raise on the
first bad link depend on it, and ``step`` does its own arithmetic, so
every recursion keeps its own rounding.

:meth:`TreeNetwork.links` is the one place the mode is decided: it
returns the mode's :class:`LinkSet`, which every bound, allocator, oracle
and simulator loop reads.  Each view is built on first use, because the
consensus view's oriented variances cost O(sum of squared degrees).

:meth:`LinkCascade.upstream_sums` and :meth:`LinkCascade.consensus_sums`
sum values over the links in O(n) without a step per link: leaves-first
every link ``c -> p`` collects the links that feed it, then root-first
every link ``p -> c`` is rerooted as ``(all links into p) - (c -> p)``.

Those folds are exact.  Every finite double is ``m * 2**e``, so the
values are carried as integers over one common power-of-two
denominator; integer sums and the rerooting subtraction lose nothing,
and the one division ``num / 2**k`` per result is correctly rounded.
Each result is therefore bit-identical to :func:`math.fsum` over the
members it sums, and a sum too large for a double raises
``OverflowError`` as ``fsum`` does.

Tree documents are UTF-8 JSON::

    {"root": 0, "nodes": [{"id": 1, "weight": 1.0, "parent": 0}, ...]}

The root appears in ``nodes`` only when it carries a weight (consensus
mode); an aggregation sink is listed only under ``"root"``.  Weights must
be finite decimal literals; ``NaN``/``Infinity`` literals are rejected.
"""

from __future__ import annotations

import json
import math
import operator
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from math import fsum
from typing import Callable, Mapping, NamedTuple, Sequence

from .errors import InputError

__all__ = [
    "MAX_NODES",
    "DirectedEdge",
    "LinkCascade",
    "LinkSet",
    "SubtreeStats",
    "TreeError",
    "TreeNetwork",
    "directed_edges",
    "directed_tree",
    "edge_multiplicity",
    "make_consensus_line",
    "make_line",
    "oriented_subtree_stats",
    "parse_tree",
    "subtree_stats",
]

#: Hard cap on network size.  The link cascade and the exact distortion
#: sums are O(n) plus one O(n log n) sort; the consensus folds, which visit
#: every neighbour of a link's source (oriented variances, consensus
#: test-channel variances), cost O(sum of squared degrees), quadratic on a
#: star; the exact oracle is dense.
MAX_NODES = 10_000


class TreeError(InputError):
    """Invalid tree structure or tree document."""


class DirectedEdge(NamedTuple):
    """An orientation ``src -> dst`` of an existing tree edge."""

    src: int
    dst: int

    def reversed(self) -> "DirectedEdge":
        return DirectedEdge(self.dst, self.src)

    def __str__(self) -> str:  # used in diagnostics and CSV link labels
        return f"{self.src}->{self.dst}"


@dataclass(frozen=True)
class SubtreeStats:
    """A node set together with the per-entry variance of its partial sum.

    ``variance`` is the sum of squared weights over ``members``; it is the
    variance of each entry of the weighted partial sum carried by the set.
    """

    members: frozenset[int]
    variance: float


def _check_node_id(value: object, what: str) -> int:
    if isinstance(value, bool):
        raise TreeError(f"{what} must be an integer, got {value!r}")
    try:
        node = operator.index(value)  # accepts int and numpy integers
    except TypeError:
        raise TreeError(f"{what} must be an integer, got {value!r}") from None
    if node < 0:
        raise TreeError(f"{what} must be non-negative, got {node}")
    return node


def _check_weight(node: int, value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TreeError(f"node {node}: weight must be a number, got {value!r}")
    try:
        w = float(value)
    except OverflowError:  # an integer beyond the float range
        raise TreeError(
            f"node {node}: weight must be finite, got an integer too large for a float"
        ) from None
    if not math.isfinite(w):
        raise TreeError(f"node {node}: weight must be finite, got {w!r}")
    if w == 0.0:
        raise TreeError(f"node {node}: weight must be nonzero")
    if not 0.0 < w * w < math.inf:
        raise TreeError(f"node {node}: weight {w!r} has no positive finite square")
    return w


def _fixed_point(values: Sequence[float]) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over one power-of-two denominator.

    ``as_integer_ratio`` is exact and its denominator is a power of two,
    so shifting every numerator to the largest denominator loses nothing.
    """
    ratios = [v.as_integer_ratio() for v in values]
    bits = max((d.bit_length() for _, d in ratios), default=1)
    return [m << (bits - d.bit_length()) for m, d in ratios], 1 << (bits - 1)


class LinkCascade:
    """The links of a tree laid out for O(n) folds (see the module docstring).

    Indexed by node id: ``parent`` (-1 at the root) and the ascending
    ``children`` and ``neighbors``.  ``postorder`` lists the nodes
    children-first with the root last, so node ``i``'s subtree is the
    ``subtree_size[i]`` entries ending at ``position[i]``.  ``size``
    counts the nodes on the ``src`` side of every directed link,
    ``order`` lists the links by ``(size, link)``, which puts every link
    after the links that feed it, and ``edges`` by ``(src, dst)``.
    """

    def __init__(self, root: int, parents: Mapping[int, int]) -> None:
        n = len(parents) + 1
        parent = [parents.get(i, -1) for i in range(n)]
        children: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):  # ascending ids fill every list in ascending order
            if i != root:
                children[parent[i]].append(i)
        # Reversed, this largest-child-first preorder is the ascending postorder.
        order: list[int] = []
        stack = [root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(children[node])
        order.reverse()
        if len(order) < n:  # the parent chain of the smallest node missed hits a cycle
            node, seen = min(set(range(n)).difference(order)), set()
            while node not in seen:
                seen.add(node)
                node = parent[node]
            raise TreeError(f"cycle detected through node {node}")
        position = [n - 1] * n
        subtree_size = [1] * n
        for k, node in enumerate(order[:-1]):
            position[node] = k
            subtree_size[parent[node]] += subtree_size[node]
        self.parent = tuple(parent)
        self.children = tuple(map(tuple, children))
        self.postorder = tuple(order)
        self.position = tuple(position)
        self.subtree_size = tuple(subtree_size)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        # Built on first use: only consensus and directed trees read them.
        return tuple(
            kids if up < 0 else tuple(sorted((up, *kids)))
            for up, kids in zip(self.parent, self.children)
        )

    @cached_property
    def size(self) -> dict[DirectedEdge, int]:
        n = len(self.postorder)
        size: dict[DirectedEdge, int] = {}
        for i in self.postorder[:-1]:
            size[DirectedEdge(i, self.parent[i])] = self.subtree_size[i]
            size[DirectedEdge(self.parent[i], i)] = n - self.subtree_size[i]
        return size

    @cached_property
    def order(self) -> tuple[DirectedEdge, ...]:
        size = self.size
        return tuple(sorted(size, key=lambda e: (size[e], e)))

    @cached_property
    def edges(self) -> tuple[DirectedEdge, ...]:
        return tuple(sorted(self.size))

    def multiplicity(self, edge: DirectedEdge) -> int:
        """Number of roots whose directed tree uses ``edge``: the nodes on
        its ``dst`` side."""
        return len(self.postorder) - self.size[edge]

    def subtree(self, i: int) -> tuple[int, ...]:
        """Node ``i`` and its descendants under the stored root."""
        end = self.position[i] + 1
        return self.postorder[end - self.subtree_size[i] : end]

    def members(self, edge: DirectedEdge) -> tuple[int, ...]:
        """Nodes on the ``src`` side of an existing directed link."""
        src, dst = edge
        if self.parent[src] == dst:
            return self.subtree(src)
        end = self.position[dst] + 1
        return self.postorder[: end - self.subtree_size[dst]] + self.postorder[end:]

    def fold(self, step: Callable[[object, int, list], object], consensus: bool = False) -> dict:
        """``step(link, src, fed)`` once per link, every link after its
        feeding links (see the module docstring); returns the results keyed
        by link in visiting order."""
        out: dict = {}
        if consensus:
            neighbors = self.neighbors
            for link in self.order:
                src, dst = link
                out[link] = step(link, src, [out[k, src] for k in neighbors[src] if k != dst])
        else:
            children = self.children
            for i in self.postorder[:-1]:
                out[i] = step(i, i, [out[c] for c in children[i]])
        return out

    def upstream_sums(self, values: Mapping[int, float]) -> dict[int, float]:
        """``values`` summed over the strict subtree of every non-root
        node, keyed by ascending node id; each sum equals ``fsum`` over
        its members (see the module docstring)."""
        nodes, parent, root = self.postorder[:-1], self.parent, self.postorder[-1]
        num, den = _fixed_point([values[i] for i in nodes])
        below = [0] * len(self.postorder)
        for i, m in zip(nodes, num):
            below[parent[i]] += below[i] + m
        return {i: below[i] / den for i in range(len(below)) if i != root}

    def consensus_sums(
        self, values: Mapping[DirectedEdge, float]
    ) -> tuple[dict[DirectedEdge, float], dict[int, float]]:
        """Exact sums of per-link ``values`` for consensus.

        Returns ``(tx, per_root)``: ``tx[b -> a]`` sums the links strictly
        upstream of ``b -> a`` in the directed tree towards ``a`` (keyed
        in :attr:`order`), and ``per_root[k]`` sums the whole directed tree
        towards ``k`` (keyed by ascending node id).  Leaves-first, every
        link ``i -> parent(i)`` collects its subtree; root-first, the
        links into a node are rerooted as ``into[p] - rx(c -> p)``.
        """
        nodes, parent, k = self.postorder[:-1], self.parent, len(self.postorder) - 1
        num, den = _fixed_point(
            [values[i, parent[i]] for i in nodes] + [values[parent[i], i] for i in nodes]
        )
        up_num, down_num = num[:k], num[k:]
        up_rx = [0] * (k + 1)  # exact rx(i -> parent(i)); per_root at the root
        for i, m in zip(nodes, up_num):
            up_rx[i] += m
            up_rx[parent[i]] += up_rx[i]
        into = up_rx[:]  # exact per_root: rx summed over the links into each node
        tx: dict[tuple[int, int], int] = {}
        for j in reversed(range(k)):
            i = nodes[j]
            p = parent[i]
            tx[i, p] = up_rx[i] - up_num[j]
            tx[p, i] = into[p] - up_rx[i]
            into[i] = tx[i, p] + tx[p, i] + down_num[j]
        return (
            {e: tx[e] / den for e in self.order},
            {k: into[k] / den for k in range(len(into))},
        )


@dataclass(frozen=True, eq=False)
class LinkSet:
    """One mode's links: the ``keys`` ascending (the non-root node ids of
    the uplinks in aggregation, the :class:`DirectedEdge` s in consensus),
    per key the variance it carries (``carried``) and the squared weight of
    its source (``own``), the ``observers`` with data and the ``sinks``
    that estimate the whole sum.  Aggregation is consensus restricted to
    the directed tree towards its one sink, the root."""

    mode: str
    cascade: LinkCascade = field(repr=False)
    keys: tuple
    carried: Mapping = field(repr=False)
    own: Mapping = field(repr=False)
    observers: tuple[int, ...]
    sinks: tuple[int, ...]

    @cached_property
    def edge(self) -> dict:
        """Every key's link as a :class:`DirectedEdge`."""
        if self.mode == "consensus":
            return {e: e for e in self.keys}
        return {i: DirectedEdge(i, self.cascade.parent[i]) for i in self.keys}

    @cached_property
    def into(self) -> tuple[tuple, ...]:
        """Per node id, the keys of the links into it, ascending by source."""
        if self.mode == "consensus":
            return tuple(
                tuple(DirectedEdge(k, node) for k in nbrs)
                for node, nbrs in enumerate(self.cascade.neighbors)
            )
        return self.cascade.children

    def fold(self, step: Callable[[object, int, list], object]) -> dict:
        """:meth:`LinkCascade.fold` over this mode's links."""
        return self.cascade.fold(step, self.mode == "consensus")

    def sums(self, values: Mapping) -> tuple[dict, dict[int, float]]:
        """Exact ``(tx, per_root)``: ``values`` summed over the links strictly
        upstream of each key and over every link towards each sink."""
        if self.mode == "consensus":
            return self.cascade.consensus_sums(values)
        total = fsum(values[i] for i in self.keys)
        return self.cascade.upstream_sums(values), {self.sinks[0]: total}


@dataclass(frozen=True)
class TreeNetwork:
    """Immutable rooted weighted tree.

    Parameters
    ----------
    root : int
        The designated root.  In aggregation mode this is the sink and
        carries no weight; in consensus mode it is weighted like every
        other node.
    parents : mapping int -> int
        Parent of every non-root node.  Must induce a connected acyclic
        graph reaching ``root``.
    weights : mapping int -> float
        Weight of every node that observes data.  Must cover all non-root
        nodes; the root entry is optional (absent = aggregation sink).
        Every square and their sum must be positive and finite.

    Node ids must be dense integers ``0 .. n_nodes-1``.  The constructor
    builds ``cascade``, the network's :class:`LinkCascade`; every other
    structure, each mode's :class:`LinkSet` included, is built on first
    read.  Instances are immutable after construction and safe to share
    across threads.
    """

    root: int
    parents: Mapping[int, int]
    weights: Mapping[int, float]

    def __post_init__(self) -> None:
        parents = {
            _check_node_id(k, "node id"): _check_node_id(v, f"parent of node {k}")
            for k, v in self.parents.items()
        }
        weights = {
            _check_node_id(k, "node id"): _check_weight(k, v)
            for k, v in self.weights.items()
        }
        root = _check_node_id(self.root, "root id")
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "weights", weights)

        nodes = {root} | set(parents)
        if root in parents:
            raise TreeError(f"root {root} must not have a parent")
        n = len(nodes)
        if n > MAX_NODES:
            raise TreeError(f"network has {n} nodes, maximum supported is {MAX_NODES}")
        if nodes != set(range(n)):
            missing = sorted(set(range(n)) - nodes)
            extra = sorted(nodes - set(range(n)))
            raise TreeError(
                f"node ids must be dense 0..{n - 1}; missing {missing}, unexpected {extra}"
            )
        for child, parent in parents.items():
            if parent >= n:
                raise TreeError(f"node {child}: parent {parent} is not a node")
        object.__setattr__(self, "cascade", LinkCascade(root, parents))

        for node in range(n):
            if node != root and node not in weights:
                raise TreeError(f"node {node}: missing weight")
        for node in weights:
            if node >= n:
                raise TreeError(f"weight given for unknown node {node}")
        try:
            fsum(w * w for w in weights.values())
        except OverflowError:
            raise TreeError("the sum of squared weights (the total variance) overflows") from None

    # -- basic structure ------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.parents) + 1

    @cached_property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(range(self.n_nodes))

    @cached_property
    def sources(self) -> tuple[int, ...]:
        """Non-root nodes in ascending order; one per tree link."""
        return tuple(i for i in self.node_ids if i != self.root)

    @property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """Every node's children, ascending, indexed by node id."""
        return self.cascade.children

    def children_of(self, i: int) -> tuple[int, ...]:
        self._require_node(i)
        return self.children[i]

    @property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Every node's neighbours, ascending, indexed by node id."""
        return self.cascade.neighbors

    @cached_property
    def fully_weighted(self) -> bool:
        return self.root in self.weights

    def weight(self, i: int) -> float:
        """Weight of node ``i``; an unweighted aggregation sink reads as 0."""
        self._require_node(i)
        return self.weights.get(i, 0.0)

    def _require_node(self, i: int) -> None:
        node = _check_node_id(i, "node id")
        if node >= self.n_nodes:
            raise TreeError(f"unknown node id {node}")

    @property
    def leaves_first(self) -> tuple[int, ...]:
        """Node order with every child before its parent (root last)."""
        return self.cascade.postorder

    # -- subtrees and variances ------------------------------------------

    def subtree_members(self, i: int) -> frozenset[int]:
        self._require_node(i)
        return frozenset(self.cascade.subtree(i))

    def _own_plus(self, link, src: int, fed: list) -> float:
        # w_src^2 plus the variances fed in; fsum keeps the sums exact.
        return fsum([self.weights.get(src, 0.0) ** 2, *fed])

    @cached_property
    def subtree_variances(self) -> dict[int, float]:
        """Partial-sum variance of every subtree, the root's last."""
        var = self.cascade.fold(self._own_plus)
        root = self.root
        var[root] = self._own_plus(root, root, [var[c] for c in self.children[root]])
        return var

    def _require_adjacent(self, edge: tuple[int, int]) -> DirectedEdge:
        try:
            src, dst = edge
        except (TypeError, ValueError):
            raise TreeError(f"expected a (src, dst) pair, got {edge!r}") from None
        e = DirectedEdge(_check_node_id(src, "edge source"), _check_node_id(dst, "edge target"))
        for node in e:
            if node >= self.n_nodes:
                raise TreeError(f"unknown node id {node}")
        parent = self.cascade.parent
        if parent[e.src] != e.dst and parent[e.dst] != e.src:
            raise TreeError(f"nodes {e.src} and {e.dst} are not adjacent")
        return e

    def oriented_members(self, edge: tuple[int, int]) -> frozenset[int]:
        """Component of ``src`` once the undirected edge {src, dst} is cut."""
        return frozenset(self.cascade.members(self._require_adjacent(edge)))

    @cached_property
    def oriented_variances(self) -> dict[DirectedEdge, float]:
        return self.cascade.fold(self._own_plus, consensus=True)

    def links(self, consensus: bool = False) -> LinkSet:
        """The aggregation or, with ``consensus``, the consensus
        :class:`LinkSet`, built on first use."""
        return self._consensus_links if consensus else self._aggregation_links

    @cached_property
    def _aggregation_links(self) -> LinkSet:
        sources, own = self.sources, {i: self.weights[i] ** 2 for i in self.sources}
        return LinkSet(
            "aggregation", self.cascade, sources, self.subtree_variances, own, sources, (self.root,)
        )

    @cached_property
    def _consensus_links(self) -> LinkSet:
        edges, nodes = self.cascade.edges, self.node_ids
        own = {e: self.weights.get(e.src, 0.0) ** 2 for e in edges}
        return LinkSet("consensus", self.cascade, edges, self.oriented_variances, own, nodes, nodes)

    @property
    def directed_edge_order(self) -> tuple[DirectedEdge, ...]:
        """All 2(n-1) directed edges, every edge after its feeding edges
        (:attr:`LinkCascade.order`)."""
        return self.cascade.order

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        nodes = []
        for i in self.node_ids:
            if i == self.root and not self.fully_weighted:
                continue
            entry: dict[str, object] = {"id": i, "weight": self.weights[i]}
            if i != self.root:
                entry["parent"] = self.parents[i]
            nodes.append(entry)
        return {"root": self.root, "nodes": nodes}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def parse_tree(text: str) -> TreeNetwork:
    """Parse a tree document (see the module docstring for the format).

    Raises
    ------
    TreeError
        Malformed document, cycle, disconnected node, duplicate id,
        zero/non-finite weight, or non-finite JSON literal; each message
        carries the offending node id and reason.
    """

    def reject_constant(value: str) -> float:
        raise TreeError(f"non-finite literal {value!r} in tree document")

    try:
        doc = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise TreeError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise TreeError("tree document must be a JSON object")
    if "root" not in doc or "nodes" not in doc:
        raise TreeError('tree document requires "root" and "nodes" keys')
    root = _check_node_id(doc["root"], "root id")
    entries = doc["nodes"]
    if not isinstance(entries, list):
        raise TreeError('"nodes" must be a list')

    parents: dict[int, int] = {}
    weights: dict[int, float] = {}
    for entry in entries:
        if not isinstance(entry, dict) or "id" not in entry:
            raise TreeError(f"node entry {entry!r} must be an object with an 'id'")
        node = _check_node_id(entry["id"], "node id")
        if node in weights:
            raise TreeError(f"node {node}: duplicate id")
        if "weight" not in entry:
            raise TreeError(f"node {node}: missing weight")
        weights[node] = entry["weight"]
        parent = entry.get("parent")
        if node == root:
            if parent is not None:
                raise TreeError(f"node {node}: the root must not declare a parent")
        else:
            if parent is None:
                raise TreeError(f"node {node}: missing parent")
            parents[node] = parent
    return TreeNetwork(root=root, parents=parents, weights=weights)


def make_line(n: int, weights: Sequence[float]) -> TreeNetwork:
    """Aggregation line network ``v0 <- v1 <- ... <- vn``.

    ``n`` is the number of weighted nodes; the sink ``v0`` is unweighted
    and ``parent(i) = i - 1``.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise TreeError(f"line length must be a positive integer, got {n!r}")
    if len(weights) != n:
        raise TreeError(f"expected {n} weights, got {len(weights)}")
    parents = {i: i - 1 for i in range(1, n + 1)}
    return TreeNetwork(root=0, parents=parents, weights=dict(enumerate(weights, start=1)))


def make_consensus_line(weights: Sequence[float]) -> TreeNetwork:
    """Fully weighted line network on ``len(weights)`` nodes, rooted at 0."""
    if len(weights) < 1:
        raise TreeError("a consensus line needs at least one node")
    parents = {i: i - 1 for i in range(1, len(weights))}
    return TreeNetwork(root=0, parents=parents, weights=dict(enumerate(weights)))


def subtree_stats(net: TreeNetwork, i: int) -> SubtreeStats:
    """Members and partial-sum variance of node ``i`` plus its descendants."""
    return SubtreeStats(net.subtree_members(i), net.subtree_variances[i])


def directed_tree(net: TreeNetwork, k: int) -> tuple[DirectedEdge, ...]:
    """Edges of the tree oriented towards root ``k``.

    Exactly ``n_nodes - 1`` edges; ``(i -> j)`` is present iff ``j`` is
    the parent of ``i`` once the tree is re-rooted at ``k``.
    """
    net._require_node(k)
    edges = []
    seen = {k}
    queue = deque([k])
    while queue:
        node = queue.popleft()
        for nb in net.neighbors[node]:
            if nb not in seen:
                seen.add(nb)
                edges.append(DirectedEdge(nb, node))
                queue.append(nb)
    return tuple(sorted(edges))


def oriented_subtree_stats(net: TreeNetwork, edge: tuple[int, int]) -> SubtreeStats:
    """Members and variance on the ``src`` side of directed edge ``src -> dst``.

    The member set is the component of ``src`` in the tree with the
    undirected edge removed.  An unweighted aggregation sink contributes
    zero variance; consensus computations require fully weighted networks
    and enforce that separately.
    """
    e = net._require_adjacent(edge)
    return SubtreeStats(frozenset(net.cascade.members(e)), net.oriented_variances[e])


def edge_multiplicity(net: TreeNetwork, edge: tuple[int, int]) -> int:
    """Number of roots ``k`` whose directed tree uses ``src -> dst``.

    Equals the number of nodes on the ``dst`` side of the cut.
    """
    return net.cascade.multiplicity(net._require_adjacent(edge))


def directed_edges(net: TreeNetwork) -> tuple[DirectedEdge, ...]:
    """All 2(n-1) directed edges in ascending ``(src, dst)`` order."""
    return net.cascade.edges


def normalize_edge_map(
    net: TreeNetwork, values: Mapping[tuple[int, int], float], what: str
) -> dict[DirectedEdge, float]:
    """Validate a per-directed-edge map: full coverage, positive entries."""
    table = {net._require_adjacent(key): float(value) for key, value in values.items()}
    missing = [e for e in directed_edges(net) if e not in table]
    if missing:
        raise InputError(f"{what}: missing entries for edges {[str(e) for e in missing]}")
    for e, v in table.items():
        if not math.isfinite(v) or v <= 0.0:
            raise InputError(f"{what}: edge {e} must be positive and finite, got {v!r}")
    return table


def normalize_link_map(
    net: TreeNetwork, values: Mapping[int, float], what: str
) -> dict[int, float]:
    """Validate a per-link (per non-root node) map: coverage, positivity."""
    table: dict[int, float] = {}
    for key, value in values.items():
        net._require_node(key)
        if key == net.root:
            raise InputError(f"{what}: the root has no uplink")
        table[int(key)] = float(value)
    missing = [i for i in net.sources if i not in table]
    if missing:
        raise InputError(f"{what}: missing entries for nodes {missing}")
    for i, v in table.items():
        if not math.isfinite(v) or v <= 0.0:
            raise InputError(f"{what}: node {i} must be positive and finite, got {v!r}")
    return table


