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
the multiplicities ``|subtree(c)|`` of ``p -> c`` and ``n - |subtree(c)|``
of ``c -> p``, and every oriented member set as one slice or the
complement of one.  The link ``b -> a`` is fed by the links ``k -> b``
from the other neighbours ``k`` of ``b``.

:meth:`TreeNetwork.links` is the one place the mode is decided (the
cascade is mode-free): it returns the mode's :class:`LinkSet`, built on
first use, which numbers the links ``0 .. L-1`` in ascending key order
(the uplink ``i -> parent(i)`` keyed by ``i`` in aggregation, every
directed link by ``(src, dst)`` in consensus).  Per-link values are
sequences indexed by link; keys appear only where a caller's map enters,
checked once by :meth:`LinkSet.read`, and where results leave
(:meth:`LinkSet.keyed`).

Both modes walk their links in one order: the uplinks ``i ->
parent(i)`` leaves-first, then (consensus only) the downlinks ``p -> i``
root-first.  An uplink follows the uplinks into its source and a
downlink ``p -> i`` every link into ``p``, so every link follows the
links that feed it, and the consensus walk begins with the aggregation
walk.  Every per-link recursion is one call of :meth:`LinkSet.fold`:
``step(k, src, fed)`` once per link ``k`` in that order, with ``fed``
the results of the links into ``src`` but the one from ``dst``,
ascending by source.  Steps that draw random numbers or raise on the
first bad link depend on this order.  :meth:`LinkSet.variances` is the
one fold that adds, the sequential test-channel recursion: a link's
variance is its source's squared weight plus ``pass_on(j, variance_j)``
of each feeding link ``j``.  A view keeps the ``2(n-1)`` links into each
node, not the feeding links of each link, which number the sum of
squared degrees.

:meth:`LinkSet.sums` sums per-link values in O(n) in the same order:
every uplink ``i -> parent(i)`` collects the links into ``i``, then
every downlink ``p -> i`` is rerooted as ``(all links into p) - (i ->
p)``, which needs every uplink done.  The sums are exact.  Every finite
double is ``m * 2**e``, so the values are carried as integers over one
common power-of-two denominator; integer sums and the rerooting
subtraction lose nothing, and the one division ``num / 2**k`` per result
is correctly rounded.  Each result is therefore bit-identical to
:func:`math.fsum` over the members it sums, and a sum too large for a
double raises :class:`~gausstree.errors.InfeasibleError`.

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
from dataclasses import dataclass
from functools import cached_property
from math import fsum
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import InfeasibleError, InputError

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

#: Hard cap on network size.  The link cascade, the link views and the
#: exact distortion sums are O(n) plus one O(n log n) sort; a consensus
#: fold, so every consensus variance recursion, reads every link into a
#: link's source: O(sum of squared degrees), quadratic on a star.  The
#: exact oracle is dense.
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
    if type(value) is int and value >= 0:  # the common case, first
        return value
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
    if type(value) is float and 0.0 < value * value < math.inf:  # passes every check
        return value
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
    ``subtree_size[i]`` entries ending at ``position[i]``.  ``edges``
    lists the directed links by ``(src, dst)``.
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
        # Built on first use: only directed trees read them.
        return tuple(
            kids if up < 0 else tuple(sorted((up, *kids)))
            for up, kids in zip(self.parent, self.children)
        )

    @cached_property
    def uplinks(self) -> tuple[DirectedEdge, ...]:
        """The links ``i -> parent(i)``, leaves-first."""
        return tuple(DirectedEdge(i, self.parent[i]) for i in self.postorder[:-1])

    @cached_property
    def edges(self) -> tuple[DirectedEdge, ...]:
        return tuple(sorted(self.uplinks + tuple(e.reversed() for e in self.uplinks)))

    def multiplicity(self, edge: tuple[int, int]) -> int:
        """Number of roots whose directed tree uses ``edge``: the nodes on
        its ``dst`` side."""
        src, dst = edge
        if self.parent[src] == dst:
            return len(self.parent) - self.subtree_size[src]
        return self.subtree_size[dst]

    def node(self, value: object) -> int:
        """``value`` as the id of a node of the tree."""
        node = _check_node_id(value, "node id")
        if node >= len(self.parent):
            raise TreeError(f"unknown node id {node}")
        return node

    def link(self, edge: object) -> DirectedEdge:
        """``edge`` as a directed link of the tree."""
        try:
            src, dst = edge
        except (TypeError, ValueError):
            raise TreeError(f"expected a (src, dst) pair, got {edge!r}") from None
        e = DirectedEdge(_check_node_id(src, "edge source"), _check_node_id(dst, "edge target"))
        for node in e:
            if node >= len(self.parent):
                raise TreeError(f"unknown node id {node}")
        if self.parent[e.src] != e.dst and self.parent[e.dst] != e.src:
            raise TreeError(f"nodes {e.src} and {e.dst} are not adjacent")
        return e

    def subtree(self, i: int) -> tuple[int, ...]:
        """Node ``i`` and its descendants under the stored root."""
        end = self.position[i] + 1
        return self.postorder[end - self.subtree_size[i] : end]

    def members(self, edge: tuple[int, int]) -> tuple[int, ...]:
        """Nodes on the ``src`` side of an existing directed link."""
        src, dst = edge
        if self.parent[src] == dst:
            return self.subtree(src)
        end = self.position[dst] + 1
        return self.postorder[: end - self.subtree_size[dst]] + self.postorder[end:]


class LinkSet:
    """One mode's links, numbered ``0 .. L-1`` in ascending ``keys`` order
    (see the module docstring); ``index`` maps a key to its link.  Per
    link: ``src``, ``dst``, the source's squared weight ``own``, the
    multiplicity ``mult`` (the sinks whose directed tree uses the link, 1
    in aggregation) and the variance it ``carried``.  Per node id:
    ``into``, the links into it ascending by source.  ``up`` lists the
    links ``i -> parent(i)`` leaves-first, ``down`` their reverses
    root-first (none in aggregation), and the fold ``order`` is ``up``
    then ``down``.  The ``observers`` have data and the ``sinks`` estimate
    the whole sum: aggregation is consensus restricted to the directed
    tree towards its one sink, the root."""

    def __init__(
        self, mode: str, cascade: LinkCascade, keys: tuple, src: tuple[int, ...],
        dst: tuple[int, ...], own: tuple[float, ...], mult: tuple[int, ...],
        observers: tuple[int, ...], sinks: tuple[int, ...],
    ) -> None:
        parent, position = cascade.parent, cascade.position
        self.mode, self.cascade, self.keys = mode, cascade, keys
        self.src, self.dst, self.own, self.mult = src, dst, own, mult
        self.observers, self.sinks = observers, sinks
        self.index = {key: k for k, key in enumerate(keys)}
        into: list[list[int]] = [[] for _ in parent]
        up: list = [None] * (len(parent) - 1)  # by the position of the link's child
        down = up[:]
        for k, (s, t) in enumerate(zip(src, dst)):
            into[t].append(k)  # ascending keys list every node's links by source
            if parent[s] == t:
                up[position[s]] = k
            else:
                down[position[t]] = k
        self.into = tuple(map(tuple, into))
        self.up = tuple(up)
        self.down = tuple(k for k in reversed(down) if k is not None)
        self.order = self.up + self.down
        #: The partial-sum variance each link carries (every link passes on
        #: all), a plain attribute because the bound loops read it once per link.
        self.carried = self.variances(lambda k, var: var)

    def fold(self, step: Callable[[int, int, list], object]) -> list:
        """``step(k, src, fed)`` once per link ``k``, every link after its
        feeding links (see the module docstring); returns the results
        indexed by link."""
        src, dst, into = self.src, self.dst, self.into
        out: list = [None] * len(src)
        for k in self.order:
            s, t = src[k], dst[k]
            out[k] = step(k, s, [out[j] for j in into[s] if src[j] != t])
        return out

    def variances(self, pass_on: Callable[[int, float], float]) -> list[float]:
        """The sequential test-channel recursion: every link's variance is
        ``own`` plus ``pass_on(j, variance_j)`` of each feeding link ``j``,
        summed by :func:`math.fsum`; ``pass_on`` may raise to refuse a link."""
        own, var = self.own, [0.0] * len(self.own)

        def step(k: int, src: int, fed: list) -> float:
            var[k] = v = fsum([own[k], *fed])
            return pass_on(k, v)

        self.fold(step)
        return var

    def sums(self, values: Sequence[float]) -> tuple[list[float], list[float], float]:
        """Exact ``(tx, per_sink, total)``: ``values`` summed over the links
        strictly upstream of each link, over the directed tree towards each
        sink (in ``sinks`` order), and in all; a sum beyond the float range
        raises :class:`~gausstree.errors.InfeasibleError`."""
        src, dst, up = self.src, self.dst, self.up
        try:
            num, den = _fixed_point(values)
            rx_into, tx = [0] * len(self.into), [0] * len(num)
            for k in up:  # leaves-first: every link into a source is summed already
                tx[k] = rx_into[src[k]]
                rx_into[dst[k]] += tx[k] + num[k]
            for u, k in zip(reversed(up), self.down):  # root-first rerooting
                tx[k] = rx_into[src[k]] - tx[u] - num[u]
                rx_into[dst[k]] += tx[k] + num[k]
            per_sink = [rx_into[i] / den for i in self.sinks]
            return [t / den for t in tx], per_sink, fsum(per_sink)
        except OverflowError:
            raise InfeasibleError("the distortions summed along the links overflow") from None

    def read(self, values: Mapping, what: str) -> list[float]:
        """A caller's per-link map as floats indexed by link.  Refuses, as
        :class:`~gausstree.errors.InputError`, the first key that names no
        link (in the caller's order), then any link left out, then the
        first value that is not positive and finite (in the caller's order)."""
        noun, shown, link_of = _LINK_KEYS[self.mode]
        table = {link_of(self, key, what): float(value) for key, value in values.items()}
        missing = [shown(key) for k, key in enumerate(self.keys) if k not in table]
        if missing:
            raise InputError(f"{what}: missing entries for {noun}s {missing}")
        return self.positive([table[k] for k in range(len(self.keys))], what, table)

    def positive(self, values: list[float], what: str, order: Iterable[int] = ()) -> list[float]:
        """``values``, once each is positive and finite; checked in
        ``order``, else in link order."""
        for k in order or range(len(values)):
            if not 0.0 < values[k] < math.inf:
                noun = _LINK_KEYS[self.mode][0]
                raise InputError(
                    f"{what}: {noun} {self.keys[k]} must be positive and finite, got {values[k]!r}"
                )
        return values

    def split(self, total: float) -> list[float]:
        """``total`` split equally over the links."""
        return [total / len(self.keys)] * len(self.keys) if self.keys else []

    def listed(self, mapping: Mapping) -> list:
        """A map the library keyed by link (a profile, a rate map), indexed by link."""
        return [mapping[key] for key in self.keys]

    def keyed(self, values: Sequence) -> dict:
        """Per-link ``values`` keyed by link, in ascending key order."""
        return dict(zip(self.keys, values))


def _uplink(view: LinkSet, key: object, what: str) -> int:
    # An aggregation key: any node but the root, whose uplink it names.  A
    # plain int that names a link needs no further check.
    link = view.index.get(key) if type(key) is int else None
    if link is None:
        link = view.index.get(view.cascade.node(key))
    if link is None:
        raise InputError(f"{what}: the root has no uplink")
    return link


#: Per mode: how a diagnostic names a link and shows its key, and how a
#: caller's key is read into a link.
_LINK_KEYS = {
    "aggregation": ("node", int, _uplink),
    "consensus": ("edge", str, lambda view, key, what: view.index[view.cascade.link(key)]),
}


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
        self.cascade.node(i)
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
        self.cascade.node(i)
        return self.weights.get(i, 0.0)

    @property
    def leaves_first(self) -> tuple[int, ...]:
        """Node order with every child before its parent (root last)."""
        return self.cascade.postorder

    # -- subtrees and variances ------------------------------------------

    def subtree_members(self, i: int) -> frozenset[int]:
        self.cascade.node(i)
        return frozenset(self.cascade.subtree(i))

    @cached_property
    def subtree_variances(self) -> dict[int, float]:
        """Partial-sum variance of every subtree, the root's last."""
        view, w = self.links(), self.weights.get(self.root, 0.0)
        var = view.keyed(view.carried)
        var[self.root] = fsum([w * w, *(view.carried[k] for k in view.into[self.root])])
        return var

    def oriented_members(self, edge: tuple[int, int]) -> frozenset[int]:
        """Component of ``src`` once the undirected edge {src, dst} is cut."""
        return frozenset(self.cascade.members(self.cascade.link(edge)))

    @cached_property
    def oriented_variances(self) -> dict[DirectedEdge, float]:
        """Partial-sum variance of every oriented subtree, keyed by link."""
        view = self.links(True)
        return view.keyed(view.carried)

    def links(self, consensus: bool = False) -> LinkSet:
        """The aggregation or, with ``consensus``, the consensus
        :class:`LinkSet`, built on first use."""
        return self._consensus_links if consensus else self._aggregation_links

    @cached_property
    def _aggregation_links(self) -> LinkSet:
        cascade, sources, w = self.cascade, self.sources, self.weights
        return LinkSet(
            "aggregation", cascade, sources, sources, tuple(cascade.parent[i] for i in sources),
            # w * w, not w ** 2: pow is not always correctly rounded.
            tuple(w[i] * w[i] for i in sources), (1,) * len(sources), sources, (self.root,),
        )

    @cached_property
    def _consensus_links(self) -> LinkSet:
        cascade, edges, nodes = self.cascade, self.cascade.edges, self.node_ids
        squares = {i: w * w for i, w in self.weights.items()}
        return LinkSet(
            "consensus", cascade, edges, tuple(e.src for e in edges), tuple(e.dst for e in edges),
            tuple(squares.get(e.src, 0.0) for e in edges),
            tuple(cascade.multiplicity(e) for e in edges), nodes, nodes,
        )

    @property
    def directed_edge_order(self) -> tuple[DirectedEdge, ...]:
        """All 2(n-1) directed edges, every edge after its feeding edges:
        the consensus view's fold order, read off the cascade."""
        up = self.cascade.uplinks
        return up + tuple(e.reversed() for e in reversed(up))

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
    net.cascade.node(k)
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
    e, view = net.cascade.link(edge), net.links(True)
    return SubtreeStats(frozenset(net.cascade.members(e)), view.carried[view.index[e]])


def edge_multiplicity(net: TreeNetwork, edge: tuple[int, int]) -> int:
    """Number of roots ``k`` whose directed tree uses ``src -> dst``.

    Equals the number of nodes on the ``dst`` side of the cut.
    """
    return net.cascade.multiplicity(net.cascade.link(edge))


def directed_edges(net: TreeNetwork) -> tuple[DirectedEdge, ...]:
    """All 2(n-1) directed edges in ascending ``(src, dst)`` order."""
    return net.cascade.edges
