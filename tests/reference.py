"""The paper's set definitions, computed by brute force: the independent
reference the tests hold gausstree's link folds to.

Everything here is derived from a tree's ``root``, ``parents`` and
``weights`` alone; nothing reads a ``LinkSet``, a ``LinkCascade`` or any
other structure a ``TreeNetwork`` builds.  Each definition is computed the
slow, obvious way:

- the nodes on the ``src`` side of a link ``src -> dst``, by a BFS out of
  ``src`` that never steps onto ``dst``; a node's subtree under the stored
  root is the ``src`` side of its uplink;
- the variance of a node set, by :func:`math.fsum` of ``w * w`` over it
  (an unweighted aggregation sink adds nothing);
- the directed tree towards ``k``, by a BFS out of ``k``: each other node
  sends to its next hop towards ``k``;
- the multiplicity of a link, by counting the roots whose directed tree
  uses it;
- the fold order: the uplinks ``i -> parent(i)`` leaves-first, children
  in ascending order, then their reverses root-first.

How closely gausstree must agree:

- a sum of per-link values (``tx``, ``rx``, each sink's and the total
  distortion) comes from ``LinkSet.sums``, which is exact and rounds once,
  so it equals :func:`math.fsum` over the reference's links bit for bit;
- a carried variance is a nested ``fsum``: each link's is rounded once
  from its source's square and the rounded variances of the links feeding
  it, so it may differ from ``fsum`` over the members.
  :meth:`Tree.carried_error_bound` gives the forward-error bound it must
  meet.
"""

from __future__ import annotations

import math
from collections import deque

#: The unit roundoff of a double.
UNIT_ROUNDOFF = 2.0**-53


def neighbours(root: int, parents: dict) -> dict[int, list[int]]:
    """Every node's neighbours, ascending."""
    adjacent: dict[int, list[int]] = {node: [] for node in (root, *parents)}
    for child, parent in parents.items():
        adjacent[child].append(parent)
        adjacent[parent].append(child)
    return {node: sorted(nbs) for node, nbs in adjacent.items()}


def children(root: int, parents: dict) -> dict[int, list[int]]:
    """Every node's children under ``root``, ascending."""
    kids: dict[int, list[int]] = {root: [], **{c: [] for c in parents}}
    for child, parent in sorted(parents.items()):
        kids[parent].append(child)
    return kids


def postorder(root: int, parents: dict) -> list[int]:
    """Every node after its children, children in ascending order, the
    root last."""
    kids, order = children(root, parents), []
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(kids[node]))
    return order


def structure(root: int, parents: dict, n: int):
    """What a tree's construction must give, computed the slow way: the
    cycle message of a chain walk from every node in ascending order, else
    the postorder and every node's children and neighbours, by node id."""
    resolved = {root}
    for start in sorted(parents):
        path, node = [], start
        while node not in resolved and node not in path:
            path.append(node)
            node = parents[node]
        if node in path:
            return f"cycle detected through node {node}"
        resolved.update(path)
    kids, adjacent = children(root, parents), neighbours(root, parents)
    return (
        tuple(postorder(root, parents)),
        [tuple(kids[i]) for i in range(n)],
        [tuple(adjacent[i]) for i in range(n)],
    )


class Tree:
    """A tree known by its ``root``, ``parents`` and ``weights`` alone
    (read off a ``TreeNetwork`` or any object with those three)."""

    def __init__(self, net) -> None:
        self.root, self.parents, self.weights = net.root, dict(net.parents), dict(net.weights)
        self.nodes = sorted([self.root, *self.parents])
        self.adjacent = neighbours(self.root, self.parents)

    def _distances(self, start: int, blocked: int | None = None) -> dict[int, int]:
        # BFS out of ``start`` that never enters ``blocked``: every node
        # reached, with its number of hops from ``start``.
        hops = {start: 0}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for nb in self.adjacent[node]:
                if nb != blocked and nb not in hops:
                    hops[nb] = hops[node] + 1
                    queue.append(nb)
        return hops

    def side(self, src: int, dst: int) -> frozenset[int]:
        """The nodes ``src`` reaches once the tree edge ``{src, dst}`` is cut."""
        return frozenset(self._distances(src, blocked=dst))

    def subtree(self, i: int) -> frozenset[int]:
        """Node ``i`` and its descendants under the stored root."""
        return frozenset(self.nodes) if i == self.root else self.side(i, self.parents[i])

    def variance(self, members) -> float:
        """The variance of the weighted partial sum over ``members``."""
        w = self.weights
        return math.fsum(w[j] * w[j] for j in members if j in w)

    def edges(self) -> list[tuple[int, int]]:
        """Every directed link ``(src, dst)``, ascending."""
        up = list(self.parents.items())
        return sorted(up + [(p, c) for c, p in up])

    def next_hops(self, k: int) -> dict[int, int]:
        """Every node but ``k`` mapped to its neighbour on the way to
        ``k``: the parent map of the tree re-rooted at ``k``."""
        hop: dict[int, int] = {}
        queue = deque([k])
        while queue:
            node = queue.popleft()
            for nb in self.adjacent[node]:
                if nb != k and nb not in hop:
                    hop[nb] = node
                    queue.append(nb)
        return hop

    def directed_tree(self, k: int) -> list[tuple[int, int]]:
        """The links of the tree oriented towards root ``k``, ascending."""
        return sorted(self.next_hops(k).items())

    def multiplicities(self) -> dict[tuple[int, int], int]:
        """Every directed link mapped to the number of roots whose
        directed tree uses it."""
        count = dict.fromkeys(self.edges(), 0)
        for k in self.nodes:
            for link in self.directed_tree(k):
                count[link] += 1
        return count

    def upstream(self, src: int, dst: int) -> list[tuple[int, int]]:
        """The links strictly upstream of ``src -> dst`` in the directed
        tree towards ``dst``: those whose source lies on the ``src`` side."""
        members = self.side(src, dst)
        return [e for e in self.directed_tree(dst) if e[0] in members and e != (src, dst)]

    def fold_order(self, consensus: bool) -> list[tuple[int, int]]:
        """The links in fold order: the uplinks leaves-first, then
        (consensus only) their reverses root-first."""
        up = [(i, self.parents[i]) for i in postorder(self.root, self.parents)[:-1]]
        return up + [(p, i) for i, p in reversed(up)] if consensus else up

    def carried_error_bound(self, src: int, dst: int, reference: float) -> float:
        """How far the variance carried on ``src -> dst`` may lie from
        ``reference``, the ``fsum`` of squares over its members.

        The carried variance nests one correctly rounded ``fsum`` per link
        along the longest chain of feeding links, whose length ``h`` is
        the number of nodes on the longest path out of ``src`` on its
        side.  All terms are positive, so each rounding adds at most one
        unit roundoff ``u`` of relative error to the exact sum, and the
        innermost ``fsum`` of a single square is exact: the carried value
        is within ``(h - 1) u (1 + O(h u))`` of the exact sum, and
        ``reference`` within ``u``.  ``(h + 1) u`` times ``reference``
        covers both, with room to spare for ``h`` up to ``MAX_NODES``.
        """
        height = 1 + max(self._distances(src, blocked=dst).values())
        return (height + 1) * UNIT_ROUNDOFF * reference
