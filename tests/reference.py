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

Below the tree definitions sit the closed forms the tests check against
that gausstree does not compute: the test-channel distortions at given
rates (what the dithered baseline must not beat), and the Gaussian
entropy, KL divergence and smoothing inequality behind the outer bound's
penalty.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

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


def matched_test_channel_distortions(tree: Tree, rates: dict) -> dict[int, float]:
    """The distortion ``sigma_i * 4**-R_i`` the aggregation test channel
    reaches on the uplink of each node ``i`` at the rates ``R``, where
    ``sigma_i`` is ``w_i**2`` plus ``sigma_c - d_c`` of each child ``c``,
    leaves first.  Refuses, in ascending node order, a link without a rate,
    then a rate that is not non-negative and finite."""
    links = sorted(tree.parents)
    for i in links:
        if i not in rates:
            raise ValueError(f"link {i}: no rate given")
    for i in links:
        if not (rates[i] >= 0.0 and math.isfinite(rates[i])):
            raise ValueError(f"link {i}: rate must be non-negative, got {rates[i]!r}")
    kids, sigma, d = children(tree.root, tree.parents), {}, {}
    for i in postorder(tree.root, tree.parents)[:-1]:
        w = tree.weights[i]
        sigma[i] = math.fsum([w * w, *(sigma[c] - d[c] for c in kids[i])])
        d[i] = sigma[i] * 4.0 ** -rates[i]
    return d


# ---------------------------------------------------------------------------
# Gaussian information measures (Cover and Thomas, ch. 8)


def gaussian_entropy_bits(variance: float) -> float:
    """Differential entropy ``0.5 * log2(2 pi e variance)`` of a scalar normal."""
    if not (variance > 0.0 and math.isfinite(variance)):
        raise ValueError(f"variance must be positive and finite, got {variance!r}")
    return 0.5 * math.log2(2.0 * math.pi * math.e * variance)


def gaussian_kl_nats(mean_p, cov_p, mean_q, cov_q) -> float:
    """``D(N(mean_p, cov_p) || N(mean_q, cov_q))`` in nats:
    ``0.5 * (tr(Sq^-1 Sp) - N + dm' Sq^-1 dm + ln det Sq - ln det Sp)``.
    Round-off may take it a hair below 0; down to ``-1e-12`` reads 0."""
    mean_p, mean_q = np.atleast_1d(mean_p), np.atleast_1d(mean_q)
    cov_p, cov_q = np.atleast_2d(cov_p), np.atleast_2d(cov_q)
    if mean_p.size != mean_q.size:
        raise ValueError(f"dimension mismatch: {mean_p.size} vs {mean_q.size}")
    (sign_p, logdet_p), (sign_q, logdet_q) = np.linalg.slogdet(cov_p), np.linalg.slogdet(cov_q)
    if sign_p <= 0 or sign_q <= 0:
        raise ValueError("a covariance is singular")
    dm = mean_q - mean_p
    quad = float(dm @ np.linalg.solve(cov_q, dm))
    value = 0.5 * (float(np.trace(np.linalg.solve(cov_q, cov_p))) - mean_p.size + quad
                   + logdet_q - logdet_p)
    assert value >= -1e-12, f"KL divergence evaluated to {value:g}"
    return max(value, 0.0)


def smoothing_margin(mean, cov, t: float) -> float:
    """``rhs - lhs`` of the Gaussian-smoothing inequality, in nats, for the
    pair ``(x, y)`` whose stacked law is ``N(mean, cov)``.

    With ``z ~ N(0, I)`` independent of the pair, the KL divergence between
    the laws of ``x + sqrt(t) z`` and ``y + sqrt(t) z`` is at most
    ``E||x - y||^2 / (2 t)``.  Both sides are closed forms: the smoothed
    marginals are ``N(mu_x, S_xx + t I)`` and ``N(mu_y, S_yy + t I)``, and the
    mean-square distance comes from the joint second moments.  The margin
    is ``>= 0`` up to round-off.  Refuses a ``t`` that is not positive and
    finite, an odd dimension and a covariance that is not positive
    semi-definite.
    """
    mean, cov = np.asarray(mean, dtype=float), np.asarray(cov, dtype=float)
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"smoothing variance t must be positive, got {t!r}")
    if mean.size % 2:
        raise ValueError(f"joint dimension must be even, got {mean.size}")
    if np.linalg.eigvalsh(cov)[0] < -1e-10 * max(float(np.max(np.abs(cov))), 1.0):
        raise ValueError("covariance is not positive semi-definite")
    n = mean.size // 2
    mean_x, mean_y = mean[:n], mean[n:]
    cov_xx, cov_yy, cov_xy = cov[:n, :n], cov[n:, n:], cov[:n, n:]
    eye = t * np.eye(n)
    lhs = gaussian_kl_nats(mean_x, cov_xx + eye, mean_y, cov_yy + eye)
    mean_sq = float(np.sum((mean_x - mean_y) ** 2) + np.trace(cov_xx) + np.trace(cov_yy)
                    - 2.0 * np.trace(cov_xy))
    return mean_sq / (2.0 * t) - lhs
