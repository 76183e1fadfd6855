"""The link cascade against brute-force enumeration, on trees of up to
300 nodes and values spread over many binades."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gausstree import allocation, bounds, network, simulator
from gausstree.errors import InfeasibleError
from gausstree.network import (
    TreeError,
    TreeNetwork,
    directed_edges,
    directed_tree,
    edge_multiplicity,
    make_consensus_line,
    make_line,
)

from helpers import bfs_side, fixed_fraction_d, shaped_tree

shapes = st.sampled_from(["line", "star", "random"])
sizes = st.integers(2, 300)
seeds = st.integers(0, 2**32 - 1)


def spread_values(rng: np.random.Generator, keys) -> dict:
    """Positive values log-uniform over 1e-300 .. 1e2."""
    keys = list(keys)
    return dict(zip(keys, (10.0 ** rng.uniform(-300, 2, len(keys))).tolist()))


@given(shape=shapes, n=sizes, seed=seeds)
def test_tx_is_fsum_over_strict_subtree(shape, n, seed):
    rng = np.random.default_rng(seed)
    net = shaped_tree(rng, shape, n)
    inc = spread_values(rng, net.sources)
    profile = bounds.derive_distortions(net, inc)
    assert list(profile.tx) == list(net.sources)
    for i in net.sources:
        below = bfs_side(net, i, net.parents[i]) - {i}
        assert profile.tx[i] == math.fsum(inc[j] for j in below)


@given(shape=shapes, n=sizes, seed=seeds)
def test_consensus_cascade_matches_enumeration(shape, n, seed):
    rng = np.random.default_rng(seed)
    net = shaped_tree(rng, shape, n, mode="consensus")
    sides = {e: bfs_side(net, e.src, e.dst) for e in directed_edges(net)}
    trees = {k: directed_tree(net, k) for k in net.node_ids}

    assert directed_edges(net) == tuple(sorted(sides))
    order = net.directed_edge_order
    up = [(i, net.parents[i]) for i in net.leaves_first[:-1]]
    assert order == tuple(up + [(dst, src) for src, dst in reversed(up)])
    rank = {e: k for k, e in enumerate(order)}
    for e in order:
        for k in net.neighbors[e.src]:
            if k != e.dst:
                assert rank[(k, e.src)] < rank[e]
    uses = dict.fromkeys(sides, 0)
    for tree in trees.values():
        for e in tree:
            uses[e] += 1
    for e, side in sides.items():
        assert edge_multiplicity(net, e) == net.n_nodes - len(side) == uses[e]
        assert net.oriented_members(e) == frozenset(side)

    inc = spread_values(rng, sides)
    profile = bounds.consensus_derive(net, inc)
    assert list(profile.per_root) == list(net.node_ids)
    for k, tree in trees.items():
        assert profile.per_root[k] == math.fsum(inc[e] for e in tree)
    assert list(profile.tx) == list(directed_edges(net))
    for e, side in sides.items():
        below = [f for f in trees[e.dst] if f != e and f.src in side]
        assert profile.tx[e] == math.fsum(inc[f] for f in below)


def test_sums_overflow_like_fsum():
    with pytest.raises(OverflowError):
        math.fsum([1e308, 1e308])
    line = make_line(3, [1.0, 1.0, 1.0]).links()
    with pytest.raises(InfeasibleError, match="overflow"):
        line.sums([1.0, 1e308, 1e308])
    pair = make_consensus_line([1.0, 1.0, 1.0]).links(True)
    with pytest.raises(InfeasibleError, match="overflow"):
        pair.sums([1e308] * len(pair.keys))


def test_folds_never_enumerate_members(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("member enumeration called from a fold")

    monkeypatch.setattr(TreeNetwork, "subtree_members", forbidden)
    monkeypatch.setattr(TreeNetwork, "oriented_members", forbidden)
    monkeypatch.setattr(network, "directed_tree", forbidden)
    n = 3000
    agg = make_line(n, [1.0] * n)
    profile = bounds.derive_distortions(agg, {i: 1e-6 for i in agg.sources})
    assert profile.tx[1] == math.fsum([1e-6] * (n - 1))
    cons = make_consensus_line([1.0] * n)
    order = cons.directed_edge_order
    assert len(order) == 2 * (n - 1)
    assert [edge_multiplicity(cons, e) for e in order[:2]] == [n - 1, n - 2]
    profile = bounds.consensus_derive(cons, {e: 1e-6 for e in order})
    assert profile.per_root[0] == math.fsum([1e-6] * (n - 1))



@given(shape=shapes, n=sizes, seed=seeds, consensus=st.booleans())
def test_fold_visits_each_link_once_after_its_feeding_links(shape, n, seed, consensus):
    mode = "consensus" if consensus else "aggregation"
    net = shaped_tree(np.random.default_rng(seed), shape, n, mode)
    seen = []

    view = net.links(consensus)

    def step(k, src, fed):  # each result is the link's key
        link = view.keys[k]
        seen.append(link)
        if consensus:
            assert src == link.src
            assert fed == [(k, src) for k in sorted(net.neighbors[src]) if k != link.dst]
        else:
            assert src == link
            assert fed == sorted(net.children[link])
        return link

    out = view.fold(step)
    assert tuple(seen) == (net.directed_edge_order if consensus else net.leaves_first[:-1])
    assert out == list(view.keys)


@given(shape=shapes, n=sizes, seed=seeds, fraction=st.floats(0.01, 0.99))
def test_aggregation_is_consensus_restricted_to_the_uplinks(shape, n, seed, fraction):
    net = shaped_tree(np.random.default_rng(seed), shape, n, "consensus")
    agg, cons = net.links(), net.links(True)
    d = cons.listed(fixed_fraction_d(net, fraction, consensus=True))
    uplink = [cons.index[link] for link in zip(agg.src, agg.dst)]
    assert [cons.carried[e] for e in uplink] == agg.carried
    assert agg.mult == (1,) * len(agg.keys)  # one sink uses every uplink
    up = agg.variances(lambda k, var: var - d[uplink[k]])
    both = cons.variances(lambda e, var: var - d[e])
    assert [both[e] for e in uplink] == up

    def visits(view):
        seen = []
        view.fold(lambda k, src, fed: seen.append(k))
        return seen

    # The consensus fold starts with the uplinks, in aggregation's order.
    assert visits(cons)[: len(uplink)] == [uplink[k] for k in visits(agg)]


def test_cascade_outlives_its_network():
    net = make_line(3, [1.0, 1.0, 1.0])
    views = net.links(), net.links(True)
    del net  # the views hold the cascade, not the network
    up = views[0].fold(lambda link, src, fed: 1 + sum(fed))
    assert views[0].keyed(up) == {3: 1, 2: 2, 1: 3}
    down = views[1].fold(lambda link, src, fed: 1 + sum(fed))
    assert views[1].keyed(down) == {
        (3, 2): 1, (0, 1): 1, (2, 1): 2, (1, 2): 2, (1, 0): 3, (2, 3): 3
    }


@pytest.mark.parametrize("mode", ["aggregation", "consensus"])
def test_folded_network_needs_no_cycle_collector(mode):
    gc.disable()
    try:
        net = shaped_tree(np.random.default_rng(5), "random", 40, mode)
        net.subtree_variances, net.oriented_variances, net.directed_edge_order
        net.links().into, net.links(True).into, net.links().index, net.links(True).index
        alive = weakref.ref(net)
        del net
        assert alive() is None
    finally:
        gc.enable()


def reference_structure(root: int, parents: dict, n: int):
    """What a tree's structure must read, computed the slow way: the cycle
    message of a chain walk from every node in ascending order, else the
    children and neighbours by sorting and a recursive postorder."""
    resolved = {root}
    for start in sorted(parents):
        path, node = [], start
        while node not in resolved and node not in path:
            path.append(node)
            node = parents[node]
        if node in path:
            return f"cycle detected through node {node}"
        resolved.update(path)
    children = [sorted(c for c, p in parents.items() if p == i) for i in range(n)]
    neighbors = [sorted(children[i] + ([parents[i]] if i != root else [])) for i in range(n)]
    order: list[int] = []

    def visit(node):
        for c in children[node]:
            visit(c)
        order.append(node)

    visit(root)
    return tuple(order), [tuple(c) for c in children], [tuple(nb) for nb in neighbors]


@given(data=st.data(), n=st.integers(2, 12))
def test_structure_and_cycle_check_match_a_reference(data, n):
    root = data.draw(st.integers(0, n - 1))
    parents = {i: data.draw(st.integers(0, n - 1)) for i in range(n) if i != root}
    expected = reference_structure(root, parents, n)
    weights = {i: 1.0 for i in parents}
    if isinstance(expected, str):
        with pytest.raises(TreeError) as caught:
            TreeNetwork(root=root, parents=parents, weights=weights)
        assert str(caught.value) == expected
    else:
        net = TreeNetwork(root=root, parents=parents, weights=weights)
        views = [net.children[i] for i in range(n)], [net.neighbors[i] for i in range(n)]
        assert (net.leaves_first, *views) == expected



@pytest.mark.parametrize("shape", ["line", "star", "random"])
def test_neighbors_are_built_only_when_consensus_reads_them(shape):
    rng = np.random.default_rng(17)
    agg = shaped_tree(rng, shape, 40)
    bounds.full_report(agg, 0.01)
    assert "neighbors" not in vars(agg.cascade)

    net = shaped_tree(rng, shape, 40, mode="consensus")
    bounds.consensus_report(net, {e: 1e-3 for e in directed_edges(net)}, 0.078)
    view = net.links(True)
    expected = reference_structure(net.root, net.parents, 40)[2]
    assert [tuple(view.src[k] for k in into) for into in view.into] == expected
    assert all(view.dst[k] == node for node, into in enumerate(view.into) for k in into)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("shape", ["line", "star", "random"])
def test_aggregation_never_builds_the_consensus_view(shape):
    # The consensus view's oriented variances cost O(sum of squared
    # degrees): 1.6 s on a 3001-node star, where a bounds op takes 13 ms.
    net = shaped_tree(np.random.default_rng(23), shape, 40)
    bounds.full_report(net, 0.01)
    allocation.allocate_equal_incremental(net, 0.01)
    d = {i: 1e-3 for i in net.sources}
    simulator.simulate_aggregation(net, d, simulator.SimulationConfig(50, 3, seed=1))
    simulator.analytic_mmse_check(net, d)
    assert "_aggregation_links" in vars(net) and "_consensus_links" not in vars(net)


@given(shape=st.sampled_from(["line", "star", "caterpillar", "random"]), n=sizes, seed=seeds)
def test_directed_edge_order_is_the_consensus_fold_order(shape, n, seed):
    net = shaped_tree(np.random.default_rng(seed), shape, n, mode="consensus")
    order = net.directed_edge_order
    assert "_consensus_links" not in vars(net)
    view = net.links(True)
    assert order == tuple(view.keys[k] for k in view.order)


def test_directed_edge_order_skips_the_consensus_view_on_a_star():
    # Read off the cascade, not the consensus view, whose ``carried``
    # costs O(sum of squared degrees): 5.4 s on this star.
    net = shaped_tree(np.random.default_rng(29), "star", 10_000, mode="consensus")
    order = net.directed_edge_order
    assert len(order) == 2 * 9_999 and order[0] == (1, 0) and order[-1] == (0, 1)
    assert "_consensus_links" not in vars(net)
