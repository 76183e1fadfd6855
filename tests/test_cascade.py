"""The link cascade against brute-force enumeration, on trees of up to
300 nodes and values spread over many binades."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference
from gausstree import allocation, bounds, simulator
from gausstree.errors import InfeasibleError
from gausstree.network import LinkCascade, TreeError, TreeNetwork, make_line

from helpers import Keyed, consensus_line, fixed_fraction_d, shaped_tree

shapes = st.sampled_from(["line", "star", "random"])
all_shapes = st.sampled_from(["line", "star", "caterpillar", "random"])
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
    ref = reference.Tree(net)
    for i in net.sources:
        below = ref.subtree(i) - {i}
        assert profile.tx[i] == math.fsum(inc[j] for j in below)


@given(shape=all_shapes, n=sizes, seed=seeds)
def test_consensus_cascade_matches_enumeration(shape, n, seed):
    rng = np.random.default_rng(seed)
    net = shaped_tree(rng, shape, n, mode="consensus")
    view, ref = net.links(True), reference.Tree(net)
    sides = {e: ref.side(*e) for e in ref.edges()}
    trees = {k: ref.directed_tree(k) for k in net.node_ids}
    uses = ref.multiplicities()

    assert list(view.keys) == list(sides) == list(net.cascade.edges)
    order = [view.keys[k] for k in view.order]
    rank = {e: k for k, e in enumerate(order)}
    for e in order:
        for k in ref.adjacent[e[0]]:
            if k != e[1]:
                assert rank[(k, e[0])] < rank[e]
    for k, e in enumerate(view.keys):
        side = sides[e]
        assert view.mult[k] == net.n_nodes - len(side) == uses[e]
        assert frozenset(net.cascade.members(e)) == side

    inc = spread_values(rng, sides)
    profile = Keyed(net, True).derive(inc)
    assert list(profile.per_root) == list(net.node_ids)
    per_root = {k: math.fsum(inc[e] for e in tree) for k, tree in trees.items()}
    assert profile.per_root == per_root  # bit for bit
    assert profile.total == math.fsum(per_root.values())
    assert list(profile.tx) == list(sides)
    for e, side in sides.items():
        below = [f for f in trees[e[1]] if f[0] in side and f != e]
        assert profile.tx[e] == math.fsum(inc[f] for f in below)


def test_sums_overflow_like_fsum():
    with pytest.raises(OverflowError):
        math.fsum([1e308, 1e308])
    line = make_line(3, [1.0, 1.0, 1.0]).links()
    with pytest.raises(InfeasibleError, match="overflow"):
        line.sums([1.0, 1e308, 1e308])
    pair = consensus_line([1.0, 1.0, 1.0]).links(True)
    with pytest.raises(InfeasibleError, match="overflow"):
        pair.sums([1e308] * len(pair.keys))


def test_folds_never_enumerate_members(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("member enumeration called from a fold")

    # Only the dense oracle may list a link's members.
    monkeypatch.setattr(LinkCascade, "members", forbidden)
    monkeypatch.setattr(LinkCascade, "subtree", forbidden)
    n = 3000
    agg = make_line(n, [1.0] * n)
    profile = bounds.derive_distortions(agg, {i: 1e-6 for i in agg.sources})
    assert profile.tx[1] == math.fsum([1e-6] * (n - 1))
    assert bounds.full_report(agg, 1e-3).total_distortion == 1e-3
    cons = consensus_line([1.0] * n)
    view = cons.links(True)
    order = [view.keys[k] for k in view.order]
    assert len(order) == 2 * (n - 1)
    assert [view.mult[k] for k in view.order[:2]] == [n - 1, n - 2]
    profile = Keyed(cons, True).derive({e: 1e-6 for e in order})
    assert profile.per_root[0] == math.fsum([1e-6] * (n - 1))
    assert bounds.consensus_report(cons, profile.inc, profile.total).mode == "consensus"


@given(shape=shapes, n=sizes, seed=seeds, consensus=st.booleans())
def test_fold_visits_each_link_once_after_its_feeding_links(shape, n, seed, consensus):
    mode = "consensus" if consensus else "aggregation"
    net = shaped_tree(np.random.default_rng(seed), shape, n, mode)
    seen = []

    view = net.links(consensus)

    ref = reference.Tree(net)
    kids = reference.children(net.root, net.parents)

    def step(k, src, fed):  # each result is the link's key
        link = view.keys[k]
        seen.append(link if consensus else (link, net.parents[link]))
        if consensus:
            assert src == link.src
            assert fed == [(k, src) for k in ref.adjacent[src] if k != link.dst]
        else:
            assert src == link
            assert fed == kids[link]
        return link

    out = view.fold(step)
    assert seen == ref.fold_order(consensus)
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
        net.cascade.uplinks, net.cascade.edges, net.links().carried, net.links(True).carried
        net.links().into, net.links(True).into, net.links().index, net.links(True).index
        alive = weakref.ref(net)
        del net
        assert alive() is None
    finally:
        gc.enable()


@given(data=st.data(), n=st.integers(2, 12))
def test_structure_and_cycle_check_match_a_reference(data, n):
    root = data.draw(st.integers(0, n - 1))
    parents = {i: data.draw(st.integers(0, n - 1)) for i in range(n) if i != root}
    expected = reference.structure(root, parents, n)
    weights = {i: 1.0 for i in parents}
    if isinstance(expected, str):
        with pytest.raises(TreeError) as caught:
            TreeNetwork(root=root, parents=parents, weights=weights)
        assert str(caught.value) == expected
    else:
        net = TreeNetwork(root=root, parents=parents, weights=weights)
        # The links into each node come from its children (aggregation)
        # or from all its neighbours (consensus), ascending by source.
        views = [[tuple(view.src[k] for k in into) for into in view.into]
                 for view in (net.links(), net.links(True))]
        assert (net.cascade.postorder, *views) == expected


@pytest.mark.parametrize("shape", ["line", "star", "random"])
def test_neighbors_are_built_only_when_consensus_reads_them(shape):
    # Every node's neighbours are the sources of the consensus links into
    # it, which aggregation never builds.
    rng = np.random.default_rng(17)
    agg = shaped_tree(rng, shape, 40)
    bounds.full_report(agg, 0.01)
    assert "_consensus_links" not in vars(agg)

    net = shaped_tree(rng, shape, 40, mode="consensus")
    bounds.consensus_report(net, {e: 1e-3 for e in reference.Tree(net).edges()}, 0.078)
    view = net.links(True)
    expected = reference.structure(net.root, net.parents, 40)[2]
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


@given(shape=all_shapes, n=sizes, seed=seeds)
def test_directed_edge_order_is_the_consensus_fold_order(shape, n, seed):
    # The uplinks leaves-first, then their reverses root-first.
    net = shaped_tree(np.random.default_rng(seed), shape, n, mode="consensus")
    view = net.links(True)
    order = reference.Tree(net).fold_order(consensus=True)
    assert [view.keys[k] for k in view.order] == order
    assert [view.keys[k] for k in view.up] == order[: n - 1]
    assert [view.keys[k] for k in view.down] == order[n - 1 :]
