import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference
from gausstree import bounds
from gausstree.errors import InputError
from gausstree.network import TreeError, TreeNetwork, make_line, parse_tree

from helpers import Keyed, consensus_line, random_tree, shaped_tree, tree_json

LINE3_DOC = json.dumps(
    {
        "root": 0,
        "nodes": [
            {"id": 1, "weight": 1.0, "parent": 0},
            {"id": 2, "weight": 1.0, "parent": 1},
        ],
    }
)


def star(n_leaves: int, center_weight: float = 1.0, leaf_weight: float = 1.0):
    """Consensus star: node 0 is the center, leaves 1..n."""
    return TreeNetwork(
        root=0,
        parents={i: 0 for i in range(1, n_leaves + 1)},
        weights={0: center_weight, **{i: leaf_weight for i in range(1, n_leaves + 1)}},
    )


def carried(net: TreeNetwork, link, consensus: bool = False) -> float:
    """The variance ``net`` carries on ``link`` (a node's uplink, or an edge)."""
    view = net.links(consensus)
    return view.carried[view.index[link]]


def tree_sums(net: TreeNetwork) -> list[float]:
    """Each node's sum, by ``LinkSet.sums``, of the values ``2**-k`` of the
    consensus links ``k`` in its directed tree: exact, so the bits name the
    links summed."""
    view = net.links(True)
    return view.sums([2.0**-k for k in range(len(view.keys))])[1]


def link_values(net: TreeNetwork, links) -> float:
    view = net.links(True)
    return math.fsum(2.0 ** -view.index[link] for link in links)


class TestParsing:
    def test_line_document_echoes_structure(self):
        net = parse_tree(LINE3_DOC)
        assert net.root == 0
        assert net.parents == {1: 0, 2: 1}
        assert net.weights == {1: 1.0, 2: 1.0}
        assert not net.fully_weighted

    def test_cycle_is_rejected(self):
        doc = json.dumps(
            {
                "root": 0,
                "nodes": [
                    {"id": 1, "weight": 1.0, "parent": 2},
                    {"id": 2, "weight": 1.0, "parent": 1},
                ],
            }
        )
        with pytest.raises(TreeError, match="cycle"):
            parse_tree(doc)

    def test_zero_weight_is_rejected(self):
        doc = json.dumps(
            {"root": 0, "nodes": [{"id": 1, "weight": 0.0, "parent": 0}]}
        )
        with pytest.raises(TreeError, match="node 1.*nonzero"):
            parse_tree(doc)

    def test_nan_literal_is_rejected(self):
        doc = '{"root": 0, "nodes": [{"id": 1, "weight": NaN, "parent": 0}]}'
        with pytest.raises(TreeError, match="non-finite"):
            parse_tree(doc)

    def test_duplicate_id_is_rejected(self):
        doc = json.dumps(
            {
                "root": 0,
                "nodes": [
                    {"id": 1, "weight": 1.0, "parent": 0},
                    {"id": 1, "weight": 2.0, "parent": 0},
                ],
            }
        )
        with pytest.raises(TreeError, match="duplicate"):
            parse_tree(doc)

    def test_missing_parent_is_rejected(self):
        doc = json.dumps({"root": 0, "nodes": [{"id": 1, "weight": 1.0}]})
        with pytest.raises(TreeError, match="missing parent"):
            parse_tree(doc)

    def test_sparse_ids_are_rejected(self):
        with pytest.raises(TreeError, match="dense"):
            TreeNetwork(root=0, parents={5: 0}, weights={5: 1.0})

    def test_weighted_root_round_trips(self):
        net = consensus_line([1.0, 2.0, 0.5])
        again = parse_tree(tree_json(net))
        assert again == net

    def test_aggregation_round_trips(self):
        net = make_line(4, [1.0, -2.0, 0.5, 3.0])
        assert parse_tree(tree_json(net)) == net


class TestConstructors:
    def test_single_link_line(self):
        net = make_line(1, [1.0])
        assert net.sources == (1,)
        assert net.parents == {1: 0}

    def test_line_variances_match_member_enumeration(self):
        net = make_line(3, [1.0, 1.0, 1.0])
        ref = reference.Tree(net)
        for i in net.sources:
            assert carried(net, i) == ref.variance(ref.subtree(i))
        assert [carried(net, i) for i in (3, 2, 1)] == [1.0, 2.0, 3.0]

    def test_line_variances_unequal_weights(self):
        net = make_line(2, [2.0, 3.0])
        assert carried(net, 2) == 9.0
        assert carried(net, 1) == 13.0

    def test_the_constructor_checks_what_the_builders_pass_on(self):
        with pytest.raises(TreeError, match="^node 2: weight must be nonzero$"):
            make_line(2, [1.0, 0.0])
        with pytest.raises(TreeError, match="^node 0: weight must be finite, got inf$"):
            consensus_line([float("inf"), 1.0])
        with pytest.raises(TreeError, match="^weight given for unknown node 5$"):
            TreeNetwork(root=0, parents={1: 0}, weights={1: 1.0, 5: 1.0})

    def test_bad_line_arguments(self):
        with pytest.raises(TreeError):
            make_line(0, [])
        with pytest.raises(TreeError):
            make_line(2, [1.0])
        with pytest.raises(TreeError):
            make_line(1, [0.0])


class TestSubtrees:
    def test_leaf_stats(self):
        net = make_line(2, [1.0, 0.5])
        assert net.cascade.subtree(2) == (2,)
        assert carried(net, 2) == 0.25

    def test_star_child_is_leaf(self):
        net = star(3)
        assert net.cascade.subtree(1) == (1,)
        assert carried(net, 1) == 1.0

    def test_unknown_node(self):
        net = make_line(2, [1.0, 1.0])
        with pytest.raises(TreeError, match="^unknown node id 9$"):
            bounds.derive_distortions(net, {1: 0.1, 2: 0.1, 9: 0.1})

    def test_root_variance_of_aggregation_tree(self):
        # The sink carries no weight: the links into it carry every source.
        net = TreeNetwork(root=0, parents={1: 0, 2: 1, 3: 0}, weights={1: 1.0, 2: 2.0, 3: 3.0})
        assert sorted(net.cascade.subtree(net.root)) == [0, 1, 2, 3]
        assert carried(net, 1) + carried(net, 3) == 1.0 + 4.0 + 9.0

    def test_root_variance_of_consensus_tree(self):
        # Every node's square and the variances carried into it make up
        # the total variance.
        net = TreeNetwork(root=1, parents={0: 1, 2: 1}, weights={0: 1.0, 1: 2.0, 2: 3.0})
        assert sorted(net.cascade.subtree(net.root)) == [0, 1, 2]
        assert 4.0 + carried(net, (0, 1), True) + carried(net, (2, 1), True) == 1.0 + 4.0 + 9.0
        assert 1.0 + carried(net, (1, 0), True) == 14.0

    def test_root_variance_squares_by_multiplication(self):
        # pow is not always correctly rounded: here w ** 2 is one ulp above w * w.
        w = 1.3554200642307423
        assert w**2 != w * w
        net = TreeNetwork(0, {1: 0}, {0: w, 1: 1.0})
        assert carried(net, (0, 1), True) == w * w
        assert carried(make_line(1, [w]), 1) == w * w


class TestDirectedTrees:
    # Each node's sum runs over exactly its directed tree, in gausstree
    # and in the reference.
    def test_line_towards_stored_root(self):
        net = consensus_line([1.0, 1.0, 1.0])
        tree = [(1, 0), (2, 1)]
        assert reference.Tree(net).directed_tree(0) == tree
        assert tree_sums(net)[0] == link_values(net, tree)

    def test_line_rerooted_at_far_end(self):
        net = consensus_line([1.0, 1.0, 1.0])
        tree = [(0, 1), (1, 2)]
        assert reference.Tree(net).directed_tree(2) == tree
        assert tree_sums(net)[2] == link_values(net, tree)

    def test_star_rerooted_at_leaf(self):
        net = star(2)
        tree = [(0, 1), (2, 0)]
        assert reference.Tree(net).directed_tree(1) == tree
        assert tree_sums(net)[1] == link_values(net, tree)

    def test_edge_count(self):
        net = star(4)
        ref, sums = reference.Tree(net), tree_sums(net)
        for k in net.node_ids:
            tree = ref.directed_tree(k)
            assert len(tree) == net.n_nodes - 1
            assert sums[k] == link_values(net, tree)


class TestOrientedSubtrees:
    def test_line_towards_root(self):
        net = consensus_line([1.0, 1.0, 1.0])
        assert sorted(net.cascade.members((1, 0))) == [1, 2]
        assert carried(net, (1, 0), True) == 2.0

    def test_line_away_from_root_includes_root_weight(self):
        net = consensus_line([2.0, 1.0, 1.0])
        assert sorted(net.cascade.members((1, 2))) == [0, 1]
        assert carried(net, (1, 2), True) == 5.0

    def test_leaf_edge(self):
        net = consensus_line([1.0, 1.0, 0.5])
        assert net.cascade.members((2, 1)) == (2,)
        assert carried(net, (2, 1), True) == 0.25

    def test_non_adjacent_pair_rejected(self):
        net = consensus_line([1.0, 1.0, 1.0])
        d = {e: 0.1 for e in reference.Tree(net).edges()}
        with pytest.raises(TreeError, match="not adjacent"):
            Keyed(net, True).derive({**d, (0, 2): 0.1})


def multiplicity(net: TreeNetwork, edge) -> int:
    view = net.links(True)
    return view.mult[view.index[edge]]


class TestEdgeMultiplicity:
    def test_line_end_edges(self):
        net = consensus_line([1.0, 1.0, 1.0])
        uses = reference.Tree(net).multiplicities()
        for edge, m in [((1, 0), 1), ((1, 2), 1), ((0, 1), 2)]:
            assert multiplicity(net, edge) == uses[edge] == m

    def test_star_multiplicities(self):
        net = star(4)
        uses = reference.Tree(net).multiplicities()
        assert multiplicity(net, (0, 1)) == uses[(0, 1)] == 1
        assert multiplicity(net, (1, 0)) == uses[(1, 0)] == 4

    def test_matches_directed_tree_enumeration(self):
        rng = np.random.default_rng(3)
        net = random_tree(rng, 9, mode="consensus")
        ref = reference.Tree(net)
        for e in ref.edges():
            count = sum(e in ref.directed_tree(k) for k in net.node_ids)
            assert count == multiplicity(net, e)


@given(
    shape=st.sampled_from(["line", "star", "caterpillar", "random"]),
    n=st.integers(2, 300),
    seed=st.integers(0, 2**32 - 1),
    consensus=st.booleans(),
)
def test_carried_variances_are_within_their_forward_error_bound(shape, n, seed, consensus):
    # A carried variance is a nested fsum, so it need not equal the fsum of
    # squares over its members; it must lie within the bound of its nesting.
    net = shaped_tree(np.random.default_rng(seed), shape, n, "consensus" if consensus else "aggregation")
    view, ref = net.links(consensus), reference.Tree(net)
    for k, (src, dst) in enumerate(zip(view.src, view.dst)):
        want = ref.variance(ref.side(src, dst))
        assert abs(view.carried[k] - want) <= ref.carried_error_bound(src, dst, want)


@given(seed=st.integers(0, 10_000), n=st.integers(2, 10))
def test_directed_tree_edge_total(seed, n):
    net = random_tree(np.random.default_rng(seed), n, mode="consensus")
    ref = reference.Tree(net)
    total = sum(len(ref.directed_tree(k)) for k in net.node_ids)
    assert total == sum(net.links(True).mult) == net.n_nodes * (net.n_nodes - 1)


@given(seed=st.integers(0, 10_000), n=st.integers(2, 10))
def test_multiplicities_split_the_node_count(seed, n):
    net = random_tree(np.random.default_rng(seed), n, mode="consensus")
    uses = reference.Tree(net).multiplicities()
    for src, dst in uses:
        assert multiplicity(net, (src, dst)) + multiplicity(net, (dst, src)) == net.n_nodes
        assert uses[(src, dst)] + uses[(dst, src)] == net.n_nodes


@given(seed=st.integers(0, 10_000), n=st.integers(1, 10))
def test_oriented_subtree_agrees_with_rooted_subtree(seed, n):
    # Under an unweighted sink, the consensus view's uplinks carry what
    # the aggregation view's do, over the same members.
    net = random_tree(np.random.default_rng(seed), n)
    agg, cons = net.links(), net.links(True)
    for k, i in enumerate(agg.keys):
        uplink = (i, net.parents[i])
        assert net.cascade.members(uplink) == net.cascade.subtree(i)
        assert cons.carried[cons.index[uplink]] == agg.carried[k]


@given(seed=st.integers(0, 10_000), n=st.integers(1, 10))
def test_json_round_trip(seed, n):
    net = random_tree(np.random.default_rng(seed), n, mode="consensus" if n > 1 else "aggregation")
    assert parse_tree(tree_json(net)) == net


@pytest.mark.parametrize(
    "consensus, values, err",
    [
        (False, {3: -1.0, 0: 0.1}, "x: the root has no uplink"),
        (False, {3: -1.0, 2: 0.0}, "x: missing entries for nodes [1]"),
        (False, {3: -1.0, 2: 0.0, 1: 0.1}, "x: node 3 must be positive and finite, got -1.0"),
        (True, {(1, 0): -1.0, (0, 2): 0.1}, "nodes 0 and 2 are not adjacent"),
        (True, {(1, 0): -1.0}, "x: missing entries for edges ['0->1', '1->2', '2->1']"),
        (
            True,
            {(2, 1): 0.0, (1, 2): 0.1, (1, 0): -1.0, (0, 1): 0.1},
            "x: edge 2->1 must be positive and finite, got 0.0",
        ),
    ],
)
def test_read_refuses_key_faults_then_missing_links_then_values(consensus, values, err):
    # Key faults and bad values are reported in the caller's order, after
    # the earlier classes of fault whatever their place in the map.
    net = consensus_line([1.0, 1.0, 1.0]) if consensus else make_line(3, [1.0, 1.0, 1.0])
    view = net.links(consensus)
    with pytest.raises(InputError) as caught:
        view.read(values, "x")
    assert str(caught.value) == err
    good = {key: 0.1 for key in view.keys}
    assert view.read(dict(reversed(good.items())), "x") == [0.1] * len(view.keys)
