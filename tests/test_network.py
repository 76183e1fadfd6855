import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gausstree.errors import InputError
from gausstree.network import (
    DirectedEdge,
    TreeError,
    TreeNetwork,
    directed_edges,
    directed_tree,
    edge_multiplicity,
    make_consensus_line,
    make_line,
    oriented_subtree_stats,
    parse_tree,
    subtree_stats,
)

from helpers import random_tree

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
        net = make_consensus_line([1.0, 2.0, 0.5])
        again = parse_tree(net.to_json())
        assert again == net

    def test_aggregation_round_trips(self):
        net = make_line(4, [1.0, -2.0, 0.5, 3.0])
        assert parse_tree(net.to_json()) == net


class TestConstructors:
    def test_single_link_line(self):
        net = make_line(1, [1.0])
        assert net.sources == (1,)
        assert net.parents == {1: 0}

    def test_line_variances_match_member_enumeration(self):
        net = make_line(3, [1.0, 1.0, 1.0])
        for i in net.sources:
            stats = subtree_stats(net, i)
            assert stats.variance == sum(net.weight(j) ** 2 for j in stats.members)
        assert subtree_stats(net, 3).variance == 1.0
        assert subtree_stats(net, 2).variance == 2.0
        assert subtree_stats(net, 1).variance == 3.0

    def test_line_variances_unequal_weights(self):
        net = make_line(2, [2.0, 3.0])
        assert subtree_stats(net, 2).variance == 9.0
        assert subtree_stats(net, 1).variance == 13.0

    def test_the_constructor_checks_what_the_builders_pass_on(self):
        with pytest.raises(TreeError, match="^node 2: weight must be nonzero$"):
            make_line(2, [1.0, 0.0])
        with pytest.raises(TreeError, match="^node 0: weight must be finite, got inf$"):
            make_consensus_line([float("inf"), 1.0])
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
        stats = subtree_stats(net, 2)
        assert stats.members == frozenset({2})
        assert stats.variance == 0.25

    def test_star_child_is_leaf(self):
        net = star(3)
        stats = subtree_stats(net, 1)
        assert stats.members == frozenset({1})
        assert stats.variance == 1.0

    def test_unknown_node(self):
        net = make_line(2, [1.0, 1.0])
        with pytest.raises(TreeError):
            subtree_stats(net, 9)

    def test_root_variance_of_aggregation_tree(self):
        # The sink carries no weight: the root's subtree sums every source.
        net = TreeNetwork(root=0, parents={1: 0, 2: 1, 3: 0}, weights={1: 1.0, 2: 2.0, 3: 3.0})
        stats = subtree_stats(net, net.root)
        assert stats.members == frozenset({0, 1, 2, 3})
        assert stats.variance == 1.0 + 4.0 + 9.0

    def test_root_variance_of_consensus_tree(self):
        net = TreeNetwork(root=1, parents={0: 1, 2: 1}, weights={0: 1.0, 1: 2.0, 2: 3.0})
        stats = subtree_stats(net, net.root)
        assert stats.members == frozenset({0, 1, 2})
        assert stats.variance == 1.0 + 4.0 + 9.0

    def test_root_variance_squares_by_multiplication(self):
        # pow is not always correctly rounded: here w ** 2 is one ulp above w * w.
        w = 1.3554200642307423
        assert w**2 != w * w
        assert subtree_stats(TreeNetwork(0, {}, {0: w}), 0).variance == w * w


class TestDirectedTrees:
    def test_line_towards_stored_root(self):
        net = make_consensus_line([1.0, 1.0, 1.0])
        assert set(directed_tree(net, 0)) == {DirectedEdge(2, 1), DirectedEdge(1, 0)}

    def test_line_rerooted_at_far_end(self):
        net = make_consensus_line([1.0, 1.0, 1.0])
        assert set(directed_tree(net, 2)) == {DirectedEdge(0, 1), DirectedEdge(1, 2)}

    def test_star_rerooted_at_leaf(self):
        net = star(2)
        assert set(directed_tree(net, 1)) == {DirectedEdge(2, 0), DirectedEdge(0, 1)}

    def test_edge_count(self):
        net = star(4)
        for k in net.node_ids:
            assert len(directed_tree(net, k)) == net.n_nodes - 1


class TestOrientedSubtrees:
    def test_line_towards_root(self):
        net = make_consensus_line([1.0, 1.0, 1.0])
        stats = oriented_subtree_stats(net, (1, 0))
        assert stats.members == frozenset({1, 2})
        assert stats.variance == 2.0

    def test_line_away_from_root_includes_root_weight(self):
        net = make_consensus_line([2.0, 1.0, 1.0])
        stats = oriented_subtree_stats(net, (1, 2))
        assert stats.members == frozenset({0, 1})
        assert stats.variance == 5.0

    def test_leaf_edge(self):
        net = make_consensus_line([1.0, 1.0, 0.5])
        stats = oriented_subtree_stats(net, (2, 1))
        assert stats.members == frozenset({2})
        assert stats.variance == 0.25

    def test_non_adjacent_pair_rejected(self):
        net = make_consensus_line([1.0, 1.0, 1.0])
        with pytest.raises(TreeError, match="not adjacent"):
            oriented_subtree_stats(net, (0, 2))


class TestEdgeMultiplicity:
    def test_line_end_edges(self):
        net = make_consensus_line([1.0, 1.0, 1.0])
        assert edge_multiplicity(net, (1, 0)) == 1
        assert edge_multiplicity(net, (1, 2)) == 1
        assert edge_multiplicity(net, (0, 1)) == 2

    def test_star_multiplicities(self):
        net = star(4)
        assert edge_multiplicity(net, (0, 1)) == 1
        assert edge_multiplicity(net, (1, 0)) == 4

    def test_matches_directed_tree_enumeration(self):
        rng = np.random.default_rng(3)
        net = random_tree(rng, 9, mode="consensus")
        for e in directed_edges(net):
            count = sum(e in directed_tree(net, k) for k in net.node_ids)
            assert count == edge_multiplicity(net, e)


@given(seed=st.integers(0, 10_000), n=st.integers(1, 12))
def test_variance_recursion_is_exact(seed, n):
    net = random_tree(np.random.default_rng(seed), n)
    for node in net.node_ids:
        expected = net.weight(node) ** 2 + sum(
            net.subtree_variances[c] for c in net.children_of(node)
        )
        assert net.subtree_variances[node] == pytest.approx(expected, rel=1e-15, abs=0)


@given(seed=st.integers(0, 10_000), n=st.integers(2, 10))
def test_directed_tree_edge_total(seed, n):
    net = random_tree(np.random.default_rng(seed), n, mode="consensus")
    total = sum(len(directed_tree(net, k)) for k in net.node_ids)
    assert total == net.n_nodes * (net.n_nodes - 1)


@given(seed=st.integers(0, 10_000), n=st.integers(2, 10))
def test_multiplicities_split_the_node_count(seed, n):
    net = random_tree(np.random.default_rng(seed), n, mode="consensus")
    for e in directed_edges(net):
        assert edge_multiplicity(net, e) + edge_multiplicity(net, e.reversed()) == net.n_nodes


@given(seed=st.integers(0, 10_000), n=st.integers(1, 10))
def test_oriented_subtree_agrees_with_rooted_subtree(seed, n):
    net = random_tree(np.random.default_rng(seed), n)
    for i in net.sources:
        oriented = oriented_subtree_stats(net, (i, net.parents[i]))
        rooted = subtree_stats(net, i)
        assert oriented.members == rooted.members
        assert oriented.variance == rooted.variance


@given(seed=st.integers(0, 10_000), n=st.integers(1, 10))
def test_json_round_trip(seed, n):
    net = random_tree(np.random.default_rng(seed), n, mode="consensus" if n > 1 else "aggregation")
    assert parse_tree(net.to_json()) == net


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
    net = make_consensus_line([1.0, 1.0, 1.0]) if consensus else make_line(3, [1.0, 1.0, 1.0])
    view = net.links(consensus)
    with pytest.raises(InputError) as caught:
        view.read(values, "x")
    assert str(caught.value) == err
    good = {key: 0.1 for key in view.keys}
    assert view.read(dict(reversed(good.items())), "x") == [0.1] * len(view.keys)
