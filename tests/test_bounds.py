import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from gausstree import bounds
from gausstree.errors import ConsistencyError, InfeasibleError, InputError
from gausstree.network import TreeNetwork, make_line

from helpers import (
    Keyed,
    consensus_line,
    equal_split,
    random_feasible_d,
    random_tree,
    shaped_tree,
    uniform_edge_d,
)

LOG2E = math.log2(math.e)


def star3_aggregation():
    return TreeNetwork(
        root=0, parents={1: 0, 2: 0, 3: 0}, weights={1: 1.0, 2: 1.0, 3: 1.0}
    )


class TestDeriveDistortions:
    def test_line3_hand_recursion(self):
        net = make_line(3, [1.0, 1.0, 1.0])
        profile = bounds.derive_distortions(net, {1: 0.01, 2: 0.01, 3: 0.01})
        assert profile.tx == {3: 0.0, 2: 0.01, 1: 0.02}
        assert profile.rx == {3: 0.01, 2: 0.02, 1: 0.03}
        assert profile.total == 0.03

    def test_single_node(self):
        net = make_line(1, [1.0])
        profile = bounds.derive_distortions(net, {1: 0.2})
        assert profile.tx == {1: 0.0}
        assert profile.rx == {1: 0.2}
        assert profile.total == 0.2

    def test_star_leaves_have_no_transmit_distortion(self):
        profile = bounds.derive_distortions(star3_aggregation(), {1: 0.02, 2: 0.02, 3: 0.02})
        assert profile.tx == {1: 0.0, 2: 0.0, 3: 0.0}
        assert profile.total == pytest.approx(0.06, rel=1e-15)

    def test_missing_entry(self):
        net = make_line(2, [1.0, 1.0])
        with pytest.raises(InputError, match="missing"):
            bounds.derive_distortions(net, {1: 0.1})

    def test_non_positive_entry(self):
        net = make_line(2, [1.0, 1.0])
        with pytest.raises(InputError, match="positive"):
            bounds.derive_distortions(net, {1: 0.1, 2: 0.0})

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 12))
    def test_recursions_are_exact(self, seed, n):
        rng = np.random.default_rng(seed)
        net = random_tree(rng, n)
        inc = {i: float(rng.uniform(1e-6, 2.0)) for i in net.sources}
        profile = bounds.derive_distortions(net, inc)
        ref = reference.Tree(net)
        for i in net.sources:
            assert abs(profile.rx[i] - profile.tx[i] - profile.inc[i]) <= 1e-15 * profile.rx[i]
            downstream = math.fsum(inc[j] for j in ref.subtree(i) if j != i)
            assert profile.tx[i] == downstream
        assert profile.total == math.fsum(inc.values())
        again = bounds.derive_distortions(net, profile.inc)
        assert again == profile


class TestPenalty:
    def test_zero_argument(self):
        net = make_line(1, [1.0])
        assert Keyed(net).penalty(1, 0.0) == 0.0

    def test_unit_everything(self):
        net = make_line(1, [1.0])
        assert Keyed(net).penalty(1, 1.0) == pytest.approx(
            2.7811011491194377, abs=1e-14
        )

    def test_square_root_order_near_zero(self):
        net = make_line(1, [1.0])
        limit = LOG2E * math.sqrt(2.0)  # (log2 e / s2) * sqrt(2 s2) at s2 = 1
        r10 = Keyed(net).penalty(1, 1e-10) / math.sqrt(1e-10)
        r12 = Keyed(net).penalty(1, 1e-12) / math.sqrt(1e-12)
        assert r10 == pytest.approx(limit, rel=1e-4)
        assert r12 == pytest.approx(limit, rel=1e-5)
        assert abs(r12 - limit) < abs(r10 - limit)

    @given(x1=st.floats(0.0, 10.0), x2=st.floats(0.0, 10.0))
    def test_monotone(self, x1, x2):
        net = make_line(2, [0.7, 1.3])
        lo, hi = sorted((x1, x2))
        if lo < hi:
            assert Keyed(net).penalty(1, lo) < Keyed(net).penalty(1, hi)

    def test_negative_argument(self):
        net = make_line(1, [1.0])
        with pytest.raises(InputError):
            Keyed(net).penalty(1, -0.1)


class TestOuterBounds:
    def test_single_link_matches_point_to_point(self):
        net = make_line(1, [1.0])
        profile = bounds.derive_distortions(net, {1: 0.01})
        outer = bounds.outer_bound_incremental(net, profile)
        assert outer.total_bits == pytest.approx(3.321928094887362, abs=1e-12)

    def test_two_link_line(self):
        net = make_line(2, [1.0, 1.0])
        profile = bounds.derive_distortions(net, {1: 0.01, 2: 0.01})
        outer = bounds.outer_bound_incremental(net, profile)
        expected = 0.5 * math.log2(1.0 / 0.01) + 0.5 * (
            math.log2(2.0 / 0.01) - Keyed(net).penalty(1, 0.01)
        )
        assert outer.total_bits == pytest.approx(expected, abs=1e-12)
        assert outer.total_bits == pytest.approx(7.069176367590268, abs=1e-12)

    def test_full_distortion_leaves_only_penalties(self):
        net = make_line(2, [1.0, 1.0])
        inc = net.links().keyed(net.links().carried)
        profile = bounds.derive_distortions(net, inc)
        outer = bounds.outer_bound_incremental(net, profile)
        expected = -0.5 * Keyed(net).penalty(1, profile.tx[1])
        assert outer.total_bits == pytest.approx(expected, abs=1e-12)
        assert outer.total_bits <= 0.0

    def test_closed_form_single_link(self):
        net = make_line(1, [1.0])
        value = bounds.outer_bound_closed_form(net, 0.25)
        assert value == pytest.approx(
            1.0 - 0.5 * Keyed(net).penalty(1, 0.25), abs=1e-12
        )

    def test_closed_form_two_link_line(self):
        net = make_line(2, [1.0, 1.0])
        assert bounds.outer_bound_closed_form(net, 0.02) == pytest.approx(
            6.887085079152634, abs=1e-12
        )

    def test_closed_form_gap_vanishes(self):
        net = make_line(3, [1.0, 1.0, 1.0])
        gaps = []
        for exponent in range(2, 9):
            d_total = 10.0**-exponent
            gaps.append(
                bounds.inner_bound_minimized(net, d_total)
                - bounds.outer_bound_closed_form(net, d_total)
            )
        assert all(g > 0 for g in gaps)
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-3


class TestCutset:
    def test_single_link_coincides_with_incremental(self):
        net = make_line(1, [1.0])
        profile = bounds.derive_distortions(net, {1: 0.01})
        assert Keyed(net).cutset(profile) == pytest.approx(
            3.321928094887362, abs=1e-12
        )

    def test_zero_bits_at_full_distortion(self):
        net = star3_aggregation()
        inc = net.links().keyed(net.links().carried)
        profile = bounds.derive_distortions(net, inc)
        assert Keyed(net).cutset(profile) == pytest.approx(0.0, abs=1e-12)

    def test_dominated_by_incremental_at_small_distortion(self):
        net = make_line(3, [1.0, 1.0, 1.0])
        profile = bounds.derive_distortions(net, equal_split(net, 1e-4))
        assert bounds.outer_bound_incremental(net, profile).total_bits > Keyed(net).cutset(profile)


class TestInnerBound:
    def test_single_link(self):
        net = make_line(1, [1.0])
        keyed = Keyed(net)
        assert keyed.inner({1: 0.01})[0] == pytest.approx(3.321928094887362, abs=1e-12)
        assert keyed.derive({1: 0.01}).total == 0.01
        assert keyed.sigma_hat({1: 0.01}) == {1: 1.0}

    def test_two_link_variance_recursion(self):
        net = make_line(2, [1.0, 1.0])
        d = {1: 0.01, 2: 0.01}
        sigma_hat = Keyed(net).sigma_hat(d)
        assert sigma_hat[2] == 1.0
        assert sigma_hat[1] == pytest.approx(1.99, abs=1e-15)
        ref = reference.Tree(net)
        assert sigma_hat[1] <= ref.variance(ref.subtree(1))
        assert Keyed(net).inner(d)[0] == pytest.approx(7.143856189774724, abs=1e-12)

    def test_full_rate_zero_distortion_parameters(self):
        net = make_line(2, [1.0, 1.0])
        # describe the full test-channel variance at every node
        d2 = 1.0
        d1 = 1.0  # sigma_hat_1 = (1 - 1) + 1 = 1
        keyed, d = Keyed(net), {2: d2, 1: d1}
        assert keyed.sigma_hat(d) == {2: 1.0, 1: 1.0}
        assert keyed.derive(d).total == 2.0
        assert keyed.inner(d)[0] == pytest.approx(0.5 * math.log2(2.0), abs=1e-12)

    def test_infeasible_distortion(self):
        net = make_line(2, [1.0, 1.0])
        with pytest.raises(InfeasibleError, match="node 1"):
            Keyed(net).inner({2: 0.5, 1: 2.0})

    def test_infeasible_distortion_whose_sum_overflows(self):
        # The test channel refuses the map before its sum is taken.
        net = make_line(2, [1.0, 1.0])
        with pytest.raises(InfeasibleError, match="node 2: distortion 1e"):
            Keyed(net).inner({1: 1e308, 2: 1e308})

    def test_minimized_two_link(self):
        net = make_line(2, [1.0, 1.0])
        assert bounds.inner_bound_minimized(net, 0.02) == pytest.approx(
            7.143856189774724, abs=1e-12
        )

    def test_minimized_single_link_reduces_to_point_to_point(self):
        net = make_line(1, [0.8])
        assert bounds.inner_bound_minimized(net, 0.04) == pytest.approx(
            0.5 * math.log2(0.64 / 0.04), abs=1e-12
        )

    @given(seed=st.integers(0, 5_000), n=st.integers(1, 12))
    def test_minimized_matches_equal_split(self, seed, n):
        rng = np.random.default_rng(seed)
        net = random_tree(rng, n)
        d_total = 0.4 * n * min(net.weights[i] ** 2 for i in net.sources)
        rate, _ = Keyed(net).inner(equal_split(net, d_total))
        assert rate == pytest.approx(
            bounds.inner_bound_minimized(net, d_total), abs=1e-9
        )

    @given(seed=st.integers(0, 5_000), n=st.integers(1, 12))
    def test_sigma_hat_below_subtree_variance(self, seed, n):
        rng = np.random.default_rng(seed)
        net = random_tree(rng, n)
        d = random_feasible_d(rng, net)
        sigma_hat = Keyed(net).sigma_hat(d)
        ref = reference.Tree(net)
        for i in net.sources:
            assert sigma_hat[i] <= ref.variance(ref.subtree(i)) * (1 + 1e-12)


class TestGap:
    def test_single_link_gap_is_zero(self):
        net = make_line(1, [1.0])
        profile = bounds.derive_distortions(net, {1: 0.01})
        assert Keyed(net).gap(profile)[0] == 0.0

    def test_star_gap_is_zero(self):
        net = star3_aggregation()
        profile = bounds.derive_distortions(net, equal_split(net, 0.03))
        delta, per_link = Keyed(net).gap(profile)
        assert delta == 0.0
        assert all(v == 0.0 for v in per_link.values())

    def test_line3_small_distortion_near_asymptote(self):
        net = make_line(3, [1.0, 1.0, 1.0])
        profile = bounds.derive_distortions(net, equal_split(net, 1e-6))
        delta = Keyed(net).gap(profile)[0]
        assert abs(delta - bounds.line_gap_asymptote(3)) <= 0.05

    @given(seed=st.integers(0, 5_000), n=st.integers(1, 12))
    def test_gap_equals_bound_difference(self, seed, n):
        rng = np.random.default_rng(seed)
        net = random_tree(rng, n)
        profile = bounds.derive_distortions(
            net, {i: float(rng.uniform(1e-5, 0.1)) for i in net.sources}
        )
        delta = Keyed(net).gap(profile)[0]
        difference = bounds.outer_bound_incremental(net, profile).total_bits - Keyed(
            net
        ).cutset(profile)
        assert delta == pytest.approx(difference, abs=1e-10)

    def test_asymptote_values(self):
        assert bounds.line_gap_asymptote(1) == 0.0
        assert bounds.line_gap_asymptote(3) == pytest.approx(
            1.292481250360578, abs=1e-14
        )
        assert bounds.line_gap_asymptote(10) == pytest.approx(
            10.895530557358477, abs=1e-12
        )


class TestConsensusProfiles:
    def test_two_node_line(self):
        net = consensus_line([1.0, 1.0])
        profile = Keyed(net, True).derive({(1, 0): 0.3, (0, 1): 0.7})
        assert profile.per_root[0] == 0.3
        assert profile.per_root[1] == 0.7
        assert profile.total == 1.0

    def test_three_node_line_uniform(self):
        net = consensus_line([1.0, 1.0, 1.0])
        profile = Keyed(net, True).derive(uniform_edge_d(net, 0.01))
        assert profile.per_root == {0: pytest.approx(0.02), 1: pytest.approx(0.02), 2: pytest.approx(0.02)}
        assert profile.total == pytest.approx(0.06)

    def test_star_uniform(self):
        net = TreeNetwork(
            root=0,
            parents={1: 0, 2: 0, 3: 0},
            weights={0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0},
        )
        c = 0.005
        profile = Keyed(net, True).derive(uniform_edge_d(net, c))
        for k in net.node_ids:
            assert profile.per_root[k] == pytest.approx(3 * c)
        assert profile.total == pytest.approx(12 * c)

    def test_missing_edge(self):
        net = consensus_line([1.0, 1.0])
        with pytest.raises(InputError, match="missing"):
            Keyed(net, True).derive({(1, 0): 0.3})

    def test_requires_weighted_root(self):
        net = make_line(2, [1.0, 1.0])
        with pytest.raises(InputError, match="weight on every node"):
            Keyed(net, True).derive({})

    @given(seed=st.integers(0, 5_000), n=st.integers(2, 10))
    def test_double_counting_identity(self, seed, n):
        rng = np.random.default_rng(seed)
        net = random_tree(rng, n, mode="consensus")
        uses = reference.Tree(net).multiplicities()
        inc = {e: float(rng.uniform(1e-5, 0.5)) for e in uses}
        profile = Keyed(net, True).derive(inc)
        weighted = math.fsum(uses[e] * inc[e] for e in uses)
        assert profile.total == pytest.approx(weighted, rel=1e-12)

    @given(seed=st.integers(0, 5_000), n=st.integers(2, 10))
    def test_per_edge_recursions(self, seed, n):
        rng = np.random.default_rng(seed)
        net = random_tree(rng, n, mode="consensus")
        ref = reference.Tree(net)
        inc = {e: float(rng.uniform(1e-5, 0.5)) for e in ref.edges()}
        profile = Keyed(net, True).derive(inc)
        for e in ref.edges():
            assert abs(profile.rx[e] - profile.tx[e] - profile.inc[e]) <= 1e-15 * profile.rx[e]
            below = math.fsum(inc[f] for f in ref.upstream(*e))
            assert profile.tx[e] == below


class TestConsensusBounds:
    def test_two_node_outer(self):
        net = consensus_line([1.0, 1.0])
        profile = Keyed(net, True).derive(uniform_edge_d(net, 0.01))
        outer, _ = Keyed(net, True).outer(profile)
        assert outer == pytest.approx(6.643856189774724, abs=1e-12)

    def test_full_distortion_kills_log_terms(self):
        net = consensus_line([1.0, 1.0])
        inc = net.links(True).keyed(net.links(True).carried)
        profile = Keyed(net, True).derive(inc)
        # both edges are leaf edges: no transmit distortion, no penalty
        assert Keyed(net, True).outer(profile)[0] == pytest.approx(
            0.0, abs=1e-12
        )

    def test_exceeds_per_edge_cutset_analog(self):
        net = consensus_line([1.0, 1.0, 1.0])
        profile = Keyed(net, True).derive(uniform_edge_d(net, 1e-5))
        outer = Keyed(net, True).outer(profile)[0]
        ref = reference.Tree(net)
        cutset_analog = math.fsum(
            0.5 * math.log2(ref.variance(ref.side(*e)) / profile.rx[e]) for e in ref.edges()
        )
        assert outer >= cutset_analog

    def test_two_node_inner(self):
        net = consensus_line([1.0, 1.0])
        keyed, d = Keyed(net, True), uniform_edge_d(net, 0.01)
        assert keyed.inner(d)[0] == pytest.approx(6.643856189774724, abs=1e-12)
        assert keyed.derive(d).total == pytest.approx(0.02, rel=1e-12)

    def test_star_inner_matches_derive_total(self):
        net = TreeNetwork(
            root=0,
            parents={1: 0, 2: 0, 3: 0},
            weights={0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0},
        )
        d = uniform_edge_d(net, 0.01)
        keyed, ref = Keyed(net, True), reference.Tree(net)
        rate, _ = keyed.inner(d)
        weighted = math.fsum(m * d[e] for e, m in ref.multiplicities().items())
        assert keyed.derive(d).total == pytest.approx(weighted, rel=1e-12)
        expected_rate = math.fsum(
            0.5 * math.log2(ref.variance(ref.side(*e)) / 0.01) for e in ref.edges()
        )
        assert rate == pytest.approx(expected_rate, rel=1e-12)

    def test_leaf_edge_at_full_rate_contributes_zero(self):
        net = consensus_line([1.0, 1.0, 1.0])
        d = uniform_edge_d(net, 0.01)
        d[(2, 1)] = 1.0  # leaf test-channel variance equals its weight squared
        assert Keyed(net, True).inner(d)[1][(2, 1)] == 0.0

    def test_infeasible_edge(self):
        net = consensus_line([1.0, 1.0, 1.0])
        d = uniform_edge_d(net, 0.01)
        d[(1, 0)] = 2.5  # exceeds sigma_hat(1->0) = (1 - 0.01) + 1
        with pytest.raises(InfeasibleError, match="edge 1->0"):
            Keyed(net, True).inner(d)


class TestReports:
    def test_inner_dominates_outer_on_shared_profile(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            net = random_tree(rng, int(rng.integers(1, 10)))
            d_total = 0.4 * len(net.sources) * min(
                net.weights[i] ** 2 for i in net.sources
            )
            report = bounds.full_report(net, d_total)
            assert report.inner_bits >= report.outer_incremental_bits
            assert report.gap_inner_outer_bits >= 0.0

    def test_report_is_deterministic(self):
        net = make_line(4, [1.0, 0.5, 2.0, 1.5])
        a = bounds.full_report(net, 0.01)
        b = bounds.full_report(net, 0.01)
        assert a == b

    def test_regime_warning_fires(self):
        net = make_line(2, [1.0, 1.0])
        report = bounds.full_report(net, 2.0)  # inc = 1.0 reaches the leaf variance
        assert report.regime_warnings
        assert report.effective()["cutset_bits"] >= 0.0

    def test_csv_shape(self):
        net = make_line(2, [1.0, 1.0])
        rows = bounds.full_report(net, 0.02).to_csv_rows()
        assert rows[0][:2] == ["link", "rate_bits"]
        assert rows[-1][0] == "total"
        assert len(rows) == 4  # header, two links, totals

    def test_classical_comparator_clips_at_zero(self):
        assert bounds.classical_consensus_comparator_bits(4, 10.0) == 0.0

    def test_classical_comparator_is_finite_at_a_subnormal_budget(self):
        # 1 / (2**1.5 * 2e-310) overflows; its logarithm does not.
        bits = bounds.classical_consensus_comparator_bits(2, 2e-310)
        assert bits == -math.log2(2**1.5 * 2e-310)
        assert 1027.0 < bits < 1028.0
        assert bounds.classical_consensus_comparator_bits(4, 1e-4) > 0.0

    def test_consensus_report_fields(self):
        net = consensus_line([1.0, 1.0, 1.0])
        inc = uniform_edge_d(net, 0.005)
        report = bounds.consensus_report(net, inc, 0.03)
        assert report.mode == "consensus"
        assert report.cutset_bits is None
        assert report.classical_comparator_bits is not None
        payload = report.to_json_dict()
        assert "outer_incremental_bits" in payload
        assert "cutset_bits" not in payload


@pytest.mark.parametrize(
    "bound", [bounds.outer_bound_closed_form, bounds.inner_bound_minimized]
)
def test_closed_form_bounds_refuse_a_tree_without_links(bound):
    sink_only = TreeNetwork(root=0, parents={}, weights={})
    with pytest.raises(InputError, match="at least one node besides the root"):
        bound(sink_only, 0.1)


@pytest.mark.parametrize(
    "bound, what",
    [
        (bounds.outer_bound_closed_form, "incremental distortions"),
        (bounds.inner_bound_minimized, "distortion parameters"),
    ],
    ids=["outer", "inner"],
)
def test_closed_form_bounds_refuse_a_split_that_underflows(bound, what):
    # 5e-324 / 2 rounds to 0.0, so the equal split describes no link.
    with pytest.raises(InputError) as caught:
        bound(make_line(2, [1.0, 1.0]), 5e-324)
    assert str(caught.value) == f"{what}: node 1 must be positive and finite, got 0.0"


def _bits_fields(report: bounds.BoundsReport) -> dict:
    return {name: value for name, value in vars(report).items() if name.endswith("_bits")}


def check_power_of_two_scaling(shape: str, n: int, k: int, fraction: float, seed: int) -> None:
    """Scale the weights of a ``shape`` aggregation tree of ``n`` nodes by
    ``2**k`` and its distortions by ``4**k``, and compare every rate.

    Both scalings are exact in binary floating point, so every log ratio,
    hence every ``*_bits`` field, is too.  Runs on its own at sizes beyond
    the tier-1 budget; CI calls it on 10,000-node lines and random trees::

        PYTHONPATH=src:tests python -c "import test_bounds as t; t.check_power_of_two_scaling('line', 10000, 37, 0.5, 7)"
    """
    rng = np.random.default_rng(seed)
    net = shaped_tree(rng, shape, n)
    scaled = TreeNetwork(
        root=0, parents=net.parents, weights={i: w * 2.0**k for i, w in net.weights.items()}
    )
    floor = min(w * w for w in net.weights.values())  # no test channel carries less
    d_total = fraction * len(net.sources) * floor
    d = {i: float(rng.uniform(0.01, 1.0)) * floor for i in net.sources}
    for report, twin in [
        (bounds.full_report(net, d_total), bounds.full_report(scaled, d_total * 4.0**k)),
        (
            bounds.full_report(net, inc=d),
            bounds.full_report(scaled, inc={i: v * 4.0**k for i, v in d.items()}),
        ),
    ]:
        assert twin.total_distortion == report.total_distortion * 4.0**k
        assert _bits_fields(twin) == _bits_fields(report)


@given(
    shape=st.sampled_from(["line", "star", "caterpillar", "random"]),
    n=st.integers(2, 2000),
    k=st.integers(-40, 40),
    fraction=st.floats(0.01, 0.9),
    seed=st.integers(0, 2**16),
)
@example(shape="star", n=456, k=1, fraction=0.5, seed=65535)  # a leaf where w ** 2 != w * w
@example(shape="random", n=2000, k=37, fraction=0.3, seed=7)
@example(shape="caterpillar", n=2000, k=-40, fraction=0.9, seed=11)
@settings(max_examples=30)
def test_power_of_two_scaling_leaves_every_rate_bit_identical(shape, n, k, fraction, seed):
    check_power_of_two_scaling(shape, n, k, fraction, seed)
