import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from gausstree import allocation, bounds
from gausstree.errors import ConsistencyError, InfeasibleError, InputError
from gausstree.network import TreeNetwork, make_line

from helpers import Keyed, certify, consensus_line, equal_split, random_tree, shaped_tree


class TestEqualSplit:
    def test_single_link(self):
        net = make_line(1, [1.0])
        result = allocation.allocate_equal_incremental(net, 0.25)
        assert result.method == "equal-split"
        assert result.per_link_rate_bits == {1: pytest.approx(1.0, abs=1e-15)}
        assert result.sum_rate_bits == pytest.approx(1.0, abs=1e-15)

    def test_two_link_line(self):
        net = make_line(2, [1.0, 1.0])
        result = allocation.allocate_equal_incremental(net, 0.02)
        assert result.per_link_rate_bits[2] == pytest.approx(3.321928094887362, abs=1e-12)
        assert result.per_link_rate_bits[1] == pytest.approx(3.821928094887362, abs=1e-12)
        assert result.sum_rate_bits == pytest.approx(7.143856189774724, abs=1e-12)
        assert result.profile.total == 0.02

    def test_matches_minimized_inner_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            net = random_tree(rng, int(rng.integers(1, 13)))
            d_total = 0.4 * len(net.sources) * min(
                net.weights[i] ** 2 for i in net.sources
            )
            result = allocation.allocate_equal_incremental(net, d_total)
            assert abs(
                result.sum_rate_bits - bounds.inner_bound_minimized(net, d_total)
            ) <= 1e-9

    def test_infeasible_budget(self):
        net = make_line(2, [1.0, 1.0])
        with pytest.raises(InfeasibleError):
            allocation.allocate_equal_incremental(net, 3.0)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_budget(self, bad):
        net = make_line(1, [1.0])
        with pytest.raises(InfeasibleError, match="infeasible distortion"):
            allocation.allocate_equal_incremental(net, bad)


class TestNumericPenalized:
    def test_single_link_returns_the_only_feasible_point(self):
        net = make_line(1, [1.0])
        result = allocation.allocate_numeric_penalized(net, 0.1)
        assert result.profile.inc == {1: 0.1}
        assert not result.warnings

    def test_tiny_budget_stays_near_equal_split(self):
        net = make_line(3, [1.0, 1.0, 1.0])
        d_total = 1e-8
        result = allocation.allocate_numeric_penalized(net, d_total)
        for i in net.sources:
            assert result.profile.inc[i] == pytest.approx(d_total / 3, rel=1e-4)

    def test_never_worse_than_equal_split(self):
        net = make_line(3, [1.0, 1.0, 1.0])
        d_total = 0.1
        result = allocation.allocate_numeric_penalized(net, d_total)
        start = bounds.outer_bound_incremental(
            net, bounds.derive_distortions(net, equal_split(net, d_total))
        ).total_bits
        final = bounds.outer_bound_incremental(net, result.profile).total_bits
        assert final <= start + 1e-12
        assert result.profile.total == pytest.approx(d_total, rel=1e-12)

    def test_deterministic(self):
        net = make_line(4, [1.0, 0.7, 1.3, 2.0])
        a = allocation.allocate_numeric_penalized(net, 0.05)
        b = allocation.allocate_numeric_penalized(net, 0.05)
        assert a == b

    def test_bad_tolerance(self):
        net = make_line(1, [1.0])
        with pytest.raises(InputError):
            allocation.allocate_numeric_penalized(net, 0.1, tol=0.0)


def consensus_star(n_leaves: int) -> TreeNetwork:
    return TreeNetwork(
        root=0,
        parents={i: 0 for i in range(1, n_leaves + 1)},
        weights={i: 1.0 for i in range(n_leaves + 1)},
    )


class TestConsensusAllocation:
    def test_two_node_line_splits_evenly(self):
        net = consensus_line([1.0, 1.0])
        result = allocation.allocate_consensus(net, 0.1)
        assert result.method == "consensus-kkt"
        assert result.profile.inc[(0, 1)] == pytest.approx(0.05, rel=1e-15)
        assert result.profile.inc[(1, 0)] == pytest.approx(0.05, rel=1e-15)

    def test_inc_inverse_to_multiplicity(self):
        net = consensus_line([1.0, 1.0, 1.0, 1.0])
        d_total = 0.02
        result = allocation.allocate_consensus(net, d_total)
        n_edges = 2 * (net.n_nodes - 1)
        for e, m in reference.Tree(net).multiplicities().items():
            assert result.profile.inc[e] == pytest.approx(
                d_total / (n_edges * m), rel=1e-12
            )

    def test_budget_constraint_tight(self):
        net = consensus_star(3)
        d_total = 0.013
        result = allocation.allocate_consensus(net, d_total)
        uses = reference.Tree(net).multiplicities()
        weighted = math.fsum(uses[e] * result.profile.inc[e] for e in uses)
        assert abs(weighted - d_total) <= 1e-15 * d_total
        assert result.profile.total == pytest.approx(d_total, rel=1e-12)

    @given(seed=st.integers(0, 2_000), n=st.integers(2, 9))
    @settings(max_examples=25)
    def test_kkt_agrees_with_newton_solver(self, seed, n):
        rng = np.random.default_rng(seed)
        net = random_tree(rng, n, mode="consensus")
        d_total = float(rng.uniform(1e-4, 0.05))
        kkt = allocation.allocate_consensus(net, d_total, cross_validate=False)
        numeric = allocation.allocate_consensus_numeric(net, d_total)
        assert abs(kkt.sum_rate_bits - numeric.sum_rate_bits) <= 1e-6
        for e in reference.Tree(net).edges():
            assert numeric.profile.inc[e] == pytest.approx(
                kkt.profile.inc[e], rel=1e-8
            )

    def test_cross_validation_is_on_by_default(self):
        net = consensus_star(2)
        result = allocation.allocate_consensus(net, 0.01)
        assert result.method == "consensus-kkt"

    def test_certificate_refuses_one_edge_off_by_1e_9(self, monkeypatch):
        checked = allocation._checked

        def perturbed(view, inc):
            inc[0] *= 1 + 1e-9  # one edge off, in the list the certificate reads
            return checked(view, inc)

        net = random_tree(np.random.default_rng(5), 12, mode="consensus")
        monkeypatch.setattr(allocation, "_checked", perturbed)
        allocation.allocate_consensus(net, 0.01, cross_validate=False)
        for certified in (allocation.allocate_consensus, allocation._consensus_inc):
            with pytest.raises(ConsistencyError, match="consensus-kkt allocation is not stationary"):
                certified(net, 0.01)

    @given(
        shape=st.sampled_from(["line", "star", "random"]),
        n=st.integers(2, 300),
        log_d=st.floats(-12.0, 2.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_certificate_accepts_the_closed_form_and_newton(self, shape, n, log_d, seed):
        net = shaped_tree(np.random.default_rng(seed), shape, n, mode="consensus")
        d_total = 10.0**log_d
        allocation.allocate_consensus(net, d_total)  # certifies, or raises
        numeric = allocation.allocate_consensus_numeric(net, d_total)
        assert numeric.warnings == ()
        certify(net, numeric, d_total)  # raises unless the certificate holds

    def test_newton_warns_when_it_stops_at_its_step_cap(self, monkeypatch):
        net = consensus_star(5)
        monkeypatch.setattr(allocation, "_NEWTON_STEPS", 2)
        numeric = allocation.allocate_consensus_numeric(net, 0.01)
        assert numeric.warnings == (
            "stopped after 2 Newton steps before the KKT certificate held",
        )
        with pytest.raises(ConsistencyError, match="consensus-numeric allocation"):
            certify(net, numeric, 0.01)

    def test_subnormal_closed_form_is_certified(self):
        net = random_tree(np.random.default_rng(8), 30, mode="consensus")
        result = allocation.allocate_consensus(net, 1e-306)
        assert 0.0 < min(result.profile.inc.values()) < 2.2250738585072014e-308


class TestRatesForProfile:
    def test_single_link(self):
        net = make_line(1, [1.0])
        profile = bounds.derive_distortions(net, {1: 0.25})
        result = allocation.rates_for_profile(net, profile)
        assert result.per_link_rate_bits == {1: pytest.approx(1.0, abs=1e-15)}
        assert not result.warnings

    def test_line3_equal_split(self):
        net = make_line(3, [1.0, 1.0, 1.0])
        profile = bounds.derive_distortions(net, equal_split(net, 0.03))
        result = allocation.rates_for_profile(net, profile)
        ref = reference.Tree(net)
        for i in net.sources:
            expected = 0.5 * math.log2(ref.variance(ref.subtree(i)) / 0.01)
            assert result.per_link_rate_bits[i] == pytest.approx(expected, abs=1e-12)

    def test_full_distortion_warns_and_clips(self):
        net = make_line(1, [1.0])
        profile = bounds.derive_distortions(net, {1: 1.0})
        result = allocation.rates_for_profile(net, profile)
        assert result.per_link_rate_bits[1] == 0.0
        assert result.warnings

    def test_consensus_profile(self):
        net = consensus_line([1.0, 1.0])
        profile = Keyed(net, True).derive({(0, 1): 0.01, (1, 0): 0.01})
        result = allocation.rates_for_profile(net, profile)
        assert result.sum_rate_bits == pytest.approx(6.643856189774724, abs=1e-12)

    def test_rejects_other_types(self):
        net = make_line(1, [1.0])
        with pytest.raises(InputError):
            allocation.rates_for_profile(net, {"inc": {}})


class TestSerialization:
    def test_aggregation_json_links(self):
        net = make_line(2, [1.0, 1.0])
        result = allocation.allocate_equal_incremental(net, 0.02)
        payload = result.to_json_dict(net)
        assert payload["method"] == "equal-split"
        assert payload["links"][0] == {
            "from": 1,
            "to": 0,
            "inc": pytest.approx(0.01),
            "rate_bits": pytest.approx(3.821928094887362),
        }

    def test_consensus_csv_rows(self):
        net = consensus_line([1.0, 1.0])
        result = allocation.allocate_consensus(net, 0.1, cross_validate=False)
        rows = result.to_csv_rows(net)
        assert rows[0] == ["from", "to", "inc", "rate_bits"]
        assert rows[-1][0] == "total"


def test_penalized_allocator_refuses_a_tree_without_links():
    sink_only = TreeNetwork(root=0, parents={}, weights={})
    with pytest.raises(InputError, match="at least one node besides the root"):
        allocation.allocate_numeric_penalized(sink_only, 0.1)


@pytest.mark.parametrize(
    "net, err",
    [
        (consensus_line([1.0]), "consensus needs at least two nodes"),
        (make_line(2, [1.0, 1.0]), "consensus computations need a weight on every node"),
    ],
    ids=["one-node", "unweighted-root"],
)
@pytest.mark.parametrize(
    "allocate", [allocation.allocate_consensus, allocation.allocate_consensus_numeric]
)
def test_consensus_allocators_refuse_before_solving(net, err, allocate):
    with pytest.raises(InputError, match=err):
        allocate(net, 0.1)
    with pytest.raises(InfeasibleError):  # the budget is checked first
        allocate(net, -1.0)
