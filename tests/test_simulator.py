import math

import numpy as np
import pytest

from gausstree import allocation, bounds
from gausstree.errors import ConsistencyError, InfeasibleError, InputError
from gausstree.network import TreeNetwork, make_line
from gausstree.simulator import (
    SimulationConfig,
    analytic_mmse_check,
    simulate_aggregation,
    simulate_dithered_baseline,
    simulate_test_channel,
)

import reference
from helpers import (
    Keyed,
    consensus_line,
    equal_split,
    fixed_fraction_d,
    random_feasible_consensus_d,
    random_feasible_d,
    random_tree,
    shaped_tree,
    simulate_consensus,
    uniform_edge_d,
)


class TestConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(InputError):
            SimulationConfig(blocklength=0, trials=10, seed=0)
        with pytest.raises(InputError):
            SimulationConfig(blocklength=10, trials=1, seed=0)
        with pytest.raises(InputError):
            SimulationConfig(blocklength=10, trials=10, seed=-1)

    def test_warns_on_tiny_sample_budget(self):
        with pytest.warns(UserWarning, match="1000"):
            SimulationConfig(blocklength=10, trials=10, seed=0)


class TestAnalyticAggregation:
    def test_single_link(self):
        net = make_line(1, [1.0])
        model = analytic_mmse_check(net, {1: 0.25})
        assert model.tx[1] == pytest.approx(0.0, abs=1e-14)
        assert model.rx[1] == pytest.approx(0.25, rel=1e-12)
        assert model.inc[1] == pytest.approx(0.25, rel=1e-12)
        assert model.total == pytest.approx(0.25, rel=1e-12)

    def test_two_link_line(self):
        net = make_line(2, [1.0, 1.0])
        model = analytic_mmse_check(net, {1: 0.01, 2: 0.01})
        assert model.total == pytest.approx(0.02, rel=1e-12)
        assert model.tx[1] == pytest.approx(0.01, rel=1e-12)

    def test_star_three_leaves(self):
        net = TreeNetwork(
            root=0, parents={1: 0, 2: 0, 3: 0}, weights={1: 1.0, 2: 1.0, 3: 1.0}
        )
        d = 0.05
        model = analytic_mmse_check(net, {i: d for i in net.sources})
        assert model.total == pytest.approx(3 * d, rel=1e-12)
        for i in net.sources:
            assert model.tx[i] == pytest.approx(0.0, abs=1e-14)

    def test_infeasible_distortion(self):
        net = make_line(2, [1.0, 1.0])
        with pytest.raises(InfeasibleError):
            analytic_mmse_check(net, {2: 0.9, 1: 1.5})

    def test_identities_on_random_trees(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            net = random_tree(rng, int(rng.integers(1, 13)))
            d = random_feasible_d(rng, net)
            model = analytic_mmse_check(net, d)
            for i in net.sources:
                residual = abs(model.rx[i] - model.tx[i] - model.inc[i])
                assert residual <= 1e-10 * model.rx[i]
            assert abs(model.total - math.fsum(d.values())) <= 1e-10 * model.total

    def test_receiver_gain_is_indicator_of_description(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            net = random_tree(rng, int(rng.integers(2, 10)))
            d = random_feasible_d(rng, net, fractions=(0.1, 0.6))
            model = analytic_mmse_check(net, d)
            for i in net.sources:
                gain = model.receiver_gains[i]
                info = model.receiver_info[i]
                for label, value in zip(info, gain):
                    expected = 1.0 if label == ("V", i) else 0.0
                    assert abs(value - expected) <= 1e-10

    def test_incremental_errors_uncorrelated(self):
        rng = np.random.default_rng(23)
        net = random_tree(rng, 9)
        d = random_feasible_d(rng, net)
        model = analytic_mmse_check(net, d)
        cov = model.incremental_error_cov
        off_diag = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off_diag)) <= 1e-10

    def test_joint_covariance_labels(self):
        net = make_line(2, [1.0, 1.0])
        model = analytic_mmse_check(net, {1: 0.1, 2: 0.1})
        assert model.labels == ("x1", "x2", "V1", "V2", "U1", "U2")
        assert model.joint_covariance.shape == (6, 6)

    def test_root_weight_is_ignored(self):
        rng = np.random.default_rng(43)
        weighted = shaped_tree(rng, "random", 12, mode="consensus")
        sink = TreeNetwork(
            root=weighted.root,
            parents=weighted.parents,
            weights={i: w for i, w in weighted.weights.items() if i != weighted.root},
        )
        d = random_feasible_d(rng, sink)
        got, want = analytic_mmse_check(weighted, d), analytic_mmse_check(sink, d)
        for name in ("labels", "link_order", "per_root", "receiver_info"):
            assert getattr(got, name) == getattr(want, name)
        assert got.total.hex() == want.total.hex()
        for name in ("joint_covariance", "incremental_error_cov"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        for name in ("inc", "tx", "rx"):
            assert [v.hex() for v in getattr(got, name).values()] == [
                v.hex() for v in getattr(want, name).values()
            ]
        for i in sink.sources:
            assert got.receiver_gains[i].tobytes() == want.receiver_gains[i].tobytes()


class TestAnalyticConsensus:
    def test_two_node_line(self):
        net = consensus_line([1.0, 1.0])
        model = analytic_mmse_check(
            net, {(0, 1): 0.02, (1, 0): 0.03}, mode="consensus"
        )
        assert model.per_root[0] == pytest.approx(0.03, rel=1e-12)
        assert model.per_root[1] == pytest.approx(0.02, rel=1e-12)

    def test_per_root_sums_on_random_trees(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            net = random_tree(rng, int(rng.integers(2, 8)), mode="consensus")
            d = random_feasible_consensus_d(rng, net)
            model = analytic_mmse_check(net, d, mode="consensus")
            ref = reference.Tree(net)
            for k in net.node_ids:
                expected = math.fsum(d[e] for e in ref.directed_tree(k))
                assert model.per_root[k] == pytest.approx(expected, rel=1e-10)

    def test_unknown_mode(self):
        net = make_line(1, [1.0])
        with pytest.raises(InputError, match="mode"):
            analytic_mmse_check(net, {1: 0.1}, mode="ring")

    def test_unweighted_sink_is_rejected(self):
        net = make_line(3, [1.0, 1.0, 1.0])
        with pytest.raises(InputError, match="weight on every node"):
            analytic_mmse_check(net, uniform_edge_d(net, 0.01), mode="consensus")


class TestAnalyticIdentities:
    """Accumulation identities in both modes against references enumerated
    by BFS, on trees of up to 60 nodes.  Every link describes a fixed
    fraction of its test-channel variance, so no distortion is tiny next
    to the variance its link carries and the 1e-10 checks stay meaningful."""

    @pytest.mark.parametrize("mode", ["aggregation", "consensus"])
    @pytest.mark.parametrize("shape", ["line", "star", "random"])
    @pytest.mark.parametrize("n_nodes", [2, 3, 8, 21, 60])
    def test_accumulation_identities(self, n_nodes, shape, mode):
        consensus = mode == "consensus"
        net = shaped_tree(np.random.default_rng(n_nodes), shape, n_nodes, mode)
        d = fixed_fraction_d(net, 0.3, consensus)
        model = analytic_mmse_check(net, d, mode)
        ref = reference.Tree(net)
        sinks = net.node_ids if consensus else (net.root,)
        trees = {k: ref.directed_tree(k) for k in sinks}
        key = (lambda e: e) if consensus else (lambda e: e[0])
        position = {link: k for k, link in enumerate(model.link_order)}
        edges = ref.edges() if consensus else trees[net.root]
        for e in edges:
            link, side = key(e), ref.side(*e)
            tree = trees[e[1] if consensus else net.root]
            upstream = math.fsum(d[key(f)] for f in tree if f != e and f[0] in side)
            rx = model.rx[link]
            assert abs(model.inc[link] - d[link]) <= 1e-10 * d[link]
            assert abs(model.tx[link] - upstream) <= 1e-10 * rx
            assert abs(rx - model.tx[link] - model.inc[link]) <= 1e-10 * rx
        for k, tree in trees.items():
            got = model.per_root[k] if consensus else model.total
            assert got == pytest.approx(math.fsum(d[key(f)] for f in tree), rel=1e-10)
            # The incremental errors along one directed tree are uncorrelated.
            idx = [position[key(f)] for f in tree]
            cov = model.incremental_error_cov[np.ix_(idx, idx)]
            off_diagonal = np.abs(cov - np.diag(np.diag(cov)))
            assert np.max(off_diagonal) <= 1e-10 * np.max(np.diag(cov))
        if consensus:
            assert model.total == math.fsum(model.per_root.values())


def quiet_cfg(blocklength=2000, trials=40, seed=123, **kw):
    return SimulationConfig(blocklength=blocklength, trials=trials, seed=seed, **kw)


class TestSimulateAggregation:
    def test_single_link_within_ci(self):
        net = make_line(1, [1.0])
        cfg = quiet_cfg(blocklength=10_000, trials=100)
        result = simulate_aggregation(net, {1: 0.25}, cfg)
        assert abs(result.empirical_total - 0.25) <= result.ci_halfwidth["total"]
        assert result.ci_halfwidth["total"] < 0.25 * 0.01

    def test_degenerate_rate_zero_link(self):
        net = make_line(1, [1.3])
        sigma2 = 1.3**2
        result = simulate_aggregation(net, {1: sigma2}, quiet_cfg())
        assert abs(result.per_link_incremental[1] - sigma2) <= result.ci_halfwidth["inc"][1]

    def test_random_tree_total_within_ci(self):
        rng = np.random.default_rng(3)
        net = random_tree(rng, 7)
        d = equal_split(net, 0.07)
        result = simulate_aggregation(net, d, quiet_cfg(blocklength=5000, trials=60))
        assert abs(result.empirical_total - 0.07) <= result.ci_halfwidth["total"]
        model = analytic_mmse_check(net, d)
        assert model.total == pytest.approx(0.07, rel=1e-10)

    def test_per_link_quantities_within_ci(self):
        net = make_line(3, [1.0, 0.8, 1.4])
        d = {1: 0.03, 2: 0.02, 3: 0.05}
        result = simulate_aggregation(net, d, quiet_cfg(blocklength=8000, trials=60))
        for i in net.sources:
            assert abs(result.per_link_incremental[i] - d[i]) <= result.ci_halfwidth["inc"][i]
            ref_var = result.references["estimate_variance"][i]
            assert (
                abs(result.per_link_estimate_variance[i] - ref_var)
                <= result.ci_halfwidth["estimate_variance"][i]
            )

    def test_bit_reproducible(self):
        net = make_line(2, [1.0, 1.0])
        cfg = quiet_cfg()
        a = simulate_aggregation(net, {1: 0.01, 2: 0.01}, cfg)
        b = simulate_aggregation(net, {1: 0.01, 2: 0.01}, cfg)
        assert a == b

    def test_seed_changes_the_draws(self):
        net = make_line(2, [1.0, 1.0])
        a = simulate_aggregation(net, {1: 0.01, 2: 0.01}, quiet_cfg(seed=1))
        b = simulate_aggregation(net, {1: 0.01, 2: 0.01}, quiet_cfg(seed=2))
        assert a.empirical_total != b.empirical_total

    def test_achieved_rate_below_inner_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            net = random_tree(rng, int(rng.integers(1, 11)))
            d = random_feasible_d(rng, net)
            sigma_hat = Keyed(net).sigma_hat(d)
            achieved = math.fsum(0.5 * math.log2(sigma_hat[i] / d[i]) for i in net.sources)
            assert achieved <= Keyed(net).inner(d)[0] + 1e-12


class TestSimulateConsensus:
    def test_two_node_line(self):
        net = consensus_line([1.0, 1.0])
        result = simulate_consensus(net, uniform_edge_d(net, 0.01), quiet_cfg())
        for k in net.node_ids:
            assert abs(result.empirical_total[k] - 0.01) <= result.ci_halfwidth["per_node"][k]

    def test_three_node_line_per_node_doubles(self):
        net = consensus_line([1.0, 1.0, 1.0])
        d = uniform_edge_d(net, 0.01)
        result = simulate_consensus(net, d, quiet_cfg(blocklength=4000, trials=50))
        for k in net.node_ids:
            assert result.references["per_node"][k] == pytest.approx(0.02)
            assert abs(result.empirical_total[k] - 0.02) <= result.ci_halfwidth["per_node"][k]

    def test_lossless_limit(self):
        net = consensus_line([1.0, 1.0])
        result = simulate_consensus(net, uniform_edge_d(net, 1e-12), quiet_cfg())
        for k in net.node_ids:
            assert result.empirical_total[k] <= 1e-10

    def test_a_list_in_link_order_runs_what_its_map_runs(self):
        net = consensus_line([1.0, 0.5, 2.0])
        view, d = net.links(True), uniform_edge_d(net, 0.01)
        listed = simulate_test_channel(net, view, view.listed(d), quiet_cfg())
        assert listed.to_json_dict() == simulate_consensus(net, d, quiet_cfg()).to_json_dict()

    @pytest.mark.parametrize("values", [[0.01] * 3, [0.01, 0.01, 0.0, 0.01]])
    def test_a_list_is_checked_for_length_and_sign(self, values):
        net = consensus_line([1.0, 0.5, 2.0])
        with pytest.raises(InputError, match="distortion parameters"):
            simulate_test_channel(net, net.links(True), values, quiet_cfg())


class TestDitheredBaseline:
    def test_rate_zero_sends_nothing(self):
        net = make_line(1, [1.0])
        profile = bounds.derive_distortions(net, {1: 1.0})
        rates = allocation.rates_for_profile(net, profile)  # clipped to 0 bits
        result = simulate_dithered_baseline(net, rates, quiet_cfg())
        assert abs(result.per_link_incremental[1] - 1.0) <= result.ci_halfwidth["inc"][1]

    def test_doubling_rates_reduces_distortion(self):
        net = make_line(2, [1.0, 1.0])
        cfg = quiet_cfg(blocklength=4000, trials=40)
        base = allocation.allocate_equal_incremental(net, 0.08)
        doubled = allocation.RateAllocation(
            method=base.method,
            per_link_rate_bits={k: 2 * v for k, v in base.per_link_rate_bits.items()},
            profile=base.profile,
            sum_rate_bits=2 * base.sum_rate_bits,
        )
        low = simulate_dithered_baseline(net, base, cfg)
        high = simulate_dithered_baseline(net, doubled, cfg)
        assert high.empirical_total < low.empirical_total

    def test_dominates_test_channel_at_matched_rates(self):
        net = make_line(2, [1.0, 1.0])
        rates = allocation.allocate_equal_incremental(net, 0.02)
        result = simulate_dithered_baseline(
            net, rates, quiet_cfg(blocklength=20_000, trials=40)
        )
        matched = reference.matched_test_channel_distortions(
            reference.Tree(net), rates.per_link_rate_bits
        )
        for i in net.sources:
            assert result.per_link_incremental[i] >= matched[i]

    def test_distortion_tracks_quantizer_noise_model(self):
        # the uniform-quantizer model predicts step^2/12 per described link
        net = make_line(2, [1.0, 1.0])
        rates = allocation.RateAllocation(
            method="equal-split",
            per_link_rate_bits={1: 6.0, 2: 6.0},
            profile=bounds.derive_distortions(net, {1: 0.01, 2: 0.01}),
            sum_rate_bits=12.0,
        )
        result = simulate_dithered_baseline(
            net, rates, quiet_cfg(blocklength=20_000, trials=40)
        )
        assert result.empirical_total == pytest.approx(
            result.references["total"], rel=0.15
        )

    def test_saturation_reported(self):
        net = make_line(1, [1.0])
        rates = allocation.allocate_equal_incremental(net, 0.02)
        result = simulate_dithered_baseline(net, rates, quiet_cfg())
        assert 0.0 <= result.saturation_rate[1] < 5e-3

    @pytest.mark.parametrize("bad_rate", [-1.0, float("nan")])
    def test_rejects_negative_or_nan_rates(self, bad_rate):
        net = make_line(2, [1.0, 1.0])
        base = allocation.allocate_equal_incremental(net, 0.02)
        rates = allocation.RateAllocation(
            method=base.method,
            per_link_rate_bits={1: base.per_link_rate_bits[1], 2: bad_rate},
            profile=base.profile,
            sum_rate_bits=base.sum_rate_bits,
        )
        with pytest.raises(InputError, match="link 2: rate must be non-negative"):
            simulate_dithered_baseline(net, rates, quiet_cfg())

    @pytest.mark.parametrize(
        "rates, err",
        [
            ({1: 2.0}, "link 2: no rate given"),
            ({1: 2.0, 2: -3.0}, "link 2: rate must be non-negative, got -3.0"),
            ({1: float("nan"), 2: 2.0}, "link 1: rate must be non-negative, got nan"),
            ({1: 2.0, 2: float("inf")}, "link 2: rate must be non-negative, got inf"),
        ],
        ids=["missing", "negative", "nan", "infinite"],
    )
    def test_matched_distortions_refuse_bad_rates(self, rates, err):
        with pytest.raises(ValueError, match=f"^{err}$"):
            reference.matched_test_channel_distortions(reference.Tree(make_line(2, [1.0, 1.0])), rates)

    def test_rejects_consensus_allocations(self):
        net = consensus_line([1.0, 1.0])
        rates = allocation.allocate_consensus(net, 0.01, cross_validate=False)
        with pytest.raises(InputError, match="aggregation"):
            simulate_dithered_baseline(net, rates, quiet_cfg())


class TestResultSerialization:
    def test_aggregation_csv(self):
        net = make_line(2, [1.0, 1.0])
        result = simulate_aggregation(net, {1: 0.01, 2: 0.01}, quiet_cfg())
        rows = result.to_csv_rows()
        assert rows[0] == ["link_from", "link_to", "empirical_inc", "ci", "reference_inc"]
        assert rows[-1][0] == "total"
        assert rows[-1][4] == pytest.approx(0.02, rel=1e-12)

    def test_consensus_json_structure(self):
        net = consensus_line([1.0, 1.0])
        result = simulate_consensus(net, uniform_edge_d(net, 0.01), quiet_cfg())
        payload = result.to_json_dict()
        assert set(payload["empirical_total"]) == {"0", "1"}
        assert payload["references"]["total"] == pytest.approx(0.02)
