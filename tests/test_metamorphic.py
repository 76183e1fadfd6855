"""Metamorphic properties: relabelling the node ids maps every per-link
value of the reports and allocations bit for bit, in both modes, and
re-rooting a fully weighted tree leaves every consensus output identical.
The exact oracle, whose dense algebra rounds in an order that follows the
labels and the root, maps its distortions to within its own tolerance.

The link numbering follows the keys, so these guard it against leaking
into any output.  ``check_relabelling`` and ``check_rerooting`` also run
on their own at sizes beyond the tier-1 budget; CI calls them on
10,000-node lines and random trees::

    PYTHONPATH=src:tests python -c "import test_metamorphic as m; m.check_rerooting('line', 10000, 7, 0.5)"
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

import reference
from gausstree import allocation, bounds, simulator
from gausstree.network import TreeNetwork

from helpers import Keyed, fixed_fraction_d, shaped_tree

shapes = st.sampled_from(["line", "star", "caterpillar", "random"])
sizes = st.integers(2, 300)
seeds = st.integers(0, 2**32 - 1)
fractions = st.floats(0.01, 0.9)


def relabelled(net: TreeNetwork, perm: list[int]) -> TreeNetwork:
    """``net`` with every node id ``i`` renamed ``perm[i]``, the root included."""
    return TreeNetwork(
        root=perm[net.root],
        parents={perm[i]: perm[p] for i, p in net.parents.items()},
        weights={perm[i]: w for i, w in net.weights.items()},
    )


def rerooted(net: TreeNetwork, root: int) -> TreeNetwork:
    """The same weighted tree, rooted at ``root``."""
    return TreeNetwork(root=root, parents=reference.Tree(net).next_hops(root), weights=net.weights)


def moved(values: dict, perm: list[int]) -> dict:
    """A per-link or per-node map with its keys relabelled by ``perm``."""
    return {
        (perm[key[0]], perm[key[1]]) if isinstance(key, tuple) else perm[key]: value
        for key, value in values.items()
    }


def _bits(report: bounds.BoundsReport) -> dict:
    # Every scalar *_bits field (the per-link rates are compared as a map).
    return {
        name: value
        for name, value in vars(report).items()
        if name.endswith("_bits") and not isinstance(value, dict)
    }


def _assert_same_allocation(one: allocation.RateAllocation, two, perm: list[int]) -> None:
    assert two.sum_rate_bits == one.sum_rate_bits
    assert two.per_link_rate_bits == moved(one.per_link_rate_bits, perm)
    for name in ("inc", "tx", "rx"):
        assert getattr(two.profile, name) == moved(getattr(one.profile, name), perm)
    assert two.profile.total == one.profile.total


def check_relabelling(shape: str, n: int, seed: int, mode: str, fraction: float) -> None:
    """Relabel a ``shape`` tree of ``n`` nodes by a random permutation and
    compare its reports and allocations with the original's."""
    rng = np.random.default_rng(seed)
    net = shaped_tree(rng, shape, n, mode)
    perm = rng.permutation(n).tolist()
    twin = relabelled(net, perm)
    floor = min(w * w for w in net.weights.values())  # no test channel carries less
    if mode == "aggregation":
        d_total = fraction * len(net.sources) * floor
        d = {i: float(rng.uniform(0.01, 1.0)) * floor for i in net.sources}
        pairs = [
            (bounds.full_report(net, d_total), bounds.full_report(twin, d_total)),
            (bounds.full_report(net, inc=d), bounds.full_report(twin, inc=moved(d, perm))),
        ]
        alloc = allocation.allocate_equal_incremental
    else:
        d_total = fraction * floor
        inc = allocation.allocate_consensus(net, d_total).profile.inc
        pairs = [
            (
                bounds.consensus_report(net, inc, d_total),
                bounds.consensus_report(twin, moved(inc, perm), d_total),
            )
        ]
        alloc = allocation.allocate_consensus
        per_root = Keyed(net, True).derive(inc).per_root
        assert Keyed(twin, True).derive(moved(inc, perm)).per_root == moved(per_root, perm)
    for report, other in pairs:
        assert _bits(other) == _bits(report)
        assert other.per_link_rates_bits == moved(report.per_link_rates_bits, perm)
        assert len(other.regime_warnings) == len(report.regime_warnings)
    _assert_same_allocation(alloc(net, d_total), alloc(twin, d_total), perm)


def check_rerooting(shape: str, n: int, seed: int, fraction: float) -> None:
    """Re-root a fully weighted ``shape`` tree of ``n`` nodes at a random
    node and compare every consensus output with the original's."""
    rng = np.random.default_rng(seed)
    net = shaped_tree(rng, shape, n, "consensus")
    twin = rerooted(net, int(rng.integers(n)))
    d_total = fraction * min(w * w for w in net.weights.values())
    one = allocation.allocate_consensus(net, d_total)
    two = allocation.allocate_consensus(twin, d_total)
    assert two.to_json_dict(twin) == one.to_json_dict(net)
    _assert_same_allocation(one, two, list(range(n)))
    report = bounds.consensus_report(net, one.profile.inc, d_total)
    assert bounds.consensus_report(twin, one.profile.inc, d_total) == report


@given(shape=shapes, n=sizes, seed=seeds, consensus=st.booleans(), fraction=fractions)
@example(shape="star", n=300, seed=3, consensus=True, fraction=0.5)
@example(shape="caterpillar", n=300, seed=4, consensus=False, fraction=0.9)
def test_relabelling_maps_every_per_link_value(shape, n, seed, consensus, fraction):
    check_relabelling(shape, n, seed, "consensus" if consensus else "aggregation", fraction)


@given(shape=shapes, n=sizes, seed=seeds, fraction=fractions)
@example(shape="star", n=300, seed=5, fraction=0.5)
@example(shape="random", n=300, seed=6, fraction=0.01)
def test_rerooting_leaves_every_consensus_output_identical(shape, n, seed, fraction):
    check_rerooting(shape, n, seed, fraction)


def _assert_same_oracle(one: simulator.AnalyticModel, two, perm: list[int]) -> None:
    # Every distortion within the oracle's own tolerance, relative to the
    # receive distortion of its link or to the sink's distortion.
    tol, rx = simulator._IDENTITY_TOL, moved(one.rx, perm)
    for name in ("inc", "tx", "rx"):
        got, want = getattr(two, name), moved(getattr(one, name), perm)
        assert got.keys() == want.keys()
        assert all(abs(got[link] - value) <= tol * rx[link] for link, value in want.items())
    if one.per_root is not None:
        want = moved(one.per_root, perm)
        assert two.per_root.keys() == want.keys()
        assert all(abs(two.per_root[k] - v) <= tol * v for k, v in want.items())
    assert abs(two.total - one.total) <= tol * one.total


oracle_sizes = st.integers(2, 40)
oracle_fractions = st.floats(0.05, 0.9)


@given(shape=shapes, n=oracle_sizes, seed=seeds, consensus=st.booleans(), fraction=oracle_fractions)
@settings(max_examples=20)
def test_the_oracle_maps_its_distortions_under_relabelling(shape, n, seed, consensus, fraction):
    mode = "consensus" if consensus else "aggregation"
    rng = np.random.default_rng(seed)
    net = shaped_tree(rng, shape, n, mode)
    perm = rng.permutation(n).tolist()
    twin = relabelled(net, perm)
    d = fixed_fraction_d(net, fraction, consensus)
    one = simulator.analytic_mmse_check(net, d, mode)
    two = simulator.analytic_mmse_check(twin, moved(d, perm), mode)
    _assert_same_oracle(one, two, perm)


@given(shape=shapes, n=oracle_sizes, seed=seeds, fraction=oracle_fractions)
@settings(max_examples=20)
def test_the_oracle_gives_the_same_distortions_under_rerooting(shape, n, seed, fraction):
    rng = np.random.default_rng(seed)
    net = shaped_tree(rng, shape, n, "consensus")
    twin = rerooted(net, int(rng.integers(n)))
    d = fixed_fraction_d(net, fraction, consensus=True)
    one = simulator.analytic_mmse_check(net, d, "consensus")
    two = simulator.analytic_mmse_check(twin, d, "consensus")
    _assert_same_oracle(one, two, list(range(n)))
