"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at runtime.
"""

import json
import math
import time

import numpy as np
import pytest

from gausstree import allocation, bounds, cli
from gausstree.infomeasures import LOG2E, GaussianSpec, verify_smoothing_inequality
from gausstree.network import TreeNetwork, directed_edges, make_line
from gausstree.simulator import (
    SimulationConfig,
    analytic_mmse_check,
    simulate_consensus,
)

from helpers import equal_split, random_feasible_d, random_tree


class _Timer:
    def __init__(self, budget_s: float):
        self.budget = budget_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.budget, (
                f"runtime {self.elapsed:.2f}s exceeds budget {self.budget:.0f}s"
            )
        return False


def _report(k: int, timer: _Timer, text: str) -> None:
    print(f"ACCEPTANCE {k:2d} PASS [{timer.elapsed:6.2f}s] {text}", flush=True)


FIXED_6_NODE_TREE = TreeNetwork(
    root=0,
    parents={1: 0, 2: 0, 3: 1, 4: 1, 5: 3, 6: 2},
    weights={1: 1.0, 2: 0.8, 3: 1.2, 4: 0.7, 5: 1.5, 6: 0.9},
)

FIXED_7_NODE_TREE = TreeNetwork(
    root=0,
    parents={1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 3, 7: 3},
    weights={i: 1.0 for i in range(1, 8)},
)

FIXED_5_NODE_CONSENSUS = TreeNetwork(
    root=0,
    parents={1: 0, 2: 0, 3: 1, 4: 1},
    weights={i: 1.0 for i in range(5)},
)


def test_acceptance_01_distortion_accumulation_exact():
    rng = np.random.default_rng(2024)
    with _Timer(10.0) as t:
        worst_link = 0.0
        worst_total = 0.0
        for _ in range(200):
            net = random_tree(rng, int(rng.integers(1, 13)))
            d = random_feasible_d(rng, net)
            model = analytic_mmse_check(net, d)
            for i in net.sources:
                worst_link = max(
                    worst_link,
                    abs(model.rx[i] - model.tx[i] - model.inc[i]) / model.rx[i],
                )
            worst_total = max(
                worst_total, abs(model.total - math.fsum(d.values())) / model.total
            )
        assert worst_link <= 1e-10
        assert worst_total <= 1e-10
    _report(
        1, t,
        f"distortion accumulation exact on 200 random trees "
        f"(worst link residual {worst_link:.1e}, worst total {worst_total:.1e})",
    )


def test_acceptance_02_equal_split_matches_closed_form():
    rng = np.random.default_rng(7)
    with _Timer(1.0) as t:
        worst = 0.0
        for _ in range(100):
            net = random_tree(rng, int(rng.integers(1, 13)))
            d_total = 0.4 * len(net.sources) * min(
                net.weight(i) ** 2 for i in net.sources
            )
            result = allocation.allocate_equal_incremental(net, d_total)
            worst = max(
                worst,
                abs(result.sum_rate_bits - bounds.inner_bound_minimized(net, d_total)),
            )
        assert worst == 0.0
    _report(2, t, "equal-split sum rate equals the closed form bit for bit")


def test_acceptance_03_line_gap_asymptote():
    with _Timer(1.0) as t:
        for n in range(2, 9):
            rows = cli.gap_sweep([n], [1e-2, 1e-4, 1e-6])
            errors = {row["D"]: abs(row["delta_r_bits"] - row["asymptote_bits"]) for row in rows}
            assert errors[1e-6] <= 0.05, f"n={n}: error {errors[1e-6]:.3f}"
            assert errors[1e-6] < errors[1e-4] < errors[1e-2], f"n={n}: not monotone"
    _report(3, t, "line-network gap within 0.05 bits of half-log2(n!) at D=1e-6, error monotone in D")


def test_acceptance_04_sqrt_distortion_gap():
    net = FIXED_6_NODE_TREE
    with _Timer(1.0) as t:
        def ratio(d_total: float) -> float:
            gap = bounds.inner_bound_minimized(net, d_total) - bounds.outer_bound_closed_form(
                net, d_total
            )
            return gap / math.sqrt(d_total)

        bound = 0.5 * math.fsum(
            bounds.outer_bound_penalty(net, i, 1e-2) for i in net.sources
        ) / math.sqrt(1e-2)
        grid = np.logspace(-8, -2, 13)
        ratios = [ratio(float(d_total)) for d_total in grid]
        assert all(r <= bound * (1 + 1e-12) for r in ratios)
        assert ratios == sorted(ratios)  # shrinks towards the zero-distortion limit
        limit = 0.5 * math.fsum(
            LOG2E * math.sqrt(2.0) / math.sqrt(net.subtree_variances[i])
            for i in net.sources
        )
        assert ratios[0] == pytest.approx(limit, rel=1e-3)
    _report(
        4, t,
        f"inner-outer gap is O(sqrt(D)): gap/sqrt(D) <= {bound:.3f} bits "
        f"over D in [1e-8, 1e-2], tending to {limit:.3f}",
    )


def test_acceptance_05_cutset_dominance():
    rng = np.random.default_rng(99)
    with _Timer(1.0) as t:
        worst = math.inf
        for _ in range(100):
            net = random_tree(rng, int(rng.integers(1, 13)))
            min_var = min(net.subtree_variances[i] for i in net.sources)
            profile = bounds.derive_distortions(net, equal_split(net, 1e-3 * min_var))
            delta = bounds.gap_report(net, profile).delta_r_bits
            worst = min(worst, delta)
            assert delta >= -1e-12
    _report(5, t, f"incremental bound dominates cut-set on 100 random trees (min gap {worst:.3e} bits)")


def test_acceptance_06_monte_carlo_inner_bound():
    net = FIXED_7_NODE_TREE
    with _Timer(60.0) as t:
        from gausstree.simulator import simulate_aggregation

        cfg = SimulationConfig(blocklength=10_000, trials=120, seed=20240)
        result = simulate_aggregation(net, equal_split(net, 0.07), cfg)
        ci = result.ci_halfwidth["total"]
        assert cfg.blocklength * cfg.trials >= 10**6
        assert abs(result.empirical_total - 0.07) <= ci
        assert ci < 0.01 * 0.07
    _report(
        6, t,
        f"Monte-Carlo total {result.empirical_total:.5f} within {ci:.5f} of 0.07 (CI < 1%)",
    )


def test_acceptance_07_consensus_accumulation_and_allocation():
    net = FIXED_5_NODE_CONSENSUS
    with _Timer(60.0) as t:
        d_total = 0.02
        kkt = allocation.allocate_consensus(net, d_total, cross_validate=False)
        numeric = allocation.allocate_consensus_numeric(net, d_total)
        rate_gap = abs(kkt.sum_rate_bits - numeric.sum_rate_bits)
        assert rate_gap <= 1e-6

        cfg = SimulationConfig(blocklength=5_000, trials=100, seed=77)
        result = simulate_consensus(net, kkt.profile.inc, cfg)
        for k in net.node_ids:
            reference = result.references["per_node"][k]
            ci = result.ci_halfwidth["per_node"][k]
            assert ci < 0.1 * reference  # CI narrow enough for the check to mean something
            assert abs(result.empirical_total[k] - reference) <= ci
    _report(
        7, t,
        f"consensus per-root distortions within CI; KKT vs Newton gap {rate_gap:.1e} bits",
    )


def test_acceptance_08_smoothing_inequality():
    rng = np.random.default_rng(1234)
    with _Timer(5.0) as t:
        worst = math.inf
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            a = rng.normal(size=(2 * n, 2 * n))
            joint = GaussianSpec(rng.normal(size=2 * n), a @ a.T)
            margin = verify_smoothing_inequality(joint, float(rng.uniform(1e-3, 10.0)))
            worst = min(worst, margin)
            assert margin >= -1e-9
    _report(8, t, f"smoothing inequality margin >= -1e-9 on 1000 random joints (min {worst:.3e})")


def test_acceptance_09_incremental_error_orthogonality():
    rng = np.random.default_rng(555)
    with _Timer(5.0) as t:
        worst = 0.0
        for _ in range(50):
            net = random_tree(rng, int(rng.integers(2, 13)))
            model = analytic_mmse_check(net, random_feasible_d(rng, net))
            cov = model.incremental_error_cov
            off = np.max(np.abs(cov - np.diag(np.diag(cov)))) if cov.shape[0] > 1 else 0.0
            worst = max(worst, float(off))
        assert worst <= 1e-10
    _report(9, t, f"incremental errors pairwise uncorrelated (max off-diagonal {worst:.1e})")


def test_acceptance_10_reproducible_simulation(tmp_path, capsys):
    with _Timer(60.0) as t:
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(make_line(4, [1.0, 0.8, 1.2, 0.9]).to_json())
        argv = [
            "simulate", "--tree", str(tree_path), "--D", "0.04",
            "--N", "2000", "--trials", "25", "--seed", "31415",
        ]
        first = tmp_path / "run1.json"
        second = tmp_path / "run2.json"
        assert cli.run(argv + ["--out", str(first)]) == 0
        assert cli.run(argv + ["--out", str(second)]) == 0
        bytes1 = first.read_bytes()
        assert bytes1 == second.read_bytes()
        json.loads(bytes1)  # and it is valid JSON
    _report(10, t, "identical flags and seed give byte-identical simulation JSON")
