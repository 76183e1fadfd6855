#!/usr/bin/env python3
"""End-to-end validation run: exact oracle vs Monte-Carlo vs baseline.

Builds a random tree, plans rates for a distortion budget, then compares
three views of the same scheme:

  1. the exact analytic model (conditioning on the joint Gaussian law),
  2. the Monte-Carlo test-channel simulation with confidence intervals,
  3. the dithered scalar-quantizer baseline at matched rates.

Also runs the consensus counterpart on a fully weighted tree.

Usage:
    python scripts/validate_scheme.py [--nodes 7] [--D 0.07] [--seed 1]
"""

import argparse
import sys

import numpy as np

from gausstree import allocation, bounds
from gausstree.simulator import (
    SimulationConfig,
    analytic_mmse_check,
    simulate_aggregation,
    simulate_dithered_baseline,
)

sys.path.insert(0, "tests")
from helpers import equal_split, random_tree, simulate_consensus  # noqa: E402


def aggregation_run(args) -> None:
    rng = np.random.default_rng(args.seed)
    net = random_tree(rng, args.nodes)
    d = equal_split(net, args.D)
    print(f"aggregation: {args.nodes} sources, D = {args.D}")

    model = analytic_mmse_check(net, d)
    print(f"  analytic total     : {model.total:.6f} (parameters sum {args.D})")

    cfg = SimulationConfig(blocklength=args.N, trials=args.trials, seed=args.seed)
    mc = simulate_aggregation(net, d, cfg)
    print(
        f"  monte-carlo total  : {mc.empirical_total:.6f} "
        f"+- {mc.ci_halfwidth['total']:.6f}"
    )

    rates = allocation.allocate_equal_incremental(net, args.D)
    print(f"  planned sum rate   : {rates.sum_rate_bits:.4f} bits")
    report = bounds.full_report(net, args.D)
    print(
        f"  bounds             : outer {report.outer_incremental_bits:.4f}, "
        f"cutset {report.cutset_bits:.4f}, inner {report.inner_bits:.4f}"
    )

    dither = simulate_dithered_baseline(net, rates, cfg)
    ratio = dither.empirical_total / mc.empirical_total
    print(
        f"  dither baseline    : {dither.empirical_total:.6f} "
        f"({ratio:.2f}x the test channel at equal rates)"
    )


def consensus_run(args) -> None:
    rng = np.random.default_rng(args.seed + 1)
    net = random_tree(rng, max(args.nodes, 2), mode="consensus")
    result = allocation.allocate_consensus(net, args.D)
    print(f"\nconsensus: {net.n_nodes} nodes, sum-distortion budget {args.D}")
    print(f"  planned sum rate   : {result.sum_rate_bits:.4f} bits (closed form, KKT-certified)")

    model = analytic_mmse_check(net, result.profile.inc, mode="consensus")
    cfg = SimulationConfig(blocklength=args.N, trials=args.trials, seed=args.seed)
    mc = simulate_consensus(net, result.profile.inc, cfg)
    for k in net.node_ids:
        print(
            f"  node {k}: exact {model.per_root[k]:.6f}  "
            f"empirical {mc.empirical_total[k]:.6f} "
            f"+- {mc.ci_halfwidth['per_node'][k]:.6f}"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=7)
    parser.add_argument("--D", type=float, default=0.07)
    parser.add_argument("--N", type=int, default=4000)
    parser.add_argument("--trials", type=int, default=60)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    aggregation_run(args)
    consensus_run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
