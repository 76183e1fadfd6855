"""Size ladder: how each layer's cost grows with n.

Times one public function at three sizes (best of two calls, untraced)
and fits the slope of log time against log n.  The ROADMAP target is
O(n) to O(n log n), so slopes above about 1.2 are flagged; they are
reported, never gated.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

import workloads

FLAG_ABOVE = 1.2


def _net(rng, shape: str, n: int, consensus: bool):
    from gausstree.network import parse_tree

    return parse_tree(json.dumps(workloads.make_tree(rng, shape, n, consensus).document()))


def _cases(rng):
    """name -> (sizes, prepare(n) -> zero-argument call)."""
    from gausstree import allocation, bounds, cli, simulator

    def full_report(n):
        net = _net(rng, "line", n, False)
        return lambda: bounds.full_report(net, 1e-4)

    def consensus_report(n):
        net = _net(rng, "random", n, True)
        inc = allocation.allocate_consensus(net, 1e-4, cross_validate=False).profile.inc
        return lambda: bounds.consensus_report(net, inc, 1e-4)

    def allocate_consensus(n):
        net = _net(rng, "random", n, True)
        return lambda: allocation.allocate_consensus(net, 1e-4)

    def simulate_aggregation(n):
        net = _net(rng, "random", n, False)
        d = {i: 1e-2 / n for i in net.sources}
        cfg = simulator.SimulationConfig(blocklength=100, trials=10, seed=1)
        return lambda: simulator.simulate_aggregation(net, d, cfg)

    def analytic_mmse_check(n):
        net = _net(rng, "random", n, False)
        d = {i: 1e-1 / n for i in net.sources}
        return lambda: simulator.analytic_mmse_check(net, d)

    def gap_sweep(n):
        return lambda: cli.gap_sweep(range(2, n + 1), [1e-4])

    return {
        "scaling.bounds.full_report.exponent": ((250, 500, 1000), full_report),
        "scaling.bounds.consensus_report.exponent": ((50, 100, 150), consensus_report),
        "scaling.allocation.allocate_consensus.exponent": ((50, 100, 150), allocate_consensus),
        "scaling.simulator.simulate_aggregation.exponent":
            ((100, 200, 400), simulate_aggregation),
        "scaling.simulator.analytic_mmse_check.exponent":
            ((50, 100, 200), analytic_mmse_check),
        "scaling.cli.gap_sweep.exponent": ((40, 80, 160), gap_sweep),
    }


def fit_exponent(sizes, seconds) -> float:
    slope, _ = np.polyfit(np.log(sizes), np.log(seconds), 1)
    return float(slope)


def run(seed: int) -> tuple[dict, dict]:
    """(exponent per metric name, raw timings per metric name)."""
    from gausstree.errors import ConsistencyError

    rng = np.random.default_rng([seed, 2**31])
    exponents, raw = {}, {}
    for name, (sizes, prepare) in _cases(rng).items():
        times, raised = [], []
        for n in sizes:
            call = prepare(n)
            best = math.inf
            for _ in range(2):
                start = time.perf_counter()
                try:
                    call()
                except ConsistencyError as exc:  # the oracle's known false alarm
                    raised.append(f"n={n}: {exc}")
                best = min(best, time.perf_counter() - start)
            times.append(best)
        exponents[name] = fit_exponent(sizes, times)
        raw[name] = {"n": list(sizes), "seconds": times,
                     "flagged": exponents[name] > FLAG_ABOVE, "raised": raised}
    return exponents, raw
