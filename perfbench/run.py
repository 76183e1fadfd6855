#!/usr/bin/env python3
"""Benchmark of the gausstree CLI: one closed-loop client, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload plan --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` runs every round twice on identical inputs, once plain and
once with spans around each layer's public functions, and reports the
per-layer metrics, the size-ladder exponents and the tracing overhead.
The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a readable table comes
before it, and the full record (environment, every op, failures op by
op) is written under ``perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from dataclasses import asdict
from pathlib import Path

# Single-threaded BLAS in this process and in every interpreter it
# launches; must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from workloads import WORKLOADS  # noqa: E402  (imports numpy)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def per_layer_unit(name: str) -> str:
    if name.endswith(".exponent"):
        return "exponent"
    if name.endswith("_s"):
        return "s/round"
    if name.endswith("ns_per_sample"):
        return "ns/sample"
    if name.startswith("trace.") or name == "error_rate":
        return "fraction"
    return "calls/round"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gausstree" / "cli.py").is_file():
        print(f"error: no gausstree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import bench
    import gausstree
    import ladder
    import tracer as tracing
    from gausstree import allocation, bounds, cli, infomeasures, network, simulator

    work = bench.RESULTS / "work"
    client = bench.Client(work)
    # Digest mismatches and wrong setup outputs make the run incorrect.
    problems = bench.run_golden(args.workload, work)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": bench.environment(args.seed), "problems": problems}

    if args.trace:
        tracer = tracing.Tracer(gausstree, [network, infomeasures, bounds, allocation,
                                            simulator, cli])
        records, plain_wall, traced_wall, rounds = bench.run_traced(
            client, args.workload, args.seed, args.seconds, tracer)
        metrics, summary = bench.per_layer(tracer, args.workload, rounds, plain_wall,
                                           traced_wall)
        metrics["error_rate"] = bench.end_to_end(records, plain_wall)["error_rate"]
        exponents, ladder_raw = ladder.run(args.seed)
        metrics.update(exponents)
        tracer.save(bench.RESULTS / f"spans-{args.workload}.npz")
        record.update(rounds=rounds, untraced_wall_s=plain_wall, traced_wall_s=traced_wall,
                      ladder=ladder_raw, layer_summary=summary)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        calibration: list[float] = []
        setup = bench.SetupProbe(work)
        records, wall, rounds = bench.run_untraced(client, args.workload, args.seed,
                                                   args.seconds, calibration, setup)
        e2e = bench.end_to_end(records, wall)
        raw = {
            "ops_per_s": e2e["ops_per_s"],
            "latency_p50_ms": e2e["latency_p50_ms"],
            "latency_tail_ms": e2e["latency_tail_ms"],
            "setup_s": setup.raw(),
            "peak_rss_mb": bench.peak_rss_mb(),
        }
        # Op times at reference machine speed; goodput divides by time.
        # Start-up is scaled by its own reference launches, not the kernel.
        factor = bench.speed_factor(calibration)
        metrics = dict(raw)
        metrics["ops_per_s"] /= factor
        for name in ("latency_p50_ms", "latency_tail_ms"):
            metrics[name] *= factor
        metrics["setup_s"] = setup.value()
        record.update(rounds=rounds, wall_s=wall, setup_launch_s=setup.cli_s,
                      setup_reference_s=setup.reference_s, end_to_end=e2e,
                      error_rate=e2e["error_rate"], raw=raw, speed_factor=factor,
                      calibration_s=calibration)
        units = dict(END_TO_END_UNITS)
        if not setup.ok:
            problems.append("a setup launch's output failed its check")

    unexpected = [r for r in records if r.status == "failed"]
    failed = sum(r.status != "passed" for r in records)
    correct = not unexpected and not problems
    record.update(correct=correct, attempted=len(records), failed=failed,
                  metrics=metrics, units=units,
                  failures=[asdict(r) for r in records if r.status != "passed"],
                  ops=[asdict(r) for r in records])
    out = bench.RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")

    print(bench.report(record))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
