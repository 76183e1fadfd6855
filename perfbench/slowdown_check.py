#!/usr/bin/env python3
"""Does the speed calibration keep a program change's effect intact?

The end-to-end times are scaled by a calibration kernel timed in the
benchmark's own process (``bench.calibrate``).  If a program change also
changed the kernel's time -- through the allocator's state or the CPU
caches it leaves behind -- the scaling would hide part of the change.
This script injects a known slowdown into one subcommand and compares
the slowdown the raw figures show with the one the scaled figures show.

Every op runs twice in a row on the same input, once plain and once
slowed, in alternating order, so both arms see the same drift of the
host's speed.  After each run the calibration kernel is timed, as a run of
``run.py`` times it before the next op, and the sample goes to that arm's
speed factor.  Two slowdowns are tried:

* ``cpu``: a fixed pure-Python loop around each call;
* ``heap``: the same loop, plus some 40 MB of small objects built before
  each call and freed after it, which changes the allocator's state the
  kernel then runs in.

Usage, from the root of a checkout::

    python3 perfbench/slowdown_check.py --workload plan --command bounds --seconds 60

The last stdout line is one JSON object with, for each slowdown, the
ratios slowed/plain of the command's median latency (raw and scaled), of
the total time of the workload's passed ops (raw and scaled), and of the
mean kernel time, over all ops and right after the slowed command.  The
scaled ratios keep the raw ones when the kernel ratios are 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import workloads  # noqa: E402
from gausstree import cli  # noqa: E402

LOOP_ITERATIONS = 2_000_000


def _busy() -> int:
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i & 7
    return total


def slowed(run, command: str, kind: str):
    def wrapper(argv):
        if argv[0] != command:
            return run(argv)
        _busy()
        garbage = [{"k": i, "v": float(i)} for i in range(150_000)] if kind == "heap" else None
        try:
            return run(argv)
        finally:
            del garbage

    return wrapper


def measure(workload: str, command: str, kind: str, seed: int, seconds: float) -> dict:
    client = bench.Client(bench.RESULTS / "work")
    original = cli.run
    arms = {arm: {"latency": [], "op_time": 0.0, "kernel": [], "kernel_after": []}
            for arm in ("plain", "slowed")}
    start = time.perf_counter()
    rounds = 0
    while rounds < 2 or time.perf_counter() - start < seconds:
        for position, spec in enumerate(workloads.ROUNDS[workload]):
            op = workloads.build_op(spec, workloads.op_rng(seed, rounds, position))
            order = ("plain", "slowed") if (rounds + position) % 2 else ("slowed", "plain")
            for name in order:
                arm = arms[name]
                if name == "slowed":
                    cli.run = slowed(original, command, kind)
                try:
                    code, stdout, stderr, latency = client.execute(op)
                finally:
                    cli.run = original
                # The sample a run of run.py would take before the next op.
                kernel = bench.calibrate()
                arm["kernel"].append(kernel)
                if client.judge(op, code, stdout, stderr)[0] != "passed":
                    continue
                arm["op_time"] += latency
                if spec.command == command:
                    arm["latency"].append(latency)
                    arm["kernel_after"].append(kernel)
        rounds += 1

    figures = {}
    for name, arm in arms.items():
        factor = bench.speed_factor(arm["kernel"])
        latency = statistics.median(arm["latency"])
        figures[name] = {"latency_raw": latency, "latency_scaled": latency * factor,
                         "op_time_raw": arm["op_time"],
                         "op_time_scaled": arm["op_time"] * factor,
                         "kernel_s": statistics.fmean(arm["kernel"]),
                         "kernel_after_command_s": statistics.fmean(arm["kernel_after"])}
    plain, slow = figures["plain"], figures["slowed"]
    return {"rounds": rounds, **{f"{key}_ratio": slow[key] / plain[key] for key in plain}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="plan", choices=workloads.WORKLOADS)
    parser.add_argument("--command", default="bounds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args(argv)
    result = {}
    for kind in ("cpu", "heap"):
        result[kind] = measure(args.workload, args.command, kind, args.seed, args.seconds)
        print(kind, " ".join(f"{k}={v:.4f}" for k, v in result[kind].items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
