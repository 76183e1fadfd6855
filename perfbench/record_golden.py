#!/usr/bin/env python3
"""Record the stdout digests that every benchmark run re-checks.

For each slot of each workload's round, one small case (same subcommand
and flags, a 6-12 node tree, fixed seed) is run through ``cli.run`` and
its exit code and stdout SHA-256 are stored in ``perfbench/golden.json``
together with the input files, so later runs compare against exactly
these bytes.  This guards the contract that CLI JSON stays byte-identical.
Re-record only on purpose, from the commit whose output is the reference::

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from gausstree import cli  # noqa: E402


def small(spec: workloads.Spec) -> workloads.Spec:
    n = 10 if spec.command == "gap-sweep" else (6 if spec.consensus else 12)
    if spec.trials:
        return dataclasses.replace(spec, n=n, blocklength=500, trials=4)
    return dataclasses.replace(spec, n=n)


def main() -> int:
    cases = []
    for workload, specs in workloads.ROUNDS.items():
        for position, spec in enumerate(specs):
            op = workloads.build_op(small(spec), workloads.op_rng(0, 0, position))
            work = HERE / "results" / "work"
            work.mkdir(parents=True, exist_ok=True)
            paths = {}
            for name, text in op.files.items():
                path = work / f"golden_{name}.json"
                path.write_text(text, encoding="utf-8")
                paths[name] = str(path)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run([arg.format(**paths) for arg in op.argv])
            cases.append({
                "workload": workload,
                "label": op.spec.label,
                "argv": op.argv,
                "files": op.files,
                "exit_code": code,
                "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            })
    (HERE / "golden.json").write_text(json.dumps({"cases": cases}, indent=1) + "\n")
    print(f"recorded {len(cases)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
