#!/usr/bin/env python3
"""Replay a fixed corpus of CLI cases and record, or compare, what each does.

The corpus is built from this file alone, so every commit replays the same
cases: every subcommand in JSON and CSV; ``--D`` at ordinary values and at
-1, nan, 5e-324 and 1e-300; feasible, overflowing, spread and incomplete
``--d-per-link`` maps; lines, stars and random trees of 2-300 nodes,
sink-rooted (aggregation) and fully weighted (consensus); and the error
documents of tests/test_cli.py.  A case is one argv of ``gausstree.cli.run``,
run in process; its record is the exit code and the SHA-256 of stdout and
of stderr (any Python warnings are appended to stderr as "Category: text",
without the file and line that their own text would carry).

Usage:
    PYTHONPATH=src python scripts/replay.py [--sample N]
        print one JSON record per case for the gausstree on the path
    python scripts/replay.py --against REV [--sample N]
        replay this checkout and REV, checked out in a temporary
        ``git worktree``, and print every case whose records differ;
        exits 1 if any do

``--sample N`` keeps about N cases, evenly spaced through the corpus.
tests/corpus.json holds the records of ``--sample 200``, which a tier-1
test replays; after an intended change of output, re-record it with
    PYTHONPATH=src python scripts/replay.py --sample 200 | python -c \
        "import json, sys; json.dump({'sample': 200, 'cases': [json.loads(line) \
        for line in sys.stdin]}, sys.stdout, indent=1)" > tests/corpus.json
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

BUDGETS = ["1e-3", "0.2", "-1", "nan", "5e-324", "1e-300"]
SIZES = [2, 3, 8, 40, 150, 300]
SHAPES = ["line", "star", "random"]
SMALL = 40  # largest tree for the oracle, the simulators and the penalized allocator


def node(i, weight=1.0, **extra):
    return {"id": i, "weight": weight, **extra}


LINE3 = [node(1, parent=0), node(2, parent=1)]
CONSENSUS3 = [node(0), node(1, parent=0), node(2, parent=1)]

#: (name, tree nodes, --d-per-link map or None, command): one fault each.
ERROR_DOCS = [
    ("bool-id", [node(True, parent=0)], None, "bounds"),
    ("float-id", [node(1.0, parent=0)], None, "bounds"),
    ("negative-id", [node(-1, parent=0)], None, "bounds"),
    ("duplicate-id", [node(1, parent=0), node(1, 2.0, parent=0)], None, "bounds"),
    ("sparse-ids", [node(5, parent=0)], None, "bounds"),
    ("bool-parent", [node(1, parent=True)], None, "bounds"),
    ("unknown-parent", [node(1, parent=7)], None, "bounds"),
    ("missing-parent", [node(1)], None, "bounds"),
    ("root-with-parent", [node(0, parent=1), node(1, parent=0)], None, "bounds"),
    ("cycle", [node(1, parent=2), node(2, parent=1)], None, "bounds"),
    ("string-weight", [node(1, "1", parent=0)], None, "bounds"),
    ("bool-weight", [node(1, False, parent=0)], None, "bounds"),
    ("zero-weight", [node(1, 0, parent=0)], None, "bounds"),
    ("missing-weight", [{"id": 1, "parent": 0}], None, "bounds"),
    ("sink-only", [], None, "bounds"),
    ("weighted-root-alone", [node(0)], None, "bounds"),
    ("square-overflows", [node(1, 1e200, parent=0), node(2, parent=1)], None, "bounds"),
    ("square-underflows", [node(1, parent=0), node(2, 1e-200, parent=1)], None, "bounds"),
    ("sum-overflows", [node(1, 1e154, parent=0), node(2, 1e154, parent=1)], None, "bounds"),
    ("integer-overflows", [node(1, 10**400, parent=0), node(2, parent=1)], None, "bounds"),
    ("unknown-link-node", LINE3, {"1": 0.1, "2": 0.1, "7": 0.1}, "bounds"),
    ("bool-link-value", LINE3, {"1": True, "2": 0.1}, "bounds"),
    ("string-link-value", LINE3, {"1": 0.1, "2": "0.01"}, "bounds"),
    ("huge-link-value", LINE3, {"1": 10**400, "2": 0.1}, "bounds"),
    ("duplicate-link-key", LINE3, {"1": 0.1, "01": 0.2, "2": 0.1}, "bounds"),
    ("underscore-link-key", LINE3, {"1": 0.01, "1_0": 0.01}, "bounds"),
    ("space-link-key", LINE3, {"1": 0.01, " 2": 0.01}, "bounds"),
    ("fullwidth-link-key", LINE3, {"1": 0.01, "２": 0.01}, "bounds"),
    ("plus-link-key", LINE3, {"1": 0.01, "+2": 0.01}, "bounds"),
    ("link-sum-overflows", LINE3, {"1": 1e308, "2": 1e308}, "bounds"),
    ("log-ratio-underflows", [node(1, 1e-150, parent=0)], {"1": 1e300}, "bounds"),
    ("unknown-edge-node", CONSENSUS3, {"0->7": 0.1}, "consensus-bounds"),
    ("non-adjacent-edge", CONSENSUS3, {"0->2": 0.1}, "consensus-bounds"),
    ("edge-shape", CONSENSUS3, {"0-1": 0.1}, "consensus-bounds"),
    ("bool-edge-value", CONSENSUS3, {"0->1": False}, "consensus-bounds"),
    ("duplicate-edge-key", CONSENSUS3, {"1->0": 0.1, "01->0": 0.1}, "consensus-bounds"),
    ("underscore-edge-key", CONSENSUS3,
     {"0->1": 0.01, "0_1->0": 0.01, "1->2": 0.01, "2->1": 0.01}, "consensus-bounds"),
    ("space-edge-key", CONSENSUS3,
     {"0->1": 0.01, "1->0": 0.01, "1->2": 0.01, "2-> 1": 0.01}, "consensus-bounds"),
    ("edge-sum-overflows", CONSENSUS3,
     {"0->1": 1e308, "1->0": 1e308, "1->2": 1e308, "2->1": 1e308}, "consensus-bounds"),
]


def tree_doc(rng: random.Random, shape: str, n: int, consensus: bool) -> dict:
    """A tree of ``n`` nodes rooted at 0; node 0 is weighted only in consensus."""
    nodes = [node(0, round(rng.uniform(0.2, 3.0), 6))] if consensus else []
    for i in range(1, n):
        parent = {"line": i - 1, "star": 0, "random": rng.randrange(i)}[shape]
        nodes.append(node(i, round(rng.uniform(0.2, 3.0), 6), parent=parent))
    return {"root": 0, "nodes": nodes}


def link_maps(rng: random.Random, doc: dict, consensus: bool) -> dict[str, dict]:
    """Feasible, overflowing, spread and incomplete per-link maps for a tree."""
    parent = {e["id"]: e["parent"] for e in doc["nodes"] if "parent" in e}
    if consensus:
        keys = sorted(f"{a}->{b}" for i, p in parent.items() for a, b in ((i, p), (p, i)))
    else:
        keys = [str(i) for i in sorted(parent)]
    floor = min(e["weight"] for e in doc["nodes"]) ** 2
    feasible = {k: 0.05 * floor * rng.uniform(0.5, 1.5) for k in keys}
    return {
        "feasible": feasible,
        "overflow": dict.fromkeys(keys, 1e308),
        "spread": {k: 10.0 ** rng.uniform(-300, 2) for k in keys},
        "incomplete": dict(list(feasible.items())[:-1]),
    }


def corpus(files: dict[str, object]) -> list[list[str]]:
    """Every case's argv; ``files`` receives the documents they read."""
    rng = random.Random(20261019)
    cases: list[list[str]] = []

    def add(*argv: str) -> None:
        for fmt in ("json", "csv"):
            cases.append([*argv, "--format", fmt])

    for consensus in (False, True):
        kind = "cons" if consensus else "agg"
        for shape in SHAPES:
            for n in SIZES:
                tree = f"{kind}-{shape}-{n}.json"
                doc = files[tree] = tree_doc(rng, shape, n, consensus)
                small = n <= SMALL
                commands = ["consensus-bounds", "consensus-allocate"] if consensus else [
                    "bounds", "allocate"]
                for command in commands:
                    for budget in BUDGETS:
                        add(command, "--tree", tree, "--D", budget)
                for name, values in link_maps(rng, doc, consensus).items():
                    path = f"{kind}-{shape}-{n}.{name}.json"
                    files[path] = values
                    add(commands[0], "--tree", tree, "--d-per-link", path)
                    if small:
                        add("validate", "--tree", tree, "--mode", "consensus" if consensus
                            else "agg", "--d-per-link", path)
                if consensus:  # the aggregation commands ignore the root's weight
                    add("bounds", "--tree", tree, "--D", "0.1")
                    add("allocate", "--tree", tree, "--D", "0.1")
                if not small:
                    continue
                add("validate", "--tree", tree)
                sim = ["--N", "200", "--trials", "5", "--seed", "3"]
                if consensus:
                    add("validate", "--tree", tree, "--mode", "consensus", "--D", "0.1")
                    add("consensus-simulate", "--tree", tree, "--D", "0.1", *sim)
                else:
                    add("validate", "--tree", tree, "--mode", "agg", "--D", "0.1")
                    add("simulate", "--tree", tree, "--D", "0.1", *sim)
                    add("simulate", "--tree", tree, "--D", "0.1", "--scheme", "dither", *sim)
                    if n <= 8:
                        add("allocate", "--tree", tree, "--D", "0.1", "--method", "penalized")
    for name, nodes, links, command in ERROR_DOCS:
        tree = f"error-{name}.json"
        files[tree] = {"root": 0, "nodes": nodes}
        if links is None:
            add(command, "--tree", tree, "--D", "0.1")
        else:
            files[f"error-{name}.links.json"] = links
            add(command, "--tree", tree, "--d-per-link", f"error-{name}.links.json")
    add("bounds", "--tree", "missing.json", "--D", "0.1")
    files["malformed.json"] = "{not json"
    add("bounds", "--tree", "malformed.json", "--D", "0.1")
    for line_n, budgets in [("1..6", "1e-2,1e-6"), ("2,4", "1e-3,inf"), ("2", "1e308")]:
        add("gap-sweep", "--line-n", line_n, "--D", budgets)
    return cases


def run_case(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(argv)
            except Exception as exc:  # the CLI would end in a traceback: exit 1
                code = 1
                print(f"{type(exc).__name__}: {exc}", file=err)
    stderr = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return {
        "argv": argv,
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(stderr.encode()).hexdigest(),
    }


def sampled(cases: list, sample: int | None) -> list:
    if not sample or sample >= len(cases):
        return cases
    return cases[:: -(-len(cases) // sample)]


def records(sample: int | None):
    """Run the (sampled) corpus in process and yield each case's record."""
    from gausstree import cli

    files: dict[str, object] = {}
    cases = sampled(corpus(files), sample)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for name, doc in files.items():
            text = doc if isinstance(doc, str) else json.dumps(doc)
            Path(work, name).write_text(text, encoding="utf-8")
        os.chdir(work)  # argv name files relative to the corpus, so stderr matches
        try:
            for argv in cases:
                yield run_case(cli, argv)
        finally:
            os.chdir(here)


def record(sample: int | None) -> None:
    for case in records(sample):
        print(json.dumps(case), flush=True)


def replay(src: Path, sample: int | None) -> list[dict]:
    argv = [sys.executable, str(Path(__file__).resolve())]
    if sample:
        argv += ["--sample", str(sample)]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


def against(rev: str, sample: int | None) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp, "rev")
        subprocess.run(["git", "-C", str(REPO), "worktree", "add", "--detach", "--quiet",
                        str(tree), rev], check=True)
        try:
            theirs = replay(tree / "src", sample)
        finally:
            subprocess.run(["git", "-C", str(REPO), "worktree", "remove", "--force", str(tree)],
                           check=True)
    ours = replay(REPO / "src", sample)
    differ = [(a, b) for a, b in zip(theirs, ours) if a != b]
    for a, b in differ:
        print(json.dumps({"argv": a["argv"], rev: {k: a[k] for k in ("exit", "stdout", "stderr")},
                          "this checkout": {k: b[k] for k in ("exit", "stdout", "stderr")}}))
    print(f"{len(ours)} cases, {len(differ)} differ from {rev}", file=sys.stderr)
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="commit to compare with")
    parser.add_argument("--sample", type=int, metavar="N", help="keep about N cases")
    args = parser.parse_args()
    if args.against:
        return against(args.against, args.sample)
    record(args.sample)
    return 0


if __name__ == "__main__":
    sys.exit(main())
