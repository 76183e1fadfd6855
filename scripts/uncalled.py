#!/usr/bin/env python3
"""Fail on any function in ``src/gausstree`` that the replay corpus never calls.

Replays every case of scripts/replay.py in process under cProfile, then
lists each ``def`` in the package's source, nested ones included, whose code
never ran, except for the entries of ``ALLOWED``.  The methods that
``dataclass`` and ``NamedTuple`` generate have no ``def`` in the source, so
they are never listed.  An entry of ``ALLOWED`` that names no definition,
or whose function did run, is reported as stale, so the list stays short
and true.  Exits 1 if anything is reported.

Usage:
    PYTHONPATH=src python scripts/uncalled.py
"""

import ast
import cProfile
import importlib.util
import pstats
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "gausstree"

#: Functions no corpus case calls, each with the reason it stays.
ALLOWED = {
    "cli.__getattr__": "the PEP 562 hook behind cli.simulator; the handlers import the "
    "simulator themselves",
    "cli.main": "the console entry point; the replay calls cli.run",
    "cli._leaf": "the JSON writer's guard for scalar subclasses and for values it cannot "
    "serialize; no CLI payload holds one, but test_cli's hypothesis properties do",
    "bounds.consensus_report": "the keyed consensus report, timed by perfbench/ladder.py",
    "simulator.simulate_aggregation": "the keyed aggregation run, timed by perfbench/ladder.py",
    "__init__.__dir__": "dir() of the package, which lists its lazy exports (PEP 562); "
    "tests/test_imports.py reads it, no CLI path does",
}


def definitions() -> dict[tuple[str, int], str]:
    """Every ``def`` under the package: (file, first line) -> ``module.qualname``.
    The first line is the code object's, the first decorator's if any."""
    found = {}

    def visit(node, file: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[(file, first)] = name
                visit(child, file, name)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path.resolve()), path.stem)
    return found


def replay_corpus() -> pstats.Stats:
    spec = importlib.util.spec_from_file_location("replay", REPO / "scripts" / "replay.py")
    replay = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)
    profile = cProfile.Profile()
    profile.enable()  # before gausstree is imported
    cases = sum(1 for _ in replay.records(None))
    profile.disable()
    print(f"replayed {cases} corpus cases under cProfile", file=sys.stderr)
    return pstats.Stats(profile)


def main() -> int:
    defined = definitions()
    stats = replay_corpus()
    ran = {defined[(str(Path(file).resolve()), line)]
           for file, line, _ in stats.stats if (str(Path(file).resolve()), line) in defined}
    uncalled = sorted(set(defined.values()) - ran - set(ALLOWED))
    stale = sorted(name for name in ALLOWED if name in ran or name not in defined.values())
    for name in uncalled:
        print(f"never called: {name}")
    for name in stale:
        print(f"stale allowlist entry (called, or not defined): {name}")
    print(f"{len(defined)} functions, {len(ran)} called, {len(ALLOWED)} allowed, "
          f"{len(uncalled)} uncalled, {len(stale)} stale", file=sys.stderr)
    return 1 if uncalled or stale else 0


if __name__ == "__main__":
    sys.exit(main())
