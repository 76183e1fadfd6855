"""Workload definitions: seeded tree documents and the fixed op schedules.

Every workload is a fixed *round*: an ordered list of op specs (CLI
subcommand, tree shape, size, budget rule).  The benchmark repeats the
round; each op of each round draws a fresh tree from
``SeedSequence([seed, round, position])``, so the same seed gives the same
inputs and no two requests share a tree.  Sizes are fixed per spec, which
keeps structure-only call counts identical from round to round; weights,
random-tree shapes, budgets and simulator seeds come from the seed.

Generated trees label nodes so that every parent has a smaller id than its
children; the independent checks in ``checks.py`` rely on that order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("plan", "simulate", "verify")


@dataclass(frozen=True)
class Spec:
    """One slot of a round.

    ``n`` is the number of weighted nodes (aggregation trees add an
    unweighted sink; consensus trees weight every node).  ``budget`` is
    either ``("loguniform", lo, hi)`` or ``("fixed", D)``.
    """

    command: str
    shape: str | None
    n: int
    consensus: bool = False
    budget: tuple = ("loguniform", 1e-6, 1e-2)
    extra: tuple[str, ...] = ()
    blocklength: int = 0
    trials: int = 0

    @property
    def samples(self) -> int:
        """trials * N * (nodes + links) for simulator ops, else 0."""
        if not self.trials:
            return 0
        links = 2 * (self.n - 1) if self.consensus else self.n
        return self.trials * self.blocklength * (self.n + links)

    @property
    def label(self) -> str:
        parts = [self.command, self.shape or "lines", str(self.n)]
        if self.budget[0] == "fixed":
            parts.append(f"D={self.budget[1]:g}")
        parts.extend(a.lstrip("-") for a in self.extra)
        return "/".join(parts)


def _eq(command, shape, n, **kw):
    return Spec(command, shape, n, extra=("--method", "equal"), **kw)


_SIM = ("loguniform", 1e-3, 1e-1)
_VERIFY_BUDGETS = (1e-1, 1e-2, 1e-3)  # every one in every round

ROUNDS: dict[str, tuple[Spec, ...]] = {
    # network, bounds and allocation do the work; the simulator does none.
    "plan": (
        Spec("bounds", "line", 1000),
        Spec("bounds", "line", 1500),
        Spec("bounds", "star", 3000),
        Spec("bounds", "random", 3000),
        _eq("allocate", "line", 1200),
        _eq("allocate", "star", 2000),
        _eq("allocate", "random", 2500),
        Spec("consensus-bounds", "random", 200, consensus=True),
        Spec("consensus-bounds", "line", 200, consensus=True),
        Spec("consensus-bounds", "star", 200, consensus=True),
        Spec("consensus-allocate", "random", 200, consensus=True),
        Spec("consensus-allocate", "line", 200, consensus=True),
        Spec("gap-sweep", None, 100),
        # Four consensus-bounds ops form the tail class, so three rounds
        # still put ten samples beyond the tail inside it; the cheap star
        # keeps the median inside the gap-sweep class.
        Spec("consensus-bounds", "random", 190, consensus=True),
        Spec("bounds", "star", 2000),
    ),
    # simulator.montecarlo does the work: long blocks on a small tree and
    # short blocks on a large one, plus the dither and consensus engines.
    "simulate": (
        Spec("simulate", "random", 7, budget=_SIM, blocklength=10_000, trials=120),
        Spec("simulate", "random", 1000, budget=_SIM, blocklength=100, trials=20),
        # Trial counts bring these two to the large tree's cost, so the
        # median and the tail sit inside one cost class rather than on the
        # edge between two; they also keep the 6-sigma checks' false-alarm
        # rate (Student t, 60 nodes checked in consensus) below 1e-5 per op.
        Spec("simulate", "random", 100, budget=_SIM, extra=("--scheme", "dither"),
             blocklength=1000, trials=120),
        Spec("consensus-simulate", "random", 60, consensus=True, budget=_SIM,
             blocklength=1000, trials=100),
    ),
    # the exact oracle (dense linear algebra) and the penalized allocator,
    # which calls bounds and network thousands of times on one warm tree.
    # Four penalized ops of ~1 s form the tail class, so three rounds still
    # put ten samples beyond the tail inside it; at the seed commit 12 ops
    # pass per round, and the median falls between the two consensus
    # validations of n=60, which cost about the same.
    "verify": tuple(
        Spec("validate", shape, 150 + 75 * k, extra=("--mode", "agg"),
             budget=("fixed", d))
        for shape in ("line", "random")
        for k, d in enumerate(_VERIFY_BUDGETS)
    )
    + tuple(
        Spec("validate", shape, n, consensus=True, extra=("--mode", "consensus"),
             budget=("fixed", d))
        for shape, n, d in (("line", 60, 1e-1), ("random", 60, 1e-1),
                            ("random", 100, 1e-2), ("star", 80, 1e-3))
    )
    + tuple(
        Spec("allocate", shape, n, budget=("loguniform", 1e-3, 1e-1),
             extra=("--method", "penalized"))
        for shape, n in (("random", 20), ("star", 40), ("line", 30), ("random", 40),
                         ("random", 45), ("line", 34))
    ),
}


@dataclass
class Tree:
    """A generated tree: ``parent[i] < i`` for every non-root node ``i``."""

    parent: np.ndarray  # parent[0] == -1
    weight: np.ndarray  # weight[0] == 0 for an aggregation sink
    consensus: bool

    @property
    def n_nodes(self) -> int:
        return self.parent.size

    def document(self) -> dict:
        nodes = []
        if self.consensus:
            nodes.append({"id": 0, "weight": float(self.weight[0])})
        for i in range(1, self.n_nodes):
            nodes.append(
                {"id": i, "weight": float(self.weight[i]), "parent": int(self.parent[i])}
            )
        return {"root": 0, "nodes": nodes}


def make_tree(rng: np.random.Generator, shape: str, n: int, consensus: bool) -> Tree:
    size = n if consensus else n + 1
    if shape == "line":
        parent = np.arange(-1, size - 1)
    elif shape == "star":
        parent = np.zeros(size, dtype=np.int64)
        parent[0] = -1
    elif shape == "random":  # random recursive tree: depth ~ log n
        parent = np.empty(size, dtype=np.int64)
        parent[0] = -1
        parent[1:] = rng.integers(0, np.arange(1, size))
    else:
        raise ValueError(f"unknown shape {shape!r}")
    weight = rng.uniform(0.5, 2.0, size) * rng.choice((-1.0, 1.0), size)
    if not consensus:
        weight[0] = 0.0
    return Tree(parent=parent, weight=weight, consensus=consensus)


@dataclass
class Op:
    """One request: argv with ``{name}`` file placeholders, the files to
    write, and what the independent checks need to know."""

    spec: Spec
    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)
    tree: Tree | None = None
    budget: float | None = None
    budgets: tuple[float, ...] = ()
    consensus_inc: dict | None = None


def _draw_budget(rng: np.random.Generator, rule: tuple) -> float:
    if rule[0] == "fixed":
        return float(rule[1])
    lo, hi = math.log10(rule[1]), math.log10(rule[2])
    # Six significant digits, so the value survives the CLI's 12-digit JSON.
    return float(f"{10.0 ** rng.uniform(lo, hi):.6g}")


def subtree_sums(parent: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sum of ``values`` over each node's subtree, in one leaves-first pass
    (valid because every parent id is smaller than its children's)."""
    out = np.asarray(values, dtype=float).tolist()
    par = parent.tolist()
    for i in range(len(par) - 1, 0, -1):
        out[par[i]] += out[i]
    return np.array(out)


def consensus_closed_form(tree: Tree, budget: float) -> dict[tuple[int, int], float]:
    """``inc_e = D / (2(n-1) * multiplicity_e)`` for every directed edge,
    from subtree sizes (multiplicity = nodes on the receiving side)."""
    n = tree.n_nodes
    size = subtree_sums(tree.parent, np.ones(n))
    per_edge = budget / (2 * (n - 1))
    out = {}
    for c in range(1, n):
        p = int(tree.parent[c])
        out[(c, p)] = per_edge / (n - size[c])
        out[(p, c)] = per_edge / size[c]
    return out


def build_op(spec: Spec, rng: np.random.Generator) -> Op:
    budget = _draw_budget(rng, spec.budget)
    if spec.command == "gap-sweep":
        budgets = tuple(sorted(_draw_budget(rng, spec.budget) for _ in range(3)))
        argv = ["gap-sweep", "--line-n", f"2..{spec.n}",
                "--D", ",".join(repr(d) for d in budgets)]
        return Op(spec, argv, budgets=budgets)
    tree = make_tree(rng, spec.shape, spec.n, spec.consensus)
    op = Op(spec, [spec.command, "--tree", "{tree}", *spec.extra],
            files={"tree": json.dumps(tree.document())}, tree=tree, budget=budget)
    if spec.command == "validate" and spec.consensus:
        # validate reads a consensus budget only through --d-per-link.
        op.consensus_inc = consensus_closed_form(tree, budget)
        op.files["dmap"] = json.dumps(
            {f"{a}->{b}": v for (a, b), v in sorted(op.consensus_inc.items())}
        )
        op.argv += ["--d-per-link", "{dmap}"]
    else:
        op.argv += ["--D", repr(budget)]
    if spec.trials:
        sim_seed = int(rng.integers(0, 2**32))
        op.argv += ["--N", str(spec.blocklength), "--trials", str(spec.trials),
                    "--seed", str(sim_seed)]
    return op


def op_rng(seed: int, round_index: int, position: int) -> np.random.Generator:
    return np.random.default_rng([seed, round_index, position])
