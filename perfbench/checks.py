"""Output checks that do not depend on the program.

Every quantity is recomputed from the generated tree with the benchmark's
own O(n) code: subtree sizes and variances by one leaves-first fold,
oriented variances and edge multiplicities by complementing them
(``src -> dst`` on a parent edge carries everything outside the child's
subtree).  JSON output carries 12 significant digits, so agreement is
asked to 1e-9 bits on rates and 1e-9 relative on distortions.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import Op, Tree, consensus_closed_form, subtree_sums

RATE_TOL_BITS = 1e-9
REL_TOL = 1e-9
LOG2E = 1.0 / math.log(2.0)


class CheckFailure(Exception):
    """An output disagrees with the independent recomputation."""


def _close(what: str, got: float, want: float, tol: float) -> None:
    if not (abs(got - want) <= tol):
        raise CheckFailure(f"{what}: got {got!r}, expected {want!r} (tol {tol:g})")


def _rel(what: str, got: float, want: float) -> None:
    _close(what, got, want, REL_TOL * max(abs(want), 1e-300))


class TreeFacts:
    """Sizes, variances and multiplicities of a generated tree."""

    def __init__(self, tree: Tree):
        self.tree = tree
        self.n = tree.n_nodes
        self.w2 = tree.weight**2
        self.size = subtree_sums(tree.parent, np.ones(self.n))
        self.s2 = subtree_sums(tree.parent, self.w2)
        self.children = np.arange(1, self.n)
        self.parents = tree.parent[1:]

    def directed(self) -> dict[str, tuple[float, int]]:
        """``"a->b"`` -> (oriented variance, multiplicity) for all 2(n-1) edges."""
        total = self.s2[0]
        out = {}
        for c, p in zip(self.children.tolist(), self.parents.tolist()):
            out[f"{c}->{p}"] = (self.s2[c], self.n - int(self.size[c]))
            out[f"{p}->{c}"] = (total - self.s2[c], int(self.size[c]))
        return out


def _penalty(x: np.ndarray, w2: np.ndarray, s2: np.ndarray) -> np.ndarray:
    return x / (2.0 * w2) + LOG2E / (2.0 * s2) * np.sqrt(2.0 * x * (4.0 * s2 + x))


def _outer_bits(inc: np.ndarray, tx: np.ndarray, w2: np.ndarray, s2: np.ndarray) -> float:
    return float(np.sum(0.5 * (np.log2(s2 / inc) - _penalty(tx, w2, s2))))


def _check_rates(records, want_inc: dict, variance: dict, key) -> float:
    """Each record's inc matches, and rate_bits = 0.5*log2(s2/inc); returns
    the sum of the reported rates."""
    if len(records) != len(want_inc):
        raise CheckFailure(f"{len(records)} links reported, expected {len(want_inc)}")
    total = 0.0
    for rec in records:
        k = key(rec)
        if k not in want_inc:
            raise CheckFailure(f"unexpected link {k}")
        if "inc" in rec:
            _rel(f"link {k} inc", rec["inc"], want_inc[k])
        _close(f"link {k} rate_bits", rec["rate_bits"],
               0.5 * math.log2(variance[k] / want_inc[k]), RATE_TOL_BITS)
        total += rec["rate_bits"]
    return total


def check_bounds(op: Op, doc: dict) -> None:
    f = TreeFacts(op.tree)
    n, D = f.n - 1, op.budget
    if doc["mode"] != "aggregation":
        raise CheckFailure(f"mode {doc['mode']!r}")
    _rel("total_distortion", doc["total_distortion"], D)
    inc = D / n
    c = f.children
    want = {str(i): inc for i in c.tolist()}
    var = {str(i): f.s2[i] for i in c.tolist()}
    rate_sum = _check_rates(doc["per_link_rates_bits"], want, var, lambda r: r["link"])
    tol = RATE_TOL_BITS * n
    _close("inner_bits", doc["inner_bits"], rate_sum, tol)
    _close("inner_minimized_bits", doc["inner_minimized_bits"], rate_sum, tol)
    tx = (f.size[c] - 1) * inc
    outer = _outer_bits(np.full(n, inc), tx, f.w2[c], f.s2[c])
    cutset = float(np.sum(0.5 * np.log2(f.s2[c] / (f.size[c] * inc))))
    _close("outer_incremental_bits", doc["outer_incremental_bits"], outer, tol)
    _close("cutset_bits", doc["cutset_bits"], cutset, tol)
    _close("delta_r_bits", doc["delta_r_bits"], outer - cutset, tol)


def check_allocate(op: Op, doc: dict) -> None:
    f = TreeFacts(op.tree)
    n, D = f.n - 1, op.budget
    c = f.children
    records = doc["links"]
    for rec in records:
        if rec["to"] != op.tree.parent[rec["from"]]:
            raise CheckFailure(f"link {rec['from']} -> {rec['to']} is not an uplink")
    got = {r["from"]: r["inc"] for r in records}
    _rel("sum of inc", math.fsum(got.values()), D)
    if doc["method"] == "equal-split":
        want = {i: D / n for i in c.tolist()}
    elif doc["method"] == "numeric-penalized":
        want = got
        # Never worse than equal split on the penalized objective.
        inc = np.array([got[i] for i in c.tolist()])
        tx = subtree_sums(op.tree.parent, np.concatenate(([0.0], inc)))[1:] - inc
        eq = np.full(n, D / n)
        best = _outer_bits(inc, tx, f.w2[c], f.s2[c])
        base = _outer_bits(eq, (f.size[c] - 1) * (D / n), f.w2[c], f.s2[c])
        if best > base + RATE_TOL_BITS * n:
            raise CheckFailure(f"penalized objective {best!r} worse than equal split {base!r}")
    else:
        raise CheckFailure(f"method {doc['method']!r}")
    var = {i: f.s2[i] for i in c.tolist()}
    rate_sum = _check_rates(records, want, var, lambda r: r["from"])
    _close("sum_rate_bits", doc["sum_rate_bits"], rate_sum, RATE_TOL_BITS * n)


def _consensus_rates(op: Op, directed: dict, records, key) -> float:
    """Checks per-edge inc = D/(E*m) and rates; returns the rate sum."""
    edges = len(directed)
    want = {e: op.budget / (edges * m) for e, (_, m) in directed.items()}
    var = {e: s2 for e, (s2, _) in directed.items()}
    return _check_rates(records, want, var, key)


def check_consensus_bounds(op: Op, doc: dict) -> None:
    if doc["mode"] != "consensus":
        raise CheckFailure(f"mode {doc['mode']!r}")
    _rel("total_distortion", doc["total_distortion"], op.budget)
    directed = TreeFacts(op.tree).directed()
    rate_sum = _consensus_rates(op, directed, doc["per_link_rates_bits"], lambda r: r["link"])
    _close("inner_bits", doc["inner_bits"], rate_sum, RATE_TOL_BITS * len(directed))
    n = op.tree.n_nodes
    comparator = max(0.0, 0.5 * n * math.log2(1.0 / (n**1.5 * op.budget)))
    _close("classical_comparator_bits", doc["classical_comparator_bits"], comparator,
           RATE_TOL_BITS * max(1.0, comparator))


def check_consensus_allocate(op: Op, doc: dict) -> None:
    if doc["method"] != "consensus-kkt":
        raise CheckFailure(f"method {doc['method']!r}")
    directed = TreeFacts(op.tree).directed()
    D = op.budget
    edges = len(directed)
    weighted = [directed[f"{r['from']}->{r['to']}"][1] * r["inc"] for r in doc["links"]]
    # multiplicity * inc is the same on every edge and sums to D.
    for value in weighted:
        _rel("multiplicity * inc", value, D / edges)
    _rel("sum of multiplicity * inc", math.fsum(weighted), D)
    rate_sum = _consensus_rates(op, directed, doc["links"], lambda r: f"{r['from']}->{r['to']}")
    _close("sum_rate_bits", doc["sum_rate_bits"], rate_sum, RATE_TOL_BITS * edges)
    _close("numeric_sum_rate_bits", doc["numeric_sum_rate_bits"], rate_sum, 1e-6)
    _rel("uniform_edge_inc", doc["uniform_edge_inc"], D / edges)


def check_gap_sweep(op: Op, rows: list) -> None:
    n_max = op.spec.n
    expected = [(n, d) for n in range(2, n_max + 1) for d in op.budgets]
    if [(r["n"], r["D"]) for r in rows] != expected:
        raise CheckFailure("gap-sweep rows are not one per (n, D) in ascending order")
    for row in rows:
        n, d = row["n"], row["D"]
        # Equal-weight line of n nodes: node at distance j from the sink
        # has a subtree of n - j + 1 nodes.
        size = np.arange(n, 0, -1, dtype=float)
        inc = d / n
        gap = float(np.sum(0.5 * (np.log2(size) - _penalty((size - 1) * inc, 1.0, size))))
        asymptote = 0.5 * math.lgamma(n + 1) * LOG2E
        _close(f"n={n} D={d:g} delta_r_bits", row["delta_r_bits"], gap, RATE_TOL_BITS * n)
        _close(f"n={n} asymptote_bits", row["asymptote_bits"], asymptote,
               RATE_TOL_BITS * n)
        _close(f"n={n} D={d:g} delta_minus_asymptote_bits",
               row["delta_minus_asymptote_bits"], gap - asymptote, 2 * RATE_TOL_BITS * n)


def _within_ci(what: str, empirical: float, reference: float, halfwidth: float) -> None:
    # ci_halfwidth is 3 sigma; 2 * ci_halfwidth is 6 sigma.
    if not (abs(empirical - reference) <= 2.0 * halfwidth):
        raise CheckFailure(
            f"{what}: |{empirical!r} - {reference!r}| exceeds 2 * ci {halfwidth!r}"
        )


def check_simulate(op: Op, doc: dict) -> None:
    if doc["mode"] == "consensus":
        inc = consensus_closed_form(op.tree, op.budget)
        per_root = _per_root(op.tree, inc)
        refs = doc["references"]["per_node"]
        ci = doc["ci_halfwidth"]["per_node"]
        emp = doc["empirical_total"]
        if len(emp) != op.tree.n_nodes:
            raise CheckFailure(f"{len(emp)} nodes reported, expected {op.tree.n_nodes}")
        for k, value in emp.items():
            _rel(f"node {k} reference", refs[k], per_root[int(k)])
            _within_ci(f"node {k} distortion", value, refs[k], ci[k])
        return
    if len(doc["per_link_incremental"]) != op.tree.n_nodes - 1:
        raise CheckFailure("per-link results do not cover every link")
    total_ref, ci = doc["references"]["total"], doc["ci_halfwidth"]["total"]
    if doc["scheme"] == "test-channel":
        _rel("reference total", total_ref, op.budget)
        _within_ci("end-to-end distortion", doc["empirical_total"], total_ref, ci)
        return
    # The dither reference is the uniform-noise model step^2/12, which leaves
    # out overload (clipping) error; overload only adds distortion and is
    # heavy-tailed, so the model is a floor, not an expectation.
    _rel("reference total", total_ref, math.fsum(doc["references"]["inc"].values()))
    if not doc["empirical_total"] >= total_ref - 2.0 * ci:
        raise CheckFailure(f"dither distortion {doc['empirical_total']!r} is more than "
                           f"2 * ci {ci!r} below its noise model {total_ref!r}")
    # Documented contract: the test channel at matched (equal-split) rates
    # achieves less distortion on every link.
    matched = _matched_test_channel(op.tree, op.budget)
    for key, value in doc["per_link_incremental"].items():
        if not value >= matched[int(key)]:
            raise CheckFailure(f"link {key}: dither distortion {value!r} below the "
                               f"test channel's {matched[int(key)]!r} at matched rate")


def _matched_test_channel(tree: Tree, budget: float) -> list[float]:
    """Test-channel distortions at the equal-split rates
    ``R_i = 0.5*log2(s2_i/(D/n))``: ``d_i = sigma_hat_i * 4**-R_i``, with
    ``sigma_hat_i = w_i^2 + sum over children of (sigma_hat_c - d_c)``."""
    share = budget / (tree.n_nodes - 1)
    s2 = subtree_sums(tree.parent, tree.weight**2).tolist()
    carried = (tree.weight**2).tolist()
    par = tree.parent.tolist()
    d = [0.0] * tree.n_nodes
    for i in range(len(par) - 1, 0, -1):
        d[i] = carried[i] * share / s2[i]
        carried[par[i]] += carried[i] - d[i]
    return d


def _per_root(tree: Tree, inc: dict) -> np.ndarray:
    """Sum of inc over the directed tree towards each node, by rerooting:
    moving the root from p to child c swaps inc[c->p] for inc[p->c]."""
    out = np.empty(tree.n_nodes)
    out[0] = math.fsum(inc[(c, int(p))] for c, p in enumerate(tree.parent.tolist()) if c)
    for c in range(1, tree.n_nodes):
        p = int(tree.parent[c])
        out[c] = out[p] - inc[(c, p)] + inc[(p, c)]
    return out


def check_validate(op: Op, doc: dict) -> None:
    mode = "consensus" if op.spec.consensus else "aggregation"
    if list(doc) != [mode]:
        raise CheckFailure(f"modes {list(doc)}, expected [{mode!r}]")
    entry = doc[mode]
    if entry["status"] != "ok":
        raise CheckFailure(f"status {entry['status']!r}")
    n = op.tree.n_nodes
    links = 2 * (n - 1) if op.spec.consensus else n - 1
    if entry["links_checked"] != links:
        raise CheckFailure(f"links_checked {entry['links_checked']}, expected {links}")
    _rel("total_distortion", entry["total_distortion"], op.budget)


#: Conditioning index from which the seed commit's oracle is known to raise
#: false consistency failures.  The oracle gets a link's receive distortion
#: as var(target) - gain @ cov, so its rounding error grows with
#: var(target) / distortion, the index below.  At the seed commit the
#: lowest index among failed validate ops was 1.2e5 (some 2400 ops of this
#: benchmark); below 1e4 the cancellation loses at most about 2e-12 of the
#: distortion, 50 times inside the oracle's 1e-10 tolerance.
ORACLE_ILL_CONDITIONED = 1e4


def oracle_conditioning(op: Op) -> float:
    """Largest ratio over the links that ``validate`` checks of the variance
    of the partial sum a link carries to that link's exact receive
    distortion (the sum of the distortion parameters upstream of the
    receiver, the link's own included).

    Every generated parameter is below 0.25 <= w^2, so the inputs are
    feasible by construction and the exact identities hold; an index this
    large only makes the oracle's floating-point evaluation lose them."""
    tree = op.tree
    w2 = tree.weight**2
    n = tree.n_nodes
    s2 = subtree_sums(tree.parent, w2)
    if not op.spec.consensus:
        rx = (op.budget / (n - 1)) * subtree_sums(tree.parent, np.ones(n))
        return float(np.max(s2[1:] / rx[1:]))
    inc = op.consensus_inc
    par = tree.parent.tolist()
    up = np.zeros(n)
    for c in range(1, n):
        up[c] = inc[(c, par[c])]
    # c -> p carries c's subtree; p -> c carries the rest, and its receive
    # distortion is everything flowing into c minus what c's subtree sends.
    up_rx = subtree_sums(tree.parent, up)
    into = _per_root(tree, inc)
    total = float(w2.sum())
    index = 0.0
    for c in range(1, n):
        down_rx = into[c] - (up_rx[c] - up[c])
        index = max(index, s2[c] / up_rx[c], (total - s2[c]) / down_rx)
    return index


CHECKS = {
    "bounds": check_bounds,
    "allocate": check_allocate,
    "consensus-bounds": check_consensus_bounds,
    "consensus-allocate": check_consensus_allocate,
    "gap-sweep": check_gap_sweep,
    "simulate": check_simulate,
    "consensus-simulate": check_simulate,
    "validate": check_validate,
}


def check_output(op: Op, doc) -> None:
    """Raise :class:`CheckFailure` unless ``doc`` is right for ``op``."""
    try:
        CHECKS[op.spec.command](op, doc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckFailure(f"malformed output: {type(exc).__name__}: {exc}") from exc
