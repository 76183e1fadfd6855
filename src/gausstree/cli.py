"""Command-line front end.

Subcommands: ``bounds``, ``allocate``, ``simulate``, ``gap-sweep``,
``consensus-bounds``, ``consensus-allocate``, ``consensus-simulate`` and
``validate``.  Output is machine-readable JSON (12 significant digits) or
CSV (6 significant digits), written to stdout or ``--out``.  Identical
argv plus seed produce byte-identical JSON.

Exit codes: 0 success, 2 input error, 3 infeasible parameters,
4 internal-consistency failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Iterable, Mapping, Sequence

from . import allocation, bounds, simulator
from .errors import ConsistencyError, InfeasibleError, InputError
from .network import MAX_NODES, LinkSet, TreeNetwork, make_line, parse_tree

__all__ = ["build_parser", "gap_sweep", "main", "run"]

_JSON_DIGITS = 12
_CSV_DIGITS = 6

#: Longest line ``gap-sweep`` builds: n weighted nodes plus the sink.
_MAX_LINE_N = MAX_NODES - 1


# ---------------------------------------------------------------------------
# output formatting


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.{_JSON_DIGITS}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _format_json(payload) -> str:
    return json.dumps(_round_floats(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _format_csv(rows: Iterable[Sequence]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in rows:
        writer.writerow(
            [f"{v:.{_CSV_DIGITS}g}" if isinstance(v, float) else v for v in row]
        )
    return buffer.getvalue()


def _emit(args, json_payload, csv_rows) -> None:
    if args.format == "csv":
        text = _format_csv(csv_rows)
    else:
        try:
            text = _format_json(json_payload)
        except ValueError as exc:  # NaN or infinity has no JSON literal
            raise InfeasibleError(
                f"a result is not finite at these parameters ({exc})"
            ) from exc
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# input loading


def _load_tree(path: str) -> TreeNetwork:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_tree(handle.read())
    except OSError as exc:
        raise InputError(f"cannot read tree file {path}: {exc}") from exc


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


def _number_map(path: str, what: str, parse_key) -> dict:
    # A JSON object of numbers keyed by links: ``parse_key`` turns a key
    # into its link, or raises ValueError (an InputError names its own
    # fault).  Values are as strict as tree weights, and two keys that name
    # one link are refused.
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected an object mapping {what} to values")
    out, named = {}, {}
    for key, value in doc.items():
        try:
            link = parse_key(key)
        except InputError as exc:
            raise InputError(f"{path}: {exc}") from None
        except ValueError:
            link = None
        if link is None or isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InputError(f"{path}: bad entry {key!r}: {value!r}")
        if link in named:
            raise InputError(f"{path}: keys {named[link]!r} and {key!r} name the same link")
        try:
            out[link] = float(value)
        except OverflowError:
            raise InputError(f"{path}: entry {key!r} is an integer too large for a float") from None
        named[link] = key
    return out


def _link_map(path: str) -> dict[int, float]:
    return _number_map(path, "node ids", int)


def _edge_key(key: str) -> tuple[int, int]:
    parts = key.split("->")
    if len(parts) != 2:
        raise InputError(f'edge key {key!r} is not of the form "i->j"')
    return int(parts[0]), int(parts[1])


def _edge_map(path: str) -> dict[tuple[int, int], float]:
    return _number_map(path, '"i->j"', _edge_key)


def _budget(args) -> float:
    """--D, checked like every allocator's budget."""
    if args.D is None:
        raise InputError("either --D or --d-per-link is required")
    return allocation._check_budget(args.D)


def _aggregation_d(args, net: TreeNetwork) -> dict:
    """Per-link distortions from --d-per-link, else the equal split of --D."""
    if args.d_per_link:
        return _link_map(args.d_per_link)
    budget = _budget(args)
    return {i: budget / len(net.sources) for i in net.sources}


def _consensus_d(args, net: TreeNetwork) -> dict:
    """Per-edge distortions from --d-per-link, else the consensus
    allocation of --D."""
    if args.d_per_link:
        return _edge_map(args.d_per_link)
    return allocation.allocate_consensus(net, _budget(args)).profile.inc


def _line_too_long(n: int) -> InputError:
    return InputError(
        f"line length {n} exceeds the maximum {_MAX_LINE_N} "
        f"(a line of n weighted nodes has n + 1 nodes, at most {MAX_NODES})"
    )


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        try:
            lo, hi = (int(part) for part in text.split("..", 1))
        except ValueError as exc:
            raise InputError(f"bad range {text!r}") from exc
        if lo <= hi and hi > _MAX_LINE_N:  # refuse before building the list
            raise _line_too_long(hi)
        return list(range(lo, hi + 1))
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad integer list {text!r}") from exc


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad float list {text!r}") from exc


# ---------------------------------------------------------------------------
# subcommands


def gap_sweep(n_values: Iterable[int], d_values: Iterable[float]) -> list[dict]:
    """Incremental-vs-cut-set gap on equal-weight lines, one row per
    (n, D) combination in ascending order, against ``0.5*log2(n!)``."""
    rows = []
    lengths = sorted(set(n_values))
    if lengths and lengths[-1] > _MAX_LINE_N:
        raise _line_too_long(lengths[-1])
    for n in lengths:
        if n < 1:
            raise InputError(f"line length must be positive, got {n}")
        net = make_line(n, [1.0] * n)
        asymptote = bounds.line_gap_asymptote(n)
        for d_total in sorted(set(d_values)):
            allocation._check_budget(d_total)
            profile = bounds.derive_distortions(
                net, {i: d_total / n for i in net.sources}
            )
            delta = bounds.gap_report(net, profile).delta_r_bits
            rows.append(
                {
                    "n": n,
                    "D": d_total,
                    "delta_r_bits": delta,
                    "asymptote_bits": asymptote,
                    "delta_minus_asymptote_bits": delta - asymptote,
                }
            )
    return rows


def _cmd_bounds(args) -> int:
    net = _load_tree(args.tree)
    if args.d_per_link:
        report = bounds.full_report(net, inc=_link_map(args.d_per_link))
    else:
        if args.D is None:
            raise InputError("either --D or --d-per-link is required")
        report = bounds.full_report(net, args.D)
    _emit(args, report.to_json_dict(), report.to_csv_rows())
    return 0


def _cmd_consensus_bounds(args) -> int:
    net = _load_tree(args.tree)
    if args.d_per_link or args.D is None:
        profile = bounds.consensus_derive(net, _consensus_d(args, net))
    else:
        profile = allocation.allocate_consensus(net, args.D).profile
    report = bounds._consensus_report(net, profile, profile.total)
    _emit(args, report.to_json_dict(), report.to_csv_rows())
    return 0


def _cmd_allocate(args) -> int:
    net = _load_tree(args.tree)
    if args.D is None:
        raise InputError("--D is required")
    if args.method == "penalized":
        result = allocation.allocate_numeric_penalized(net, args.D, tol=args.tol)
    else:
        result = allocation.allocate_equal_incremental(net, args.D)
    _emit(args, result.to_json_dict(net), result.to_csv_rows(net))
    return 0


def _cmd_consensus_allocate(args) -> int:
    net = _load_tree(args.tree)
    if args.D is None:
        raise InputError("--D is required")
    kkt = allocation.allocate_consensus(net, args.D, cross_validate=False)
    numeric = allocation.allocate_consensus_numeric(net, args.D)
    payload = kkt.to_json_dict(net)
    # The uniform per-edge split is shown alongside the solution of the
    # multiplicity-weighted program; they coincide only when every edge
    # has the same multiplicity.
    payload["numeric_sum_rate_bits"] = numeric.sum_rate_bits
    payload["uniform_edge_inc"] = args.D / (2 * (net.n_nodes - 1))
    _emit(args, payload, kkt.to_csv_rows(net))
    return 0


def _cmd_simulate(args, force_mode: str | None = None) -> int:
    net = _load_tree(args.tree)
    consensus = (force_mode or args.mode) == "consensus"
    cfg = simulator.SimulationConfig(blocklength=args.N, trials=args.trials, seed=args.seed)
    if consensus:
        if args.scheme != "testchannel":
            raise InputError("the dithered baseline is aggregation-only")
        result = simulator.simulate_consensus(net, _consensus_d(args, net), cfg)
    elif args.scheme == "dither":
        if args.d_per_link:
            profile = bounds.derive_distortions(net, _link_map(args.d_per_link))
            rates = allocation.rates_for_profile(net, profile)
        else:
            rates = allocation.allocate_equal_incremental(net, _budget(args))
        result = simulator.simulate_dithered_baseline(net, rates, cfg)
    else:
        result = simulator.simulate_aggregation(net, _aggregation_d(args, net), cfg)
    _emit(args, result.to_json_dict(), result.to_csv_rows())
    return 0


def _cmd_gap_sweep(args) -> int:
    rows = gap_sweep(_parse_range(args.line_n), _parse_float_list(args.D))
    header = ["n", "D", "delta_r_bits", "asymptote_bits", "delta_minus_asymptote_bits"]
    csv_rows = [header] + [[row[name] for name in header] for row in rows]
    _emit(args, rows, csv_rows)
    return 0


def _default_d(view: LinkSet, fraction: float = 0.1) -> dict:
    """Every link describes ``fraction`` of its test-channel variance."""
    d: dict = {}

    def describe(link, src: int, fed: list) -> float:
        var = view.own[link] + sum(fed)
        d[link] = fraction * var
        return var - d[link]

    view.fold(describe)
    return d


_MODE_D = {"aggregation": _aggregation_d, "consensus": _consensus_d}


def _cmd_validate(args) -> int:
    net = _load_tree(args.tree)
    if args.mode == "agg":
        modes = ["aggregation"]
    elif args.mode == "consensus":
        modes = ["consensus"]
    else:
        modes = ["aggregation"] + (["consensus"] if net.fully_weighted else [])
    summary: dict[str, object] = {}
    for mode in modes:
        if args.d_per_link or args.D is not None:
            d = _MODE_D[mode](args, net)
        else:
            d = _default_d(net.links(mode == "consensus"))
        model = simulator.analytic_mmse_check(net, d, mode=mode)
        summary[mode] = {
            "links_checked": len(model.inc),
            "total_distortion": model.total,
            "status": "ok",
        }
    _emit(args, summary, [["mode", "status"]] + [[m, "ok"] for m in summary])
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausstree",
        description="Bounds, rate allocation and simulation for lossy "
        "in-network computation on Gaussian trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tree=True):
        if tree:
            p.add_argument("--tree", required=True, help="tree document (JSON)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    def add_distortion(p):
        p.add_argument("--D", type=float, default=None, help="total distortion budget")
        p.add_argument(
            "--d-per-link", default=None, help="JSON map of per-link distortions"
        )

    p = sub.add_parser("bounds", help="evaluate every aggregation bound")
    add_common(p)
    add_distortion(p)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("consensus-bounds", help="evaluate the consensus bounds")
    add_common(p)
    add_distortion(p)
    p.set_defaults(handler=_cmd_consensus_bounds)

    p = sub.add_parser("allocate", help="allocate per-link rates (aggregation)")
    add_common(p)
    p.add_argument("--D", type=float, default=None)
    p.add_argument("--method", choices=("equal", "penalized"), default="equal")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(handler=_cmd_allocate)

    p = sub.add_parser("consensus-allocate", help="allocate per-edge rates (consensus)")
    add_common(p)
    p.add_argument("--D", type=float, default=None)
    p.set_defaults(handler=_cmd_consensus_allocate)

    for name, force in (("simulate", None), ("consensus-simulate", "consensus")):
        p = sub.add_parser(name, help=f"Monte-Carlo {name.replace('-', ' ')}")
        add_common(p)
        add_distortion(p)
        p.add_argument("--mode", choices=("agg", "consensus"), default="agg")
        p.add_argument("--scheme", choices=("testchannel", "dither"), default="testchannel")
        p.add_argument("--N", type=int, default=1000, help="blocklength")
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(handler=lambda a, f=force: _cmd_simulate(a, force_mode=f))

    p = sub.add_parser("gap-sweep", help="line-network gap table")
    add_common(p, tree=False)
    p.add_argument("--line-n", required=True, help="range like 2..8 or list 2,4,6")
    p.add_argument("--D", required=True, help="comma-separated distortions")
    p.set_defaults(handler=_cmd_gap_sweep)

    p = sub.add_parser("validate", help="run the exact analytic oracle suite")
    add_common(p)
    add_distortion(p)
    p.add_argument("--mode", choices=("agg", "consensus"), default=None)
    p.set_defaults(handler=_cmd_validate)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
