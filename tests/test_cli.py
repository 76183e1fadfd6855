import csv
import dataclasses
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausstree import allocation, bounds, cli
from gausstree.errors import ConsistencyError
from gausstree.network import LinkSet, directed_edges, make_consensus_line, make_line

from helpers import random_tree


@pytest.fixture
def line3_path(tmp_path):
    path = tmp_path / "line3.json"
    path.write_text(make_line(3, [1.0, 1.0, 1.0]).to_json())
    return str(path)


@pytest.fixture
def consensus3_path(tmp_path):
    path = tmp_path / "cons3.json"
    path.write_text(make_consensus_line([1.0, 1.0, 1.0]).to_json())
    return str(path)


def run_capture(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_bounds_happy_path(self, capsys, line3_path):
        code, out, _ = run_capture(capsys, ["bounds", "--tree", line3_path, "--D", "0.03"])
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "aggregation"
        assert payload["outer_incremental_bits"] == pytest.approx(11.095222293, abs=1e-6)

    def test_infeasible_distortion_is_exit_3(self, capsys, line3_path):
        code, _, err = run_capture(capsys, ["allocate", "--tree", line3_path, "--D", "-1"])
        assert code == 3
        assert "infeasible distortion" in err

    def test_missing_tree_file_is_exit_2(self, capsys):
        code, _, err = run_capture(capsys, ["bounds", "--tree", "/nope.json", "--D", "0.1"])
        assert code == 2
        assert "error" in err

    def test_malformed_tree_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run_capture(capsys, ["bounds", "--tree", str(bad), "--D", "0.1"])
        assert code == 2

    def test_unknown_subcommand_is_exit_2(self, capsys):
        assert cli.run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_consistency_failure_is_exit_4(self, capsys, line3_path, monkeypatch):
        def boom(*args, **kwargs):
            raise ConsistencyError("broken identity")

        monkeypatch.setattr(cli.simulator, "analytic_mmse_check", boom)
        code, _, err = run_capture(capsys, ["validate", "--tree", line3_path])
        assert code == 4
        assert "internal consistency" in err


class TestOutputs:
    def test_json_is_byte_identical_across_runs(self, capsys, line3_path):
        argv = [
            "simulate", "--tree", line3_path, "--D", "0.03",
            "--N", "500", "--trials", "10", "--seed", "42",
        ]
        code1, out1, _ = run_capture(capsys, argv)
        code2, out2, _ = run_capture(capsys, argv)
        assert code1 == code2 == 0
        assert out1.encode() == out2.encode()

    def test_out_flag_writes_file(self, tmp_path, capsys, line3_path):
        target = tmp_path / "report.json"
        code, out, _ = run_capture(
            capsys, ["bounds", "--tree", line3_path, "--D", "0.03", "--out", str(target)]
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["mode"] == "aggregation"

    def test_out_path_that_cannot_be_opened_exits_2(self, tmp_path, capsys, line3_path):
        target = tmp_path / "no" / "such" / "x.json"
        code, out, err = run_capture(
            capsys, ["bounds", "--tree", line3_path, "--D", "0.1", "--out", str(target)]
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ")
        assert not target.parent.exists()

    def test_csv_format(self, capsys, line3_path):
        code, out, _ = run_capture(
            capsys, ["bounds", "--tree", line3_path, "--D", "0.03", "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "link", "rate_bits", "outer_incremental_bits",
            "cutset_bits", "inner_bits", "delta_r_bits",
        ]
        assert rows[-1][0] == "total"

    def test_allocate_csv(self, capsys, line3_path):
        code, out, _ = run_capture(
            capsys,
            ["allocate", "--tree", line3_path, "--D", "0.03", "--format", "csv"],
        )
        assert code == 0
        assert out.splitlines()[0] == "from,to,inc,rate_bits"


class TestGapSweep:
    def test_rows_and_columns(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["gap-sweep", "--line-n", "1..4", "--D", "1e-2,1e-6", "--format", "csv"],
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "n", "D", "delta_r_bits", "asymptote_bits", "delta_minus_asymptote_bits",
        ]
        # one row per combination, ascending (n, D)
        assert [r[0] for r in rows[1:]] == ["1", "1", "2", "2", "3", "3", "4", "4"]

    def test_single_node_row_is_zero(self):
        rows = cli.gap_sweep([1], [1e-4])
        assert rows[0]["delta_r_bits"] == 0.0
        assert rows[0]["asymptote_bits"] == 0.0

    def test_n4_small_distortion_close_to_asymptote(self):
        rows = cli.gap_sweep([4], [1e-6])
        assert abs(rows[0]["delta_r_bits"] - 2.2924812503605781) <= 0.05

    @pytest.mark.parametrize(
        "line_n, bad",
        [("2..10000", "10000"), ("1..20000000", "20000000"), ("2,10001", "10001")],
    )
    def test_oversize_lines_are_rejected_before_any_work(
        self, capsys, monkeypatch, line_n, bad
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("a line was built before the size check")

        monkeypatch.setattr(cli, "make_line", no_work)
        code, out, err = run_capture(capsys, ["gap-sweep", "--line-n", line_n, "--D", "1e-3"])
        assert code == 2
        assert out == ""
        assert f"line length {bad} exceeds the maximum 9999" in err

    def test_non_finite_result_is_exit_3_not_invalid_json(self, capsys):
        code, out, err = run_capture(capsys, ["gap-sweep", "--line-n", "2", "--D", "1e308"])
        assert code == 3
        assert out == ""
        assert "not finite" in err

    def test_error_shrinks_monotonically(self):
        rows = cli.gap_sweep([8], [1e-2, 1e-4, 1e-6])
        errors = [abs(r["delta_minus_asymptote_bits"]) for r in rows]
        # rows are sorted by ascending D, so errors grow with D
        assert errors[0] < errors[1] < errors[2]


class TestConsensusCommands:
    def test_consensus_bounds(self, capsys, consensus3_path):
        code, out, _ = run_capture(
            capsys, ["consensus-bounds", "--tree", consensus3_path, "--D", "0.03"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "consensus"
        assert "classical_comparator_bits" in payload

    def test_consensus_allocate_reports_both_solutions(self, capsys, consensus3_path):
        code, out, _ = run_capture(
            capsys, ["consensus-allocate", "--tree", consensus3_path, "--D", "0.04"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sum_rate_bits"] == pytest.approx(
            payload["numeric_sum_rate_bits"], abs=1e-6
        )
        assert payload["uniform_edge_inc"] == pytest.approx(0.01)

    def test_consensus_simulate(self, capsys, consensus3_path):
        code, out, _ = run_capture(
            capsys,
            [
                "consensus-simulate", "--tree", consensus3_path, "--D", "0.01",
                "--N", "500", "--trials", "10", "--seed", "1",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "consensus"

    def test_dither_is_aggregation_only(self, capsys, consensus3_path):
        code, _, err = run_capture(
            capsys,
            [
                "consensus-simulate", "--tree", consensus3_path, "--D", "0.01",
                "--scheme", "dither", "--N", "500", "--trials", "10",
            ],
        )
        assert code == 2
        assert "aggregation-only" in err


class TestValidate:
    def test_validate_default_modes(self, capsys, consensus3_path):
        code, out, _ = run_capture(capsys, ["validate", "--tree", consensus3_path])
        assert code == 0
        payload = json.loads(out)
        assert payload["aggregation"]["status"] == "ok"
        assert payload["consensus"]["status"] == "ok"

    def test_validate_aggregation_tree(self, capsys, line3_path):
        code, out, _ = run_capture(capsys, ["validate", "--tree", line3_path, "--D", "0.03"])
        assert code == 0
        assert json.loads(out)["aggregation"]["links_checked"] == 3

    @pytest.mark.parametrize("budget", [0.01, 0.5])
    def test_validate_consensus_uses_the_budget(self, capsys, consensus3_path, budget):
        code, out, _ = run_capture(
            capsys,
            ["validate", "--tree", consensus3_path, "--mode", "consensus", "--D", str(budget)],
        )
        assert code == 0
        assert json.loads(out)["consensus"]["total_distortion"] == pytest.approx(budget, rel=1e-9)

    @pytest.mark.parametrize("mode", ["agg", "consensus"])
    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_validate_non_positive_budget_is_exit_3(self, capsys, consensus3_path, mode, budget):
        code, out, err = run_capture(
            capsys, ["validate", "--tree", consensus3_path, "--mode", mode, "--D", budget]
        )
        assert code == 3
        assert out == ""
        assert "infeasible" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds"],
            ["allocate"],
            ["allocate", "--method", "penalized"],
            ["consensus-bounds"],
            ["consensus-allocate"],
            ["simulate"],
            ["simulate", "--scheme", "dither"],
            ["consensus-simulate"],
            ["validate"],
            ["validate", "--mode", "consensus"],
        ],
        ids=lambda argv: "-".join(arg.lstrip("-") for arg in argv),
    )
    def test_infinite_budget_is_exit_3(self, capsys, consensus3_path, argv):
        code, out, err = run_capture(capsys, [*argv, "--tree", consensus3_path, "--D", "inf"])
        assert (code, out) == (3, "")
        assert err.startswith("infeasible: ") and "inf" in err

    def test_infinite_gap_sweep_budget_is_exit_3(self, capsys):
        code, out, err = run_capture(capsys, ["gap-sweep", "--line-n", "2", "--D", "1e-3,inf"])
        assert (code, out, err) == (3, "", "infeasible: infeasible distortion inf\n")

    def test_dither_scheme_runs(self, capsys, line3_path):
        code, out, _ = run_capture(
            capsys,
            [
                "simulate", "--tree", line3_path, "--D", "0.03", "--scheme", "dither",
                "--N", "500", "--trials", "10", "--seed", "3",
            ],
        )
        assert code == 0
        assert "saturation_rate" in json.loads(out)


def node(i, weight=1.0, **extra):
    return {"id": i, "weight": weight, **extra}


LINE3 = [node(1, parent=0), node(2, parent=1)]
CONSENSUS3 = [node(0), node(1, parent=0), node(2, parent=1)]


@pytest.mark.parametrize(
    "command, nodes, links, err",
    [
        ("bounds", [node(True, parent=0)], None, "node id must be an integer, got True"),
        ("bounds", [node(1.0, parent=0)], None, "node id must be an integer, got 1.0"),
        ("bounds", [node(-1, parent=0)], None, "node id must be non-negative, got -1"),
        ("bounds", [node(1, parent=0), node(1, 2.0, parent=0)], None, "node 1: duplicate id"),
        ("bounds", [node(5, parent=0)], None,
         "node ids must be dense 0..1; missing [1], unexpected [5]"),
        ("bounds", [node(1, parent=True)], None, "parent of node 1 must be an integer, got True"),
        ("bounds", [node(1, parent=7)], None, "node 1: parent 7 is not a node"),
        ("bounds", [node(1)], None, "node 1: missing parent"),
        ("bounds", [node(0, parent=1), node(1, parent=0)], None,
         "node 0: the root must not declare a parent"),
        ("bounds", [node(1, parent=2), node(2, parent=1)], None, "cycle detected through node 1"),
        ("bounds", [node(1, "1", parent=0)], None, "node 1: weight must be a number, got '1'"),
        ("bounds", [node(1, False, parent=0)], None, "node 1: weight must be a number, got False"),
        ("bounds", [node(1, 0, parent=0)], None, "node 1: weight must be nonzero"),
        ("bounds", [{"id": 1, "parent": 0}], None, "node 1: missing weight"),
        ("bounds", LINE3, {"1": 0.1, "2": 0.1, "7": 0.1}, "unknown node id 7"),
        ("consensus-bounds", CONSENSUS3, {"0->7": 0.1}, "unknown node id 7"),
        ("consensus-bounds", CONSENSUS3, {"0->2": 0.1}, "nodes 0 and 2 are not adjacent"),
        ("bounds", LINE3, {"1": True, "2": 0.1}, "{links}: bad entry '1': True"),
        ("bounds", LINE3, {"1": 0.1, "2": "0.01"}, "{links}: bad entry '2': '0.01'"),
        ("bounds", LINE3, {"1": 10**400, "2": 0.1},
         "{links}: entry '1' is an integer too large for a float"),
        ("bounds", LINE3, {"1": 0.1, "01": 0.2, "2": 0.1},
         "{links}: keys '1' and '01' name the same link"),
        ("consensus-bounds", CONSENSUS3, {"0->1": False}, "{links}: bad entry '0->1': False"),
        ("consensus-bounds", CONSENSUS3, {"1->0": 0.1, "01->0": 0.1},
         "{links}: keys '1->0' and '01->0' name the same link"),
        ("bounds", LINE3, '{"1": 0.01, "1": 5.0, "2": 0.01}',
         "{links}: keys '1' and '1' name the same link"),
    ],
    ids=[
        "bool-id", "float-id", "negative-id", "duplicate-id", "sparse-ids", "bool-parent",
        "unknown-parent", "missing-parent", "root-with-parent", "cycle", "string-weight",
        "bool-weight", "zero-weight", "missing-weight", "unknown-link-node",
        "unknown-edge-node", "non-adjacent-edge", "bool-link-value", "string-link-value",
        "huge-link-value", "duplicate-link-key", "bool-edge-value", "duplicate-edge-key",
        "repeated-link-key",
    ],
)
def test_single_error_inputs_exit_2_with_one_message(capsys, tmp_path, command, nodes, links, err):
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"root": 0, "nodes": nodes}))
    budget = ["--D", "0.1"]
    path = tmp_path / "links.json"
    if links is not None:
        path.write_text(links if isinstance(links, str) else json.dumps(links))
        budget = ["--d-per-link", str(path)]
    code, out, stderr = run_capture(capsys, [command, "--tree", str(tree), *budget])
    assert (code, out, stderr) == (2, "", f"error: {err.format(links=path)}\n")


SINK_ONLY = {"root": 0, "nodes": []}
WEIGHTED_ROOT_ALONE = {"root": 0, "nodes": [node(0)]}


@pytest.mark.parametrize("doc", [SINK_ONLY, WEIGHTED_ROOT_ALONE])
@pytest.mark.parametrize(
    "argv",
    [["validate"], ["bounds", "--D", "0.1"], ["allocate", "--D", "0.1", "--method", "penalized"]],
)
def test_tree_without_links_exits_2(capsys, tmp_path, doc, argv):
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps(doc))
    code, out, err = run_capture(capsys, [argv[0], "--tree", str(tree), *argv[1:]])
    assert (code, out) == (2, "")
    assert err == "error: aggregation needs at least one node besides the root\n"


@pytest.mark.parametrize(
    "argv",
    [["allocate", "--D", "0.1"], ["simulate", "--D", "0.1", "--N", "100", "--trials", "10"]],
)
def test_tree_without_links_still_allocates_and_simulates(capsys, tmp_path, argv):
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps(SINK_ONLY))
    code, out, _ = run_capture(capsys, [argv[0], "--tree", str(tree), *argv[1:]])
    assert code == 0
    assert json.loads(out)


@pytest.mark.parametrize(
    "weights, err",
    [
        ([1e200, 1.0], "node 1: weight 1e+200 has no positive finite square"),
        ([1.0, 1e-200], "node 2: weight 1e-200 has no positive finite square"),
        ([1e154, 1e154], "the sum of squared weights (the total variance) overflows"),
        ([10**400, 1.0], "node 1: weight must be finite, got an integer too large for a float"),
    ],
    ids=["square-overflows", "square-underflows", "sum-overflows", "integer-overflows"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--D", "0.1"],
        ["allocate", "--D", "0.1", "--method", "penalized"],
        ["validate"],
        ["simulate", "--D", "0.1", "--N", "100", "--trials", "10"],
    ],
)
def test_weights_without_a_finite_positive_variance_exit_2(capsys, tmp_path, weights, err, argv):
    tree = tmp_path / "tree.json"
    nodes = [node(1, weights[0], parent=0), node(2, weights[1], parent=1)]
    tree.write_text(json.dumps({"root": 0, "nodes": nodes}))
    code, out, stderr = run_capture(capsys, [argv[0], "--tree", str(tree), *argv[1:]])
    assert (code, out, stderr) == (2, "", f"error: {err}\n")


def test_consensus_bounds_at_a_subnormal_budget_reports_a_finite_comparator(capsys, tmp_path):
    # Light weights keep every bound finite at D = 2e-310; the comparator's
    # 1 / (n**1.5 * D) would not be.
    tree = tmp_path / "tree.json"
    tree.write_text(make_consensus_line([0.001, 0.001]).to_json())
    code, out, err = run_capture(capsys, ["consensus-bounds", "--tree", str(tree), "--D", "2e-310"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert 1027.0 < report["classical_comparator_bits"] < 1028.0
    assert 0.0 < report["outer_incremental_bits"] < report["classical_comparator_bits"]


@pytest.mark.parametrize("budget", [["--D", "0.03"], ["--d-per-link"]])
def test_consensus_bounds_folds_the_profile_it_holds(capsys, tmp_path, monkeypatch, budget):
    net = random_tree(np.random.default_rng(11), 30, mode="consensus")
    tree = tmp_path / "tree.json"
    tree.write_text(net.to_json())
    if budget == ["--d-per-link"]:
        inc = {e: 1e-3 for e in directed_edges(net)}
        path = tmp_path / "links.json"
        path.write_text(json.dumps({str(e): v for e, v in inc.items()}))
        budget, expected_calls = budget + [str(path)], 1
    else:
        inc, expected_calls = allocation.allocate_consensus(net, 0.03).profile.inc, 1
    profile = bounds.consensus_derive(net, inc)
    report = bounds.consensus_report(net, profile.inc, profile.total)
    expected = cli._format_json(report.to_json_dict())

    calls = []
    fold = LinkSet.sums

    def counted(self, values):
        calls.append(self.mode)
        return fold(self, values)

    monkeypatch.setattr(LinkSet, "sums", counted)
    code, out, _ = run_capture(capsys, ["consensus-bounds", "--tree", str(tree), *budget])
    assert (code, out, calls) == (0, expected, ["consensus"] * expected_calls)


BIG_EDGES = {"0->1": 1e308, "1->0": 1e308, "1->2": 1e308, "2->1": 1e308}
OVERFLOW = "the distortions summed along the links overflow"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "command, nodes, links, err",
    [
        ("consensus-bounds", CONSENSUS3, BIG_EDGES, OVERFLOW),
        ("consensus-bounds", CONSENSUS3[:2], {"0->1": 1e308, "1->0": 1e308}, OVERFLOW),
        ("bounds", LINE3, {"1": 1e308, "2": 1e308}, OVERFLOW),
        ("bounds", [node(1, 1e-150, parent=0)], {"1": 1e300},
         "link 1: the ratio 1e-300 / 1e+300 underflows to 0, so its log term is undefined"),
    ],
    ids=[
        "consensus-sum-overflows", "consensus-total-overflows", "aggregation-sum-overflows",
        "log-ratio-underflows",
    ],
)
def test_per_link_maps_beyond_the_float_range_exit_3(capsys, tmp_path, command, nodes, links, err,
                                                     fmt):
    tree, path = tmp_path / "tree.json", tmp_path / "links.json"
    tree.write_text(json.dumps({"root": 0, "nodes": nodes}))
    path.write_text(json.dumps(links))
    argv = [command, "--tree", str(tree), "--d-per-link", str(path), "--format", fmt]
    assert run_capture(capsys, argv) == (3, "", f"infeasible: {err}\n")


def test_consensus_allocate_cross_checks_the_numeric_solve(capsys, consensus3_path, monkeypatch):
    solve = allocation.allocate_consensus_numeric

    def skewed(net, total_distortion):  # every per-edge inc off by 1e-6 relative
        result = solve(net, total_distortion)
        inc = {e: v * (1 + 1e-6) for e, v in result.profile.inc.items()}
        return dataclasses.replace(result, profile=dataclasses.replace(result.profile, inc=inc))

    argv = ["consensus-allocate", "--tree", consensus3_path, "--D", "0.1"]
    assert run_capture(capsys, argv)[0] == 0
    monkeypatch.setattr(allocation, "allocate_consensus_numeric", skewed)
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (4, "")
    assert err.startswith(
        "internal consistency failure: consensus-numeric allocation misses its budget"
    )


LINE10 = [node(i, parent=i - 1) for i in range(1, 11)]


@pytest.mark.parametrize(
    "command, nodes, links, key",
    [
        ("bounds", LINE10, {**{str(i): 0.01 for i in range(1, 10)}, "1_0": 0.01}, "1_0"),
        ("bounds", LINE3, {"1": 0.01, " 2": 0.01}, " 2"),
        ("bounds", LINE3, {"1": 0.01, "\uff12": 0.01}, "\uff12"),
        ("bounds", LINE3, {"1": 0.01, "+2": 0.01}, "+2"),
        ("consensus-bounds", CONSENSUS3,
         {"0->1": 0.01, "0_1->0": 0.01, "1->2": 0.01, "2->1": 0.01}, "0_1->0"),
        ("consensus-bounds", CONSENSUS3,
         {"0->1": 0.01, "1->0": 0.01, "1->2": 0.01, "2-> 1": 0.01}, "2-> 1"),
        ("consensus-bounds", CONSENSUS3,
         {"0->1": 0.01, "1->0": 0.01, "1->\uff12": 0.01, "2->1": 0.01}, "1->\uff12"),
    ],
    ids=["underscore", "space", "fullwidth", "plus", "edge-underscore", "edge-space",
         "edge-fullwidth"],
)
def test_map_keys_are_ascii_decimal_node_ids(capsys, tmp_path, command, nodes, links, key):
    tree, path = tmp_path / "tree.json", tmp_path / "links.json"
    tree.write_text(json.dumps({"root": 0, "nodes": nodes}))
    path.write_text(json.dumps(links))
    code, out, err = run_capture(capsys, [command, "--tree", str(tree), "--d-per-link", str(path)])
    assert (code, out, err) == (2, "", f"error: {path}: bad entry {key!r}: 0.01\n")


# ---------------------------------------------------------------------------
# the JSON writer against the expression it replaced


def reference_json(payload) -> str:
    """Every float rounded to 12 significant digits, then json's own
    indenting (pure-Python) encoder: what ``cli._format_json`` must write."""

    def rounded(obj):
        if isinstance(obj, float):
            return float(f"{obj:.12g}")
        if isinstance(obj, dict):
            return {k: rounded(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [rounded(v) for v in obj]
        return obj

    return json.dumps(rounded(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def outcome(write, payload):
    """The text ``write`` returns, or the type and message of what it raises."""
    try:
        return write(payload)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


strings = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "☃", "😀", "%", "%s", "%%"]),
)
finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(0.0, 2.3e-308),  # subnormal
    st.floats(1e11, 1e17).flatmap(lambda v: st.sampled_from([v, -v])),
    st.integers(-(2**64), 2**64).map(float),  # integral
    st.floats(1e307, 1.7976931348623157e308),
    st.sampled_from([-0.0, 5e-324, 9.999999999995e-05, 999999999999.5, 9999999999999999.0]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),  # a float subclass
)
scalars = st.one_of(finite, st.integers(), st.booleans(), st.none(), strings)


def records(values):
    """Lists of flat dicts, some sharing one key set (one template per
    list) and some not (the writer falls back item by item)."""
    shared = st.sets(strings, min_size=1, max_size=4).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries({k: values for k in keys}), min_size=1, max_size=5)
    )
    mixed = st.lists(
        st.dictionaries(st.sampled_from(["a", "b", "%c"]), values, min_size=1, max_size=3),
        min_size=1, max_size=5,
    )
    return shared | mixed


def payloads(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(strings, children, max_size=4),
            records(finite),  # a link table: the template writes every item
            records(leaves),
            records(children),
        ),
        max_leaves=30,
    )


@settings(max_examples=400)
@given(payload=payloads(scalars))
def test_format_json_writes_the_bytes_of_json_dumps(payload):
    assert cli._format_json(payload) == reference_json(payload)


@settings(max_examples=200)
@given(payload=payloads(st.one_of(scalars, st.sampled_from([math.nan, math.inf, -math.inf]))))
def test_format_json_refuses_what_json_dumps_refuses(payload):
    assert outcome(cli._format_json, payload) == outcome(reference_json, payload)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
@pytest.mark.parametrize(
    "where",
    [
        lambda v: v,
        lambda v: {"b": [1.5, v], "a": 2.0},
        lambda v: [{"link": "1", "rate_bits": 0.5}, {"link": "2", "rate_bits": v}],
        lambda v: [{"a": v, "b": [math.inf]}, {"a": 1.0, "b": [v]}],
    ],
    ids=["top", "nested", "record", "first-in-order"],
)
def test_non_finite_values_raise_json_dumps_message(bad, where):
    payload = where(bad)
    with pytest.raises(ValueError) as refused:
        reference_json(payload)
    with pytest.raises(ValueError) as raised:
        cli._format_json(payload)
    assert str(raised.value) == str(refused.value)
    assert str(raised.value).startswith("Out of range float values are not JSON compliant: ")


@pytest.mark.parametrize("key", [1, 1.5, None, True, (1, 2)])
def test_format_json_refuses_keys_that_are_not_strings(key):
    with pytest.raises(TypeError, match="keys must be str"):
        cli._format_json({"a": [{key: 1.0}]})


def check_cli_json(command: str, n: int, seed: int = 3) -> int:
    """Run ``gausstree COMMAND --D 1e-3`` on a random tree of ``n`` nodes
    and fail if any payload it writes differs, byte for byte, from
    ``reference_json``; returns the number of bytes compared.  CI runs it
    on 10,000-node trees::

        PYTHONPATH=src:tests python -c "import test_cli as t; t.check_cli_json('bounds', 10000)"
    """
    mode = "consensus" if command.startswith("consensus") else "aggregation"
    sources = n if mode == "consensus" else n - 1  # an aggregation sink has no weight
    net = random_tree(np.random.default_rng(seed), sources, mode=mode)
    compared, written = [], cli._format_json

    def checked(payload) -> str:
        text = written(payload)
        assert text == reference_json(payload), f"{command} on n={n}: _format_json differs"
        compared.append(len(text))
        return text

    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "tree.json")
        with open(tree, "w", encoding="utf-8") as handle:
            handle.write(net.to_json())
        cli._format_json = checked
        try:
            code = cli.run([command, "--tree", tree, "--D", "1e-3", "--out", os.devnull])
        finally:
            cli._format_json = written
    assert code == 0 and compared, (command, code)
    return sum(compared)


@pytest.mark.parametrize("command", ["bounds", "allocate", "consensus-allocate"])
def test_cli_json_matches_json_dumps_on_a_random_tree(command):
    assert check_cli_json(command, 300) > 0
