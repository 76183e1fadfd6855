import csv
import io
import json

import numpy as np
import pytest

from gausstree import allocation, bounds, cli
from gausstree.errors import ConsistencyError
from gausstree.network import LinkCascade, directed_edges, make_consensus_line, make_line

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
    ],
    ids=[
        "bool-id", "float-id", "negative-id", "duplicate-id", "sparse-ids", "bool-parent",
        "unknown-parent", "missing-parent", "root-with-parent", "cycle", "string-weight",
        "bool-weight", "zero-weight", "missing-weight", "unknown-link-node",
        "unknown-edge-node", "non-adjacent-edge", "bool-link-value", "string-link-value",
        "huge-link-value", "duplicate-link-key", "bool-edge-value", "duplicate-edge-key",
    ],
)
def test_single_error_inputs_exit_2_with_one_message(capsys, tmp_path, command, nodes, links, err):
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"root": 0, "nodes": nodes}))
    budget = ["--D", "0.1"]
    path = tmp_path / "links.json"
    if links is not None:
        path.write_text(json.dumps(links))
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
        inc, expected_calls = allocation.allocate_consensus(net, 0.03).profile.inc, 2
    profile = bounds.consensus_derive(net, inc)
    report = bounds.consensus_report(net, profile.inc, profile.total)
    expected = cli._format_json(report.to_json_dict())

    calls = []
    fold = LinkCascade.consensus_sums
    monkeypatch.setattr(
        LinkCascade, "consensus_sums", lambda self, values: calls.append(1) or fold(self, values)
    )
    code, out, _ = run_capture(capsys, ["consensus-bounds", "--tree", str(tree), *budget])
    assert (code, out, len(calls)) == (0, expected, expected_calls)
