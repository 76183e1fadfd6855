import csv
import io
import json

import pytest

from gausstree import cli
from gausstree.errors import ConsistencyError
from gausstree.network import make_consensus_line, make_line


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
