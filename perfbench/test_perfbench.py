"""The benchmark's own tests: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def workdir(request) -> Path:
    """A fresh directory under perfbench/results, so tests stay in the checkout."""
    path = HERE / "results" / "test" / request.node.name.replace("/", "_")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_end_to_end(workload):
    proc = run_benchmark(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0",
                         "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == len(workloads.ROUNDS[workload])
    assert set(result["metrics"]) == set(_names("end_to_end"))
    for metric in result["metrics"].values():
        assert metric["value"] > 0
    if workload != "verify":
        assert result["failed"] == 0


def test_smoke_traced():
    proc = run_benchmark(ROOT, "--workload", "simulate", "--seed", "5", "--seconds", "0",
                         "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == set(_names("per_layer"))
    assert result["metrics"]["simulator.rng.generators"]["value"] > 0


def _names(group: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[group]]


def _op(command: str, shape: str, n: int, *extra: str, consensus=False) -> workloads.Op:
    spec = workloads.Spec(command, shape, n, consensus=consensus, extra=extra,
                          budget=("fixed", 0.1))
    return workloads.build_op(spec, workloads.op_rng(9, 0, 0))


def _flip_first_digit_after(key: str):
    def corrupt(stdout: str) -> str:
        match = re.search(rf'"{key}": -?\d', stdout)
        assert match, stdout[:200]
        at = match.end() - 1
        return stdout[:at] + str((int(stdout[at]) + 1) % 10) + stdout[at + 1:]
    return corrupt


@pytest.mark.parametrize("op_args, key", [
    (("bounds", "random", 30), "rate_bits"),
    (("allocate", "line", 30, "--method", "equal"), "inc"),
    (("validate", "random", 30, "--mode", "agg"), "links_checked"),
    (("simulate", "random", 7), "empirical_total"),
])
def test_corrupted_output_is_a_failed_op(workdir, op_args, key):
    op = _op(*op_args)
    clean = bench.Client(workdir)
    code, stdout, stderr, _ = clean.execute(op)
    assert clean.judge(op, code, stdout, stderr) == ("passed", "")
    corrupted = bench.Client(workdir, corrupt=_flip_first_digit_after(key))
    code, stdout, stderr, _ = corrupted.execute(op)
    status, reason = corrupted.judge(op, code, stdout, stderr)
    assert status == "failed", reason


def test_truncated_output_is_a_failed_op(workdir):
    op = _op("consensus-bounds", "star", 12, consensus=True)
    client = bench.Client(workdir, corrupt=lambda s: s[: len(s) // 2])
    status, reason = client.judge(op, *client.execute(op)[:3])
    assert status == "failed" and "unparsable" in reason


def test_oracle_failure_is_known_only_when_ill_conditioned(workdir):
    client = bench.Client(workdir)
    stderr = "internal consistency failure: link 3: incremental distortion\n"
    well = _op("validate", "random", 30, "--mode", "agg")
    assert checks.oracle_conditioning(well) < checks.ORACLE_ILL_CONDITIONED
    assert client.judge(well, 4, "", stderr)[0] == "failed"
    for spec in workloads.ROUNDS["verify"]:
        if spec.command == "validate" and spec.budget[1] == 1e-3:
            ill = workloads.build_op(spec, workloads.op_rng(9, 0, 0))
            assert client.judge(ill, 4, "", stderr)[0] == "known_defect"
            assert client.judge(ill, 1, "", stderr)[0] == "failed"


def test_oracle_conditioning_on_a_single_link():
    # One source of weight w under the sink: var(target) / d = w^2 / D.
    spec = workloads.Spec("validate", "line", 1, extra=("--mode", "agg"),
                          budget=("fixed", 1e-3))
    op = workloads.build_op(spec, workloads.op_rng(1, 0, 0))
    assert checks.oracle_conditioning(op) == pytest.approx(op.tree.weight[1] ** 2 / 1e-3)


def test_tail_latency_leaves_ten_samples_beyond():
    value, pct, count = bench.tail_latency([float(i) for i in range(1, 101)])
    assert (value, pct, count) == (90.0, 90.0, 100)
    assert sum(x > value for x in range(1, 101)) == bench.TAIL_BEYOND


def test_speed_factor_leaves_out_the_slowest_fifth():
    ref = bench.CALIBRATION_REFERENCE_S
    assert bench.speed_factor([ref] * 8 + [10 * ref] * 2) == pytest.approx(1.0)
    assert bench.speed_factor([2 * ref]) == pytest.approx(0.5)


def test_same_seed_same_inputs():
    def inputs(seed, round_index):
        return [workloads.build_op(spec, workloads.op_rng(seed, round_index, k)).files
                for k, spec in enumerate(workloads.ROUNDS["verify"])]

    assert inputs(3, 1) == inputs(3, 1)
    assert inputs(3, 1) != inputs(3, 2) and inputs(3, 1) != inputs(4, 1)


def test_refuses_to_run_without_sources(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_benchmark(workdir, "--workload", "plan", "--seed", "1", "--seconds", "1",
                         "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
