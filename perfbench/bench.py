"""The closed-loop client, its metrics and the result record.

One client sends one request at a time through ``gausstree.cli.run(argv)``
in this process and sends the next when the previous one has returned.
A request's latency is the wall time of that call; writing its input
files before and checking its output after are the client's own time,
which still counts in the run's wall time.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from gausstree import cli

import checks
import workloads
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_LAUNCHES = 11
#: Time the reference launch (an interpreter importing numpy) takes on the
#: reference machine; see :class:`SetupProbe`.
SETUP_REFERENCE_S = 0.2
TAIL_BEYOND = 10

ORACLE_FALSE_FAILURE = (
    "oracle false failure (ROADMAP item 4): validate exited 4 on a feasible input "
    "with conditioning index"
)


@dataclass
class OpRecord:
    round: int
    position: int
    label: str
    exit_code: int
    latency_s: float
    status: str  # passed | failed | known_defect
    reason: str = ""
    stdout_sha256: str = ""


class Client:
    """Writes an op's files, runs it through ``cli.run`` and judges it."""

    def __init__(self, workdir: Path, corrupt=None):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        # Test hook: transforms captured stdout before it is checked.
        self.corrupt = corrupt

    def execute(self, op: workloads.Op) -> tuple[int, str, str, float]:
        paths = {}
        for name, text in op.files.items():
            path = self.workdir / f"{name}.json"
            path.write_text(text, encoding="utf-8")
            paths[name] = str(path)
        argv = [arg.format(**paths) for arg in op.argv]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
        except Exception:  # a crash is a failed op, not a failed benchmark
            code = -1
            err.write(traceback.format_exc())
        latency = time.perf_counter() - start
        stdout = out.getvalue()
        if self.corrupt is not None:
            stdout = self.corrupt(stdout)
        return code, stdout, err.getvalue(), latency

    def judge(self, op: workloads.Op, code: int, stdout: str, stderr: str) -> tuple[str, str]:
        if code != 0:
            if (op.spec.command == "validate" and code == 4
                    and stderr.startswith("internal consistency failure")):
                index = checks.oracle_conditioning(op)
                if index >= checks.ORACLE_ILL_CONDITIONED:
                    return "known_defect", (f"{ORACLE_FALSE_FAILURE} {index:.3g}: "
                                            f"{stderr.strip()[:300]}")
            return "failed", f"exit {code}: {stderr.strip()[-300:]}"
        try:
            doc = json.loads(stdout)
        except ValueError as exc:
            return "failed", f"unparsable output: {exc}"
        try:
            checks.check_output(op, doc)
        except checks.CheckFailure as exc:
            return "failed", str(exc)
        return "passed", ""


# ---------------------------------------------------------------------------
# end-to-end metrics


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with at least ``TAIL_BEYOND`` samples
    above it: (value, percentile, sample count)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n == 0:
        return math.nan, math.nan, 0
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = n - TAIL_BEYOND  # 1-based; n - rank samples lie beyond it
    return ordered[rank - 1], 100.0 * rank / n, n


def end_to_end(records: list[OpRecord], wall_s: float) -> dict:
    passed = [r.latency_s for r in records if r.status == "passed"]
    failed = sum(r.status != "passed" for r in records)
    tail, pct, count = tail_latency(passed)
    return {
        "ops_per_s": len(passed) / wall_s,
        "latency_p50_ms": 1e3 * statistics.median(passed) if passed else math.nan,
        "latency_tail_ms": 1e3 * tail,
        "latency_tail_percentile": pct,
        "latency_samples": count,
        "error_rate": failed / len(records) if records else math.nan,
    }


# ---------------------------------------------------------------------------
# machine-speed calibration

#: Time the calibration kernel takes on the reference machine.  Gated times
#: are scaled to that speed: time * CALIBRATION_REFERENCE_S / (kernel time
#: in the run, see :func:`speed_factor`).  On a shared host the speed of the same code drifts by
#: a factor of up to 1.5 within minutes; the kernel, run before every op,
#: drifts with it, and the ratio cancels the drift.
CALIBRATION_REFERENCE_S = 0.005
_CALIBRATION_ARRAY = np.arange(2000.0)


def _kernel() -> float:
    """A fixed pass of the kinds of work the program does (dict, set, deque,
    fsum, small numpy, json), independent of gausstree."""
    table = {i: i * 0.5 for i in range(12000)}
    queue = collections.deque(sorted(frozenset(table), reverse=True))
    total = 0.0
    while queue:
        total += math.fsum((table[queue.popleft()], 1.0))
    for _ in range(50):
        total += float((_CALIBRATION_ARRAY * 0.5).sum())
    json.loads(json.dumps([total] * 2000))
    return total


def calibrate() -> float:
    """Wall time of the kernel's second of two passes.  The first pass
    brings the kernel's memory into the CPU caches and the allocator's
    pools, so what the program's last op left there does not change the
    time; the garbage collector is off meanwhile, so the size of the
    program's heap does not either."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_factor(samples: list[float]) -> float:
    """Multiplier from measured times to reference-speed times.  The slowest
    fifth of the samples is left out: a preemption burst can stretch one
    kernel pass several-fold, where an op ten to a hundred times longer
    averages it out."""
    fastest = sorted(samples)[: max(1, math.ceil(0.8 * len(samples)))]
    return CALIBRATION_REFERENCE_S / statistics.fmean(fastest)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    return env


class SetupProbe:
    """Cold starts per CLI call: a fresh interpreter runs ``bounds`` on a
    2-node tree, and the benchmark waits for it to exit.

    Each launch is paired with a reference launch, an interpreter that
    only imports numpy, run just before it.  Start-up time follows the
    host's speed of the moment; the reference follows it too, but does
    not depend on gausstree.  So :meth:`value` scales the CLI launches to
    the reference machine by the median of the pairs' ratios."""

    def __init__(self, workdir: Path):
        tiny = workloads.Tree(parent=np.array([-1, 0]), weight=np.array([0.0, 1.0]),
                              consensus=False)
        path = workdir / "setup_tree.json"
        path.write_text(json.dumps(tiny.document()), encoding="utf-8")
        self.op = workloads.Op(workloads.Spec("bounds", "line", 1), [], tree=tiny, budget=0.1)
        self.argv = [sys.executable, "-m", "gausstree.cli", "bounds", "--tree", str(path),
                     "--D", "0.1"]
        self.reference_argv = [sys.executable, "-c", "import numpy"]
        self.cli_s: list[float] = []
        self.reference_s: list[float] = []
        self.ok = True

    @staticmethod
    def _launch(argv) -> tuple[float, subprocess.CompletedProcess]:
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=120)
        return time.perf_counter() - start, proc

    def launch(self) -> None:
        """One reference launch, then one CLI launch whose output is checked."""
        elapsed, proc = self._launch(self.reference_argv)
        self.reference_s.append(elapsed)
        self.ok = self.ok and proc.returncode == 0
        elapsed, proc = self._launch(self.argv)
        self.cli_s.append(elapsed)
        try:
            checks.check_output(self.op, json.loads(proc.stdout))
        except (ValueError, checks.CheckFailure):
            self.ok = False
        self.ok = self.ok and proc.returncode == 0

    def raw(self) -> float:
        return statistics.median(self.cli_s)

    def value(self) -> float:
        return SETUP_REFERENCE_S * statistics.median(
            c / r for c, r in zip(self.cli_s, self.reference_s))


# ---------------------------------------------------------------------------
# golden digests


GOLDEN = HERE / "golden.json"


def golden_cases(workload: str) -> list[dict]:
    return [c for c in json.loads(GOLDEN.read_text())["cases"] if c["workload"] == workload]


def run_golden(workload: str, workdir: Path) -> list[str]:
    """Re-run the recorded cases; return one message per digest mismatch."""
    mismatches = []
    for case in golden_cases(workload):
        paths = {}
        for name, text in case["files"].items():
            path = workdir / f"golden_{name}.json"
            path.write_text(text, encoding="utf-8")
            paths[name] = str(path)
        argv = [arg.format(**paths) for arg in case["argv"]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if code != case["exit_code"] or digest != case["stdout_sha256"]:
            mismatches.append(f"{case['label']}: exit {code}, sha256 {digest[:12]} "
                              f"(recorded exit {case['exit_code']}, {case['stdout_sha256'][:12]})")
    return mismatches


# ---------------------------------------------------------------------------
# environment record


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    try:
        from numpy.__config__ import CONFIG

        blas = CONFIG["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError):
        blas_version = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_version,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# the closed loop


def run_round(client: Client, workload: str, seed: int, round_index: int,
              tracer=None, before_op=None) -> list[OpRecord]:
    """One pass over the workload's schedule.  With a tracer, each op gets a
    ``bench.op`` span with ``bench.generate`` and ``bench.check`` children
    around the client's own work.  ``before_op``, if given, is called
    before each op."""
    records = []
    for position, spec in enumerate(workloads.ROUNDS[workload]):
        if before_op is not None:
            before_op()
        if tracer is not None:
            tracer.op_id += 1
            op_span = tracer.begin(tracer.name_id("bench.op", "bench"))
            span = tracer.begin(tracer.name_id("bench.generate", "bench"))
        op = workloads.build_op(spec, workloads.op_rng(seed, round_index, position))
        if tracer is not None:
            tracer.finish(span)
        code, stdout, stderr, latency = client.execute(op)
        if tracer is not None:
            span = tracer.begin(tracer.name_id("bench.check", "bench"))
        status, reason = client.judge(op, code, stdout, stderr)
        if tracer is not None:
            tracer.finish(span)
            tracer.finish(op_span)
        records.append(OpRecord(round_index, position, spec.label, code, latency, status,
                                reason, hashlib.sha256(stdout.encode()).hexdigest()))
    return records


def run_untraced(client: Client, workload: str, seed: int, seconds: float,
                 calibration: list[float], setup: SetupProbe):
    """Whole rounds until the loop's wall time has reached ``seconds``:
    (records, wall, rounds).

    Before each op a calibration sample is taken, and whenever the wall
    time has passed another ``seconds / SETUP_LAUNCHES``, a pair of set-up
    launches is made, so that both spread over the run.  Launches still due
    when the loop ends are made after it.  The wall time leaves out both."""
    records: list[OpRecord] = []
    excluded = 0.0
    start = time.perf_counter()

    def before_op():
        nonlocal excluded
        begin = time.perf_counter()
        if (len(setup.cli_s) < SETUP_LAUNCHES
                and begin - start - excluded >= len(setup.cli_s) * seconds / SETUP_LAUNCHES):
            setup.launch()
        calibration.append(calibrate())
        excluded += time.perf_counter() - begin

    rounds = 0
    while rounds == 0 or time.perf_counter() - start - excluded < seconds:
        records += run_round(client, workload, seed, rounds, before_op=before_op)
        rounds += 1
    wall = time.perf_counter() - start - excluded
    while len(setup.cli_s) < SETUP_LAUNCHES:
        setup.launch()
    return records, wall, rounds


def run_traced(client: Client, workload: str, seed: int, seconds: float, tracer):
    """Each round twice on identical inputs, untraced and traced, the order
    alternating from round to round.  Returns (records of both passes,
    untraced wall, traced wall, rounds)."""
    records: list[OpRecord] = []
    wall = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        for traced in ((False, True) if rounds % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            begin = time.perf_counter()
            try:
                records += run_round(client, workload, seed, rounds,
                                     tracer if traced else None)
            finally:
                wall[traced] += time.perf_counter() - begin
                if traced:
                    tracer.uninstall()
                    tracer.fold()
        rounds += 1
    return records, wall[False], wall[True], rounds


def per_layer(tracer, workload: str, rounds: int, untraced_wall: float,
              traced_wall: float) -> tuple[dict, dict]:
    """(per-layer metrics per round, the tracer's raw summary)."""
    s = tracer.summary()
    out = {f"{layer}.self_s": s["layer_self_s"][layer] / rounds for layer in LAYERS}

    def calls(name):
        return s["calls"].get(name, 0) / rounds

    def busy(name):
        return s["busy_s"].get(name, 0.0) / rounds

    montecarlo_busy = s["layer_busy_s"]["simulator.montecarlo"] / rounds
    samples = sum(spec.samples for spec in workloads.ROUNDS[workload])
    out.update({
        "network.subtree_members.calls": calls("network.subtree_members"),
        "network.oriented_members.calls": calls("network.oriented_members"),
        "network.directed_tree.calls": calls("network.directed_tree"),
        "network.parse_tree.busy_s": busy("network.parse_tree"),
        "bounds.derive_distortions.calls": calls("bounds.derive_distortions"),
        "bounds.consensus_derive.busy_s": busy("bounds.consensus_derive"),
        "allocation.penalized.objective_evals":
            s["penalized_objective_evals"] / rounds,
        "allocation.allocate_consensus_numeric.busy_s":
            busy("allocation.allocate_consensus_numeric"),
        "simulator.montecarlo.busy_s": montecarlo_busy,
        "simulator.montecarlo.ns_per_sample":
            1e9 * montecarlo_busy / samples if samples else 0.0,
        "simulator.rng.generators": s["counts"].get("simulator.rng.generators", 0) / rounds,
        "simulator.oracle.busy_s": s["layer_busy_s"]["simulator.oracle"] / rounds,
        "simulator.oracle.failures":
            s["raised"].get("simulator.analytic_mmse_check", 0) / rounds,
        "infomeasures.test_channel_law.calls": calls("infomeasures.test_channel_law"),
        "trace.overhead": traced_wall / untraced_wall - 1.0,
        "trace.accounted": sum(s["layer_self_s"].values()) / traced_wall,
    })
    return out, s


# ---------------------------------------------------------------------------
# readable report


def report(record: dict) -> str:
    """The table printed before the JSON line."""
    env = record["environment"]
    lines = [f"gausstree benchmark: workload={record['workload']} seed={env['seed']} "
             f"trace={record['trace']} rounds={record['rounds']} "
             f"git={env['git_sha'][:12]} python={env['python']} numpy={env['numpy']} "
             f"blas={env['openblas']} threads=1 nproc={env['nproc']}"]
    metrics, units = record["metrics"], record["units"]
    if record["trace"]:
        wall = record["traced_wall_s"] / record["rounds"]
        lines.append(f"  traced wall {wall:.4f} s/round; self time by layer:")
        for name in sorted(n for n in metrics if n.endswith(".self_s")):
            lines.append(f"    {name:<40} {metrics[name]:10.4f} s/round "
                         f"{100 * metrics[name] / wall:6.1f}%")
        for name in sorted(n for n in metrics if not n.endswith(".self_s")):
            lines.append(f"  {name:<42} {metrics[name]:14.6g} {units[name]}")
    else:
        tail = record["end_to_end"]
        lines.append(f"  speed factor {record['speed_factor']:.4f} (reference-speed time "
                     f"/ measured time); raw values in parentheses")
        for name in metrics:
            lines.append(f"  {name:<18} {metrics[name]:12.6g} {units[name]:<6} "
                         f"({record['raw'][name]:.6g})")
        lines.append(f"  {'error_rate':<18} {record['error_rate']:12.6g} fraction")
        lines.append(f"  latency_tail_ms is p{tail['latency_tail_percentile']:.1f} of "
                     f"{tail['latency_samples']} passed ops")
    lines.append(f"  attempted {record['attempted']}, failed {record['failed']}, "
                 f"correct {record['correct']}")
    for failure in record["failures"]:
        lines.append(f"    {failure['status']}: round {failure['round']} "
                     f"{failure['label']}: {failure['reason'][:160]}")
    for problem in record["problems"]:
        lines.append(f"    incorrect: {problem}")
    return "\n".join(lines)
