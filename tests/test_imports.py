"""What a fresh interpreter loads: the deterministic subcommands and a bare
``import gausstree`` run without numpy, and the package still exports every
name it did when it imported its modules eagerly."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gausstree
from gausstree.network import TreeNetwork

SRC = Path(gausstree.__file__).resolve().parents[1]

#: Runs ``python -m gausstree.cli`` with the arguments that follow and
#: writes, as the last line of stderr, whether numpy was loaded at exit.
CLI_PROBE = """
import atexit, runpy, sys
atexit.register(lambda: print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr))
runpy.run_module("gausstree.cli", run_name="__main__", alter_sys=True)
"""

#: Every name ``gausstree`` exported when its ``__init__`` imported each
#: module, but for those removed below.
EXPORTS = [
    "AnalyticModel", "BoundsReport", "ConsensusProfile",
    "ConsistencyError", "DirectedEdge", "DistortionProfile",
    "InfeasibleError", "InputError", "RateAllocation", "SimulationConfig",
    "SimulationResult", "TestChannelLaw", "TreeError", "TreeNetwork",
    "allocate_consensus", "allocate_consensus_numeric", "allocate_equal_incremental",
    "allocate_numeric_penalized", "allocation", "analytic_mmse_check", "bounds",
    "derive_distortions", "errors", "full_report", "infomeasures",
    "inner_bound_minimized", "line_gap_asymptote", "make_line", "network",
    "outer_bound_closed_form", "outer_bound_incremental", "parse_tree", "rates_for_profile",
    "simulate_aggregation", "simulate_dithered_baseline",
    "simulator", "test_channel_law", "__version__",
]

#: Names removed from the package, by the module that defined them: the set
#: forms of the paper's definitions, which the tests compute by brute force
#: in ``reference``; the keyed twins of the list functions of ``bounds`` and
#: of ``simulator.simulate_test_channel``, which the tests reach through
#: ``helpers.Keyed`` and ``helpers.simulate_consensus``; and the matrix half
#: of ``infomeasures``, the matched distortions, the tree writer and the
#: consensus line, which moved to ``reference`` and ``helpers``.
REMOVED = {
    "network": ["SubtreeStats", "directed_edges", "directed_tree", "edge_multiplicity",
                "oriented_subtree_stats", "subtree_stats", "make_consensus_line"],
    "bounds": ["consensus_derive", "consensus_outer", "consensus_inner", "inner_bound",
               "cutset_bound", "gap_report", "test_channel_variances", "outer_bound_penalty",
               "GapReport", "InnerBound"],
    "infomeasures": ["GaussianSpec", "gaussian_kl_nats", "verify_smoothing_inequality",
                     "gaussian_entropy_bits", "test_channel_rate_bits"],
    "simulator": ["matched_test_channel_distortions", "simulate_consensus"],
}
REMOVED_ATTRIBUTES = {
    "TreeNetwork": ["subtree_members", "oriented_members", "subtree_variances",
                    "oriented_variances", "directed_edge_order", "neighbors", "children_of",
                    "children", "leaves_first", "weight", "to_json", "to_json_dict"],
    "LinkCascade": ["neighbors", "children"],
    "TestChannelLaw": ["description_variance"],
}


def fresh(*argv: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def numpy_loaded(tmp_path: Path, argv: list[str]) -> bool:
    """Run the CLI in a fresh interpreter; whether it loaded numpy."""
    docs = {
        "line.json": {"root": 0, "nodes": [{"id": 1, "weight": 1.0, "parent": 0},
                                           {"id": 2, "weight": 2.0, "parent": 1}]},
        "cons.json": {"root": 0, "nodes": [{"id": 0, "weight": 1.0},
                                           {"id": 1, "weight": 1.0, "parent": 0},
                                           {"id": 2, "weight": 0.5, "parent": 1}]},
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [str(tmp_path / arg) if arg in docs else arg for arg in argv]
    done = fresh("-c", CLI_PROBE, *argv)
    *_, last = done.stderr.splitlines()
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)
    return last == "numpy loaded: True"


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--tree", "line.json", "--D", "0.1"],
        ["allocate", "--method", "equal", "--tree", "line.json", "--D", "0.1"],
        ["consensus-bounds", "--tree", "cons.json", "--D", "0.1"],
        ["gap-sweep", "--line-n", "2..4", "--D", "0.01,0.1"],
    ],
    ids=lambda argv: argv[0],
)
def test_deterministic_subcommands_run_without_numpy(tmp_path, argv):
    assert not numpy_loaded(tmp_path, argv)


def test_simulate_loads_numpy(tmp_path):
    argv = ["simulate", "--tree", "line.json", "--D", "0.1", "--N", "10", "--trials", "3"]
    assert numpy_loaded(tmp_path, argv)


def test_bare_import_loads_no_numpy():
    done = fresh("-c", "import sys, gausstree; print('numpy' in sys.modules)")
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def test_every_export_is_listed_and_resolves():
    # In a fresh interpreter, so that dir() is read before any name is used.
    check = (
        "import json, sys, gausstree\n"
        "names = json.loads(sys.argv[1])\n"
        "unlisted = [n for n in names if n not in dir(gausstree)]\n"
        "unresolved = [n for n in names if getattr(gausstree, n, None) is None]\n"
        "print(json.dumps([unlisted, unresolved]))\n"
    )
    done = fresh("-c", check, json.dumps(EXPORTS))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], []]


def test_exports_are_the_defining_modules_objects():
    assert gausstree.full_report is gausstree.bounds.full_report
    assert gausstree.simulate_aggregation is gausstree.simulator.simulate_aggregation
    assert gausstree.InputError is gausstree.errors.InputError
    with pytest.raises(AttributeError):
        gausstree.no_such_name  # noqa: B018


def test_removed_names_raise_attribute_error():
    for module, names in REMOVED.items():
        for name in names:
            for holder in (gausstree, getattr(gausstree, module)):
                with pytest.raises(AttributeError):
                    getattr(holder, name)
    net = TreeNetwork(root=0, parents={1: 0}, weights={0: 1.0, 1: 1.0})
    holders = {"TreeNetwork": net, "LinkCascade": net.cascade,
               "TestChannelLaw": gausstree.test_channel_law(1.0, 0.5)}
    for holder, names in REMOVED_ATTRIBUTES.items():
        for name in names:
            with pytest.raises(AttributeError):
                getattr(holders[holder], name)
