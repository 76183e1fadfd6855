"""The Monte-Carlo engine: chunked trials, re-positioned Philox streams and
their memory budget, pinned against outputs recorded before trials were
chunked; and the stdout of every other subcommand, pinned against outputs
recorded before each mode's links became one view."""

import contextlib
import hashlib
import io
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Generator, Philox

from gausstree import allocation, cli, simulator
from gausstree.simulator import (
    SimulationConfig,
    simulate_aggregation,
    simulate_dithered_baseline,
)

from helpers import fixed_fraction_d, random_tree, shaped_tree, simulate_consensus


def tree_doc(shape: str, n: int, consensus: bool, seed: int) -> dict:
    """A tree document of ``n`` nodes: a line, a star or a random recursive
    tree, with weights in [0.5, 2) drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    parent = {"line": lambda i: i - 1, "star": lambda i: 0}.get(
        shape, lambda i: int(rng.integers(0, i))
    )
    nodes = [{"id": i, "parent": parent(i)} for i in range(1, n)]
    if consensus:
        nodes.insert(0, {"id": 0})
    for entry in nodes:
        entry["weight"] = float(rng.uniform(0.5, 2.0))
    return {"root": 0, "nodes": nodes}


# name: (command, tree, shape, nodes, format, budget, extra argv).  ``tree``
# "agg" has an unweighted sink 0 and "cons" weights every node; ``budget``
# is a ``--D`` value, "links" for a ``--d-per-link`` map, "rate-0" for the
# map that runs the last link of a line at rate 0, or None.  Simulate runs
# add ``--seed``.  The engine's chunk is 2**19 // (N * peak) trials, where
# the peak counts the blocks its release schedule holds at once (every
# observing node's data and the target, then the descriptions still to be
# read), so random/300 runs chunks of 34 and 6 trials, cons-random-7 of 16,
# 16, 16 and 2 and dither random/40 of 12, 12 and 9; star/30 runs its 25
# trials in one chunk.
CLI_CASES = {
    "agg-line-2": ("simulate", "agg", "line", 2, "json", "0.01", ("--N", "500", "--trials", "7")),
    "agg-sink-only": (
        "simulate", "agg", "line", 1, "json", "0.01", ("--N", "100", "--trials", "10")
    ),
    "agg-star-13": ("simulate", "agg", "star", 13, "csv", "0.01", ("--N", "200", "--trials", "37")),
    "agg-random-300": (
        "simulate", "agg", "random", 300, "json", "0.01", ("--N", "50", "--trials", "40")
    ),
    "agg-line-150": ("simulate", "agg", "line", 150, "csv", "0.01", ("--N", "20", "--trials", "9")),
    "agg-links-random-20": (
        "simulate", "agg", "random", 20, "json", "links", ("--N", "300", "--trials", "8")
    ),
    "dither-random-40": (
        "simulate", "agg", "random", 40, "json", "0.01",
        ("--N", "1000", "--trials", "33", "--scheme", "dither"),
    ),
    "dither-star-60": (
        "simulate", "agg", "star", 60, "csv", "0.01",
        ("--N", "100", "--trials", "21", "--scheme", "dither"),
    ),
    "dither-rate-0": (
        "simulate", "agg", "line", 5, "csv", "rate-0",
        ("--N", "400", "--trials", "15", "--scheme", "dither"),
    ),
    "cons-line-2": (
        "consensus-simulate", "cons", "line", 2, "json", "0.01", ("--N", "300", "--trials", "11")
    ),
    "cons-star-30": (
        "consensus-simulate", "cons", "star", 30, "json", "0.01", ("--N", "300", "--trials", "25")
    ),
    "cons-random-100": (
        "consensus-simulate", "cons", "random", 100, "csv", "0.01", ("--N", "100", "--trials", "12")
    ),
    "cons-random-7": (
        "consensus-simulate", "cons", "random", 7, "json", "0.01", ("--N", "2000", "--trials", "50")
    ),
    "cons-links-random-15": (
        "consensus-simulate", "cons", "random", 15, "csv", "links", ("--N", "200", "--trials", "6")
    ),
    "bounds-line-2": ("bounds", "agg", "line", 2, "json", "0.01", ()),
    "bounds-star-300": ("bounds", "agg", "star", 300, "csv", "0.3", ()),
    "bounds-random-120-links": ("bounds", "agg", "random", 120, "json", "links", ()),
    "bounds-line-40-links": ("bounds", "agg", "line", 40, "csv", "links", ()),
    "allocate-equal-random-300": ("allocate", "agg", "random", 300, "json", "0.05", ()),
    "allocate-equal-star-25": ("allocate", "agg", "star", 25, "csv", "1e-4", ()),
    "allocate-penalized-random-8": (
        "allocate", "agg", "random", 8, "json", "0.02", ("--method", "penalized")
    ),
    "allocate-penalized-line-5": (
        "allocate", "agg", "line", 5, "csv", "0.5", ("--method", "penalized")
    ),
    "cbounds-line-2": ("consensus-bounds", "cons", "line", 2, "json", "0.01", ()),
    "cbounds-star-300": ("consensus-bounds", "cons", "star", 300, "json", "0.2", ()),
    "cbounds-random-150": ("consensus-bounds", "cons", "random", 150, "csv", "1e-3", ()),
    "cbounds-random-80-links": ("consensus-bounds", "cons", "random", 80, "csv", "links", ()),
    "callocate-line-2": ("consensus-allocate", "cons", "line", 2, "json", "0.04", ()),
    "callocate-random-300": ("consensus-allocate", "cons", "random", 300, "json", "0.1", ()),
    "callocate-star-12": ("consensus-allocate", "cons", "star", 12, "csv", "3e-3", ()),
    "gap-sweep-json": (
        "gap-sweep", None, None, 0, "json", None, ("--line-n", "2..40", "--D", "1e-2,1e-5")
    ),
    "gap-sweep-csv": (
        "gap-sweep", None, None, 0, "csv", None, ("--line-n", "1,3,300", "--D", "0.5,1e-3")
    ),
    "validate-agg-line-30": ("validate", "agg", "line", 30, "json", "0.1", ("--mode", "agg")),
    "validate-agg-random-60-links": (
        "validate", "agg", "random", 60, "csv", "links", ("--mode", "agg")
    ),
    "validate-agg-star-40": ("validate", "agg", "star", 40, "json", None, ()),
    "validate-cons-random-40": (
        "validate", "cons", "random", 40, "json", "0.1", ("--mode", "consensus")
    ),
    "validate-cons-star-20-links": (
        "validate", "cons", "star", 20, "csv", "links", ("--mode", "consensus")
    ),
    "validate-both-line-25": ("validate", "cons", "line", 25, "json", None, ()),
    "validate-both-random-12": ("validate", "cons", "random", 12, "json", "0.05", ()),
}

# SHA-256 of stdout.  The simulate runs without a "links" budget were
# recorded with the engine that drew one trial at a time from a freshly
# constructed Philox generator per stream; the other runs were recorded
# before each mode's links became one view of the network.
CLI_DIGESTS = {
    "agg-line-150": "cf1591b10d83cc4f74e4ea09460c3711fe61d890d49c325a1876d01f02919be6",
    "agg-line-2": "7b95550a6328fe8ec7f105ba3b6beab4d9fed36a0f9878d3cfdc376c8a41b8fd",
    "agg-links-random-20": "a3d9e05f3bad2779d72dd7fe245a61560e0a44dc4c6a106fa47d2ca7bc541220",
    "agg-random-300": "8681b132c62992becdf799082d893af92d5dba8173e0323e6431438af4ec1954",
    "agg-sink-only": "7ace728c8628da7dca2a8a9884f43a5c4fe89b003083ef9d94f96b501633ae16",
    "agg-star-13": "a99703a2ea26db8566c0f5c9719dd744a31b69369d87dd7ee6999b4e600875e2",
    "allocate-equal-random-300": "859187d9a8fba0af6597c3b3a6fd35b498874b85d2176355c823a5153073cf80",
    "allocate-equal-star-25": "d27c10a4a732acfd5534a207a519f8dc7bb7372cdca664c3635c882d8a06adaf",
    "allocate-penalized-line-5": "6f0dfa76c825b0b2530838702bd972f82e9ffdf498aeb8d2f04ac293f32f34d3",
    "allocate-penalized-random-8": "26dac37dcccfb1868a7e245b6fc53278801ca96173bb38fd997a85fd8ec7df48",
    "bounds-line-2": "bd4e62eafe940b25f19467d51eea185738d1f7c4142261b2b6aa2fd99588215c",
    "bounds-line-40-links": "fe9b9b1ac50bcce4efc5eefbf8a7af321e1d3f4641b310af9e1c7578b06042c6",
    "bounds-random-120-links": "b0e4dfd63b564430c9141b0a91d4e6365d8b462b71f20d55896ee4a846ee751c",
    "bounds-star-300": "127cd6a7627f22bdec94b4be887b51a809f39af904763e943baf8fd5e89fdb8a",
    "callocate-line-2": "0683df4e22c3229626f49e47eb0066280ea9660ceb97deb2d4736493085fdb27",
    "callocate-random-300": "23dee807520b2297a700bb8e2e36318fca7e8862abe96b806f0a744f2a4ba46d",
    "callocate-star-12": "032eaec81b1302c7a72bec8c97465870d6816dc6c796ff6bf7b4056ecc264576",
    "cbounds-line-2": "c00414557910f1df24b7e890d5112b2f9262bd82c48f4a1690954b45641554cc",
    "cbounds-random-150": "4590cf6827dea138c754bfa9d6b1631d0f8d5ec5760b1c6c079250ed00a740ca",
    "cbounds-random-80-links": "8da43ed168fff5fb0059989eb2baefd135ec8b50a56b0639404a7bf08f6ed448",
    "cbounds-star-300": "f1b64cc754da85e597b26e064470ef673c52907c52ee31cfab6e51d7e53b6007",
    "cons-line-2": "00c52075d2229069898d9fd924a3aa1d773541385b6df4ae041dd61dec6f7a77",
    "cons-links-random-15": "7cc4bca7472e748f6390fb8ad01483cd05226a4bd12c5f146a95ed494ee10385",
    "cons-random-100": "fefe7871abe3dbf9a528542b0e4c5a53a97d685ae1d2bad704481b1de56ba78a",
    "cons-random-7": "1b27436f879c09e974040d72dad83cc528036a1599eda3b60959564f061c6cbb",
    "cons-star-30": "3628e752e3241b59c06b59922645751936a3dd491b6fa7374815c5bf4e347566",
    "dither-random-40": "dfdcb34b342acd143c66bb77bd47e441556003fd7bb736f84113ccd2dccd5013",
    "dither-rate-0": "a6d520d5354e24884808c1fe59a6ba13fd46769b61a21b3fa5e01e36d0e967bf",
    "dither-star-60": "22455c970ee14e7e2030117c9172e41e076790d8392bbbcf18260cf4b1d6d804",
    "gap-sweep-csv": "8fe94c79d761e278afd692974a0e54925bd5fc2badb0d27c6e0f8a53bbb82239",
    "gap-sweep-json": "b961a99463f45ead9112f2ea830e10bb9503611311ba05d1062ca2e8d5d30c15",
    "validate-agg-line-30": "5d377d731639388c7c89f3f74a7a4a3484e9b5231d4ec97f424b86d5e6b0c415",
    "validate-agg-random-60-links": "30d3627b554306c28b082ddd4cbf82afea037815cde92a687d8e946116a04046",
    "validate-agg-star-40": "50ee31ec4c049d2166ca9432811e8896c43b098e953a2b6770547bba240613c9",
    "validate-both-line-25": "917cb2da890592b871f7f636afa04188a8801a5837b9a44b448bbe850b9b697a",
    "validate-both-random-12": "3f19220c7d621e35a56158df6ad1b6ade4d0ebb9b080e43a1729e9c5195ad527",
    "validate-cons-random-40": "869f8bc8e4a20f88c1ff9416a8949ef341c0019e5429f795fba4e6aa8089dfe9",
    "validate-cons-star-20-links": "0937ec81ff1fbb11e541e75483853907ef2969ffbb1e49a2046c50e543925fc0",
}


def link_map(doc: dict) -> dict[str, float]:
    """A feasible ``--d-per-link`` map for ``doc``: every link, or both
    orientations of every edge in a fully weighted tree, gets one of seven
    values from 1e-3 to 7e-3 (every weight squared is at least 0.25)."""
    parents = [(entry["id"], entry["parent"]) for entry in doc["nodes"] if "parent" in entry]
    if doc["nodes"] and "parent" not in doc["nodes"][0]:  # a weighted root: every edge, both ways
        keys = [f"{a}->{b}" for i, p in parents for a, b in ((i, p), (p, i))]
    else:
        keys = [str(i) for i, _ in parents]
    return {key: 1e-3 * (1 + k % 7) for k, key in enumerate(keys)}


def cli_case_argv(name: str, directory) -> list[str]:
    command, tree, shape, n, fmt, budget, extra = CLI_CASES[name]
    seed = int(hashlib.sha256(name.encode()).hexdigest()[:15], 16)
    argv = [command, "--format", fmt, *extra]
    if command.endswith("simulate"):
        argv += ["--seed", str(seed)]
    if tree is None:
        return argv
    doc = tree_doc(shape, n, tree == "cons", seed % 1000)
    path = directory / f"{name}.json"
    path.write_text(json.dumps(doc))
    argv += ["--tree", str(path)]
    if budget in ("links", "rate-0"):
        links = link_map(doc)
        if budget == "rate-0":  # the last link's distortion is twice its variance
            links = {key: 1e-3 for key in links}
            links[str(n - 1)] = 2.0 * doc["nodes"][-1]["weight"] ** 2
        path = directory / f"{name}-links.json"
        path.write_text(json.dumps(links))
        return argv + ["--d-per-link", str(path)]
    return argv + (["--D", budget] if budget else [])


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_stdout_matches_the_per_trial_engine(capsys, tmp_path, name):
    code = cli.run(cli_case_argv(name, tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_DIGESTS[name]


def run_all_schemes(seed: int) -> dict[str, dict]:
    """Every scheme on random trees, and on the shapes whose release
    schedules differ most: a star, whose leaves' descriptions all stay live
    until the sink, a line, the sink-only tree and consensus stars and
    lines."""
    rng = np.random.default_rng(seed)
    agg = random_tree(rng, 39)
    cons = random_tree(rng, 20, mode="consensus")
    cfg = SimulationConfig(blocklength=2000, trials=25, seed=seed)
    runs = {
        "agg-random": simulate_aggregation(agg, fixed_fraction_d(agg, 0.1), cfg),
        "cons-random": simulate_consensus(cons, fixed_fraction_d(cons, 0.1, consensus=True), cfg),
        "dither-random": simulate_dithered_baseline(
            agg, allocation.allocate_equal_incremental(agg, 0.05), cfg
        ),
    }
    cfg = SimulationConfig(blocklength=300, trials=9, seed=seed)
    for shape, n in (("star", 40), ("line", 30), ("line", 1)):
        net = shaped_tree(rng, shape, n)
        name = f"agg-{shape}-{n}"
        runs[name] = simulate_aggregation(net, fixed_fraction_d(net, 0.1), cfg)
        if n > 1:
            rates = allocation.allocate_equal_incremental(net, 0.05)
            runs[f"dither-{shape}-{n}"] = simulate_dithered_baseline(net, rates, cfg)
    for shape, n in (("star", 25), ("line", 25)):
        net = shaped_tree(rng, shape, n, mode="consensus")
        d = fixed_fraction_d(net, 0.1, consensus=True)
        runs[f"cons-{shape}-{n}"] = simulate_consensus(net, d, cfg)
    return {name: result.to_json_dict() for name, result in runs.items()}


@pytest.mark.parametrize("budget", [1, 2**62], ids=["one-trial-chunks", "one-chunk"])
def test_output_does_not_depend_on_the_chunk(monkeypatch, budget):
    # At the default budget the random runs take four chunks of 6 of 25
    # trials and one of 1; the other shapes run their 9 trials in one chunk.
    expected = run_all_schemes(5)
    monkeypatch.setattr(simulator, "_CHUNK_FLOATS", budget)
    assert run_all_schemes(5) == expected


def check_chunk_independence(command: str, shape: str, n: int, directory) -> int:
    """Run ``command`` with N=20 and T=3 on an ``n``-node ``shape`` tree
    (fully weighted for ``consensus-simulate``) with one-trial chunks, at
    the default chunk budget and in one chunk; raise unless the three
    stdouts are identical, and return their length in bytes."""
    path = Path(directory) / f"{command}-{shape}-{n}.json"
    path.write_text(json.dumps(tree_doc(shape, n, command == "consensus-simulate", 7)))
    argv = [command, "--tree", str(path), "--D", "0.01", "--N", "20", "--trials", "3",
            "--seed", "11"]
    default, outs = simulator._CHUNK_FLOATS, []
    for budget in (1, default, 2**62):
        out = io.StringIO()
        simulator._CHUNK_FLOATS = budget
        try:
            with warnings.catch_warnings(), contextlib.redirect_stdout(out):
                warnings.simplefilter("ignore", UserWarning)  # only 60 samples per link
                assert cli.run(argv) == 0, argv
        finally:
            simulator._CHUNK_FLOATS = default
        outs.append(out.getvalue())
    assert outs[0] == outs[1] == outs[2], argv
    return len(outs[0])


@pytest.mark.parametrize(
    "command, shape", [("simulate", "star"), ("simulate", "random"), ("consensus-simulate", "random")]
)
def test_cli_output_does_not_depend_on_the_chunk(tmp_path, command, shape):
    # CI runs the same check at 10,000 nodes.
    assert check_chunk_independence(command, shape, 300, tmp_path) > 0


def fresh(seed: int, trial: int, role: int, entity: int) -> Generator:
    counter = np.array([0, role, entity, trial], dtype=np.uint64)
    return Generator(Philox(counter=counter, key=np.array([seed, 0], dtype=np.uint64)))


STREAMS = [(0, 0, 0, 0), (7, 3, 1, 999), (2**64 - 1, 19, 2, 7), (12345, 2**20, 0, 2**40)]


@pytest.mark.parametrize("seed, trial, role, entity", STREAMS)
def test_repositioned_stream_draws_what_a_fresh_generator_draws(seed, trial, role, entity):
    rng = Generator(Philox(key=np.array([seed, 0], dtype=np.uint64)))
    rng.standard_normal(3)  # leaves part of the four-word buffer unused
    assert 0 < rng.bit_generator.state["buffer_pos"] < 4
    got = simulator._stream(rng, seed, trial, role, entity).standard_normal(50)
    assert np.array_equal(got, fresh(seed, trial, role, entity).standard_normal(50))

    rng.integers(0, 10, size=3, dtype=np.uint32)  # leaves half a word pending
    assert rng.bit_generator.state["has_uint32"] == 1
    draws = []
    key = (seed, trial, role, entity)
    for stream in (simulator._stream(rng, *key), fresh(*key)):
        words = stream.integers(0, 2**32, 5, dtype=np.uint32)
        draws.append(np.concatenate([words, stream.uniform(-1, 1, 50)]))
    assert np.array_equal(*draws)


def test_normal_block_rows_are_the_trial_streams():
    rng = Generator(Philox(key=np.array([9, 0], dtype=np.uint64)))
    block = simulator._normal_block(rng, 9, range(4, 7), 1, 3, 33)
    expected = [fresh(9, trial, 1, 3).standard_normal(33) for trial in range(4, 7)]
    assert np.array_equal(block, np.array(expected))


def test_one_generator_per_run(monkeypatch):
    built = []
    philox = simulator.Philox
    monkeypatch.setattr(simulator, "Philox", lambda *a, **kw: built.append(1) or philox(*a, **kw))
    net = random_tree(np.random.default_rng(2), 30)
    simulate_aggregation(net, fixed_fraction_d(net, 0.1), SimulationConfig(200, 9, seed=1))
    assert len(built) == 1


def test_engine_memory_stays_within_a_small_multiple_of_the_budget(monkeypatch):
    # Whole-run blocks on the random aggregation tree would hold
    # 20 * 100 * 1999 floats (32 MB).  Its release schedule holds at most
    # 1001 blocks at once (999 nodes' data, the target and a description),
    # so a chunk takes 5 trials (4 MB) and the run takes 4 chunks; sized
    # for every node's data and every description at once, it took 10
    # chunks of 2.  On the star every leaf's description stays live until
    # the sink; in consensus the up-links' descriptions stay live for the
    # down-links.
    chunks = []
    normal_block = simulator._normal_block

    def counting(rng, seed, trials, role, index, n_samples):
        if role == simulator._ROLE_SOURCE and index == 1:  # once per chunk
            chunks.append(len(trials))
        return normal_block(rng, seed, trials, role, index, n_samples)

    monkeypatch.setattr(simulator, "_normal_block", counting)
    rng = np.random.default_rng(4)
    agg, star = random_tree(rng, 999), shaped_tree(rng, "star", 1000)
    cons = random_tree(rng, 600, mode="consensus")
    cfg = SimulationConfig(blocklength=100, trials=20, seed=3)
    runs = [
        lambda: simulate_aggregation(agg, fixed_fraction_d(agg, 0.1), cfg),
        lambda: simulate_aggregation(star, fixed_fraction_d(star, 0.1), cfg),
        lambda: simulate_consensus(cons, fixed_fraction_d(cons, 0.1, consensus=True), cfg),
    ]
    for k, run in enumerate(runs):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 4 * 2**20, k  # three times the 4 MiB chunk budget
        if k == 0:
            assert sum(chunks) == cfg.trials and len(chunks) <= 4, chunks
