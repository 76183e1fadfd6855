"""The Monte-Carlo engine: chunked trials, re-positioned Philox streams and
their memory budget, pinned against outputs recorded before trials were
chunked."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from numpy.random import Generator, Philox

from gausstree import allocation, cli, simulator
from gausstree.simulator import (
    SimulationConfig,
    simulate_aggregation,
    simulate_consensus,
    simulate_dithered_baseline,
)

from helpers import fixed_fraction_d, random_tree


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


# (command, shape, nodes, blocklength, trials, format, extra argv).  The
# engine's chunk is 2**19 // (N * (observing nodes + links)) trials, so
# random/300 runs chunks of 17, 17 and 6 trials, star/30 of 19 and 6,
# random/7 of 13, 13, 13 and 11 and dither random/40 of 6 (five times) and 3.
ENGINE_CASES = {
    "agg-line-2": ("simulate", "line", 2, 500, 7, "json", ()),
    "agg-sink-only": ("simulate", "line", 1, 100, 10, "json", ()),
    "agg-star-13": ("simulate", "star", 13, 200, 37, "csv", ()),
    "agg-random-300": ("simulate", "random", 300, 50, 40, "json", ()),
    "agg-line-150": ("simulate", "line", 150, 20, 9, "csv", ()),
    "dither-random-40": ("simulate", "random", 40, 1000, 33, "json", ("--scheme", "dither")),
    "dither-star-60": ("simulate", "star", 60, 100, 21, "csv", ("--scheme", "dither")),
    "dither-rate-0": ("simulate", "line", 5, 400, 15, "csv", ("--scheme", "dither")),
    "cons-line-2": ("consensus-simulate", "line", 2, 300, 11, "json", ()),
    "cons-star-30": ("consensus-simulate", "star", 30, 300, 25, "json", ()),
    "cons-random-100": ("consensus-simulate", "random", 100, 100, 12, "csv", ()),
    "cons-random-7": ("consensus-simulate", "random", 7, 2000, 50, "json", ()),
}

# SHA-256 of stdout, recorded with the engine that drew one trial at a time
# from a freshly constructed Philox generator per stream.
ENGINE_DIGESTS = {
    "agg-line-2": "7b95550a6328fe8ec7f105ba3b6beab4d9fed36a0f9878d3cfdc376c8a41b8fd",
    "agg-sink-only": "7ace728c8628da7dca2a8a9884f43a5c4fe89b003083ef9d94f96b501633ae16",
    "agg-star-13": "a99703a2ea26db8566c0f5c9719dd744a31b69369d87dd7ee6999b4e600875e2",
    "agg-random-300": "8681b132c62992becdf799082d893af92d5dba8173e0323e6431438af4ec1954",
    "agg-line-150": "cf1591b10d83cc4f74e4ea09460c3711fe61d890d49c325a1876d01f02919be6",
    "dither-random-40": "dfdcb34b342acd143c66bb77bd47e441556003fd7bb736f84113ccd2dccd5013",
    "dither-star-60": "22455c970ee14e7e2030117c9172e41e076790d8392bbbcf18260cf4b1d6d804",
    "dither-rate-0": "a6d520d5354e24884808c1fe59a6ba13fd46769b61a21b3fa5e01e36d0e967bf",
    "cons-line-2": "00c52075d2229069898d9fd924a3aa1d773541385b6df4ae041dd61dec6f7a77",
    "cons-star-30": "3628e752e3241b59c06b59922645751936a3dd491b6fa7374815c5bf4e347566",
    "cons-random-100": "fefe7871abe3dbf9a528542b0e4c5a53a97d685ae1d2bad704481b1de56ba78a",
    "cons-random-7": "1b27436f879c09e974040d72dad83cc528036a1599eda3b60959564f061c6cbb",
}


def engine_case_argv(name: str, directory) -> list[str]:
    command, shape, n, blocklength, trials, fmt, extra = ENGINE_CASES[name]
    consensus = command == "consensus-simulate"
    seed = int(hashlib.sha256(name.encode()).hexdigest()[:15], 16)
    doc = tree_doc(shape, n, consensus, seed % 1000)
    tree = directory / f"{name}.json"
    tree.write_text(json.dumps(doc))
    argv = [command, "--tree", str(tree), "--N", str(blocklength), "--trials", str(trials)]
    argv += ["--seed", str(seed), "--format", fmt, *extra]
    if name == "dither-rate-0":
        # The last link's distortion is twice its variance: it runs at rate 0.
        links = {str(i): 1e-3 for i in range(1, n)}
        links[str(n - 1)] = 2.0 * doc["nodes"][-1]["weight"] ** 2
        path = directory / f"{name}-links.json"
        path.write_text(json.dumps(links))
        return argv + ["--d-per-link", str(path)]
    return argv + ["--D", "0.01"]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", sorted(ENGINE_CASES))
def test_stdout_matches_the_per_trial_engine(capsys, tmp_path, name):
    code = cli.run(engine_case_argv(name, tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENGINE_DIGESTS[name]


def run_all_schemes(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    agg = random_tree(rng, 39)
    cons = random_tree(rng, 20, mode="consensus")
    cfg = SimulationConfig(blocklength=2000, trials=25, seed=seed)
    rates = allocation.allocate_equal_incremental(agg, 0.05)
    return [
        simulate_aggregation(agg, fixed_fraction_d(agg, 0.1), cfg).to_json_dict(),
        simulate_consensus(cons, fixed_fraction_d(cons, 0.1, consensus=True), cfg).to_json_dict(),
        simulate_dithered_baseline(agg, rates, cfg).to_json_dict(),
    ]


@pytest.mark.parametrize("budget", [1, 2**62], ids=["one-trial-chunks", "one-chunk"])
def test_output_does_not_depend_on_the_chunk(monkeypatch, budget):
    # At the default budget these runs take chunks of 3 and 4 of 25 trials.
    expected = run_all_schemes(5)
    monkeypatch.setattr(simulator, "_CHUNK_FLOATS", budget)
    assert run_all_schemes(5) == expected


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


def test_engine_memory_stays_within_a_small_multiple_of_the_budget():
    # Whole-run blocks at this shape would hold 20 * 100 * 1999 floats
    # (32 MB); one chunk of two trials holds 3.2 MB.
    net = random_tree(np.random.default_rng(4), 999)
    d = fixed_fraction_d(net, 0.1)
    cfg = SimulationConfig(blocklength=100, trials=20, seed=3)
    tracemalloc.start()
    try:
        simulate_aggregation(net, d, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 4 * 2**20  # three times the 4 MiB chunk budget

