"""The recorded CLI corpus: every case of ``scripts/replay.py --sample 200``,
replayed in process, must keep its exit code and the SHA-256 of its stdout
and stderr (tests/corpus.json; the script's docstring says how to
re-record it after an intended change of output)."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _replay_module():
    spec = importlib.util.spec_from_file_location("replay", ROOT / "scripts" / "replay.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sampled_corpus_matches_its_record():
    recorded = json.loads((ROOT / "tests" / "corpus.json").read_text(encoding="utf-8"))
    replayed = list(_replay_module().records(recorded["sample"]))
    assert [case["argv"] for case in replayed] == [case["argv"] for case in recorded["cases"]]
    differ = [case["argv"] for case, want in zip(replayed, recorded["cases"]) if case != want]
    assert differ == []
