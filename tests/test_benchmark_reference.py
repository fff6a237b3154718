"""The benchmark's committed reference outputs, checked in-process on the
table3-default corpus: a byte drift in the pre-fit artifacts, or a Table 3
drift beyond the benchmark's tolerance, fails here before `perfbench/run.py`
reports `correct: false`. Reads `perfbench/` and writes only to tmp_path."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import corpus  # noqa: E402
import harness  # noqa: E402

from poifair.cli import EXIT_OK, main  # noqa: E402

WORKLOADS = harness.load_workloads()
SMALL = ("table3-default", "geosoca-sweep")


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    w = WORKLOADS["table3-default"]
    out = tmp_path_factory.mktemp("corpus")
    assert corpus.write(w.corpus, w.corpus_seed, out) == w.input_sha256
    return out


@pytest.mark.parametrize("command", ["analyze", "run"])
@pytest.mark.parametrize("name", SMALL)
def test_outputs_match_reference(tmp_path, corpus_dir, name, command):
    w = WORKLOADS[name]
    assert w.input_sha256 == WORKLOADS["table3-default"].input_sha256
    config = harness.write_config(w, corpus_dir, tmp_path)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_OK
    # The benchmark's own check: dataset_stats.json, groups.csv and
    # profiles.csv by SHA-256; for `run` also the recommendation lists and
    # table3.csv through compare_table3.
    inv = harness.Invocation(command, 0.0, 0.0, 0, out)
    harness.check_outputs(inv, harness.reference_dir(w))
    assert inv.problems == []
