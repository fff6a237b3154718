"""The CLI as its own process, launched as the benchmark and the console
script launch it: `python -m poifair.cli`, whose `__main__` block and the
`poifair` script both call `cli.entry`, which ends the process without
interpreter finalization once its output is flushed."""
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from poifair import cli
from poifair.synth import SynthConfig, generate, write_tsv

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# Records nothing changes after they are built are NamedTuples, which build
# in a fraction of a dataclass's time at import; these four stay dataclasses.
DATACLASSES = {
    "poifair.config.ExperimentConfig",  # validated through fields(); --out and --seed change it
    "poifair.data.FilterReport",  # the filter sets its short-user counts after building it
    "poifair.data.LoadReport",  # the parse fills it in as it reads
    "poifair.data.PairCounts",  # a cached `keys`; its `count` would shadow tuple.count
}
ANALYZE_ARTIFACTS = {
    "manifest.json", "load_report.json", "dataset_stats.json", "histogram.csv",
    "profiles.csv", "groups.csv", "correlations.json",
}


def python(*args, timeout=120):
    """`python *args` in a child with src/ on its path and its standard
    streams buffered as they are when they are pipes."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout,
    )


def poifair(*args):
    return python("-m", "poifair.cli", *args)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    ds = generate(SynthConfig(n_users=60, n_clusters=4, pois_per_cluster=10, seed=11))
    return write_tsv(ds, root)


def write_config(tmp_path, corpus, **overrides):
    cfg = {
        "checkin_path": str(corpus["checkins"]),
        "poi_path": str(corpus["pois"]),
        "social_path": str(corpus["social"]),
        "out_dir": str(tmp_path / "out"),
        **overrides,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_analyze_writes_every_artifact_and_logs_each_stage(tmp_path, corpus):
    done = poifair("analyze", "--config", str(write_config(tmp_path, corpus)))
    assert done.returncode == cli.EXIT_OK, done.stderr
    out = tmp_path / "out"
    # every artifact, and no .tmp or .partial file
    assert {p.name for p in out.iterdir()} == ANALYZE_ARTIFACTS
    assert all(p.stat().st_size > 0 for p in out.iterdir())
    logged = re.findall(r"^INFO poifair\.pipeline: stage (\w+) done in ", done.stderr, re.M)
    assert logged == ["parse", "preprocess", "split", "analyze"]


def test_missing_input_file_exits_2_with_its_message(tmp_path, corpus):
    missing = tmp_path / "nope" / "pois.tsv"
    config = write_config(tmp_path, corpus, poi_path=str(missing))
    done = poifair("analyze", "--config", str(config))
    assert done.returncode == cli.EXIT_CONFIG
    assert done.stderr.splitlines()[-1] == f"config error: input file not found: {missing}"


def test_unknown_poi_exits_3_and_leaves_a_partial_manifest(tmp_path, corpus):
    checkins = tmp_path / "checkins.tsv"
    lines = Path(corpus["checkins"]).read_text().splitlines(keepends=True)
    checkins.write_text("".join(lines) + "u0\tno-such-poi\t1300000000\n")
    done = poifair(
        "analyze", "--config", str(write_config(tmp_path, corpus, checkin_path=str(checkins)))
    )
    assert done.returncode == cli.EXIT_DATA
    assert (
        f"check-in at line {len(lines) + 1} references unknown poi_id 'no-such-poi'"
        in done.stderr
    )
    out = tmp_path / "out"
    assert not (out / "manifest.json").exists()
    assert json.loads((out / "manifest.json.partial").read_text())["failed_stage"] == "parse"
    assert not list(out.glob("*.tmp"))


def test_console_script_calls_what_the_main_block_calls():
    """pyproject.toml's `poifair` script targets the function that
    `python -m poifair.cli` calls. Read as text: tomllib needs Python 3.11."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    target = re.search(r'^poifair\s*=\s*"([^"]+)"', scripts, re.M).group(1)
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    (block,) = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    (call,) = [node.value for node in block.body if isinstance(node, ast.Expr)]
    assert target == f"poifair.cli:{ast.unparse(call.func)}"


def test_only_mutable_records_are_dataclasses():
    """In a fresh interpreter, `import poifair.cli` builds no dataclass but
    the four that code changes or validates through fields()."""
    done = python("-c", (
        "import sys, poifair.cli; print(sorted("
        "f'{m}.{k}' for m, mod in list(sys.modules.items()) if m.startswith('poifair')"
        " for k, v in vars(mod).items() if isinstance(v, type)"
        " and v.__module__ == m and '__dataclass_fields__' in vars(v)))"
    ))
    assert done.returncode == 0, done.stderr
    assert ast.literal_eval(done.stdout) == sorted(DATACLASSES)
