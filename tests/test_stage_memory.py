"""The stages after the parse run inside the memory the parse needs: the
cold-start filter, the dataset statistics and the temporal split each hold
little beyond their input and output columns, the analysis builds the
training visits once and without the timestamps, the weighted-sum grid keeps
its lists but not their scores while a one-row rule keeps its scores but no
context rows, a run never loads OpenSSL's libcrypto,
which hashlib's `_hashlib` maps, and the CLI compiles `poifair.data`
before numpy is imported."""
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from poifair.cli import EXIT_OK, main
from poifair.config import ExperimentConfig
from poifair.data import TRAIN, PairCounts, dataset_stats, preprocess_filter, temporal_split
from poifair.fusion import PRODUCT, RULES, SUM, WEIGHTED_SUM, simplex_grid
from poifair.pipeline import Pipeline
from poifair.synth import SynthConfig, write_tsv

from test_parse_blocks import parse, write_corpus

COLUMNS = ("user", "poi", "ts", "lat", "lon", "category", "edges")
# The parse's block size, as in its memory bound.
BLOCK_BYTES = 16 << 10


def traced(f, *args):
    """f(*args) and its traced peak, after a warm-up call."""
    f(*args)
    tracemalloc.start()
    try:
        out = f(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture(scope="module")
def parsed(tmp_path_factory):
    """About 40k shuffled check-ins of 2k users at 3k POIs: some 20 per
    user and 13 per POI, so the default thresholds drop a share of each."""
    path = tmp_path_factory.mktemp("corpus")
    write_corpus(path, n_users=2000, n_pois=3000, n_checkins=40000)
    return parse(path, BLOCK_BYTES)


def test_filter_and_stats_hold_one_byte_a_check_in(parsed):
    """The filter gathers each kept column once through a mask and the
    stats sort one key in place: under 8 bytes per input check-in beyond
    the filtered columns, where an int64 row index and second copies of the
    code columns took about 18."""
    def stage(d):
        filtered, _ = preprocess_filter(d, 15, 10)
        return filtered, dataset_stats(filtered)

    (filtered, stats), peak = traced(stage, parsed)
    n_ids = len(parsed.user_ids) + len(parsed.poi_ids)
    assert 0.1 * len(parsed.ts) < len(parsed.ts) - len(filtered.ts) < 0.5 * len(parsed.ts)
    assert stats.n_unique_checkins == len(set(zip(filtered.user.tolist(), filtered.poi.tolist())))
    returned = sum(getattr(filtered, name).nbytes for name in COLUMNS)
    assert peak - returned < 8 * len(parsed.ts) + 32 * n_ids, (peak, returned)


def test_split_holds_under_28_bytes_a_check_in(parsed):
    """The split sorts by a key built in place from a dense timestamp rank:
    under 28 bytes per check-in and 32 per user beyond the rows and parts
    it returns, where np.unique's inverse and per-row user and position
    columns took about 51."""
    d, _ = preprocess_filter(parsed, 15, 10)
    split, peak = traced(temporal_split, d)
    returned = split.rows.nbytes + split.part.nbytes
    assert peak - returned < 28 * len(d.ts) + 32 * len(d.user_ids), (peak, returned)


def test_analyze_builds_the_training_visits_once_without_timestamps(
    parsed, tmp_path, monkeypatch
):
    """`Pipeline.analyze` builds the training visit CSR once, for the POI
    popularity and the profiles both, and the training timestamps are not
    live while it does so: beyond the user and POI columns the CSR is built
    from, under 2 bytes per training check-in and 16 per user are live,
    where the timestamps took 8 a check-in. CPython 3.10 keeps a call's
    argument on the caller's stack until the call returns, so there the
    bound allows them, as the preprocess stage's release does."""
    d, _ = preprocess_filter(parsed, 15, 10)
    split = temporal_split(d)
    n_train, n_users = int(np.count_nonzero(split.part == TRAIN)), len(d.user_ids)
    build, live = PairCounts.of.__func__, []

    def of(cls, row, col, n_rows, n_cols):
        live.append((len(row), tracemalloc.get_traced_memory()[0]))
        return build(cls, row, col, n_rows, n_cols)

    monkeypatch.setattr(PairCounts, "of", classmethod(of))
    p = Pipeline(ExperimentConfig(checkin_path="", poi_path="", out_dir=str(tmp_path)))
    tracemalloc.start()
    try:
        p.analyze(d, split)
    finally:
        tracemalloc.stop()
    ((n, held),) = live
    assert n == n_train
    timestamps = 8 * n_train if sys.version_info < (3, 11) else 0
    assert held - 8 * n_train < 2 * n_train + 16 * n_users + timestamps, (held, n_train)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    paths = write_tsv(SynthConfig(n_users=60, n_clusters=4, pois_per_cluster=10, seed=11), root)
    path = root / "config.json"
    path.write_text(json.dumps({
        "checkin_path": str(paths["checkins"]),
        "poi_path": str(paths["pois"]),
        "social_path": str(paths["social"]),
        "out_dir": str(root / "out"),
    }))
    return path


def test_grid_lists_hold_codes_and_listed_contexts(config_path):
    """The lists of every rule that the recommend stage returns hold their
    int32 codes and what gives their scores. The weighted-sum grid keeps one
    row of normalised contexts per distinct POI a user's grid lists name:
    under 4 G K + 32 d bytes per ranked user, for G grid rows, K list slots
    and d such POIs, where a float64 score for every slot took 12 G K.
    Product and sum keep their float64 scores: 12 K bytes per ranked user
    each, where a context row per listed POI would take up to 32 K. All of
    it within 32 KiB."""
    p = Pipeline(ExperimentConfig.from_json(config_path))
    split = p.split(p.preprocess(p.parse()))
    p.fit_and_recommend(split, RULES)
    tracemalloc.start()
    try:
        ranked = p.fit_and_recommend(split, RULES)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    rows, k = len(simplex_grid(p.cfg.sweep_step)), max(p.cfg.cutoffs)
    bound = 0
    for users, lists in ranked.values():
        codes = lists[WEIGHTED_SUM].codes
        assert codes.shape == (len(users), rows, k)
        named = sum(len(np.unique(c[c >= 0])) for c in codes)
        bound += 4 * rows * k * len(users) + 32 * named
        for rule in (PRODUCT, SUM):
            assert lists[rule].codes.shape == (len(users), 1, k)
            bound += 12 * k * len(users)
    assert held < bound + (32 << 10), (held, bound)


def test_a_cutoff_past_the_poi_count_costs_no_memory(config_path, tmp_path):
    """Lists are as long as the longest list there can be, the POI count,
    and hits and discounts as long as the lists: with a cutoff of 100,000
    on 40 POIs, the recommend and evaluate stages peak within 1 MB of
    cutoffs 10 and 20, where arrays sized by the cutoff took over 100 MB."""
    peaks = {}
    for cutoffs in ([10, 20], [10, 100_000]):
        cfg = ExperimentConfig.from_json(config_path)
        cfg.cutoffs, cfg.out_dir = cutoffs, str(tmp_path / str(cutoffs[-1]))
        p = Pipeline(cfg)
        d = p.preprocess(p.parse())
        split = p.split(d)
        _, labels = p.analyze(d, split)

        def stages():
            return p.evaluate(p.fit_and_recommend(split, cfg.fusion_rules), labels, split, {})

        reports, peaks[cutoffs[-1]] = traced(stages)
        assert {r.cutoff for r in reports} == set(cutoffs)
    assert peaks[100_000] - peaks[20] < 1 << 20, peaks


# Records the order in which modules start to import, from the "import"
# audit event: sys.modules lists a module once its import finishes.
IMPORT_ORDER = """
import json
import sys
started = []
sys.addaudithook(lambda event, args: event == "import" and started.append(args[0]))
import poifair.cli
print(json.dumps(started))
"""


def test_cli_imports_data_before_numpy():
    """Where bytecode is not cached, a module is compiled as its import
    starts: `poifair.data`, the largest module, is compiled before numpy
    fills the heap, which keeps the peak RSS of a run about 0.2 to 0.8 MB
    lower."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_ORDER], env=env,
        capture_output=True, text=True, check=True, timeout=120,
    )
    started = json.loads(out.stdout.splitlines()[-1])
    assert started.index("poifair.data") < started.index("numpy")


# Runs `poifair analyze`, then `poifair run`, in a fresh interpreter and
# prints whether hashlib's OpenSSL module is loaded after `import numpy`
# alone and after each command. numpy 1.x imports numpy.random eagerly,
# whose `secrets` import loads `_hashlib`; numpy 2 loads numpy.random on
# first use.
FOOTPRINT = """
import json
import sys
import numpy
seen = ["_hashlib" in sys.modules]
from poifair import cli
for command in ("analyze", "run"):
    assert cli.main([command, "--config", sys.argv[1]]) == cli.EXIT_OK
    seen.append("_hashlib" in sys.modules)
print(json.dumps(seen))
"""


def test_libcrypto_loads_only_with_numpy(config_path):
    """poifair's imports, stages and manifest load `_hashlib` only if numpy
    did: the config is hashed with CPython's built-in SHA-256."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, str(config_path)], env=env,
        capture_output=True, text=True, check=True, timeout=120,
    )
    numpy_loaded, *seen = json.loads(out.stdout.splitlines()[-1])
    assert seen == [numpy_loaded, numpy_loaded]


def test_manifest_hashes_the_config_json(config_path):
    assert main(["analyze", "--config", str(config_path)]) == EXIT_OK
    cfg = ExperimentConfig.from_json(config_path)
    manifest = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
    assert manifest["config_sha256"] == hashlib.sha256(cfg.to_json().encode()).hexdigest()
