import csv
import importlib.util
import json
import logging
import os
import random
import re
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from poifair.config import ExperimentConfig
from poifair.data import TRAIN, VALIDATION, DataError, temporal_split
from poifair.fusion import PRODUCT, WEIGHTED_SUM, rule_lambdas, simplex_grid
from poifair import recommend
from poifair.pipeline import Pipeline, StageFailure, _fmt, ground_truth, run_pipeline
from poifair.recommend import FittedModel, top_k
from poifair.temporal import LEISURE, UNASSIGNED, WORKING
from poifair.synth import SynthConfig, generate, write_tsv

import oracles
from oracles import CheckIn, Poi, SocialGraph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _world(tmp_path, seed, categories):
    ds = generate(SynthConfig(n_users=60, n_clusters=4, pois_per_cluster=10, seed=seed))
    if not categories:
        ds = oracles.without_categories(ds)
    paths = write_tsv(ds, tmp_path / "data")
    cfg = ExperimentConfig(
        checkin_path=str(paths["checkins"]),
        poi_path=str(paths["pois"]),
        social_path=str(paths["social"]),
        out_dir=str(tmp_path / "fit"),
    )
    p = Pipeline(cfg)
    d = p.preprocess(p.parse())
    split = p.split(d)
    profiles, labels = p.analyze(d, split)
    profiles = oracles.profile_objects(profiles, split.dataset.user_ids)
    return cfg, split, profiles, labels, oracle_caches(split, cfg)


def oracle_caches(split, cfg):
    """Per model, each user code's raw `oracles.UserScores` (None for a user
    with no training check-in), scored one user at a time."""
    train = split.columns(TRAIN)
    caches = {}
    for name in cfg.models:
        model = FittedModel(
            name, train, session_gap_hours=cfg.session_gap_hours,
            amc_alpha=cfg.amc_alpha, amc_memory=cfg.amc_memory,
        )
        caches[name] = [
            oracles.score_user(model, u) if ok else None
            for u, ok in enumerate(np.diff(train.user_rows()) > 0)
        ]
    return caches


@pytest.fixture(scope="module", params=[(11, True), (3, False)],
                ids=["categories", "no-categories"])
def world(request, tmp_path_factory):
    seed, categories = request.param
    return _world(tmp_path_factory.mktemp("world"), seed, categories)


def code_groups(split, profiles, labels):
    """The oracle's fairness groups as sets of user codes, after checking
    that the pipeline's label of each user code agrees with them."""
    a = oracles.assign_groups(profiles)
    code = {u: i for i, u in enumerate(split.dataset.user_ids)}
    groups = oracles.GroupAssignment(
        *({code[u] for u in users} for users in (a.leisure_focused, a.working_focused, a.unassigned))
    )
    assert labels.tolist() == [
        LEISURE if u in groups.leisure_focused
        else WORKING if u in groups.working_focused else UNASSIGNED
        for u in range(len(code))
    ]
    return groups


def test_analyze_artifacts_match_object_oracles(world):
    """profiles.csv, groups.csv and correlations.json equal the object
    path's, built from the check-in lists."""
    cfg, split, profiles, _, _ = world
    train = oracles.checkin_lists(split)[0]
    want = oracles.build_profiles(train, oracles.poi_popularity(train, len(train)))
    assert profiles == want
    out = Path(cfg.out_dir)
    with (out / "profiles.csv").open(newline="") as fh:
        assert list(csv.reader(fh))[1:] == [
            [_fmt(v) for v in astuple(profile)] for profile in want
        ]
    with (out / "groups.csv").open(newline="") as fh:
        assert list(csv.reader(fh))[1:] == [
            [_fmt(v) for v in g]
            for g in oracles.group_stats(want, oracles.assign_groups(want))
        ]
    assert json.loads((out / "correlations.json").read_text()) == (
        oracles.correlation_analysis(want)
    )


@pytest.mark.parametrize("objective", ["min_delta", "max_acc_unf"])
@pytest.mark.parametrize("step", [0.1, 0.5])
def test_sweep_matches_per_point_oracle(world, tmp_path, objective, step):
    cfg, split, profiles, labels, caches = world
    p = Pipeline(ExperimentConfig(
        checkin_path=cfg.checkin_path, poi_path=cfg.poi_path,
        out_dir=str(tmp_path), sweep_step=step, sweep_objective=objective,
    ))
    best = p.sweep(p.fit_and_recommend(split, [WEIGHTED_SUM]), labels, split)

    train, val, _ = oracles.checkin_lists(split)
    user_ids, names = split.dataset.user_ids, split.dataset.poi_ids
    truth = ground_truth(split, VALIDATION)
    val_relevant = {u: set(oracles.csr_row(truth, u)[0].tolist()) for u in range(len(user_ids))}
    assert {user_ids[u]: {names[p] for p in rel} for u, rel in val_relevant.items()} == {
        u: {c.poi_id for c in val[u]} - {c.poi_id for c in train[u]} for u in train
    }
    want_best, want_rows = oracles.sweep(
        caches, code_groups(split, profiles, labels), val_relevant, 10, step, objective
    )
    with (tmp_path / "sweep.csv").open(newline="") as fh:
        got_rows = list(csv.reader(fh))[1:]
    assert got_rows == [[_fmt(v) for v in row] for row in want_rows]
    assert best == want_best
    for name, cache in caches.items():
        ranked = [u for u, cs in enumerate(cache) if cs is not None and len(cs.poi_ids)]
        assert p.counts[f"sweep.users_without_validation.{name}"] == sum(
            not val_relevant[u] for u in ranked
        )
    assert set(best) == {"geosoca", "lore"}


@pytest.mark.parametrize("users_per_block", [1, 7])
def test_sweep_in_user_blocks_writes_the_same_rows(
    world, tmp_path, monkeypatch, users_per_block
):
    """Marking hits a block of users at a time, under the common block
    budget, changes neither sweep.csv and the best lambdas nor table3.csv
    and table3.json, all three rules, from one block holding every user."""
    cfg, split, _, labels, _ = world
    rules = ["product", "sum", "weighted_sum"]
    p = Pipeline(ExperimentConfig(
        checkin_path=cfg.checkin_path, poi_path=cfg.poi_path, out_dir=str(tmp_path),
        fusion_rules=rules,
    ))
    ranked = p.fit_and_recommend(split, rules)
    # Bytes a user: three int64s per hit entry, the sweep's at cutoff 10.
    sweep_user = 3 * 8 * len(simplex_grid(cfg.sweep_step)) * 10
    evaluate_user = 3 * 8 * max(p.cfg.cutoffs)

    def run(users):
        monkeypatch.setattr(recommend, "BLOCK_BYTES", users * sweep_user)
        best = p.sweep(ranked, labels, split)
        monkeypatch.setattr(recommend, "BLOCK_BYTES", users * evaluate_user)
        p.evaluate(ranked, labels, split, best)
        names = ("sweep.csv", "table3.csv", "table3.json")
        return best, [(tmp_path / name).read_bytes() for name in names]

    assert run(users_per_block) == run(len(split.dataset.user_ids))


@pytest.mark.parametrize("users_per_block", [1, 7])
def test_writer_blocks_write_the_same_profiles_and_lists(
    world, tmp_path, monkeypatch, users_per_block
):
    """Writing profiles.csv and the six recommendation TSVs a block of users
    at a time, under the common block budget, gives the bytes that the
    default budget gives: every rule's lists, weighted-sum's re-fused scores
    included."""
    cfg, split, _, labels, _ = world
    rules = ["product", "sum", "weighted_sum"]
    p = Pipeline(ExperimentConfig(
        checkin_path=cfg.checkin_path, poi_path=cfg.poi_path, out_dir=str(tmp_path),
        fusion_rules=rules,
    ))
    ranked = p.fit_and_recommend(split, rules)
    best = p.sweep(ranked, labels, split)
    names = ["profiles.csv"] + [
        f"recommendations_{name}_{rule}.tsv" for name in cfg.models for rule in rules
    ]

    def run(profile_budget, list_budget):
        monkeypatch.setattr(recommend, "BLOCK_BYTES", profile_budget)
        p.analyze(split.dataset, split)
        monkeypatch.setattr(recommend, "BLOCK_BYTES", list_budget)
        p.evaluate(ranked, labels, split, best)
        return {name: (tmp_path / name).read_bytes() for name in names}

    whole = run(recommend.BLOCK_BYTES, recommend.BLOCK_BYTES)
    # Bytes a user in a writer block: 64 a text field, 6 fields a profile
    # and 4 a list line, K lines a list.
    k = max(p.cfg.cutoffs)
    assert run(users_per_block * 64 * 6, users_per_block * 64 * 4 * k) == whole


@pytest.mark.parametrize("budget", [recommend.BLOCK_BYTES, 1], ids=["default", "one-user"])
def test_product_and_sum_lists_do_not_depend_on_the_grid(world, tmp_path, monkeypatch, budget):
    """Ranking the weighted-sum grid too, whose blocks share their
    normalised scores with sum's, changes neither product's and sum's lists
    nor their table3.csv rows, at the default block budget and at one user
    a block."""
    cfg, split, _, labels, _ = world
    monkeypatch.setattr(recommend, "BLOCK_BYTES", budget)

    def run(rules):
        out = tmp_path / "_".join(rules)
        p = Pipeline(ExperimentConfig(
            checkin_path=cfg.checkin_path, poi_path=cfg.poi_path, out_dir=str(out),
            fusion_rules=rules,
        ))
        ranked = p.fit_and_recommend(split, rules)
        p.evaluate(ranked, labels, split, p.sweep(ranked, labels, split) if len(rules) > 2 else {})
        tsvs = [
            f"recommendations_{name}_{rule}.tsv" for name in cfg.models for rule in ("product", "sum")
        ]
        with (out / "table3.csv").open(newline="") as fh:
            rows = [row for row in csv.reader(fh) if row[1] in ("product", "sum")]
        return [(out / name).read_bytes() for name in tsvs], rows

    assert run(["product", "sum"]) == run(["product", "sum", "weighted_sum"])


@pytest.mark.parametrize("stage,part", [("sweep", "validation"), ("evaluate", "test")])
def test_a_group_without_a_scored_user_is_a_data_error(world, tmp_path, stage, part):
    """A fairness group none of whose ranked users has a relevant POI in the
    split leaves the sweep or evaluate no gap to measure: a DataError that
    names the group, the model and the split."""
    cfg, split, _, labels, _ = world
    p = Pipeline(ExperimentConfig(
        checkin_path=cfg.checkin_path, poi_path=cfg.poi_path, out_dir=str(tmp_path),
        fusion_rules=["weighted_sum"],
    ))
    ranked = p.fit_and_recommend(split, [WEIGHTED_SUM])
    best = p.sweep(ranked, labels, split)
    no_working = np.where(labels == WORKING, UNASSIGNED, labels)
    with pytest.raises(StageFailure) as failed:
        if stage == "sweep":
            p.sweep(ranked, no_working, split)
        else:
            p.evaluate(ranked, no_working, split, best)
    assert failed.value.stage == stage
    assert isinstance(failed.value.cause, DataError)
    assert str(failed.value.cause) == (
        f"geosoca: no working-focused user has a relevant POI in the {part} split"
    )


def test_evaluate_matches_user_keyed_oracle(world, tmp_path):
    """Every report equals the oracle's, computed from the written
    recommendation lists and the check-in lists, all keyed by user id."""
    cfg, split, profiles, labels, _ = world
    rules, cutoffs = ["product", "sum", "weighted_sum"], [5, 10, 20]
    p = Pipeline(ExperimentConfig(
        checkin_path=cfg.checkin_path, poi_path=cfg.poi_path,
        out_dir=str(tmp_path), fusion_rules=rules, cutoffs=cutoffs,
    ))
    ranked = p.fit_and_recommend(split, rules)
    reports = p.evaluate(ranked, labels, split, p.sweep(ranked, labels, split))

    train, _, test = oracles.checkin_lists(split)
    relevant = {u: {c.poi_id for c in test[u]} - {c.poi_id for c in train[u]} for u in train}
    groups = oracles.assign_groups(profiles)
    want = []
    for name in cfg.models:
        recs = {}
        for rule in rules:
            recs[rule] = {}
            with (tmp_path / f"recommendations_{name}_{rule}.tsv").open() as fh:
                for user, _, poi, _ in csv.reader(fh, delimiter="\t"):
                    recs[rule].setdefault(user, []).append(poi)
        assert p.counts[f"evaluate.users_without_test.{name}"] == sum(
            not relevant[u] for u in recs["product"]
        )
        for n in cutoffs:
            base = oracles.evaluate_run(recs["product"], relevant, groups, n, name, "product")
            want += [
                oracles.evaluate_run(recs[r], relevant, groups, n, name, r, base.delta_ndcg)
                for r in rules
            ]
    assert repr([r._asdict() for r in reports]) == repr([r._asdict() for r in want])


def test_evaluate_reuses_the_ranked_grid_lists(world, tmp_path):
    """Each weighted-sum recommendation list is the one-row ranking at the
    best lambdas, the sweep's lists are the grid's top_k at its cutoff, and
    the ranking counts are the candidates'."""
    cfg, split, _, labels, caches = world
    p = Pipeline(ExperimentConfig(
        checkin_path=cfg.checkin_path, poi_path=cfg.poi_path,
        out_dir=str(tmp_path), fusion_rules=["weighted_sum"], cutoffs=[5, 20],
    ))
    ranked = p.fit_and_recommend(split, [WEIGHTED_SUM])
    best = p.sweep(ranked, labels, split)
    p.evaluate(ranked, labels, split, best)

    grid = simplex_grid(p.cfg.sweep_step)
    user_ids, poi_ids = split.dataset.user_ids, split.dataset.poi_ids
    for name in cfg.models:
        ranked_users, lists = ranked[name]
        codes = lists[WEIGHTED_SUM][0]
        users = [u for u, cs in enumerate(caches[name]) if cs is not None and len(cs.poi_ids)]
        assert ranked_users.tolist() == users
        want = []
        for i, u in enumerate(users):
            cs = caches[name][u]
            one = rule_lambdas(WEIGHTED_SUM, cs.enabled, [best[name]])
            (pois,), (vals,) = oracles.user_topn(cs, one, 20)
            assert codes[i, grid.index(best[name]), :len(pois)].tolist() == pois.tolist()
            want += [
                [user_ids[u], str(rank), poi_ids[q], _fmt(v)]
                for rank, (q, v) in enumerate(zip(pois.tolist(), vals.tolist()), start=1)
            ]
            top = top_k(oracles.fused_user_scores(
                cs, rule_lambdas(WEIGHTED_SUM, cs.enabled, grid)
            ), 5)
            assert codes[i, :, :top.shape[1]].tolist() == cs.poi_ids[top].tolist()
            assert (codes[i, :, top.shape[1]:5] == -1).all()
        with (tmp_path / f"recommendations_{name}_weighted_sum.tsv").open(newline="") as fh:
            assert list(csv.reader(fh, delimiter="\t")) == want
        assert p.counts[f"recommend.users_ranked.{name}"] == len(users)
        assert p.counts[f"recommend.candidates.{name}"] == sum(
            len(cs.poi_ids) for cs in caches[name] if cs is not None
        )
        assert p.counts[f"recommend.empty_candidate_users.{name}"] == sum(
            cs is not None and not len(cs.poi_ids) for cs in caches[name]
        )


class _Unprintable:
    def __str__(self):
        raise RuntimeError("cannot format")


def _pipeline(tmp_path):
    return Pipeline(ExperimentConfig(checkin_path="x", poi_path="y", out_dir=str(tmp_path)))


def test_failed_csv_write_keeps_previous_file_and_no_temporary(tmp_path):
    p = _pipeline(tmp_path)
    (tmp_path / "a.csv").write_text("previous\n")
    rows = [[i, i] for i in range(1000)] + [[_Unprintable(), 0]]
    with pytest.raises(RuntimeError):
        p._write_csv_artifact("a.csv", ["x", "y"], rows)
    assert (tmp_path / "a.csv").read_text() == "previous\n"
    assert os.listdir(tmp_path) == ["a.csv"]


def test_failed_text_write_leaves_nothing(tmp_path):
    p = _pipeline(tmp_path)
    with pytest.raises(UnicodeEncodeError):
        p._write(tmp_path / "a.json", "x" * 10_000 + "\ud800")
    assert os.listdir(tmp_path) == []


def test_stage_failure_marks_earlier_files_partial_only(tmp_path):
    p = _pipeline(tmp_path)
    with pytest.raises(StageFailure):
        with p._stage("evaluate"):
            p._write(tmp_path / "done.json", "{}")
            p._write_csv_artifact("b.csv", ["x"], [[1], [_Unprintable()]])
    assert sorted(os.listdir(tmp_path)) == ["done.json.partial"]


def test_successful_write_replaces_content(tmp_path):
    p = _pipeline(tmp_path)
    p._write(tmp_path / "a.json", "old")
    p._write(tmp_path / "a.json", "new")
    p._write_csv_artifact("b.csv", ["x"], [[1.5]])
    assert (tmp_path / "a.json").read_text() == "new"
    assert (tmp_path / "b.csv").read_bytes() == b"x\r\n1.5\r\n"
    assert sorted(os.listdir(tmp_path)) == ["a.json", "b.csv"]


def test_analyze_builds_no_checkin_objects(tmp_path, monkeypatch):
    ds = generate(SynthConfig(n_users=60, n_clusters=4, pois_per_cluster=10, seed=11))
    paths = write_tsv(ds, tmp_path / "data")
    p = Pipeline(ExperimentConfig(
        checkin_path=str(paths["checkins"]), poi_path=str(paths["pois"]),
        social_path=str(paths["social"]), out_dir=str(tmp_path / "out"),
    ))

    def no_checkins(*args):
        raise AssertionError("a CheckIn was built before any model stage")

    monkeypatch.setattr(oracles, "CheckIn", no_checkins)
    d = p.preprocess(p.parse())
    split = p.split(d)
    profiles, _ = p.analyze(d, split)
    assert len(profiles.user)
    monkeypatch.undo()
    assert len(split.columns(TRAIN).ts) == profiles.n_checkins.sum()


def test_model_stages_build_no_checkin_objects(tmp_path, monkeypatch):
    ds = generate(SynthConfig(n_users=60, n_clusters=4, pois_per_cluster=10, seed=11))
    paths = write_tsv(ds, tmp_path / "data")
    p = Pipeline(ExperimentConfig(
        checkin_path=str(paths["checkins"]), poi_path=str(paths["pois"]),
        social_path=str(paths["social"]), out_dir=str(tmp_path / "out"),
        fusion_rules=["product", "weighted_sum"],
    ))

    def no_checkins(*args):
        raise AssertionError("a CheckIn was built by a pipeline stage")

    monkeypatch.setattr(oracles, "CheckIn", no_checkins)
    d = p.preprocess(p.parse())
    split = p.split(d)
    _, labels = p.analyze(d, split)
    ranked = p.fit_and_recommend(split, ["product", "weighted_sum"])
    best = p.sweep(ranked, labels, split)
    assert p.evaluate(ranked, labels, split, best)


def test_checkin_line_order_does_not_change_the_artifacts(tmp_path):
    """The same check-ins in another line order give every artifact but
    manifest.json byte for byte: ids, the split and every tie-break depend
    on codes and timestamps, not on input order."""
    ds = generate(SynthConfig(n_users=60, n_clusters=4, pois_per_cluster=10, seed=11))
    paths = write_tsv(ds, tmp_path / "data")
    lines = paths["checkins"].read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(5).shuffle(lines)
    shuffled = tmp_path / "data" / "shuffled.tsv"
    shuffled.write_text("".join(lines), encoding="utf-8")
    artifacts = []
    for name, checkins in (("ordered", paths["checkins"]), ("shuffled", shuffled)):
        out = tmp_path / name
        run_pipeline(ExperimentConfig(
            checkin_path=str(checkins), poi_path=str(paths["pois"]),
            social_path=str(paths["social"]), out_dir=str(out),
            fusion_rules=["product", "sum", "weighted_sum"],
        ))
        artifacts.append({
            f.name: f.read_bytes() for f in out.iterdir() if f.name != "manifest.json"
        })
    assert len(artifacts[0]) == 15
    assert artifacts[1] == artifacts[0]


def _synthetic_run(tmp_path, name, command="run", **overrides):
    """`command` on a 60-user synthetic corpus: its artifacts but
    manifest.json, by name, and the manifest."""
    data = tmp_path / "data"
    if not data.exists():
        ds = generate(SynthConfig(n_users=60, n_clusters=4, pois_per_cluster=10, seed=11))
        write_tsv(ds, data)
    out = tmp_path / name
    run_pipeline(ExperimentConfig(
        checkin_path=str(data / "checkins.tsv"), poi_path=str(data / "pois.tsv"),
        social_path=str(data / "social.tsv"), out_dir=str(out), **overrides,
    ), command)
    artifacts = {f.name: f.read_bytes() for f in out.iterdir() if f.name != "manifest.json"}
    return artifacts, json.loads((out / "manifest.json").read_text())


def test_one_user_per_block_writes_the_same_artifacts(tmp_path, monkeypatch):
    """Both models and all three rules: scoring, fusing and ranking one user
    at a time writes what the default block budget does, byte for byte."""
    rules = ["product", "sum", "weighted_sum"]
    whole, manifest = _synthetic_run(tmp_path, "whole", fusion_rules=rules)
    assert manifest["counts"]["recommend.blocks.geosoca"] < 60
    monkeypatch.setattr(recommend, "BLOCK_BYTES", 1)
    blocks, manifest = _synthetic_run(tmp_path, "blocks", fusion_rules=rules)
    counts = manifest["counts"]
    for name in ("geosoca", "lore"):
        assert counts[f"recommend.blocks.{name}"] == (
            counts[f"recommend.users_ranked.{name}"]
            + counts[f"recommend.empty_candidate_users.{name}"]
        )
    assert len(whole) == 15
    assert blocks == whole


def test_manifest_times_the_parts_of_recommend(tmp_path):
    """Per model, the fit, scoring and fuse/select times, each within the
    recommend stage's time, and the number of scoring blocks."""
    _, manifest = _synthetic_run(tmp_path, "out")
    timings, counts = manifest["timings_s"], manifest["counts"]
    for name in ("geosoca", "lore"):
        parts = [timings[f"recommend.{part}.{name}"] for part in ("fit", "score", "fuse_select")]
        assert all(0 <= t <= timings["recommend"] for t in parts), (parts, timings)
        scored = (
            counts[f"recommend.users_ranked.{name}"]
            + counts[f"recommend.empty_candidate_users.{name}"]
        )
        assert 1 <= counts[f"recommend.blocks.{name}"] <= scored


@pytest.mark.parametrize("command, stages", [
    ("analyze", ["parse", "preprocess", "split", "analyze"]),
    ("run", ["parse", "preprocess", "split", "analyze", "recommend", "evaluate"]),
    ("sweep", ["parse", "preprocess", "split", "analyze", "recommend", "sweep"]),
])
def test_manifest_records_the_peak_rss_of_each_stage(tmp_path, command, stages):
    """The process's high-water RSS as each stage that ran ended, in MB: one
    value per stage, which can only grow from stage to stage."""
    _, manifest = _synthetic_run(tmp_path, "out", command)
    peak = manifest["peak_rss_mb"]
    assert sorted(peak) == sorted(stages)
    values = [peak[s] for s in stages]
    assert values[0] > 0 and values == sorted(values), peak


def test_users_without_candidates_warn_once_per_model(tmp_path, caplog):
    """Two users who visited every POI in train: one warning per model with
    their count, and both are counted and left out."""
    pois = {p: Poi(p, 40.0 + i / 100, -100.0, "c0") for i, p in enumerate(("p0", "p1", "p2"))}
    checkins = []
    for u, seq in (("a", "0120120"), ("b", "2100121"), ("c", "0000111")):
        checkins += [
            CheckIn(u, f"p{q}", 1_300_000_000 + 3600 * t, pois[f"p{q}"].latitude, -100.0)
            for t, q in enumerate(seq)
        ]
    ds = oracles.from_checkins(checkins, pois, SocialGraph([("a", "c")]))
    p = Pipeline(ExperimentConfig(checkin_path="x", poi_path="y", out_dir=str(tmp_path)))
    with caplog.at_level(logging.WARNING, logger="poifair"):
        ranked = p.fit_and_recommend(temporal_split(ds), [PRODUCT])
    warned = [r.getMessage() for r in caplog.records if "visited every POI" in r.getMessage()]
    assert warned == [f"{name}: 2 users visited every POI; not ranked" for name in ("geosoca", "lore")]
    for name in ("geosoca", "lore"):
        assert p.counts[f"recommend.empty_candidate_users.{name}"] == 2
        assert ranked[name][0].tolist() == [ds.user_ids.index("c")]


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_table3_run_times_every_exercised_span(tmp_path, monkeypatch):
    """perfbench/trace_run.py on the table3-default corpus, in this process:
    every span the workload exercises reads a time above 0, so a target the
    block path bypassed would fail here rather than read 0. Reads
    perfbench/ and writes only to tmp_path."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    harness = _perfbench_module("harness")
    trace_run = _perfbench_module("trace_run")
    w = harness.load_workloads()["table3-default"]
    corpus_dir = tmp_path / "corpus"
    assert harness.corpus.write(w.corpus, w.corpus_seed, corpus_dir) == w.input_sha256
    config = harness.write_config(w, corpus_dir, tmp_path)
    # The tracer wraps its targets where they are bound; undo that after.
    for span in trace_run.SPANS:
        for site in span.sites:
            target = trace_run._resolve(site)
            if target is not None:
                monkeypatch.setattr(*target, getattr(*target))
    out = tmp_path / "trace.json"
    assert trace_run.main([str(out), "run", "--config", str(config)]) == 0
    result = json.loads(out.read_text())
    assert result["missing"] == []
    # The default config runs no sweep.
    idle = {"pipeline.sweep_s", "fusion.weight_sweep_s"}
    times = {
        k: v for k, v in result["metrics"].items()
        if re.search(r"_s(\.|$)", k) and k not in idle
    }
    # 24 spans, and 5 more timed per model.
    assert len(times) == 24 + 5 * 2
    assert [k for k, v in times.items() if not v > 0] == []
