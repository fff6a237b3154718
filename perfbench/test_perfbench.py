"""Tests of the benchmark's own machinery: corpus determinism, the output
check, the quality counters and the tracer. None of them runs the pipeline.

    python3 -m pytest -q perfbench
"""
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import harness  # noqa: E402
import trace_run  # noqa: E402

SMALL = corpus.CorpusSpec(n_users=30, n_clusters=3, pois_per_cluster=5,
                          checkins_per_user=(5, 9))


def test_corpus_same_seed_same_bytes_and_seed_matters():
    a = corpus.generate(SMALL, 7)
    assert a == corpus.generate(SMALL, 7)
    assert a != corpus.generate(SMALL, 8)


def test_corpus_shape():
    texts = corpus.generate(SMALL, 3)
    pois = [line.split("\t") for line in texts["pois.tsv"].splitlines()]
    assert len(pois) == 15 and all(len(p) == 4 for p in pois)
    poi_ids = {p[0] for p in pois}
    per_user = {}
    for line in texts["checkins.tsv"].splitlines():
        u, p, ts = line.split("\t")
        assert p in poi_ids and int(ts) > 0
        per_user[u] = per_user.get(u, 0) + 1
    assert len(per_user) == 30 and all(5 <= n <= 9 for n in per_user.values())
    degree = {}
    for line in texts["social.tsv"].splitlines():
        a, b = line.split("\t")
        assert a < b
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    assert all(degree[u] >= corpus.FRIENDS_PER_USER for u in per_user)


def test_every_workload_has_input_hashes_and_a_reference():
    for w in harness.load_workloads().values():
        assert set(w.input_sha256) == set(corpus.TSV_NAMES)
        ref = harness.reference_dir(w)
        expected = harness.load_expected(ref)
        assert set(expected["sha256"]) == set(harness.ANALYZE_OUTPUTS)
        assert (ref / "table3.csv").is_file() == (w.command == "run")
        assert bool(expected["recommendations"]) == (w.command == "run")


def test_generator_reproduces_committed_input_hashes(tmp_path):
    w = harness.load_workloads()["table3-default"]
    assert corpus.write(w.corpus, w.corpus_seed, tmp_path) == w.input_sha256


def _reference_table3() -> Path:
    w = harness.load_workloads()["table3-default"]
    return harness.reference_dir(w) / "table3.csv"


def _perturb(src: Path, dst: Path, delta: float) -> None:
    lines = src.read_text().splitlines()
    cells = lines[1].split(",")
    cells[5] = repr(float(cells[5]) + delta)  # nDCG of the first row
    lines[1] = ",".join(cells)
    dst.write_text("\n".join(lines) + "\n")


def test_table3_check_accepts_reference_and_rounding(tmp_path):
    ref = _reference_table3()
    assert harness.compare_table3(ref, ref) == []
    _perturb(ref, tmp_path / "table3.csv", 1e-12)
    assert harness.compare_table3(ref, tmp_path / "table3.csv") == []


def test_perturbed_table3_value_trips_the_check(tmp_path):
    ref = _reference_table3()
    _perturb(ref, tmp_path / "table3.csv", 1e-6)
    problems = harness.compare_table3(ref, tmp_path / "table3.csv")
    assert len(problems) == 1 and "nDCG" in problems[0]


def test_check_outputs_flags_partial_and_changed_artifacts(tmp_path):
    w = harness.load_workloads()["table3-default"]
    ref = harness.reference_dir(w)
    out = tmp_path / "out"
    out.mkdir()
    _perturb(ref / "table3.csv", out / "table3.csv", 1e-6)
    (out / "sweep.csv.partial").write_text("")
    inv = harness.Invocation("run", 1.0, 1.0, 0, out)
    harness.check_outputs(inv, ref)
    text = "\n".join(inv.problems)
    assert "partial" in text and "nDCG" in text
    assert all(f"{name} missing" in text for name in harness.ANALYZE_OUTPUTS)
    assert "recommendations_lore_sum.tsv missing" in text


def test_quality_counters(tmp_path):
    rows = [
        ("u1", 1, "pA", "0.5"), ("u1", 2, "pB", "0.5"), ("u1", 3, "pC", "0.2"),
        ("u1", 4, "pD", "0"),
        ("u2", 1, "pA", "0.9"), ("u2", 2, "pB", "0"), ("u2", 3, "pC", "0"),
    ]
    (tmp_path / "recommendations_geosoca_product.tsv").write_text(
        "".join(f"{u}\t{r}\t{p}\t{s}\n" for u, r, p, s in rows)
    )
    run_files = ["recommendations_geosoca_product.tsv", "recommendations_lore_sum.tsv"]
    q = harness.quality_counters(tmp_path, run_files, n=3)
    # top-3 slots: u1 0.5 0.5 0.2 | u2 0.9 0 0
    assert q["quality.zero_score_frac.geosoca.product"] == pytest.approx(2 / 6)
    assert q["quality.tie_frac.geosoca.product"] == pytest.approx(4 / 6)
    q2 = harness.quality_counters(tmp_path, run_files, n=2)
    assert q2["quality.tie_frac.geosoca.product"] == pytest.approx(3 / 4)
    # A pair the workload does not run reads 0; one it runs whose file is
    # gone is left out rather than read as a perfect 0.
    assert q["quality.tie_frac.geosoca.sum"] == 0.0
    assert "quality.tie_frac.lore.sum" not in q
    assert "quality.zero_score_frac.lore.sum" not in q


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("fakepoi")

    class Model:
        def __init__(self, name):
            self.name = name

        def score(self, n):
            return [mod.leaf(i) for i in range(n)]

    def leaf(i):
        return i

    def caller(values):
        return mod.leaf(len(values))

    mod.Model, mod.leaf, mod.caller = Model, leaf, caller
    monkeypatch.setitem(sys.modules, "fakepoi", mod)
    return mod


def test_tracer_attributes_by_enclosing_model_and_self_time(fake_module):
    spans = [
        trace_run.Span(("fakepoi:Model.score",), time="m.score_s.{model}",
                       self_time="m.self_s.{model}", calls="m.calls.{model}",
                       model=lambda a, k: a[0].name),
        trace_run.Span(("fakepoi:leaf",), time="m.leaf_s.{model}", calls="m.leaf_calls.{model}"),
        trace_run.Span(("fakepoi:caller",), time="m.caller_s",
                       counts=lambda a, k, r: {"m.values": len(a[0])},
                       count_names=("m.values",)),
    ]
    tracer = trace_run.Tracer()
    tracer.install(spans)
    fake_module.Model("lore").score(3)
    fake_module.Model("geosoca").score(2)
    fake_module.caller([1, 2, 3, 4])
    v = tracer.results()["metrics"]
    assert v["m.calls.lore"] == 1 and v["m.calls.geosoca"] == 1
    assert v["m.leaf_calls.lore"] == 3 and v["m.leaf_calls.geosoca"] == 2
    assert v["m.values"] == 4
    assert 0 <= v["m.self_s.lore"] <= v["m.score_s.lore"]
    assert v["m.score_s.lore"] >= v["m.leaf_s.lore"]
    assert not any(k.endswith(".none") for k in v)


def test_tracer_reports_missing_target_and_keeps_running(fake_module):
    spans = [
        trace_run.Span(("fakepoi:gone",), time="m.gone_s", calls="m.gone_calls"),
        trace_run.Span(("fakepoi:leaf",), time="m.leaf_s",
                       counts=lambda a, k, r: {"m.bad": r.no_such_attribute},
                       count_names=("m.bad",)),
    ]
    tracer = trace_run.Tracer()
    tracer.install(spans)
    assert fake_module.leaf(5) == 5
    res = tracer.results()
    assert set(res["missing"]) == {"m.gone_s", "m.gone_calls", "m.bad"}
    assert "m.leaf_s" in res["metrics"] and "m.gone_s" not in res["metrics"]


def test_benchmark_json_per_layer_names_are_all_produced(tmp_path):
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    produced = {n for s in trace_run.SPANS for n in s.metric_names()}
    produced |= {"pipeline.artifact_bytes", "trace.overhead_s"}
    produced |= set(harness.quality_counters(tmp_path, []))
    listed = {m["name"] for m in spec["per_layer"]}
    assert listed == produced
    assert [m["name"] for m in spec["end_to_end"]] == ["run_s", "setup_s", "peak_rss_mb"]


def test_benchmark_fails_without_printing_a_result_when_program_absent(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest-large",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no poifair sources" in proc.stderr
