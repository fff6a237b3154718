"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -s`."""
import math
import os
import random
import time

import numpy as np
import pytest

from poifair.config import ExperimentConfig
from poifair.data import parse_dataset, preprocess_filter, temporal_split
from poifair.fusion import PRODUCT, SUM, fuse_arrays, rule_lambdas
from poifair.metrics import fairness_summary
from poifair.pipeline import run_pipeline
from poifair.sequential import amc_scores, transition_graph
from poifair.social import fit_power_law
from poifair.synth import SynthConfig, write_tsv
from poifair.temporal import LEISURE, WORKING, Profiles, assign_groups

from conftest import make_checkin, make_dataset
from oracles import checkin_lists
from test_geo import fit, one, quadrature_mass
from test_metrics import brute_force_metrics, list_metrics


def report(criterion, ok):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_c01_metric_oracle_equivalence():
    rnd = random.Random(1234)
    items = [f"p{i}" for i in range(80)]
    t0 = time.perf_counter()
    ok = True
    for _ in range(1000):
        recs = rnd.sample(items, rnd.randrange(1, 40))
        relevant = set(rnd.sample(items, rnd.randrange(0, 30)))
        n = rnd.randrange(1, 30)
        m = list_metrics(recs, relevant, n)
        p, r, nd = brute_force_metrics(recs, relevant, n)
        ok &= abs(m.precision - p) <= 1e-12
        ok &= abs(m.recall - r) <= 1e-12
        ok &= abs(m.ndcg - nd) <= 1e-12
    elapsed = time.perf_counter() - t0
    report("1 metric-oracle-equivalence", ok and elapsed < 5.0)


def test_c02_fusion_algebra():
    rng = np.random.default_rng(7)
    triples = rng.random((10_000, 3)) * rng.choice([1.0, 100.0], size=(10_000, 1))
    ok = True
    for enabled in ((True, True, True), (True, True, False)):
        (prod,) = fuse_arrays(triples.T, rule_lambdas(PRODUCT, enabled), enabled)
        (add,) = fuse_arrays(triples.T, rule_lambdas(SUM, enabled), enabled)
        for (c1, c2, c3), p, s in zip(triples.tolist(), prod.tolist(), add.tolist()):
            if enabled[2]:
                ok &= p == c1 * c2 * c3 and s == c1 + c2 + c3
            else:
                ok &= p == c1 * c2 and s == c1 + c2
    report("2 fusion-algebra", ok)


def test_c03_published_fairness_arithmetic():
    gm = fairness_summary(0.0368, 0.0679, 0.0226)
    ok = abs(gm.delta_ndcg - 0.0453) <= 5e-4
    ok &= abs(gm.acc_unf - 0.8123) <= 5e-4
    gm_sum = fairness_summary(0.0354, 0.061, 0.0224, baseline_delta=0.0453)
    ok &= abs(gm_sum.pct_delta - 0.1479) <= 5e-4
    report("3 published-fairness-arithmetic", ok)


def test_c04_group_split_sizes_and_rank_invariance():
    rnd = random.Random(5)
    ratios = [rnd.randrange(0, 101) / 100 for _ in range(5628)]
    n_leisure = np.array([round(10 * r) for r in ratios])
    profiles = Profiles(np.arange(5628), np.full(5628, 10), 10 - n_leisure,
                        np.array(ratios), np.full(5628, 0.5))
    a = assign_groups(profiles, 5628)
    ok = (a == LEISURE).sum() == 1125 and (a == WORKING).sum() == 1125
    transformed = profiles._replace(leisure_ratio=np.array([math.tanh(3 * r) for r in ratios]))
    ok &= assign_groups(transformed, 5628).tolist() == a.tolist()
    report("4 group-split", ok)


def test_c05_kde_properties():
    from poifair.geo import geo_scores

    t0 = time.perf_counter()
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        pts = rng.normal(0, 1.0, size=(n, 2))
        h = (float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.3, 1.0)))
        ok &= abs(quadrature_mass(one(pts, h)) - 1.0) <= 0.02
    ((peak, near),) = geo_scores(fit([(40.0, -100.0)]), [0], [40.0, 40.0001], [-100.0, -100.0001])
    ok &= peak >= near
    elapsed = time.perf_counter() - t0
    report("5 kde-properties", ok and elapsed < 10.0)


def test_c06_amc_properties():
    rnd = random.Random(3)
    pairs = [
        (rnd.randrange(20), rnd.randrange(20)) for _ in range(400)
        for _ in range(rnd.randrange(1, 5))
    ]
    src, dst = np.array(pairs).T
    g = transition_graph(src, dst, 20)
    row_sums = np.add.reduceat(g.prob, g.indptr[:-1][np.diff(g.indptr) > 0])
    ok = bool(np.all(np.abs(row_sums - 1.0) <= 1e-9))
    # A=0 -> B=1 three times, A -> C=2 once; X=3 has no out-edges.
    worked = transition_graph(np.array([0, 0, 0, 0]), np.array([1, 1, 1, 2]), 4)
    (score,) = amc_scores(
        worked, np.array([3, 0]), np.array([0]), np.array([2]), alpha=0.5, memory=5
    )[:, 1]
    ok &= abs(score - 0.5) <= 1e-12
    report("6 amc-properties", ok)


def test_c07_power_law_recovery():
    rng = np.random.default_rng(2024)
    beta = 2.5
    xs = (1 - rng.random(10_000)) ** (-1.0 / (beta - 1.0))
    fit = fit_power_law([xs])
    report("7 power-law-recovery", abs(fit.beta - beta) <= 0.1)


def test_c08_split_integrity():
    ok = True
    for n in range(3, 201):
        checkins = [make_checkin("u", f"p{i:03d}", 100 * (i + 1)) for i in range(n)]
        s = temporal_split(make_dataset(checkins))
        tr, va, te = (p["u"] for p in checkin_lists(s))
        ok &= len(tr) == int(0.7 * n)
        ok &= len(te) == int(0.2 * n)
        ok &= len(tr) + len(va) + len(te) == n
        parts = [p for p in (tr, va, te) if p]
        for a, b in zip(parts, parts[1:]):
            ok &= max(c.timestamp for c in a) <= min(c.timestamp for c in b)
    report("8 split-integrity", ok)


def test_c09_end_to_end_bias_detection(tmp_path):
    t0 = time.perf_counter()
    paths = write_tsv(
        SynthConfig(friend_scheme="random", home_focus_working=0.3, friends_per_user=5, seed=42),
        tmp_path / "data",
    )
    cfg = ExperimentConfig(
        checkin_path=str(paths["checkins"]),
        poi_path=str(paths["pois"]),
        social_path=str(paths["social"]),
        out_dir=str(tmp_path / "out"),
        cutoffs=[10],
        seed=42,
    )
    reports = {(r.model, r.fusion): r for r in run_pipeline(cfg)}
    ok = True
    for model in ("geosoca", "lore"):
        prod = reports[(model, "product")]
        summ = reports[(model, "sum")]
        ok &= prod.ndcg_leisure > prod.ndcg_working
        ok &= summ.delta_ndcg < prod.delta_ndcg
    elapsed = time.perf_counter() - t0
    report("9 end-to-end-bias-detection", ok and elapsed < 60.0)


def test_c10_conditional_full_data():
    expectations = {
        "POIFAIR_GOWALLA_DIR": (15, 10, 5628, 31803, 620683),
        "POIFAIR_YELP_DIR": (10, 10, 7135, 16621, 1137521),
    }
    ran_any = False
    ok = True
    for env, (min_u, min_p, n_users, n_pois, n_checkins) in expectations.items():
        root = os.environ.get(env)
        if not root:
            continue
        ran_any = True
        d = parse_dataset(
            os.path.join(root, "checkins.tsv"),
            os.path.join(root, "pois.tsv"),
            os.path.join(root, "social.tsv"),
        )
        filtered, _ = preprocess_filter(d, min_u, min_p)
        ok &= len(filtered.user_ids) == n_users
        ok &= len(filtered.poi_ids) == n_pois
        ok &= len(filtered.ts) == n_checkins
    if not ran_any:
        print("\nACCEPTANCE 10 full-data-check: SKIP "
              "(set POIFAIR_GOWALLA_DIR / POIFAIR_YELP_DIR to run)")
        pytest.skip("real datasets not provided locally")
    report("10 full-data-check", ok)


def test_c11_run_determinism(tmp_path):
    import json

    from poifair.cli import main

    corpus = SynthConfig(n_users=60, n_clusters=4, pois_per_cluster=10, seed=3)
    paths = write_tsv(corpus, tmp_path / "data")
    base = {
        "checkin_path": str(paths["checkins"]),
        "poi_path": str(paths["pois"]),
        "social_path": str(paths["social"]),
        "models": ["geosoca"],
        "cutoffs": [10],
        "seed": 42,
    }
    outputs = []
    for run_dir in ("r1", "r2"):
        cfg = dict(base, out_dir=str(tmp_path / run_dir))
        cfg_path = tmp_path / f"{run_dir}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 0
        outputs.append((tmp_path / run_dir / "table3.csv").read_bytes())
    report("11 run-determinism", outputs[0] == outputs[1])


def test_run_determinism_default_models(tmp_path):
    """c11 covers GeoSoCa alone; this runs the default config (GeoSoCa and
    LORE, product and sum fusion) twice."""
    import json

    from poifair.cli import main

    corpus = SynthConfig(n_users=60, n_clusters=4, pois_per_cluster=10, seed=3)
    paths = write_tsv(corpus, tmp_path / "data")
    base = {
        "checkin_path": str(paths["checkins"]),
        "poi_path": str(paths["pois"]),
        "social_path": str(paths["social"]),
    }
    names = ["table3.csv"] + [
        f"recommendations_{m}_{r}.tsv"
        for m in ("geosoca", "lore") for r in ("product", "sum")
    ]
    outputs = []
    for run_dir in ("r1", "r2"):
        cfg = dict(base, out_dir=str(tmp_path / run_dir))
        cfg_path = tmp_path / f"{run_dir}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 0
        outputs.append({n: (tmp_path / run_dir / n).read_bytes() for n in names})
    assert all(outputs[0][n] for n in names)
    assert outputs[0] == outputs[1]
