import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from poifair.data import TRAIN, temporal_split
from poifair.fusion import PRODUCT, SUM, rule_lambdas
from poifair.recommend import (
    GEOSOCA,
    LORE,
    FittedModel,
    fused_scores,
    normalized_scores,
    recommend_topn,
)
from poifair.synth import SynthConfig, generate

import oracles


@pytest.fixture(scope="module")
def small_world():
    """(dataset, train columns, id-keyed train lists)."""
    ds = generate(SynthConfig(n_users=30, n_clusters=3, pois_per_cluster=8, seed=7))
    split = temporal_split(ds)
    return ds, split.columns(TRAIN), oracles.checkin_lists(split)[0]


@pytest.fixture(scope="module")
def geosoca(small_world):
    return FittedModel(GEOSOCA, small_world[1])


@pytest.fixture(scope="module")
def lore(small_world):
    return FittedModel(LORE, small_world[1])


class TestScoreCandidates:
    def test_candidates_exclude_visited(self, geosoca, small_world):
        ds, _, train = small_world
        visited = {c.poi_id for c in train[ds.user_ids[0]]}
        cs = geosoca.score_candidates([0])
        assert {ds.poi_ids[p] for p in cs.poi_ids} == set(ds.poi_ids) - visited
        assert cs.raw.shape == (3, 1, len(ds.poi_ids))

    def test_unknown_user_errors(self, geosoca, small_world):
        for u in (-1, len(small_world[0].user_ids)):
            with pytest.raises(ValueError):
                geosoca.score_candidates([u])

    def test_geosoca_matches_component_oracles(self, geosoca, small_world):
        ds, _, train = small_world
        u = ds.user_ids[0]
        counts = oracles.visit_counts(train)
        pois = oracles.pois_of(ds)
        categories = oracles.CategoricalModel(train, pois)
        cs = geosoca.score_candidates([0])
        for p, row in list(zip(cs.poi_ids, cs.raw[:, 0, cs.poi_ids].T))[:5]:
            poi = pois[ds.poi_ids[p]]
            g = oracles.geo_score(oracles.kde_row(geosoca.user_kdes, 0), poi.latitude, poi.longitude)
            x = oracles.social_frequency(u, poi.poi_id, counts, oracles.graph_of(ds))
            s = oracles.power_law_score(geosoca.social_fit, x)
            c = oracles.power_law_score(
                geosoca.cat_fit, categories.frequency(u, poi.poi_id)
            )
            assert row[0] == pytest.approx(g, rel=1e-9)
            assert row[1] == pytest.approx(s, rel=1e-9)
            assert row[2] == pytest.approx(c, rel=1e-9)

    def test_lore_matches_component_oracles(self, lore, small_world):
        ds, _, train = small_world
        u = ds.user_ids[1]
        counts = oracles.visit_counts(train)
        residences = {v: oracles.residence(v, counts) for v in train if train[v]}
        pois = oracles.pois_of(ds)
        coords = {p: (x.latitude, x.longitude) for p, x in pois.items()}
        l2tg = oracles.build_l2tg(train, 24.0)
        cs = lore.score_candidates([1])
        history = [c.poi_id for c in train[u]]
        for p, row in list(zip(cs.poi_ids, cs.raw[:, 0, cs.poi_ids].T))[:5]:
            poi = pois[ds.poi_ids[p]]
            g = oracles.geo_score(oracles.kde_row(lore.global_kde, 0), poi.latitude, poi.longitude)
            f = oracles.fcf_score(
                u, poi.poi_id, counts, oracles.graph_of(ds), residences, coords
            )
            a = oracles.amc_score(l2tg, history, poi.poi_id)
            assert row[0] == pytest.approx(g, rel=1e-9)
            assert row[1] == pytest.approx(f, rel=1e-9)
            assert row[2] == pytest.approx(a, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_score_rejected(self, small_world, bad):
        model = FittedModel(LORE, small_world[1])
        model.global_geo = np.full_like(model.global_geo, bad)
        with pytest.raises(ValueError, match="non-finite context score"):
            model.score_candidates([0])

    def test_unknown_model_name(self, small_world):
        with pytest.raises(ValueError):
            FittedModel("mystery", small_world[1])


SCORE_DIGEST = """
import hashlib
from poifair.data import TRAIN, temporal_split
from poifair.recommend import FittedModel
from poifair.synth import SynthConfig, generate
ds = generate(SynthConfig(n_users=30, n_clusters=3, pois_per_cluster=8, seed=7))
train = temporal_split(ds).columns(TRAIN)
for name in ("geosoca", "lore"):
    model = FittedModel(name, train)
    h = hashlib.sha256()
    cs = model.score_candidates(range(len(train.user_ids)))
    h.update(cs.raw[:, cs.candidate].tobytes())
    print(name, h.hexdigest())
"""


def test_scores_bitwise_independent_of_string_hashing():
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", SCORE_DIGEST], env=env,
            capture_output=True, text=True, check=True, timeout=120,
        )
        digests.append(out.stdout)
    assert digests[0] == digests[1] == digests[2]


class TestTopN:
    def test_argmax(self):
        pois, scores = recommend_topn(["A", "B"], np.array([0.9, 0.1]), 1)
        assert pois.tolist() == ["A"]

    def test_tie_breaks_by_poi_id(self):
        pois, _ = recommend_topn(["A", "B"], np.array([0.5, 0.5]), 2)
        assert pois.tolist() == ["A", "B"]
        pois, _ = recommend_topn(["A", "B"], np.array([0.4, 0.5]), 2)
        assert pois.tolist() == ["B", "A"]

    def test_matches_full_sort_oracle(self):
        rnd = random.Random(21)
        ids = [f"p{i:04d}" for i in range(1000)]
        scores = np.array([rnd.random() for _ in ids])
        pois, vals = recommend_topn(ids, scores, 50)
        assert (pois.tolist(), vals.tolist()) == oracles.topn(ids, scores, 50)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            recommend_topn(["A"], np.array([1.0]), 0)

    def test_shorter_when_few_candidates(self):
        pois, _ = recommend_topn(["A"], np.array([1.0]), 10)
        assert pois.tolist() == ["A"]


def top_n(model, u, rule, n):
    """u's top-n (POIs, fused scores) under a product or sum rule, as lists."""
    cs = model.score_candidates([u])
    ((scores,),) = fused_scores(cs, rule_lambdas(rule, cs.enabled), normalized_scores(cs))
    pois, vals = recommend_topn(np.arange(len(scores)), scores, n)
    listed = vals > -np.inf
    return pois[listed].tolist(), vals[listed].tolist()


class TestRecommend:
    def test_no_leakage(self, geosoca, small_world):
        ds, _, train = small_world
        for u in range(10):
            visited = {c.poi_id for c in train[ds.user_ids[u]]}
            pois, scores = top_n(geosoca, u, PRODUCT, 10)
            assert not {ds.poi_ids[p] for p in pois} & visited
            assert scores == sorted(scores, reverse=True)

    def test_determinism_across_runs(self, small_world):
        a = FittedModel(LORE, small_world[1])
        b = FittedModel(LORE, small_world[1])
        assert top_n(a, 3, SUM, 10) == top_n(b, 3, SUM, 10)

    def test_monotone_transform_keeps_order(self, lore):
        cs = lore.score_candidates([2])
        ((scores,),) = fused_scores(cs, rule_lambdas(SUM, cs.enabled), normalized_scores(cs))
        base, _ = recommend_topn(cs.poi_ids, scores[cs.poi_ids], len(cs.poi_ids))
        boosted, _ = recommend_topn(cs.poi_ids, 3.0 * scores[cs.poi_ids] + 7.0, len(cs.poi_ids))
        assert base.tolist() == boosted.tolist()


class TestDisabledContext:
    def test_geosoca_runs_without_categories(self, small_world):
        bare = oracles.without_categories(small_world[0])
        model = FittedModel(GEOSOCA, temporal_split(bare).columns(TRAIN))
        assert model.enabled == (True, True, False)
        pois, _ = top_n(model, 0, PRODUCT, 5)
        assert len(pois) == 5
        # product fusion ignores the disabled context entirely
        cs = model.score_candidates([0])
        ((fused,),) = fused_scores(cs, rule_lambdas(PRODUCT, cs.enabled), None)
        c1, c2 = cs.raw[0, 0, cs.poi_ids], cs.raw[1, 0, cs.poi_ids]
        assert fused[cs.poi_ids].tobytes() == (c1 * c2).tobytes()
