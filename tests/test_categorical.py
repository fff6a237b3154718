import random

import numpy as np
import pytest

from poifair.categorical import CategoricalModel
from poifair.social import PowerLawFit, power_law_score

from conftest import make_checkin, make_train
from oracles import Poi


class ById:
    """A CategoricalModel fitted on a train spec, queried by user and POI id."""

    def __init__(self, train_spec, poi_cats):
        """train_spec: {user: [(poi, n_visits), ...]}; poi_cats: {poi: category}."""
        pois = {p: Poi(p, 40.0, -100.0, cat) for p, cat in poi_cats.items()}
        checkins = []
        ts = 0
        for u, visits in train_spec.items():
            for p, n in visits:
                for _ in range(n):
                    ts += 100
                    checkins.append(make_checkin(u, p, ts))
        self.train = make_train(checkins, pois)
        self.model = CategoricalModel(self.train.visits(), self.train.category)
        self.has_categories = self.model.has_categories

    def frequency(self, u, p) -> float:
        (f,) = self.model.frequency(np.array([self.train.user_ids.index(u)]))
        return float(f[self.train.poi_ids.index(p)])



class TestFrequency:
    def test_most_popular_poi_weight_one(self):
        model = ById(
            {"u": [("c1", 5)], "other": [("c1", 7), ("c2", 2)]},
            {"c1": "coffee", "c2": "coffee"},
        )
        # u has 5 coffee check-ins; c1 is the most visited coffee POI
        assert model.frequency("u", "c1") == pytest.approx(5.0)

    def test_unseen_category(self):
        model = ById(
            {"u": [("c1", 5)]}, {"c1": "coffee", "b1": "books"}
        )
        assert model.frequency("u", "b1") == 0.0

    def test_no_category_poi(self):
        model = ById({"u": [("c1", 2), ("n1", 3)]}, {"c1": "coffee", "n1": None})
        assert model.frequency("u", "n1") == 0.0

    def test_three_category_recount(self):
        rnd = random.Random(17)
        cats = {f"p{i}": f"cat{i % 3}" for i in range(9)}
        spec = {
            u: [(f"p{rnd.randrange(9)}", rnd.randrange(1, 5)) for _ in range(4)]
            for u in ("a", "b", "c")
        }
        model = ById(spec, cats)
        # flat recount oracle
        poi_counts = {}
        user_cat = {}
        for u, visits in spec.items():
            for p, n in visits:
                poi_counts[p] = poi_counts.get(p, 0) + n
                cat = cats[p]
                user_cat[(u, cat)] = user_cat.get((u, cat), 0) + n
        for u in spec:
            for p in cats:
                cat = cats[p]
                max_in_cat = max(
                    (n for q, n in poi_counts.items() if cats[q] == cat), default=0
                )
                ucount = user_cat.get((u, cat), 0)
                if ucount == 0 or max_in_cat == 0:
                    expected = 0.0
                else:
                    expected = ucount * poi_counts.get(p, 0) / max_in_cat
                assert model.frequency(u, p) == pytest.approx(expected, abs=1e-12)

    def test_has_categories_flag(self):
        model = ById({"u": [("p", 1)]}, {"p": None})
        assert not model.has_categories


class TestScore:
    def test_zero(self):
        assert power_law_score(PowerLawFit(beta=2.0), [0.0]).tolist() == [0.0]

    def test_direct_formula(self):
        # beta=2, y=4: 1 - 1/4
        assert power_law_score(PowerLawFit(beta=2.0), [4.0])[0] == pytest.approx(0.75)

    def test_monotone(self):
        fit = PowerLawFit(beta=3.0)
        ys = [0.0, 1.0, 2.0, 5.0, 50.0]
        scores = power_law_score(fit, ys).tolist()
        assert scores == sorted(scores)
