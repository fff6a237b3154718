"""Categorical influence: user-category frequency weighted by within-category
POI popularity, pushed through the same power-law CDF as the social context."""
from __future__ import annotations

from collections import Counter

from .data import CheckIn, Poi


class CategoricalModel:
    """Precomputed per-user category counts and within-category POI popularity."""

    def __init__(self, train: dict[str, list[CheckIn]], pois: dict[str, Poi]):
        self.poi_category = {
            p: poi.category_id for p, poi in pois.items() if poi.category_id is not None
        }
        self.user_cat_counts: dict[str, Counter] = {}
        poi_counts: Counter = Counter()
        for u, seq in train.items():
            cc = Counter()
            for c in seq:
                poi_counts[c.poi_id] += 1
                cat = self.poi_category.get(c.poi_id)
                if cat is not None:
                    cc[cat] += 1
            self.user_cat_counts[u] = cc
        self.cat_max_count: dict[str, int] = {}
        for p, n in poi_counts.items():
            cat = self.poi_category.get(p)
            if cat is not None and n > self.cat_max_count.get(cat, 0):
                self.cat_max_count[cat] = n
        self.poi_counts = poi_counts

    @property
    def has_categories(self) -> bool:
        return bool(self.poi_category)

    def frequency(self, u: str, p: str) -> float:
        """u's check-in count in p's category, scaled by p's popularity within
        that category. 0 when p carries no category (flag via has_categories)."""
        cat = self.poi_category.get(p)
        if cat is None:
            return 0.0
        user_cats = self.user_cat_counts.get(u)
        user_count = user_cats.get(cat, 0) if user_cats else 0
        if user_count == 0:
            return 0.0
        max_count = self.cat_max_count.get(cat, 0)
        pop = self.poi_counts.get(p, 0) / max_count if max_count else 0.0
        return user_count * pop
