"""Categorical influence: user-category frequency weighted by within-category
POI popularity, pushed through the same power-law CDF as the social context."""
from __future__ import annotations

import numpy as np

from .data import PairCounts


class CategoricalModel:
    """Per-user category counts and within-category POI popularity.

    `category` holds each POI code's category code, -1 for none."""

    def __init__(self, visits: PairCounts, category: np.ndarray):
        n_cats = int(category.max(initial=-1)) + 1
        self.visits = visits
        # Uncategorised POIs share an extra last slot.
        self.category = np.where(category < 0, n_cats, category)
        self.n_slots = n_cats + 1
        poi_counts = np.bincount(
            visits.col, weights=visits.count, minlength=len(category)
        )
        cat_max = np.zeros(self.n_slots)
        np.maximum.at(cat_max, self.category, poi_counts)
        top = cat_max[self.category]
        self.popularity = np.divide(
            poi_counts, top, out=np.zeros(len(category)),
            where=(category >= 0) & (top > 0),
        )

    @property
    def has_categories(self) -> bool:
        return self.n_slots > 1

    def frequency(self, users: np.ndarray) -> np.ndarray:
        """For a block of user codes, (users, n_pois): each user's check-in
        count in each POI's category, scaled by the POI's popularity within
        that category, by POI code. 0 for a POI without a category (flag via
        has_categories)."""
        row, pois, n = self.visits.rows(users)
        user_counts = np.bincount(
            row * self.n_slots + self.category[pois], weights=n,
            minlength=len(users) * self.n_slots,
        ).reshape(len(users), self.n_slots)
        return user_counts[:, self.category] * self.popularity
