"""Compose context components into GeoSoCa- and LORE-style scorers and
produce top-N recommendations."""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import geo, sequential, social
from .categorical import CategoricalModel
from .data import Dataset
from .fusion import fuse_arrays, normalize_scores

log = logging.getLogger(__name__)

GEOSOCA = "geosoca"
LORE = "lore"
MODEL_NAMES = (GEOSOCA, LORE)


@dataclass
class CandidateScores:
    """Raw (c1, c2, c3) context scores for one user's unvisited candidates.

    poi_ids are ascending POI codes, so a candidate's position is its
    poi_id tie-break when ranking."""

    poi_ids: np.ndarray
    raw: np.ndarray  # (n_candidates, 3)
    enabled: tuple[bool, bool, bool]


class FittedModel:
    """Context components fitted on the training split's columns, which are
    sorted by (user, time) as `SplitDataset.columns` gives them.

    GeoSoCa binds (per-user KDE, friends' power-law frequency, categorical
    power-law frequency); LORE binds (global KDE, friend-based CF, additive
    Markov chain). Users and POIs are codes of `train`. `power_law_fallbacks`
    counts the power-law fits that fell back to `social.DEFAULT_FIT`.
    """

    def __init__(self, name: str, train: Dataset,
                 session_gap_hours: float = sequential.SESSION_GAP_HOURS,
                 amc_alpha: float = sequential.AMC_DECAY,
                 amc_memory: int = sequential.AMC_MEMORY):
        if name not in MODEL_NAMES:
            raise ValueError(f"unknown model {name!r}")
        self.name = name
        self.user_ids, self.poi_ids = train.user_ids, train.poi_ids
        self.poi = train.poi
        self.bounds = train.user_rows()
        self.visits = train.visits()
        self.friends = train.friend_codes()
        self.lats, self.lons = train.lat, train.lon
        coords = np.stack([self.lats, self.lons], axis=1)

        if name == GEOSOCA:
            users = range(len(self.user_ids))
            self.user_kdes = geo.fit_user_kdes(train, coords)
            # Both power laws are fitted user by user, users in code order:
            # the friends' total check-ins at each of their POIs in first-visit
            # order over the sorted friends, and each user's POIs in code order.
            self.social_fit = social.fit_power_law(
                totals[order] for order, totals in map(self._social_frequency, users)
            )
            self.cat_model = CategoricalModel(self.visits, train.category)
            if self.cat_model.has_categories:
                freqs = map(self.cat_model.frequency, users)
                self.cat_fit = social.fit_power_law(f[f >= 1.0] for f in freqs)
            else:
                self.cat_fit = None
            self.enabled = (True, True, self.cat_model.has_categories)
            fits = (self.social_fit, self.cat_fit)
            self.power_law_fallbacks = sum(fit is social.DEFAULT_FIT for fit in fits)
        else:
            self.global_kde = geo.fit_global_kde(train, coords)
            # The global density does not depend on the user: once per POI.
            self.global_geo = geo.geo_scores(self.global_kde, self.lats, self.lons)
            self.residence = social.residences(self.visits)
            self.l2tg = sequential.build_l2tg(train, session_gap_hours)
            self.amc_alpha = amc_alpha
            self.amc_memory = amc_memory
            self.enabled = (True, True, True)
            self.power_law_fallbacks = 0

    def score_candidates(self, u: int) -> CandidateScores:
        """Raw (c1, c2, c3) for every POI user code u has not visited in
        train."""
        if not 0 <= u < len(self.user_ids):
            raise ValueError(f"no user code {u!r}")
        if self.bounds[u] == self.bounds[u + 1]:
            raise ValueError(f"user {self.user_ids[u]!r} absent from the training split")
        candidate = np.ones(len(self.poi_ids), dtype=bool)
        candidate[self.visits.row(u)[0]] = False
        pos = np.flatnonzero(candidate)
        if not len(pos):
            log.warning("user %s visited every POI; no candidates", self.user_ids[u])
            return CandidateScores(pos, np.zeros((0, 3)), self.enabled)
        if self.name == GEOSOCA:
            c1 = geo.geo_scores(self.user_kdes[u], self.lats[pos], self.lons[pos])
            c2 = social.power_law_score(self.social_fit, self._social_frequency(u)[1][pos])
            if self.cat_fit is not None:
                c3 = social.power_law_score(self.cat_fit, self.cat_model.frequency(u)[pos])
            else:
                c3 = np.zeros(len(pos))
        else:
            c1 = self.global_geo[pos]
            c2 = social.fcf_score(
                u, self.friends[u], self.visits, self.residence, self.lats, self.lons
            )[pos]
            c3 = sequential.amc_scores(
                self.l2tg, self.poi[self.bounds[u]:self.bounds[u + 1]], pos,
                self.amc_alpha, self.amc_memory,
            )
        raw = np.stack([c1, c2, c3], axis=1)
        bad = ~np.isfinite(raw).all(axis=1)
        if bad.any():
            raise ValueError(
                f"{self.name}: non-finite context score for user "
                f"{self.user_ids[u]!r} at POI {self.poi_ids[pos[bad.argmax()]]!r}"
            )
        return CandidateScores(pos, raw, self.enabled)

    def _social_frequency(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        return social.social_frequency(self.friends[u], self.bounds, self.poi, len(self.poi_ids))


def fused_scores(cs: CandidateScores, lambdas: np.ndarray | None, out=None) -> np.ndarray:
    """Fuse candidate context scores with a rule's `rule_lambdas`, one row
    per lambda row: product (None) on raw scores, additive rules on per-user
    min-max-normalized scores, into the (G, n_candidates) `out` if given."""
    mat = cs.raw if lambdas is None else normalize_scores(cs.raw)
    return fuse_arrays(mat, lambdas, cs.enabled, out)


# Inputs of at most this many scores are fully sorted: below it one stable
# argsort beats the partition path's fixed cost (crossover measured at 1.5k to
# 2.5k float64 scores on x86-64; a 210-wide row sorts in about 5 us).
FULL_SORT_MAX_SIZE = 2048


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k largest finite scores along the last axis, by
    descending score, equal scores in position order: exactly
    `np.argsort(-scores, axis=-1, kind="stable")[..., :k]`.

    Large inputs take each row's k-th largest score t with one partition.
    Every top-k position has a score >= t, and those positions come out of
    `nonzero` in ascending order, so a stable sort of only them, cut at k,
    is the full sort's prefix; ties at t only keep more of them."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = scores.shape[-1]
    if k >= n or scores.size <= FULL_SORT_MAX_SIZE:
        return np.argsort(-scores, axis=-1, kind="stable")[..., :k]
    rows = scores.reshape(-1, n)
    t = np.partition(rows, n - k, axis=-1)[:, n - k]
    r, c = np.nonzero(rows >= t[:, None])
    order = np.lexsort((-rows[r, c], r))
    start = np.searchsorted(r, np.arange(len(rows)))
    return c[order[start[:, None] + np.arange(k)]].reshape(scores.shape[:-1] + (k,))


def recommend_topn(poi_ids, scores: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n best candidates of each score row by descending fused score,
    ties by position, which is poi_id order for `CandidateScores.poi_ids`:
    their ids and scores, each shaped like scores with n or fewer columns."""
    if n < 1:
        raise ValueError("N must be >= 1")
    top = top_k(scores, n)
    return np.asarray(poi_ids)[top], np.take_along_axis(scores, top, axis=-1)
