"""Compose context components into GeoSoCa- and LORE-style scorers and
produce top-N recommendations."""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import geo, sequential, social
from .categorical import CategoricalModel
from .data import Dataset, SplitDataset
from .fusion import fuse_arrays, normalize_scores

log = logging.getLogger(__name__)

GEOSOCA = "geosoca"
LORE = "lore"
MODEL_NAMES = (GEOSOCA, LORE)


@dataclass
class CandidateScores:
    """Raw (c1, c2, c3) context scores for one user's unvisited candidates.

    poi_ids are in ascending order, so a candidate's position is its
    poi_id tie-break when ranking."""

    user_id: str
    poi_ids: list[str]
    raw: np.ndarray  # (n_candidates, 3)
    enabled: tuple[bool, bool, bool]


class FittedModel:
    """Context components fitted on the training split.

    GeoSoCa binds (per-user KDE, friends' power-law frequency, categorical
    power-law frequency); LORE binds (global KDE, friend-based CF, additive
    Markov chain).
    """

    def __init__(self, name: str, dataset: Dataset, split: SplitDataset,
                 session_gap_hours: float = sequential.SESSION_GAP_HOURS,
                 amc_alpha: float = sequential.AMC_DECAY,
                 amc_memory: int = sequential.AMC_MEMORY):
        if name not in MODEL_NAMES:
            raise ValueError(f"unknown model {name!r}")
        self.name = name
        self.dataset = dataset
        self.split = split
        self.counts = social.visit_counts(split.train)
        self.poi_ids = sorted(dataset.pois)
        self.poi_coords = {
            p: (poi.latitude, poi.longitude) for p, poi in dataset.pois.items()
        }
        self.poi_lats = np.array([self.poi_coords[p][0] for p in self.poi_ids])
        self.poi_lons = np.array([self.poi_coords[p][1] for p in self.poi_ids])

        if name == GEOSOCA:
            self.user_kdes = geo.fit_user_kdes(split.train)
            freqs = self._positive_social_frequencies()
            self.social_fit = _fit_or_default(freqs)
            self.cat_model = CategoricalModel(split.train, dataset.pois)
            if self.cat_model.has_categories:
                cat_freqs = self._positive_categorical_frequencies()
                self.cat_fit = _fit_or_default(cat_freqs)
            else:
                self.cat_fit = None
            self.enabled = (True, True, self.cat_model.has_categories)
        else:
            self.global_kde = geo.fit_global_kde(split.train)
            # The global density does not depend on the user: once per POI.
            self.global_geo = geo.geo_scores(
                self.global_kde, self.poi_lats, self.poi_lons
            )
            self.residences = {
                u: social.residence(u, self.counts)
                for u in sorted(split.train)
                if self.counts.get(u)
            }
            self.l2tg = sequential.build_l2tg(split.train, session_gap_hours)
            self.amc_alpha = amc_alpha
            self.amc_memory = amc_memory
            self.enabled = (True, True, True)

    def _positive_social_frequencies(self) -> list[int]:
        freqs = []
        for u in sorted(self.split.train):
            merged = social.social_frequency(u, self.counts, self.dataset.social)
            freqs.extend(n for n in merged.values() if n >= 1)
        return freqs

    def _positive_categorical_frequencies(self) -> list[float]:
        freqs = []
        for u in sorted(self.split.train):
            seen_cats = {
                c
                for c in (
                    self.cat_model.poi_category.get(p) for p in self.counts[u]
                )
                if c is not None
            }
            for p in self.poi_ids:
                if self.cat_model.poi_category.get(p) in seen_cats:
                    y = self.cat_model.frequency(u, p)
                    if y >= 1.0:
                        freqs.append(y)
        return freqs

    def candidate_positions(self, u: str) -> list[int]:
        """Indices into poi_ids of the POIs u has not visited in train."""
        visited = self.counts.get(u, {})
        return [i for i, p in enumerate(self.poi_ids) if p not in visited]

    def score_candidates(self, u: str) -> CandidateScores:
        """Raw (c1, c2, c3) for every POI the user has not visited in train."""
        if u not in self.split.train or not self.split.train[u]:
            raise ValueError(f"user {u!r} absent from the training split")
        pos = self.candidate_positions(u)
        cands = [self.poi_ids[i] for i in pos]
        if not cands:
            log.warning("user %s visited every POI; no candidates", u)
            return CandidateScores(u, [], np.zeros((0, 3)), self.enabled)
        if self.name == GEOSOCA:
            c1 = geo.geo_scores(
                self.user_kdes[u], self.poi_lats[pos], self.poi_lons[pos]
            )
            friend_freq = social.social_frequency(u, self.counts, self.dataset.social)
            c2 = np.array(
                [
                    social.power_law_score(self.social_fit, friend_freq.get(p, 0))
                    for p in cands
                ]
            )
            if self.cat_fit is not None:
                c3 = np.array(
                    [
                        social.power_law_score(self.cat_fit, self.cat_model.frequency(u, p))
                        for p in cands
                    ]
                )
            else:
                c3 = np.zeros(len(cands))
        else:
            c1 = self.global_geo[pos]
            c2 = social.fcf_score(
                u, cands, self.counts, self.dataset.social,
                self.residences, self.poi_coords,
            )
            history = [c.poi_id for c in self.split.train[u]]
            c3 = np.array(
                sequential.amc_scores(
                    self.l2tg, history, cands, self.amc_alpha, self.amc_memory
                )
            )
        raw = np.stack([c1, c2, c3], axis=1)
        bad = ~np.isfinite(raw).all(axis=1)
        if bad.any():
            raise ValueError(
                f"{self.name}: non-finite context score for user {u!r} "
                f"at POI {cands[int(bad.argmax())]!r}"
            )
        return CandidateScores(u, cands, raw, self.enabled)


def _fit_or_default(freqs) -> social.PowerLawFit:
    if len(freqs) < social.MIN_FIT_OBSERVATIONS:
        log.warning("too few positive frequencies (%d); using beta=2", len(freqs))
        return social.PowerLawFit(beta=2.0)
    return social.fit_power_law(freqs)


def fused_scores(cs: CandidateScores, lambdas: np.ndarray | None) -> np.ndarray:
    """Fuse candidate context scores with a rule's `rule_lambdas`, one row
    per lambda row: product (None) on raw scores, additive rules on per-user
    min-max-normalized scores."""
    mat = cs.raw if lambdas is None else normalize_scores(cs.raw)
    return fuse_arrays(mat, lambdas, cs.enabled)


def rank_order(scores: np.ndarray) -> np.ndarray:
    """Positions by descending score along the last axis; equal scores keep
    position order."""
    return np.argsort(-scores, axis=-1, kind="stable")


def recommend_topn(
    poi_ids: list[str], scores: np.ndarray, n: int
) -> tuple[list[str], list[float]]:
    """The n best candidates by descending fused score, ties by position,
    which is poi_id order for `CandidateScores.poi_ids`."""
    if n < 1:
        raise ValueError("N must be >= 1")
    top = rank_order(scores)[:n]
    return [poi_ids[i] for i in top.tolist()], scores[top].tolist()
