"""Compose context components into GeoSoCa- and LORE-style scorers and
produce top-N recommendations."""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import geo, sequential, social
from .categorical import CategoricalModel
from .data import Dataset
from .fusion import fuse_arrays, normalize_scores

GEOSOCA = "geosoca"
LORE = "lore"
MODEL_NAMES = (GEOSOCA, LORE)

# Users are scored, fused and ranked in blocks, each as many users as fit in
# this many bytes: three float64 raw scores per POI for a scoring block, and
# one fused float64 per (rule row, POI) for a fused block, so the 66 rows of
# the weighted-sum grid are fused a few users at a time. Scoring holds a few
# times its raw scores in temporaries; 256 KiB keeps the peak RSS of a
# 100-user, 240-POI run where it was when users were scored one at a time.
BLOCK_BYTES = 1 << 18


def block_rows(row_bytes: int) -> int:
    """How many rows of `row_bytes` bytes make a block: at least one."""
    return max(1, BLOCK_BYTES // row_bytes)


def score_block_rows(n_pois: int) -> int:
    """Users per scoring block."""
    return block_rows(24 * n_pois)


class CandidateScores(NamedTuple):
    """Raw (c1, c2, c3) context scores of a block of users at every POI code.

    A user's candidates are the POIs they did not visit in train; scores at
    the other POIs are never ranked. Positions are POI codes, so position
    order is the poi_id tie-break when ranking."""

    users: np.ndarray  # (B,) ascending user codes
    candidate: np.ndarray  # (B, n_pois) bool
    raw: np.ndarray  # (3, B, n_pois)
    enabled: tuple[bool, bool, bool]

    @property
    def poi_ids(self) -> np.ndarray:
        """Each candidate's POI code, row by row."""
        return np.nonzero(self.candidate)[1]

    def take(self, rows) -> CandidateScores:
        """The scores of the block's rows `rows`."""
        return CandidateScores(
            self.users[rows], self.candidate[rows], self.raw[:, rows], self.enabled
        )


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
        self.friends = train.friends()
        self.lats, self.lons = train.lat, train.lon
        coords = np.stack([self.lats, self.lons], axis=1)

        if name == GEOSOCA:
            n_pois = len(self.poi_ids)
            step = score_block_rows(n_pois)
            users = np.arange(len(self.user_ids))
            blocks = [users[lo:lo + step] for lo in range(0, len(users), step)]
            self.user_kdes = geo.fit_user_kdes(train, coords)
            # Both power laws are fitted over every user code in order: the
            # friends' total check-ins at each of their POIs in first-visit
            # order over the ascending friends, and each user's POIs in code
            # order. Their log-sums run on across chunks. A social chunk
            # takes about 40 bytes per friend check-in of its users.
            friend_checkins = int(np.diff(self.bounds)[self.friends.col].sum())
            fit_step = block_rows(1 + 40 * friend_checkins // max(1, len(users)))
            self.social_fit = social.fit_power_law(
                social.friend_totals(self.friends, users[lo:lo + fit_step], self.bounds,
                                     self.poi, n_pois)
                for lo in range(0, len(users), fit_step)
            )
            self.cat_model = CategoricalModel(self.visits, train.category)
            if self.cat_model.has_categories:
                freqs = map(self.cat_model.frequency, blocks)
                self.cat_fit = social.fit_power_law(f[f >= 1.0] for f in freqs)
            else:
                self.cat_fit = None
            self.enabled = (True, True, self.cat_model.has_categories)
            fits = (self.social_fit, self.cat_fit)
            self.power_law_fallbacks = sum(fit is social.DEFAULT_FIT for fit in fits)
        else:
            self.global_kde = geo.fit_global_kde(train, coords)
            # The global density does not depend on the user: once per POI.
            self.global_geo = geo.geo_scores(self.global_kde, [0], self.lats, self.lons)[0]
            self.residence = social.residences(self.visits)
            self.l2tg = sequential.build_l2tg(train, session_gap_hours)
            self.amc_alpha = amc_alpha
            self.amc_memory = amc_memory
            self.enabled = (True, True, True)
            self.power_law_fallbacks = 0

    def score_candidates(self, users) -> CandidateScores:
        """Raw (c1, c2, c3) of a block of ascending user codes at every POI;
        each user's candidates are the POIs they did not visit in train."""
        users = np.asarray(users, dtype=np.intp)
        bad = (users < 0) | (users >= len(self.user_ids))
        if bad.any():
            raise ValueError(f"no user code {users[bad.argmax()]!r}")
        absent = self.bounds[users] == self.bounds[users + 1]
        if absent.any():
            u = users[absent.argmax()]
            raise ValueError(f"user {self.user_ids[u]!r} absent from the training split")
        n_pois = len(self.poi_ids)
        row, visited, _ = self.visits.rows(users)
        candidate = np.ones((len(users), n_pois), dtype=bool)
        candidate[row, visited] = False
        raw = np.zeros((3, len(users), n_pois))
        if self.name == GEOSOCA:
            # A user's own POIs are never ranked, and their densities, far
            # above the candidates', would overflow min-max normalization.
            c1 = geo.geo_scores(self.user_kdes, users, self.lats, self.lons)
            raw[0] = np.where(candidate, c1, 0.0)
            totals = social.social_frequency(
                self.friends, users, self.bounds, self.poi, n_pois
            )
            raw[1] = social.power_law_score(self.social_fit, totals)
            if self.cat_fit is not None:
                raw[2] = social.power_law_score(self.cat_fit, self.cat_model.frequency(users))
        else:
            raw[0] = self.global_geo
            raw[1] = social.fcf_score(
                users, self.friends, self.visits, self.residence, self.lats, self.lons
            )
            raw[2] = sequential.amc_scores(
                self.l2tg, self.poi, self.bounds[users], self.bounds[users + 1],
                self.amc_alpha, self.amc_memory,
            )
        bad = candidate & ~np.isfinite(raw).all(axis=0)
        if bad.any():
            b, p = np.unravel_index(bad.argmax(), bad.shape)
            raise ValueError(
                f"{self.name}: non-finite context score for user "
                f"{self.user_ids[users[b]]!r} at POI {self.poi_ids[p]!r}"
            )
        return CandidateScores(users, candidate, raw, self.enabled)


def normalized_scores(cs: CandidateScores) -> np.ndarray:
    """A block's (3, B, n_pois) context scores min-max-normalized over each
    user's candidates, which the additive rules fuse."""
    return normalize_scores(cs.raw, cs.candidate)


def fused_scores(
    cs: CandidateScores, lambdas: np.ndarray | None, normalized, out=None
) -> np.ndarray:
    """Fuse a block's context scores with a rule's `rule_lambdas`, one row
    per lambda row: product (None) on raw scores, additive rules on
    `normalized`, the block's `normalized_scores`, which product ignores.
    (B, G, n_pois), into `out` if given, -inf at every POI that is not a
    candidate."""
    mat = cs.raw if lambdas is None else normalized
    fused = fuse_arrays(mat, lambdas, cs.enabled, out)
    np.copyto(fused, -np.inf, where=~cs.candidate[:, None, :])
    return fused


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k largest finite scores along the last axis, by
    descending score, equal scores in position order: exactly
    `np.argsort(-scores, axis=-1, kind="stable")[..., :k]`.

    With k clamped to n, each row's k-th largest score t comes from one
    partition. Every top-k position has a score >= t, and those come out of
    `flatnonzero` in ascending order, row by row, so a stable sort of each
    row's positions alone, cut at k, is the full sort's prefix; ties at t
    only keep more of them. Rows that ties leave shorter than the longest
    are padded with NaN, which sorts after every score."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = scores.shape[-1]
    k = min(k, n)
    if not k:
        return np.empty(scores.shape, dtype=np.intp)
    rows = scores.reshape(-1, n)
    t = np.partition(rows, n - k, axis=-1)[:, n - k]
    at = np.flatnonzero(rows >= t[:, None])
    # Row r's positions fill the first width[r] slots of its row of `pos`.
    r = at // n
    width = np.bincount(r, minlength=len(rows))
    slot = np.arange(len(at)) - (np.cumsum(width) - width)[r]
    key = np.full((len(rows), int(width.max(initial=0))), np.nan)
    key[r, slot] = -rows.ravel()[at]
    pos = np.zeros(key.shape, dtype=at.dtype)
    pos[r, slot] = at
    top = np.take_along_axis(pos, np.argsort(key, axis=-1, kind="stable")[:, :k], axis=-1)
    return (top % n).reshape(scores.shape[:-1] + (k,))


def recommend_topn(poi_ids, scores: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n best candidates of each score row by descending fused score,
    ties by position, which is poi_id order for `CandidateScores.poi_ids`:
    their ids and scores, each shaped like scores with n or fewer columns."""
    if n < 1:
        raise ValueError("N must be >= 1")
    top = top_k(scores, n)
    return np.asarray(poi_ids)[top], np.take_along_axis(scores, top, axis=-1)
