"""Working/leisure period labelling, user temporal profiles, and fairness groups."""
from __future__ import annotations

import logging
import math
from typing import NamedTuple

import numpy as np

from .data import DataError, Dataset, PairCounts

log = logging.getLogger(__name__)

WORK_START_HOUR = 8
WORK_END_HOUR = 18

UNASSIGNED, LEISURE, WORKING = 0, 1, 2  # group labels


def hours(timestamps: np.ndarray) -> np.ndarray:
    """Hour of day of each timestamp; timestamps are already-local epoch
    seconds."""
    return timestamps // 3600 % 24


class Profiles(NamedTuple):
    """Temporal profiles of the users with training check-ins, as columns in
    ascending user code order."""

    user: np.ndarray
    n_checkins: np.ndarray
    n_working: np.ndarray
    leisure_ratio: np.ndarray
    avg_popularity_consumption: np.ndarray

    @property
    def n_leisure(self) -> np.ndarray:
        return self.n_checkins - self.n_working


class GroupStats(NamedTuple):
    group: str
    n_checkins: int
    avg_popularity_consumption: float
    avg_activity_level: float
    n_users: int


def training_visits(
    train: Dataset, work_window: tuple[int, int] = (WORK_START_HOUR, WORK_END_HOUR)
) -> tuple[PairCounts, np.ndarray]:
    """The training visit CSR and each user code's check-ins in the working
    period, the half-open [start, end) hours of work_window. `train` is let
    go before the CSR is built: its timestamps are freed first where this
    call holds its only reference (CPython 3.11+)."""
    start, end = work_window
    h = hours(train.ts)
    n_work = np.bincount(train.user[(start <= h) & (h < end)], minlength=len(train.user_ids))
    user, poi, shape = train.user, train.poi, (len(train.user_ids), len(train.poi_ids))
    del h, train
    return PairCounts.of(user, poi, *shape), n_work


def poi_popularity(visits: PairCounts) -> np.ndarray:
    """Fraction of users that visited each POI, by POI code."""
    return np.bincount(visits.col, minlength=visits.n_cols) / (len(visits.indptr) - 1)


def build_profiles(visits: PairCounts, n_work: np.ndarray, popularity: np.ndarray) -> Profiles:
    """The temporal profiles of the users with training check-ins.

    A user's popularity consumption is the mean popularity of their distinct
    POIs, added strictly left to right in poi_id order (the builtin sum() of
    floats is compensated from Python 3.12 on): pass j adds every user's
    j-th POI.
    """
    n_distinct = np.diff(visits.indptr)
    user = np.flatnonzero(n_distinct)
    if len(user) < len(n_distinct):
        log.warning("%d users have no training check-ins; excluded", len(n_distinct) - len(user))
    # Each user's row is sorted by POI code, which is poi_id order.
    first, n_distinct = visits.indptr[user], n_distinct[user]
    n = np.add.reduceat(visits.count, first)
    total = np.zeros(len(user))
    for j in range(n_distinct.max(initial=0)):
        more = n_distinct > j
        total[more] += popularity[visits.col[first[more] + j]]
    n_work = n_work[user]
    return Profiles(user, n, n_work, (n - n_work) / n, total / n_distinct)


def assign_groups(profiles: Profiles, n_users: int, quantile: float = 0.2) -> np.ndarray:
    """The int8 group label of each of n_users user codes: LEISURE for the
    top quantile of profiles ranked by leisure-check-in ratio, ties in user
    code order, WORKING for the bottom one, UNASSIGNED for the rest and for
    users without a profile."""
    n = len(profiles.user)
    if n < 5:
        raise DataError(
            f"need at least 5 users with training check-ins to form the groups, got {n}"
        )
    if quantile > 0.5:
        raise ValueError("quantile > 0.5 makes the groups overlap")
    ranked = profiles.user[np.lexsort((profiles.user, -profiles.leisure_ratio))]
    k = int(quantile * n)
    labels = np.full(n_users, UNASSIGNED, dtype=np.int8)
    labels[ranked[:k]] = LEISURE
    labels[ranked[n - k :]] = WORKING
    return labels


def group_stats(labels: np.ndarray, profiles: Profiles) -> list[GroupStats]:
    """Per fairness group, from each user code's group label."""
    out = []
    for name, label in (("leisure-focused", LEISURE), ("working-focused", WORKING)):
        member = labels[profiles.user] == label
        if not member.any():
            raise DataError(f"empty group: {name}")
        out.append(
            GroupStats(
                group=name,
                n_checkins=int(profiles.n_checkins[member].sum()),
                avg_popularity_consumption=float(
                    np.mean(profiles.avg_popularity_consumption[member])
                ),
                avg_activity_level=float(np.mean(profiles.n_checkins[member])),
                n_users=int(member.sum()),
            )
        )
    return out


def temporal_histogram(timestamps) -> np.ndarray:
    """24-bin hour-of-day check-in counts."""
    return np.bincount(hours(np.asarray(timestamps, dtype=np.int64)), minlength=24)


def ols_fit(x, y) -> dict[str, float]:
    """Ordinary least squares of y on x plus Pearson correlation."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2 or len(set(x.tolist())) < 2:
        raise ValueError("need >= 2 distinct x values")
    sx = x - x.mean()
    sy = y - y.mean()
    # numpy's own pairwise sums: a BLAS dot product's bits can change with
    # its thread count.
    sxx = float(np.add.reduce(sx * sx))
    sxy = float(np.add.reduce(sx * sy))
    syy = float(np.add.reduce(sy * sy))
    slope = sxy / sxx
    intercept = float(y.mean() - slope * x.mean())
    r = sxy / math.sqrt(sxx * syy) if syy > 0 else 0.0
    return {"slope": slope, "intercept": intercept, "pearson_r": r}


def correlation_analysis(profiles: Profiles) -> dict[str, dict]:
    """The three scatter relations behind the observational analysis:
    leisure vs working counts, and each period's ratio vs profile size."""
    size, ratio = profiles.n_checkins, profiles.leisure_ratio
    return {
        "leisure_vs_working": ols_fit(profiles.n_working, profiles.n_leisure),
        "leisure_ratio_vs_size": ols_fit(size, ratio),
        "working_ratio_vs_size": ols_fit(size, 1.0 - ratio),
    }
