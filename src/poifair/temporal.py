"""Working/leisure period labelling, user temporal profiles, and fairness groups."""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset

log = logging.getLogger(__name__)

WORK_START_HOUR = 8
WORK_END_HOUR = 18

UNASSIGNED, LEISURE, WORKING = 0, 1, 2  # group labels


def hours(timestamps: np.ndarray) -> np.ndarray:
    """Hour of day of each timestamp; timestamps are already-local epoch
    seconds."""
    return timestamps // 3600 % 24


@dataclass(frozen=True)
class Profiles:
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


@dataclass(frozen=True)
class GroupStats:
    group: str
    n_checkins: int
    avg_popularity_consumption: float
    avg_activity_level: float
    n_users: int


def poi_popularity(train: Dataset) -> np.ndarray:
    """Fraction of users that visited each POI in the training split, by POI
    code."""
    n_pois = len(train.poi_ids)
    return np.bincount(train.visits().col, minlength=n_pois) / len(train.user_ids)


def build_profiles(
    train: Dataset,
    popularity: np.ndarray,
    work_window: tuple[int, int] = (WORK_START_HOUR, WORK_END_HOUR),
) -> Profiles:
    """The temporal profiles of the users with training check-ins.

    A check-in is in the working period iff its hour falls in the half-open
    [start, end) of work_window. A user's popularity consumption is the mean
    popularity of their distinct POIs, added strictly left to right in
    poi_id order (the builtin sum() of floats is compensated from Python
    3.12 on): pass j adds every user's j-th POI.
    """
    start, end = work_window
    n_users = len(train.user_ids)
    n_all = np.bincount(train.user, minlength=n_users)
    user = np.flatnonzero(n_all)
    if len(user) < n_users:
        log.warning("%d users have no training check-ins; excluded", n_users - len(user))
    n = n_all[user]
    h = hours(train.ts)
    n_work = np.bincount(train.user[(start <= h) & (h < end)], minlength=n_users)[user]
    del h  # an int64 per check-in, not held while the visits are built
    # Each user's row is sorted by POI code, which is poi_id order.
    visits = train.visits()
    first, n_distinct = visits.indptr[user], np.diff(visits.indptr)[user]
    total = np.zeros(len(user))
    for j in range(n_distinct.max(initial=0)):
        more = n_distinct > j
        total[more] += popularity[visits.col[first[more] + j]]
    return Profiles(user, n, n_work, (n - n_work) / n, total / n_distinct)


def assign_groups(profiles: Profiles, n_users: int, quantile: float = 0.2) -> np.ndarray:
    """The int8 group label of each of n_users user codes: LEISURE for the
    top quantile of profiles ranked by leisure-check-in ratio, ties in user
    code order, WORKING for the bottom one, UNASSIGNED for the rest and for
    users without a profile."""
    n = len(profiles.user)
    if n < 5:
        raise ValueError("need at least 5 users to assign groups")
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
            raise ValueError(f"empty group: {name}")
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
