"""Working/leisure period labelling, user temporal profiles, and fairness groups."""
from __future__ import annotations

import functools
import logging
import math
import operator
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
class UserTemporalProfile:
    user_id: str
    n_checkins: int
    n_working: int
    n_leisure: int
    leisure_ratio: float
    avg_popularity_consumption: float


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
) -> list[UserTemporalProfile]:
    """One temporal profile per user, computed on training check-ins only.

    A check-in is in the working period iff its hour falls in the half-open
    [start, end) of work_window. A user's popularity consumption is the mean
    popularity of their distinct POIs, added strictly left to right in
    poi_id order (the builtin sum() of floats is compensated from Python
    3.12 on).
    """
    start, end = work_window
    n_users = len(train.user_ids)
    h = hours(train.ts)
    working = (start <= h) & (h < end)
    n_all = np.bincount(train.user, minlength=n_users).tolist()
    n_work = np.bincount(train.user[working], minlength=n_users).tolist()
    # Sorted by user, then POI code, which is poi_id order.
    visits = train.visits()
    pops = popularity[visits.col].tolist()
    bounds = visits.indptr.tolist()
    profiles = []
    for u, user_id in enumerate(train.user_ids):
        n = n_all[u]
        if not n:
            log.warning("user %s has no training check-ins; excluded", user_id)
            continue
        lo, hi = bounds[u], bounds[u + 1]
        profiles.append(
            UserTemporalProfile(
                user_id=user_id,
                n_checkins=n,
                n_working=n_work[u],
                n_leisure=n - n_work[u],
                leisure_ratio=(n - n_work[u]) / n,
                avg_popularity_consumption=functools.reduce(
                    operator.add, pops[lo:hi], 0.0
                ) / (hi - lo),
            )
        )
    return profiles


def assign_groups(
    profiles: list[UserTemporalProfile], quantile: float = 0.2
) -> np.ndarray:
    """Each profile's int8 group label: LEISURE for the top quantile of users
    ranked by leisure-check-in ratio, WORKING for the bottom one, UNASSIGNED
    for the rest."""
    if len(profiles) < 5:
        raise ValueError("need at least 5 users to assign groups")
    if quantile > 0.5:
        raise ValueError("quantile > 0.5 makes the groups overlap")
    key = lambda i: (-profiles[i].leisure_ratio, profiles[i].user_id)
    ranked = sorted(range(len(profiles)), key=key)
    k = int(quantile * len(ranked))
    labels = np.full(len(profiles), UNASSIGNED, dtype=np.int8)
    labels[ranked[:k]] = LEISURE
    labels[ranked[len(ranked) - k :]] = WORKING
    return labels


def group_stats(
    labels: np.ndarray, profiles: list[UserTemporalProfile]
) -> list[GroupStats]:
    """Per fairness group, from each profile's group label."""
    out = []
    for name, label in (("leisure-focused", LEISURE), ("working-focused", WORKING)):
        ps = [p for p, g in zip(profiles, labels.tolist()) if g == label]
        if not ps:
            raise ValueError(f"empty group: {name}")
        out.append(
            GroupStats(
                group=name,
                n_checkins=sum(p.n_checkins for p in ps),
                avg_popularity_consumption=float(
                    np.mean([p.avg_popularity_consumption for p in ps])
                ),
                avg_activity_level=float(np.mean([p.n_checkins for p in ps])),
                n_users=len(ps),
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
    sxx = float(sx @ sx)
    slope = float(sx @ sy) / sxx
    intercept = float(y.mean() - slope * x.mean())
    syy = float(sy @ sy)
    r = float(sx @ sy) / math.sqrt(sxx * syy) if syy > 0 else 0.0
    return {"slope": slope, "intercept": intercept, "pearson_r": r}


def correlation_analysis(profiles: list[UserTemporalProfile]) -> dict[str, dict]:
    """The three scatter relations behind the observational analysis:
    leisure vs working counts, and each period's ratio vs profile size."""
    n_work = [p.n_working for p in profiles]
    n_leis = [p.n_leisure for p in profiles]
    size = [p.n_checkins for p in profiles]
    leis_ratio = [p.leisure_ratio for p in profiles]
    work_ratio = [1.0 - p.leisure_ratio for p in profiles]
    return {
        "leisure_vs_working": ols_fit(n_work, n_leis),
        "leisure_ratio_vs_size": ols_fit(size, leis_ratio),
        "working_ratio_vs_size": ols_fit(size, work_ratio),
    }
