"""Social influence: power-law friend check-in frequency and friend-based CF."""
from __future__ import annotations

import logging
import math
from typing import NamedTuple

import numpy as np

from .data import PairCounts, ranges
from .geo import distances_km

log = logging.getLogger(__name__)

BETA_MAX = 10.0
MIN_FIT_OBSERVATIONS = 10


class PowerLawFit(NamedTuple):
    beta: float
    x_min: float = 1.0


DEFAULT_FIT = PowerLawFit(beta=2.0)


def _friend_keys(
    friends: PairCounts, users: np.ndarray, bounds: np.ndarray, poi: np.ndarray,
    n_pois: int,
) -> np.ndarray:
    """For a block of user codes, the key `row * n_pois + poi` of each of
    their friends' training check-ins, row by row, each row's friends in
    ascending code order and each friend's check-ins in time order.

    Row u of `friends` holds u's friends; friend v's training POIs are
    `poi[bounds[v]:bounds[v + 1]]`, in time order."""
    row, v, _ = friends.rows(users)
    at, of = ranges(bounds[v], bounds[v + 1])
    return row[of] * n_pois + poi[at]


def social_frequency(
    friends: PairCounts, users: np.ndarray, bounds: np.ndarray, poi: np.ndarray,
    n_pois: int,
) -> np.ndarray:
    """For a block of user codes: their friends' total training check-ins at
    each POI code, (users, n_pois)."""
    keys = _friend_keys(friends, users, bounds, poi, n_pois)
    return np.bincount(keys, minlength=len(users) * n_pois).reshape(len(users), n_pois)


def friend_totals(
    friends: PairCounts, users: np.ndarray, bounds: np.ndarray, poi: np.ndarray,
    n_pois: int,
) -> np.ndarray:
    """For a block of user codes, row by row: their friends' total training
    check-ins at each POI those friends visited, in first-visit order (see
    `_friend_keys`). The runs of the stably sorted keys are the totals, and
    each run's first key is its first visit, so no (users, n_pois) array is
    built."""
    keys = _friend_keys(friends, users, bounds, poi, n_pois)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # run[i]: keys[i] starts a run; run[-1] closes the last one.
    run = np.ones(len(keys) + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=run[1:-1])
    at = np.flatnonzero(run)
    return np.diff(at)[np.argsort(order[at[:-1]])]


def fit_power_law(chunks) -> PowerLawFit:
    """Continuous-approximation MLE with x_min = 1, exponent clamped to (1, 10],
    over the observations of every array in `chunks`; `DEFAULT_FIT`, the power
    law used with fewer than `MIN_FIT_OBSERVATIONS` observations.

    The log-sum adds Python's `math.log` of each observation strictly in input
    order across chunks; the log runs once per distinct value of a chunk."""
    n, log_sum = 0, 0.0
    for chunk in chunks:
        xs = np.asarray(chunk, dtype=float)
        if (xs < 1.0).any():
            raise ValueError("frequencies must be >= x_min = 1")
        values, inverse = np.unique(xs, return_inverse=True)
        logs = np.array([math.log(v) for v in values.tolist()])
        log_sum = float(np.add.accumulate(np.concatenate(([log_sum], logs[inverse])))[-1])
        n += len(xs)
    if n < MIN_FIT_OBSERVATIONS:
        log.warning("too few positive frequencies (%d); using beta=2", n)
        return DEFAULT_FIT
    if log_sum <= 0.0:
        log.warning("all observations at x_min; exponent clamped to %s", BETA_MAX)
        return PowerLawFit(beta=BETA_MAX)
    beta = 1.0 + n / log_sum
    return PowerLawFit(beta=min(beta, BETA_MAX))


def power_law_score(fit: PowerLawFit, x) -> np.ndarray:
    """CDF-as-relevance of each x: 0 below x_min, else 1 - (x/x_min)^(1-beta).

    Python's float pow runs once per distinct x from x_min up; np.power can
    differ from it in the last bit."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    at = ~(x < fit.x_min)
    values, inverse = np.unique(x[at], return_inverse=True)
    e = 1.0 - fit.beta
    out[at] = np.array([1.0 - (v / fit.x_min) ** e for v in values.tolist()], dtype=float)[inverse]
    return out


def residences(visits: PairCounts) -> np.ndarray:
    """Each user's most visited training POI, ties to the smallest POI code;
    -1 for a user with none."""
    n = np.diff(visits.indptr)
    order = np.lexsort((-visits.count, np.repeat(np.arange(len(n)), n)))
    out = np.full(len(n), -1, dtype=np.intp)
    out[n > 0] = visits.col[order[visits.indptr[:-1][n > 0]]]
    return out


def fcf_score(
    users: np.ndarray,
    friends: PairCounts,
    visits: PairCounts,
    residence: np.ndarray,
    lats: np.ndarray,
    lons: np.ndarray,
) -> np.ndarray:
    """For a block of user codes, (users, n_pois): the similarity-weighted
    mean of the friends' check-in counts at each POI code; 0 for a user
    without a residence or without a friend who has one.

    sim(u, v) = 1 / (1 + km distance between residences), once per (user,
    friend) pair. The numerators and denominators add one friend rank per
    pass, friends in ascending code order, so each POI adds its terms in the
    order of a sum taken one user and one POI at a time."""
    num = np.zeros((len(users), len(lats)))
    row, v, _ = friends.rows(users)
    ru, rv = residence[users][row], residence[v]
    keep = np.flatnonzero((ru >= 0) & (rv >= 0))
    if not len(keep):
        return num
    row, v, ru, rv = row[keep], v[keep], ru[keep], rv[keep]
    sim = 1.0 / (1.0 + distances_km(lats[ru], lons[ru], lats[rv], lons[rv]))
    # Rows are ascending: a pair's rank is its offset from its row's first.
    rank = np.arange(len(row)) - np.searchsorted(row, row)
    den = np.zeros(len(users))
    for r in range(int(rank.max()) + 1):
        at = np.flatnonzero(rank == r)
        b, s = row[at], sim[at]
        of, pois, n = visits.rows(v[at])
        num[b[of], pois] += s[of] * n
        den[b] += s
    has = np.flatnonzero(np.bincount(row, minlength=len(users)))
    num[has] /= den[has, None]
    return num
