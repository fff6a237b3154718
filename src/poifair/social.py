"""Social influence: power-law friend check-in frequency and friend-based CF."""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import PairCounts
from .geo import distance_km

log = logging.getLogger(__name__)

BETA_MAX = 10.0
MIN_FIT_OBSERVATIONS = 10


@dataclass(frozen=True)
class PowerLawFit:
    beta: float
    x_min: float = 1.0


DEFAULT_FIT = PowerLawFit(beta=2.0)


def social_frequency(
    friends: np.ndarray, bounds: np.ndarray, poi: np.ndarray, n_pois: int
) -> tuple[np.ndarray, np.ndarray]:
    """The friends' POIs in order of first visit, and their total training
    check-ins at each POI code.

    Friend v's training POIs are `poi[bounds[v]:bounds[v + 1]]`, in time
    order; first visits are taken over `friends` in order, each in time
    order."""
    lo, hi = bounds[friends], bounds[friends + 1]
    n = hi - lo
    # The friends' row ranges lo:hi, concatenated.
    visited = poi[np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)]
    order = np.argsort(visited, kind="stable")
    first = order[np.diff(visited[order], prepend=-1) != 0]
    return visited[np.sort(first)], np.bincount(visited, minlength=n_pois)


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

    Python's float pow runs once per distinct x; np.power can differ from it
    in the last bit."""
    values, inverse = np.unique(np.asarray(x, dtype=float), return_inverse=True)
    e = 1.0 - fit.beta
    cdf = [0.0 if v < fit.x_min else 1.0 - (v / fit.x_min) ** e
           for v in values.tolist()]
    return np.array(cdf, dtype=float)[inverse]


def residences(visits: PairCounts) -> np.ndarray:
    """Each user's most visited training POI, ties to the smallest POI code;
    -1 for a user with none."""
    n = np.diff(visits.indptr)
    order = np.lexsort((-visits.count, np.repeat(np.arange(len(n)), n)))
    out = np.full(len(n), -1, dtype=np.intp)
    out[n > 0] = visits.col[order[visits.indptr[:-1][n > 0]]]
    return out


def fcf_score(
    u: int,
    friends: np.ndarray,
    visits: PairCounts,
    residence: np.ndarray,
    lats: np.ndarray,
    lons: np.ndarray,
) -> np.ndarray:
    """Similarity-weighted mean of friends' check-in counts at each POI code.

    sim(u, v) = 1 / (1 + km distance between residences), computed once per
    friend with a residence. Each POI's numerator adds the friends' terms in
    the order of `friends`, so it equals the sum taken one POI at a time."""
    num = np.zeros(len(lats))
    friends = friends[residence[friends] >= 0].tolist()
    ru = residence[u]
    if not friends or ru < 0:
        return num
    den = 0.0
    for v in friends:
        rv = residence[v]
        sim = 1.0 / (1.0 + distance_km(lats[ru], lons[ru], lats[rv], lons[rv]))
        pois, n = visits.row(v)
        num[pois] += sim * n
        den += sim
    return num / den
