"""Sequential influence: location-location transition graph plus additive
Markov chain scoring over a user's recent history."""
from __future__ import annotations

import functools
import operator
from typing import NamedTuple

import numpy as np

from .data import Dataset, PairCounts, ranges

SESSION_GAP_HOURS = 24.0
AMC_DECAY = 0.5
AMC_MEMORY = 5


class TransitionGraph(NamedTuple):
    """Transitions between POI codes as CSR rows by source: source s moves to
    `dst[indptr[s]:indptr[s + 1]]` with probability `prob`, its count over
    s's out-total."""

    indptr: np.ndarray
    dst: np.ndarray
    prob: np.ndarray


def transition_graph(src: np.ndarray, dst: np.ndarray, n_pois: int) -> TransitionGraph:
    """The graph of the transitions src[i] -> dst[i]."""
    pairs = PairCounts.of(src, dst, n_pois, n_pois)
    out_total = np.bincount(src, minlength=n_pois)
    source = np.repeat(np.arange(n_pois), np.diff(pairs.indptr))
    return TransitionGraph(pairs.indptr, pairs.col, pairs.count / out_total[source])


def build_l2tg(
    train: Dataset, session_gap_hours: float = SESSION_GAP_HOURS
) -> TransitionGraph:
    """Count consecutive same-user POI transitions within the session gap;
    `train` is sorted by (user, time)."""
    step = (train.user[1:] == train.user[:-1]) & (
        np.diff(train.ts) <= session_gap_hours * 3600.0
    )
    return transition_graph(train.poi[:-1][step], train.poi[1:][step], len(train.poi_ids))


def _amc_weights(k: int, alpha: float) -> list[float]:
    raw = [alpha**i for i in range(1, k + 1)]
    # Left to right: the builtin sum() of floats is compensated from Python
    # 3.12 on.
    total = functools.reduce(operator.add, raw, 0.0)
    return [w / total for w in raw]


def amc_scores(
    g: TransitionGraph,
    poi: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    alpha: float = AMC_DECAY,
    memory: int = AMC_MEMORY,
) -> np.ndarray:
    """For a block of histories, row b's being `poi[lo[b]:hi[b]]` oldest
    first, (rows, n_pois): the decay-weighted sum of transition
    probabilities from the most recent `memory` history POIs into each POI
    code.

    History POIs with no out-edges contribute 0 but still consume weight.
    One pass per history step, most recent first, so each POI adds its
    terms in the order of a sum over one history at a time."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if memory < 1:
        raise ValueError("memory must be >= 1")
    k = np.minimum(hi - lo, memory)
    steps = int(k.max(initial=0))
    # weights[n, i]: the weight of step i in a history of n steps.
    weights = np.zeros((steps + 1, steps))
    for n in range(1, steps + 1):
        weights[n, :n] = _amc_weights(n, alpha)
    acc = np.zeros((len(k), len(g.indptr) - 1))
    for i in range(steps):
        b = np.flatnonzero(k > i)
        src = poi[hi[b] - 1 - i]
        at, of = ranges(g.indptr[src], g.indptr[src + 1])
        acc[b[of], g.dst[at]] += weights[k[b], i][of] * g.prob[at]
    return acc
