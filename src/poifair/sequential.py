"""Sequential influence: location-location transition graph plus additive
Markov chain scoring over a user's recent history."""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .data import Dataset, PairCounts

SESSION_GAP_HOURS = 24.0
AMC_DECAY = 0.5
AMC_MEMORY = 5


@dataclass(frozen=True)
class TransitionGraph:
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
    history: np.ndarray,
    candidates: np.ndarray,
    alpha: float = AMC_DECAY,
    memory: int = AMC_MEMORY,
) -> np.ndarray:
    """Decay-weighted sum of transition probabilities from the most recent
    history POIs (history most-recent-last) into each candidate POI code.

    History POIs with no out-edges contribute 0 but still consume weight.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if memory < 1:
        raise ValueError("memory must be >= 1")
    recent = np.asarray(history)[::-1][:memory].tolist()
    acc = np.zeros(len(g.indptr) - 1)
    for w, src in zip(_amc_weights(len(recent), alpha), recent):
        lo, hi = g.indptr[src], g.indptr[src + 1]
        acc[g.dst[lo:hi]] += w * g.prob[lo:hi]
    return acc[candidates]
