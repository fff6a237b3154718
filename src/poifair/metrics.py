"""Ranking metrics and group-fairness aggregation."""
from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import NamedTuple

import numpy as np

from .data import PairCounts
from .temporal import LEISURE, WORKING


class RankingMetrics(NamedTuple):
    """Per-list metrics at cutoff n, shaped as the lists' leading axes:
    (users,) for one list a user, (users, rows) for a grid's. Each list's
    hit count and nDCG are kept; precision and recall are derived from the
    hit count when read. n_relevant broadcasts against n_hits."""

    n_hits: np.ndarray
    n_relevant: np.ndarray
    n: int
    ndcg: np.ndarray

    @property
    def precision(self) -> np.ndarray:
        return self.n_hits / self.n

    @property
    def recall(self) -> np.ndarray:
        recall = np.zeros(self.n_hits.shape)
        np.divide(self.n_hits, self.n_relevant, out=recall, where=self.n_relevant > 0)
        return recall


class GroupMetrics(NamedTuple):
    ndcg_all: float
    ndcg_leisure: float
    ndcg_working: float
    delta_ndcg: float  # |ndcg_leisure - ndcg_working|
    acc_unf: float | None  # None when delta is exactly 0
    pct_delta: float | None  # None when no baseline supplied


def ranking_metrics(hits: np.ndarray, n_relevant: np.ndarray, n: int) -> RankingMetrics:
    """Precision/recall/nDCG at cutoff n with binary gains, one value per list.

    hits is a (..., width) bool array, True where a list's item at that
    rank is relevant; a list has no hit past its width, which n may exceed.
    n_relevant, each list's number of relevant items, broadcasts against
    the leading axes of hits. The DCG discount is 1/log2(rank+1) with
    1-indexed ranks; IDCG assumes min(n, n_relevant) hits at the top. DCG
    adds one rank column at a time, left to right, and IDCG is a sequential
    prefix sum, so each list's values equal the scalar sums taken in rank
    order. Discounts are taken only up to the hit columns and the longest
    ideal list, so a cutoff far past both costs nothing."""
    if n < 1:
        raise ValueError("cutoff must be >= 1")
    hits = np.asarray(hits, dtype=bool)[..., :n]
    n_relevant = np.asarray(n_relevant, dtype=np.intp)
    ideal = np.minimum(n, n_relevant)
    ranks = max(hits.shape[-1], int(ideal.max(initial=0)))
    discounts = [1.0 / math.log2(rank + 1) for rank in range(1, ranks + 1)]
    dcg = np.zeros(hits.shape[:-1])
    for j in range(hits.shape[-1]):
        dcg[hits[..., j]] += discounts[j]
    idcg = np.array(list(itertools.accumulate(discounts, initial=0.0)))[ideal]
    ndcg = np.zeros(dcg.shape)
    np.divide(dcg, idcg, out=ndcg, where=idcg > 0)
    return RankingMetrics(hits.sum(axis=-1, dtype=np.int32), n_relevant, n, ndcg)


def fairness_summary(
    ndcg_all: float,
    ndcg_leisure: float,
    ndcg_working: float,
    baseline_delta: float | None = None,
) -> GroupMetrics:
    """Fairness columns from already-aggregated group nDCG values."""
    delta = abs(ndcg_leisure - ndcg_working)
    acc_unf = ndcg_all / delta if delta > 0 else None
    if baseline_delta is None:
        pct = None
    elif baseline_delta == 0:
        pct = 0.0
    else:
        pct = (baseline_delta - delta) / baseline_delta
    return GroupMetrics(
        ndcg_all=ndcg_all,
        ndcg_leisure=ndcg_leisure,
        ndcg_working=ndcg_working,
        delta_ndcg=delta,
        acc_unf=acc_unf,
        pct_delta=pct,
    )


def _mean(values) -> float:
    """Mean with the values added strictly left to right: the builtin sum()
    of floats is compensated from Python 3.12 on."""
    return functools.reduce(operator.add, values, 0.0) / len(values)


def group_metrics(
    ndcg: np.ndarray, labels: np.ndarray, baseline_delta: float | None = None
) -> GroupMetrics:
    """Macro-averaged nDCG overall and per fairness group; users in code order."""
    leisure = ndcg[labels == LEISURE].tolist()
    working = ndcg[labels == WORKING].tolist()
    if not leisure or not working:
        raise ValueError("both fairness groups must be nonempty")
    return fairness_summary(
        ndcg_all=_mean(ndcg.tolist()),
        ndcg_leisure=_mean(leisure),
        ndcg_working=_mean(working),
        baseline_delta=baseline_delta,
    )


class EvalReport(NamedTuple):
    model: str
    fusion: str
    cutoff: int
    precision: float
    recall: float
    ndcg: float
    ndcg_leisure: float
    ndcg_working: float
    delta_ndcg: float
    pct_delta: float | None
    acc_unf: float | None
    n_users_evaluated: int
    n_users_skipped: int


def hit_matrix(relevant: PairCounts, users, top: np.ndarray) -> np.ndarray:
    """Whether POI code top[i, ...] is relevant to user code users[i]; -1,
    which pads a short list, never is."""
    users = np.asarray(users).reshape((-1,) + (1,) * (top.ndim - 1))
    return relevant.contains(users, top) & (top >= 0)


def evaluate_run(
    metrics: RankingMetrics,
    labels: np.ndarray,
    n_skipped: int,
    cutoff: int,
    model: str,
    fusion: str,
    baseline_delta: float | None = None,
) -> EvalReport:
    """One report row: the per-user metrics of the users with a relevant
    POI, in user code order, macro-averaged; labels are those users' groups
    and n_skipped counts the ranked users left out for want of one."""
    if not len(labels):
        raise ValueError("no users with nonempty test sets")
    gm = group_metrics(metrics.ndcg, labels, baseline_delta)
    return EvalReport(
        model=model,
        fusion=fusion,
        cutoff=cutoff,
        precision=_mean(metrics.precision.tolist()),
        recall=_mean(metrics.recall.tolist()),
        ndcg=gm.ndcg_all,
        ndcg_leisure=gm.ndcg_leisure,
        ndcg_working=gm.ndcg_working,
        delta_ndcg=gm.delta_ndcg,
        pct_delta=gm.pct_delta,
        acc_unf=gm.acc_unf,
        n_users_evaluated=len(labels),
        n_users_skipped=n_skipped,
    )
