import functools
import math
import operator
import random

import numpy as np
import pytest

from poifair.data import PairCounts
from poifair.metrics import (
    _mean,
    evaluate_run,
    fairness_summary,
    group_metrics,
    hit_matrix,
    ranking_metrics,
)
from poifair.pipeline import user_metrics
from poifair.temporal import LEISURE, UNASSIGNED, WORKING

import oracles


def brute_force_metrics(recommended, relevant, n):
    """Independent oracle: explicit loops, no shared code paths."""
    top = list(recommended)[:n]
    hits = sum(1 for p in top if p in relevant)
    precision = hits / n
    recall = hits / len(relevant) if relevant else 0.0
    dcg = 0.0
    for i, p in enumerate(top):
        if p in relevant:
            dcg += 1.0 / math.log2(i + 2)
    idcg = 0.0
    for i in range(min(n, len(relevant))):
        idcg += 1.0 / math.log2(i + 2)
    ndcg = dcg / idcg if idcg else 0.0
    return precision, recall, ndcg


def list_metrics(recommended, relevant, n) -> oracles.RankingMetrics:
    """ranking_metrics of one list, built as one hit row."""
    hits = np.zeros((1, len(recommended[:n])), dtype=bool)
    hits[0] = [p in relevant for p in recommended[:n]]
    m = ranking_metrics(hits, [len(relevant)], n)
    return oracles.RankingMetrics(
        precision=float(m.precision[0]), recall=float(m.recall[0]), ndcg=float(m.ndcg[0])
    )


class TestRankingMetrics:
    def test_perfect_ranking(self):
        m = list_metrics(["a", "b", "c"], {"a", "b", "c", "d"}, 3)
        assert m.precision == 1.0
        assert m.ndcg == 1.0

    def test_zero_hits(self):
        m = list_metrics(["x", "y"], {"a"}, 2)
        assert (m.precision, m.recall, m.ndcg) == (0.0, 0.0, 0.0)

    def test_single_hit_at_rank_two(self):
        m = list_metrics(["x", "a"], {"a"}, 2)
        assert m.ndcg == pytest.approx(1.0 / math.log2(3), abs=1e-9)
        assert m.ndcg == pytest.approx(0.6309, abs=5e-5)

    def test_empty_relevant(self):
        m = list_metrics(["a"], set(), 1)
        assert m.recall == 0.0

    def test_bad_cutoff(self):
        with pytest.raises(ValueError):
            ranking_metrics(np.ones((1, 1), dtype=bool), [1], 0)

    def test_bounds_and_oracle_equivalence(self):
        rnd = random.Random(99)
        items = [f"p{i}" for i in range(50)]
        for _ in range(300):
            recs = rnd.sample(items, rnd.randrange(1, 30))
            relevant = set(rnd.sample(items, rnd.randrange(0, 20)))
            n = rnd.randrange(1, 25)
            m = list_metrics(recs, relevant, n)
            p, r, nd = brute_force_metrics(recs, relevant, n)
            assert m.precision == p
            assert m.recall == r
            assert abs(m.ndcg - nd) <= 1e-12
            assert 0 <= m.precision <= 1 and 0 <= m.recall <= 1 and 0 <= m.ndcg <= 1

    def test_ndcg_one_iff_top_ranks_are_hits(self):
        assert list_metrics(["a", "b", "x"], {"a", "b"}, 3).ndcg == 1.0
        assert list_metrics(["a", "x", "b"], {"a", "b"}, 3).ndcg < 1.0


def test_mean_adds_left_to_right():
    """A compensated sum, as the builtin sum() of floats is from Python 3.12
    on, keeps the tiny terms; adding left to right absorbs each one into 1.0."""
    values = [1.0] + [1e-16] * 10
    assert math.fsum(values) != functools.reduce(operator.add, values)
    assert _mean(values) == functools.reduce(operator.add, values) / len(values)


class TestFairnessSummary:
    def test_published_row_arithmetic(self):
        gm = fairness_summary(0.0368, 0.0679, 0.0226)
        assert gm.delta_ndcg == pytest.approx(0.0453, abs=5e-4)
        assert gm.acc_unf == pytest.approx(0.8123, abs=5e-4)

    def test_relative_improvement(self):
        gm = fairness_summary(0.0354, 0.061, 0.0224, baseline_delta=0.0453)
        assert gm.pct_delta == pytest.approx(0.1479, abs=5e-4)

    def test_zero_delta_flagged(self):
        gm = fairness_summary(1.0, 1.0, 1.0)
        assert gm.delta_ndcg == 0.0
        assert gm.acc_unf is None

    def test_sign_retained(self):
        gm = fairness_summary(0.5, 0.2, 0.4)
        assert gm.delta_ndcg == pytest.approx(0.2)


class TestGroupMetrics:
    def test_macro_average_is_flat_mean(self):
        rnd = random.Random(1)
        ndcg = np.array([rnd.random() for _ in range(30)])
        labels = np.array([LEISURE] * 10 + [WORKING] * 10 + [UNASSIGNED] * 10)
        gm = group_metrics(ndcg, labels)
        assert gm.ndcg_all == pytest.approx(sum(ndcg) / 30, abs=1e-12)
        assert gm.ndcg_leisure == pytest.approx(sum(ndcg[:10]) / 10, abs=1e-12)
        assert gm.ndcg_working == pytest.approx(sum(ndcg[10:20]) / 10, abs=1e-12)

    def test_empty_group_errors(self):
        with pytest.raises(ValueError):
            group_metrics(np.array([0.5]), np.array([LEISURE]))


class TestEvaluateRun:
    labels = np.array([LEISURE, LEISURE, WORKING, WORKING])

    def test_perfect_run_flags_undefined_acc_unf(self):
        m = ranking_metrics(np.ones((4, 2), dtype=bool), np.full(4, 2), 2)
        rep = evaluate_run(m, self.labels, 0, 2, "m", "product")
        assert rep.ndcg == 1.0
        assert rep.delta_ndcg == 0.0
        assert rep.acc_unf is None

    def test_engineered_group_gap_recomputed_by_brute_force(self):
        # leisure users get a hit at rank 1, working users at rank 3
        hits = np.array([[1, 0, 0], [1, 0, 0], [0, 0, 1], [0, 0, 1]], dtype=bool)
        m = ranking_metrics(hits, np.ones(4, dtype=int), 3)
        rep = evaluate_run(m, self.labels, 0, 3, "m", "product")
        assert rep.ndcg_leisure == pytest.approx(1.0)
        assert rep.ndcg_working == pytest.approx(1.0 / math.log2(4))
        expected_delta = 1.0 - 1.0 / math.log2(4)
        assert rep.delta_ndcg == pytest.approx(expected_delta, abs=1e-12)

    def test_users_without_test_data_excluded(self):
        # POI 0 is relevant to users 0-3 and heads every list; user 4 has
        # no relevant POI.
        relevant = PairCounts.of(np.arange(4), np.zeros(4, dtype=int), 5, 1)
        kept, m = user_metrics(relevant, np.arange(5), np.zeros((5, 1), dtype=np.int32), [1])
        labels = np.append(self.labels, UNASSIGNED)
        rep = evaluate_run(m[1], labels[kept], 5 - len(kept), 1, "m", "product")
        assert kept.tolist() == [0, 1, 2, 3]
        assert rep.ndcg == 1.0
        assert rep.n_users_evaluated == 4
        assert rep.n_users_skipped == 1

    def test_all_users_skipped_errors(self):
        relevant = PairCounts.of(np.array([], dtype=int), np.array([], dtype=int), 1, 1)
        kept, m = user_metrics(relevant, np.arange(1), np.zeros((1, 1), dtype=np.int32), [1])
        with pytest.raises(ValueError, match="no users with nonempty test sets"):
            evaluate_run(m[1], np.array([LEISURE])[kept], 1, 1, "m", "product")


class TestHitMatrix:
    def test_padding_is_never_a_hit(self):
        # POI 2 is relevant to user 0; user 1's list is one POI long, padded
        # with -1, whose key 1 * 3 - 1 is user 0's (0, 2).
        relevant = PairCounts.of(np.array([0, 1]), np.array([2, 0]), 2, 3)
        top = np.array([[1, 2], [0, -1]])
        assert hit_matrix(relevant, np.array([0, 1]), top).tolist() == [
            [False, True], [True, False],
        ]

    def test_users_broadcast_over_trailing_axes(self):
        # Two rows of lists per user, as the weighted-sum grid has.
        relevant = PairCounts.of(np.array([0, 1]), np.array([2, 0]), 2, 3)
        top = np.array([[[1, 2], [2, 0]], [[0, -1], [2, 1]]])
        assert hit_matrix(relevant, np.array([0, 1]), top).tolist() == [
            [[False, True], [True, False]], [[True, False], [False, False]],
        ]

    def test_no_relevant_pairs(self):
        relevant = PairCounts.of(np.array([], dtype=int), np.array([], dtype=int), 2, 3)
        top = np.array([[0, 1], [2, -1]])
        assert not hit_matrix(relevant, np.array([0, 1]), top).any()
