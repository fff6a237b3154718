import functools
import math
import operator
import random

import numpy as np
import pytest

from poifair.metrics import (
    _mean,
    evaluate_run,
    fairness_summary,
    group_metrics,
    ranking_metrics,
)
from poifair.temporal import GroupAssignment

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
        assert gm.delta_ndcg_signed == pytest.approx(-0.2)


class TestGroupMetrics:
    def test_macro_average_is_flat_mean(self):
        rnd = random.Random(1)
        users = {f"u{i}": rnd.random() for i in range(30)}
        leisure = {f"u{i}" for i in range(0, 10)}
        working = {f"u{i}" for i in range(10, 20)}
        a = GroupAssignment(leisure, working, set(users) - leisure - working)
        gm = group_metrics(users, a)
        assert gm.ndcg_all == pytest.approx(sum(users.values()) / 30, abs=1e-12)
        assert gm.ndcg_leisure == pytest.approx(
            sum(users[u] for u in leisure) / 10, abs=1e-12
        )
        assert gm.ndcg_working == pytest.approx(
            sum(users[u] for u in working) / 10, abs=1e-12
        )

    def test_empty_group_errors(self):
        a = GroupAssignment({"u1"}, {"u2"}, set())
        with pytest.raises(ValueError):
            group_metrics({"u1": 0.5}, a)


class TestEvaluateRun:
    def assignment(self):
        return GroupAssignment({"l1", "l2"}, {"w1", "w2"}, set())

    def test_perfect_run_flags_undefined_acc_unf(self):
        recs = {u: ["a", "b"] for u in ("l1", "l2", "w1", "w2")}
        relevant = {u: {"a", "b"} for u in recs}
        rep = evaluate_run(recs, relevant, self.assignment(), 2, "m", "product")
        assert rep.ndcg == 1.0
        assert rep.delta_ndcg == 0.0
        assert rep.acc_unf is None

    def test_engineered_group_gap_recomputed_by_brute_force(self):
        # leisure users get a hit at rank 1, working users at rank 3
        recs = {
            "l1": ["hit", "x", "y"],
            "l2": ["hit", "x", "y"],
            "w1": ["x", "y", "hit"],
            "w2": ["x", "y", "hit"],
        }
        relevant = {u: {"hit"} for u in recs}
        rep = evaluate_run(recs, relevant, self.assignment(), 3, "m", "product")
        assert rep.ndcg_leisure == pytest.approx(1.0)
        assert rep.ndcg_working == pytest.approx(1.0 / math.log2(4))
        expected_delta = 1.0 - 1.0 / math.log2(4)
        assert rep.delta_ndcg == pytest.approx(expected_delta, abs=1e-12)

    def test_users_without_test_data_excluded(self):
        recs = {
            "l1": ["a"], "l2": ["a"], "w1": ["a"], "w2": ["a"], "ghost": ["a"],
        }
        relevant = {u: {"a"} for u in ("l1", "l2", "w1", "w2")}
        rep = evaluate_run(recs, relevant, self.assignment(), 1, "m", "product")
        assert rep.n_users_evaluated == 4
        assert rep.n_users_skipped == 1

    def test_all_users_skipped_errors(self):
        with pytest.raises(ValueError):
            evaluate_run({"u": ["a"]}, {}, self.assignment(), 1, "m", "product")
