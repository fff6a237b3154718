import math
import random

import numpy as np
import pytest

from poifair.sequential import _amc_weights, amc_scores, build_l2tg, transition_graph

import oracles
from conftest import make_checkin, make_train
from oracles import amc_score, transition_counts

H = 3600
# POI codes of the hand-built graphs below.
A, B, C, X = range(4)


def seq(user, path):
    """path: [(poi, ts_hours), ...]"""
    return [make_checkin(user, p, int(t * H)) for p, t in path]


def graph_view(g, poi_ids):
    """{src: {dst: probability}} by POI id over every source with an
    out-edge."""
    view = {}
    for s, src in enumerate(poi_ids):
        lo, hi = g.indptr[s], g.indptr[s + 1]
        if hi > lo:
            view[src] = {
                poi_ids[d]: p for d, p in zip(g.dst[lo:hi].tolist(), g.prob[lo:hi].tolist())
            }
    return view


def assert_graph_counts(g, poi_ids, counts):
    """g holds exactly the transition counts `counts` ({(src, dst): n})."""
    totals = {}
    for (src, _), n in counts.items():
        totals[src] = totals.get(src, 0) + n
    edges = {
        src: {d: n / total for (s, d), n in counts.items() if s == src}
        for src, total in sorted(totals.items())
    }
    assert graph_view(g, poi_ids) == edges


def graph(edges, n_pois):
    """The transition graph of [(src, dst, n), ...] over POI codes."""
    pairs = [(s, d) for s, d, n in edges for _ in range(n)]
    src, dst = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return transition_graph(src, dst, n_pois)


class TestBuild:
    def test_simple_chain(self):
        train = make_train(seq("u", [("A", 1), ("B", 2), ("C", 3)]))
        g = build_l2tg(train)
        assert_graph_counts(g, train.poi_ids, {("A", "B"): 1, ("B", "C"): 1})
        assert g.indptr.tolist() == [0, 1, 2, 2]

    def test_session_gap_cut(self):
        train = make_train(seq("u", [("A", 1), ("B", 2), ("C", 33)]))
        g = build_l2tg(train, session_gap_hours=24)
        assert_graph_counts(g, train.poi_ids, {("A", "B"): 1})

    def test_empty_graph_legal(self):
        train = make_train(seq("u", [("A", 1)]) + seq("v", [("B", 1)]))
        g = build_l2tg(train)
        assert_graph_counts(g, train.poi_ids, {})

    def test_random_sequences_match_pair_scan(self):
        rnd = random.Random(31)
        train = {}
        for i in range(100):
            t = 0.0
            path = []
            for _ in range(rnd.randrange(2, 12)):
                t += rnd.uniform(0.5, 40.0)
                path.append((f"p{rnd.randrange(10)}", t))
            train[f"u{i}"] = seq(f"u{i}", path)
        cols = make_train([c for s in train.values() for c in s])
        g = build_l2tg(cols, session_gap_hours=24)
        assert_graph_counts(g, cols.poi_ids, transition_counts(train, 24))
        want = oracles.build_l2tg(train, 24)
        assert graph_view(g, cols.poi_ids) == {
            s: want.out_edges(s) for s in sorted(want.out_totals)
        }

    def test_user_permutation_invariance(self):
        paths = {
            "u1": [("A", 1), ("B", 2)],
            "u2": [("B", 1), ("C", 2)],
            "u3": [("A", 5), ("C", 6)],
        }
        t1 = make_train([c for u, p in paths.items() for c in seq(u, p)])
        t2 = make_train([c for u in reversed(sorted(paths)) for c in seq(u, paths[u])])
        assert graph_view(build_l2tg(t1), t1.poi_ids) == graph_view(
            build_l2tg(t2), t2.poi_ids
        )


def amc(g, history, candidates, **kw):
    """amc_scores of one history, at the candidate POI codes."""
    history = np.asarray(history, dtype=np.intp)
    (scores,) = amc_scores(g, history, np.array([0]), np.array([len(history)]), **kw)
    return scores[np.asarray(candidates, dtype=np.intp)]


class TestScore:
    def test_single_deterministic_transition(self):
        g = graph([(A, B, 1)], 2)
        assert amc(g, [A], [B]).tolist() == [pytest.approx(1.0)]

    def test_absent_edge(self):
        g = graph([(A, B, 1)], 3)
        assert amc(g, [A], [C]).tolist() == [0.0]

    def test_worked_two_step_example(self):
        # weights for k=2 at alpha=0.5: (2/3, 1/3); X has no out-edges
        g = graph([(A, B, 3), (A, C, 1)], 4)
        score = amc(g, [X, A], [B], alpha=0.5, memory=5)
        assert score.tolist() == [pytest.approx(0.5)]

    @pytest.mark.parametrize("alpha, k, total", [
        (0.3, 3, 0.41700000000000004), (0.3, 5, 0.42753),
        (0.7, 4, 1.7731), (0.9, 5, 3.68559),
    ])
    def test_weights_total_is_added_left_to_right(self, alpha, k, total):
        """Each total is alpha + alpha**2 + ... added left to right; a
        compensated sum, as the builtin sum() of floats is from Python 3.12
        on, differs in the last bit."""
        raw = [alpha**i for i in range(1, k + 1)]
        assert math.fsum(raw) != total
        assert _amc_weights(k, alpha) == [w / total for w in raw]

    def test_empty_history(self):
        g = graph([], 1)
        assert amc(g, [], [A]).tolist() == [0.0]

    def test_parameter_validation(self):
        g = graph([], 2)
        with pytest.raises(ValueError):
            amc(g, [A], [B], alpha=1.5)
        with pytest.raises(ValueError):
            amc(g, [A], [B], memory=0)

    def test_rows_sum_to_one(self):
        rnd = random.Random(5)
        g = graph(
            [(rnd.randrange(15), rnd.randrange(15), rnd.randrange(1, 4)) for _ in range(200)],
            15,
        )
        for s in np.flatnonzero(np.diff(g.indptr)):
            total = g.prob[g.indptr[s]:g.indptr[s + 1]].sum()
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_score_mass_bounded_by_one(self):
        rnd = random.Random(6)
        nodes = list(range(12))
        g = graph([(rnd.choice(nodes), rnd.choice(nodes), 1) for _ in range(300)], 12)
        history = [rnd.choice(nodes) for _ in range(8)]
        total = amc(g, history, nodes).sum()
        assert total <= 1.0 + 1e-9
        # every history node has out-edges here -> equality
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_vectorized_matches_scalar(self):
        rnd = random.Random(8)
        edges = [(rnd.randrange(10), rnd.randrange(10), 1) for _ in range(100)]
        g = graph(edges, 10)
        by_id = oracles.TransitionGraph()
        for s, d, n in edges:
            by_id.add(f"p{s}", f"p{d}", n)
        history = [rnd.randrange(10) for _ in range(7)]
        batch = amc(g, history, list(range(10)))
        for p, s in enumerate(batch.tolist()):
            assert s == amc_score(by_id, [f"p{h}" for h in history], f"p{p}")
