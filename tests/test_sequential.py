import random

import pytest

from poifair.sequential import TransitionGraph, amc_scores, build_l2tg

from conftest import make_checkin
from oracles import amc_score, transition_counts

H = 3600


def seq(user, path):
    """path: [(poi, ts_hours), ...]"""
    return [make_checkin(user, p, int(t * H)) for p, t in path]


def graph_view(g):
    """(out_totals, {src: out_edges}) over every source with an out-edge."""
    totals = {s: n for s, n in g.out_totals.items() if n}
    return totals, {s: g.out_edges(s) for s in sorted(totals)}


def assert_graph_counts(g, counts):
    """g holds exactly the transition counts `counts` ({(src, dst): n})."""
    totals = {}
    for (src, _), n in counts.items():
        totals[src] = totals.get(src, 0) + n
    edges = {
        src: {d: n / total for (s, d), n in counts.items() if s == src}
        for src, total in sorted(totals.items())
    }
    assert graph_view(g) == (totals, edges)


class TestBuild:
    def test_simple_chain(self):
        train = {"u": seq("u", [("A", 1), ("B", 2), ("C", 3)])}
        g = build_l2tg(train)
        assert_graph_counts(g, {("A", "B"): 1, ("B", "C"): 1})
        assert g.out_totals["A"] == 1

    def test_session_gap_cut(self):
        train = {"u": seq("u", [("A", 1), ("B", 2), ("C", 33)])}
        g = build_l2tg(train, session_gap_hours=24)
        assert_graph_counts(g, {("A", "B"): 1})

    def test_empty_graph_legal(self):
        g = build_l2tg({})
        assert_graph_counts(g, {})

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
        g = build_l2tg(train, session_gap_hours=24)
        assert_graph_counts(g, transition_counts(train, 24))

    def test_user_permutation_invariance(self):
        paths = {
            "u1": [("A", 1), ("B", 2)],
            "u2": [("B", 1), ("C", 2)],
            "u3": [("A", 5), ("C", 6)],
        }
        g1 = build_l2tg({u: seq(u, p) for u, p in paths.items()})
        g2 = build_l2tg({u: seq(u, paths[u]) for u in reversed(sorted(paths))})
        assert graph_view(g1) == graph_view(g2)


class TestScore:
    def test_single_deterministic_transition(self):
        g = TransitionGraph()
        g.add("A", "B")
        assert amc_scores(g, ["A"], ["B"]) == [pytest.approx(1.0)]

    def test_absent_edge(self):
        g = TransitionGraph()
        g.add("A", "B")
        assert amc_scores(g, ["A"], ["C"]) == [0.0]

    def test_worked_two_step_example(self):
        # weights for k=2 at alpha=0.5: (2/3, 1/3); X has no out-edges
        g = TransitionGraph()
        g.add("A", "B", 3)
        g.add("A", "C", 1)
        score = amc_scores(g, ["X", "A"], ["B"], alpha=0.5, memory=5)
        assert score == [pytest.approx(0.5)]

    def test_empty_history(self):
        g = TransitionGraph()
        assert amc_scores(g, [], ["A"]) == [0.0]

    def test_parameter_validation(self):
        g = TransitionGraph()
        with pytest.raises(ValueError):
            amc_scores(g, ["A"], ["B"], alpha=1.5)
        with pytest.raises(ValueError):
            amc_scores(g, ["A"], ["B"], memory=0)

    def test_rows_sum_to_one(self):
        rnd = random.Random(5)
        g = TransitionGraph()
        for _ in range(200):
            g.add(f"p{rnd.randrange(15)}", f"p{rnd.randrange(15)}", rnd.randrange(1, 4))
        for src in g.out_totals:
            total = sum(g.out_edges(src).values())
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_score_mass_bounded_by_one(self):
        rnd = random.Random(6)
        g = TransitionGraph()
        nodes = [f"p{i}" for i in range(12)]
        for _ in range(300):
            g.add(rnd.choice(nodes), rnd.choice(nodes))
        history = [rnd.choice(nodes) for _ in range(8)]
        total = sum(amc_scores(g, history, nodes))
        assert total <= 1.0 + 1e-9
        # every history node has out-edges here -> equality
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_vectorized_matches_scalar(self):
        rnd = random.Random(8)
        g = TransitionGraph()
        nodes = [f"p{i}" for i in range(10)]
        for _ in range(100):
            g.add(rnd.choice(nodes), rnd.choice(nodes))
        history = [rnd.choice(nodes) for _ in range(7)]
        batch = amc_scores(g, history, nodes)
        for p, s in zip(nodes, batch):
            assert s == pytest.approx(amc_score(g, history, p), abs=1e-12)
