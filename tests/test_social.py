import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poifair.data import PairCounts
from poifair.social import (
    BETA_MAX,
    DEFAULT_FIT,
    MIN_FIT_OBSERVATIONS,
    PowerLawFit,
    fcf_score,
    fit_power_law,
    friend_totals,
    power_law_score,
    residences,
    social_frequency,
)

import oracles
from conftest import make_checkin
from oracles import SocialGraph, distance_km, residence, visit_counts


def rows_of(counts, users, pois):
    """(user code, POI code) training rows that replay each Counter in its
    insertion order, users in the order of `users`."""
    rows = [
        (i, pois.index(p))
        for i, v in enumerate(users) for p, n in counts.get(v, {}).items()
        for _ in range(n)
    ]
    return np.array(rows, dtype=np.intp).reshape(-1, 2).T


def social_frequency_by_id(u, counts, g) -> tuple[Counter, list[int]]:
    """social_frequency on an id-keyed world, {POI: friends' total}, and
    friend_totals: the nonzero totals in the order of first visits."""
    users = sorted(set(counts) | {u})
    pois = sorted({p for c in counts.values() for p in c})
    user, poi = rows_of(counts, users, pois)
    bounds = np.searchsorted(user, np.arange(len(users) + 1))
    args = (friend_rows(u, users, g), np.array([users.index(u)]), bounds, poi, len(pois))
    (totals,) = social_frequency(*args)
    merged = Counter({pois[p]: n for p, n in enumerate(totals.tolist()) if n})
    return merged, friend_totals(*args).tolist()


def friend_rows(u, users, g) -> PairCounts:
    """The friendship CSR of `users` with u's friends alone."""
    friends = [users.index(v) for v in sorted(g.friends(u)) if v in users]
    row = np.full(len(friends), users.index(u))
    return PairCounts.of(row, np.array(friends, dtype=np.intp), len(users), len(users))


def residence_by_id(u, counts) -> str:
    users = sorted(counts)
    pois = sorted({p for c in counts.values() for p in c})
    visits = PairCounts.of(*rows_of(counts, users, pois), len(users), len(pois))
    return pois[residences(visits)[users.index(u)]]


def fcf_by_id(u, cands, counts, g, residence, poi_coords) -> np.ndarray:
    """fcf_score on an id-keyed world, at the candidates `cands`."""
    users = sorted(set(counts) | set(residence) | {u})
    pois = sorted(poi_coords)
    visits = PairCounts.of(*rows_of(counts, users, pois), len(users), len(pois))
    res = np.array([pois.index(residence[v]) if v in residence else -1 for v in users])
    lats, lons = (np.array([poi_coords[p][i] for p in pois]) for i in (0, 1))
    row = np.array([users.index(u)])
    (scores,) = fcf_score(row, friend_rows(u, users, g), visits, res, lats, lons)
    return scores[[pois.index(p) for p in cands]]


class TestSocialFrequency:
    def test_direct_sum(self):
        counts = {"v1": Counter({"p": 3}), "v2": Counter()}
        g = SocialGraph([("u", "v1"), ("u", "v2")])
        assert social_frequency_by_id("u", counts, g) == (Counter({"p": 3}), [3])

    def test_no_friends(self):
        assert social_frequency_by_id("u", {"u": Counter("p")}, SocialGraph()) == (Counter(), [])

    def test_random_graph_matches_double_loop(self):
        rnd = random.Random(9)
        users = [f"u{i}" for i in range(20)]
        train = {
            u: [
                make_checkin(u, f"p{rnd.randrange(8)}", rnd.randrange(1, 10**6))
                for _ in range(rnd.randrange(0, 15))
            ]
            for u in users
        }
        counts = visit_counts(train)
        edges = set()
        while len(edges) < 30:
            a, b = rnd.sample(users, 2)
            edges.add((min(a, b), max(a, b)))
        g = SocialGraph(edges)
        for u in users:
            merged, first_visits = social_frequency_by_id(u, counts, g)
            want = oracles.merged_social_frequency(u, counts, g)
            assert merged == want and first_visits == list(want.values())
            for p in [f"p{i}" for i in range(8)]:
                expected = 0
                for v in users:
                    if v in g.friends(u):
                        expected += sum(
                            1 for c in train[v] if c.poi_id == p
                        )
                assert merged.get(p, 0) == expected
                assert oracles.social_frequency(u, p, counts, g) == expected


class TestPowerLawFit:
    def test_closed_form_beta_two(self):
        # n copies of e: beta = 1 + n / n = 2 by hand
        fit = fit_power_law([[math.e] * 12])
        assert fit.beta == pytest.approx(2.0)

    def test_all_ones_clamps(self):
        fit = fit_power_law([[1.0] * 12])
        assert fit.beta == 10.0

    def test_too_few_observations(self):
        assert fit_power_law([[2.0] * 9]) is DEFAULT_FIT
        assert fit_power_law([]) is DEFAULT_FIT

    def test_below_x_min_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([[2.0] * 12, [0.5]])

    def test_recovery_at_beta_2_5(self):
        rng = np.random.default_rng(42)
        beta = 2.5
        u = rng.random(10_000)
        xs = (1 - u) ** (-1.0 / (beta - 1.0))  # inverse-CDF Pareto sampling
        fit = fit_power_law([xs])
        assert abs(fit.beta - beta) < 0.1
        # independent closed-form oracle on the same sample
        oracle = 1.0 + len(xs) / float(np.log(xs).sum())
        assert fit.beta == pytest.approx(oracle, rel=1e-12)


# Logs from about 1e-12 to about 690: the order in which they are added
# changes the rounded sum.
FREQUENCY_POOL = [1.0, 1.0 + 2**-40, 1.5, 2.0, 3.0, 7.0, 1e5, 1e300]


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.sampled_from(FREQUENCY_POOL), min_size=10, max_size=300))
def test_power_law_fit_equals_sequential_log_sum(xs):
    """fit_power_law's beta equals the MLE from Python's math.log of each
    observation, added left to right, bit for bit."""
    log_sum = oracles.sequential_sum(math.log(x) for x in xs)
    beta = BETA_MAX if log_sum <= 0.0 else min(1.0 + len(xs) / log_sum, BETA_MAX)
    assert fit_power_law([xs]).beta.hex() == beta.hex()
    assert fit_power_law([np.array(xs)]).beta.hex() == beta.hex()


# Chunks of 0, 1 and many values, with repeats and values at exactly x_min;
# short samples fall back to DEFAULT_FIT.
@settings(max_examples=300, deadline=None)
@example(chunks=[[1.0] * 4, [], [1.0] * 6])  # all at x_min: the clamp
@example(chunks=[[2.0] * (MIN_FIT_OBSERVATIONS - 1)])
@example(chunks=[[3.0], [], [7.0, 7.0]] * 4)
@given(chunks=st.lists(
    st.one_of(
        st.just([]),
        st.lists(st.sampled_from(FREQUENCY_POOL), min_size=1, max_size=1),
        st.lists(st.sampled_from(FREQUENCY_POOL), max_size=40),
    ),
    max_size=12,
))
def test_streaming_power_law_fit_equals_one_shot_oracle(chunks):
    """Fitting chunk by chunk gives the one-shot fit over their concatenation
    bit for bit, the fallback and the clamp included."""
    got = fit_power_law(np.array(c, dtype=float) for c in chunks)
    want = oracles.fit_power_law([x for c in chunks for x in c])
    assert got.beta.hex() == want.beta.hex()
    assert (got is DEFAULT_FIT) == (sum(map(len, chunks)) < MIN_FIT_OBSERVATIONS)


class TestPowerLawScore:
    def test_below_threshold(self):
        assert power_law_score(PowerLawFit(beta=2.0), [0]).tolist() == [0.0]

    def test_direct_formula(self):
        assert power_law_score(PowerLawFit(beta=2.0), [2])[0] == pytest.approx(0.5)

    def test_limit_and_monotone(self):
        fit = PowerLawFit(beta=2.5)
        xs = [1, 2, 5, 10, 100, 10**6]
        scores = power_law_score(fit, xs).tolist()
        assert all(0 <= s < 1 for s in scores)
        assert scores == sorted(scores)
        assert scores[-1] > 0.999

    @pytest.mark.parametrize("beta", [1.5, 2.0, 2.7, BETA_MAX])
    def test_matches_scalar_oracle_bit_for_bit(self, beta):
        rnd = random.Random(beta)
        xs = [0.0, 0.25, 0.999, 1.0, 1.0, 2.0, 3.5, 17.0, 1e6, 3.7e12, 0.0]
        xs += [rnd.uniform(0.0, 60.0) for _ in range(200)] + [rnd.randrange(60) for _ in range(200)]
        fit = PowerLawFit(beta=beta)
        got = power_law_score(fit, xs).tolist()
        assert got == [oracles.power_law_score(fit, x) for x in xs]

    def test_clamped_fit_matches_scalar_oracle(self):
        fit = fit_power_law([[1.0] * 12])
        assert fit.beta == BETA_MAX
        xs = [0, 0.5, 1, 2, 10**9]
        assert power_law_score(fit, xs).tolist() == [
            oracles.power_law_score(fit, x) for x in xs
        ]


class TestResidence:
    def test_max_count(self):
        counts = {"u": Counter({"A": 3, "B": 1})}
        assert residence_by_id("u", counts) == "A"

    def test_tie_smallest_id(self):
        counts = {"u": Counter({"B": 2, "A": 2})}
        assert residence_by_id("u", counts) == "A"

    def test_empty_profile(self):
        # User 1 has no training visit.
        visits = PairCounts.of(np.array([0]), np.array([2]), 2, 3)
        assert residences(visits).tolist() == [2, -1]

    def test_random_argmax(self):
        rnd = random.Random(13)
        profile = Counter({f"p{i}": rnd.randrange(1, 50) for i in range(30)})
        r = residence_by_id("u", {"u": profile})
        best = max(profile.values())
        assert profile[r] == best
        assert r == min(p for p, n in profile.items() if n == best)
        assert r == residence("u", {"u": profile})


class TestFcf:
    def poi_coords(self):
        return {
            "h0": (40.0, -100.0),
            "h1": (40.0, -100.0),
            "h2": (40.5, -100.0),
            "h3": (41.0, -100.5),
            "p": (40.2, -100.2),
        }

    def test_single_friend_same_residence(self):
        counts = {"u": Counter({"h0": 2}), "v": Counter({"h1": 1, "p": 4})}
        g = SocialGraph([("u", "v")])
        residences = {"u": "h0", "v": "h1"}
        score = fcf_by_id("u", ["p"], counts, g, residences, self.poi_coords())
        assert score.tolist() == pytest.approx([4.0])

    def test_no_friends(self):
        counts = {"u": Counter({"h0": 2})}
        scores = fcf_by_id("u", ["h1", "p"], counts, SocialGraph(), {"u": "h0"}, self.poi_coords())
        assert scores.tolist() == [0.0, 0.0]

    def test_weighted_mean_oracle(self):
        coords = self.poi_coords()
        counts = {
            "u": Counter({"h0": 2}),
            "v1": Counter({"h1": 1, "p": 3}),
            "v2": Counter({"h2": 1, "p": 5}),
            "v3": Counter({"h3": 1}),
        }
        g = SocialGraph([("u", "v1"), ("u", "v2"), ("u", "v3")])
        residences = {"u": "h0", "v1": "h1", "v2": "h2", "v3": "h3"}
        sims = {
            v: 1.0 / (1.0 + distance_km(*coords["h0"], *coords[residences[v]]))
            for v in ("v1", "v2", "v3")
        }
        expected = (sims["v1"] * 3 + sims["v2"] * 5 + sims["v3"] * 0) / sum(sims.values())
        score = fcf_by_id("u", ["p"], counts, g, residences, coords)[0]
        assert score == pytest.approx(expected, abs=1e-12)
        assert score == oracles.fcf_score("u", "p", counts, g, residences, coords)

    def test_friend_order_invariance(self):
        coords = self.poi_coords()
        counts = {
            "u": Counter({"h0": 1}),
            "v1": Counter({"h1": 1, "p": 3}),
            "v2": Counter({"h2": 2, "p": 5}),
        }
        residences = {"u": "h0", "v1": "h1", "v2": "h2"}
        g1 = SocialGraph([("u", "v1"), ("u", "v2")])
        g2 = SocialGraph([("u", "v2"), ("u", "v1")])
        s1 = fcf_by_id("u", ["p"], counts, g1, residences, coords)
        s2 = fcf_by_id("u", ["p"], counts, g2, residences, coords)
        assert s1.tolist() == s2.tolist()

    def test_matches_scalar_oracle_per_candidate(self):
        rnd = random.Random(17)
        pois = [f"p{i}" for i in range(12)]
        coords = {p: (40.0 + rnd.random(), -100.0 + rnd.random()) for p in pois}
        users = [f"u{i}" for i in range(10)]
        counts = {
            u: Counter(rnd.choice(pois) for _ in range(rnd.randrange(1, 20)))
            for u in users
        }
        residences = {u: residence(u, counts) for u in users[:8]}
        g = SocialGraph([(a, b) for a in users for b in users if a < b and rnd.random() < 0.4])
        for u in users:
            cands = rnd.sample(pois, rnd.randrange(1, len(pois)))
            scores = fcf_by_id(u, cands, counts, g, residences, coords)
            expected = [
                oracles.fcf_score(u, p, counts, g, residences, coords) for p in cands
            ]
            assert scores.tolist() == expected
