import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poifair.data import DataError
from poifair.temporal import (
    LEISURE,
    UNASSIGNED,
    WORKING,
    Profiles,
    assign_groups,
    build_profiles,
    correlation_analysis,
    group_stats,
    ols_fit,
    poi_popularity,
    temporal_histogram,
    training_visits,
)

import oracles
from conftest import make_checkin, make_dataset
from oracles import PeriodLabel, hour_of, label_period


def ts_at(hour, minute=0, day=0):
    return day * 86400 + hour * 3600 + minute * 60


def columns(train):
    """A {user: [CheckIn, ...]} training split as columns."""
    return make_dataset([c for seq in train.values() for c in seq])


def profiles_of(train, popularity=None):
    """build_profiles on columns; popularity as {poi_id: value}, absent = 0."""
    d = columns(train)
    pop = np.array([(popularity or {}).get(p, 0.0) for p in d.poi_ids])
    return build_profiles(*training_visits(d), pop)


def working_count(timestamps, window=(8, 18)):
    """n_working of one user's profile over the given check-in times."""
    train = {"u": [make_checkin("u", "p", ts) for ts in timestamps]}
    (n_working,) = build_profiles(*training_visits(columns(train), window), np.zeros(1)).n_working
    return n_working


class TestLabelPeriod:
    def test_working_hours(self):
        assert label_period(ts_at(10, 30)) is PeriodLabel.WORKING
        assert working_count([ts_at(10, 30)]) == 1

    def test_midnight(self):
        assert label_period(ts_at(0)) is PeriodLabel.LEISURE
        assert working_count([ts_at(0)]) == 0

    def test_half_open_boundaries(self):
        assert label_period(ts_at(8)) is PeriodLabel.WORKING
        assert label_period(ts_at(18)) is PeriodLabel.LEISURE
        assert working_count([ts_at(8), ts_at(18)]) == 1
        assert working_count([ts_at(8) - 1, ts_at(18) - 1]) == 1

    @given(st.integers(min_value=1, max_value=10**9))
    def test_total_function(self, ts):
        assert label_period(ts) in (PeriodLabel.WORKING, PeriodLabel.LEISURE)
        expected = label_period(ts) is PeriodLabel.WORKING
        assert working_count([ts]) == expected


class TestProfiles:
    def test_leisure_ratio(self):
        checkins = [make_checkin("u", f"p{i}", ts_at(10, day=i)) for i in range(6)]
        checkins += [make_checkin("u", f"q{i}", ts_at(22, day=i)) for i in range(4)]
        profiles = profiles_of({"u": checkins})
        assert profiles.leisure_ratio[0] == pytest.approx(0.4)
        assert profiles.n_working[0] == 6

    def test_all_night(self):
        checkins = [make_checkin("u", "p", ts_at(3, day=i)) for i in range(5)]
        profiles = profiles_of({"u": checkins})
        assert profiles.leisure_ratio[0] == 1.0

    def test_matches_bruteforce_recount(self):
        rnd = random.Random(3)
        train = {}
        for u in ("a", "b", "c"):
            train[u] = [
                make_checkin(u, f"p{rnd.randrange(5)}", ts_at(rnd.randrange(24), day=i))
                for i in range(rnd.randrange(5, 20))
            ]
        d = columns(train)
        visits, n_work = training_visits(d)
        pop_codes = poi_popularity(visits)
        pop = {p: pop_codes[i] for i, p in enumerate(d.poi_ids)}
        objects = oracles.profile_objects(build_profiles(visits, n_work, pop_codes), d.user_ids)
        profiles = {p.user_id: p for p in objects}
        for u, seq in train.items():
            n_leis = sum(1 for c in seq if not (8 <= hour_of(c.timestamp) < 18))
            assert profiles[u].n_leisure == n_leis
            assert profiles[u].n_working == len(seq) - n_leis
            distinct = {c.poi_id for c in seq}
            expected_pop = sum(pop[p] for p in distinct) / len(distinct)
            assert profiles[u].avg_popularity_consumption == pytest.approx(expected_pop)
        assert list(profiles.values()) == oracles.build_profiles(
            train, oracles.poi_popularity(train, 3)
        )

    def test_popularity_mean_adds_left_to_right(self):
        """0.1 + 0.2 + 0.3 is 0.6000000000000001 added left to right; a
        compensated sum, as the builtin sum() of floats is from Python 3.12
        on, gives 0.6."""
        train = {"u": [make_checkin("u", p, 100) for p in ("p1", "p2", "p3")]}
        (mean,) = profiles_of(train, {"p1": 0.1, "p2": 0.2, "p3": 0.3}).avg_popularity_consumption
        assert math.fsum([0.1, 0.2, 0.3]) == 0.6
        assert mean == 0.6000000000000001 / 3

    def test_popularity_definition(self):
        train = {
            "a": [make_checkin("a", "p1", 100), make_checkin("a", "p1", 200)],
            "b": [make_checkin("b", "p1", 300)],
        }
        pop = poi_popularity(columns(train).visits())
        # two distinct visitors out of two users
        assert pop.tolist() == [1.0]
        assert oracles.poi_popularity(train, 2) == {"p1": 1.0}

    def test_popularity_counts_users_not_visits(self):
        train = {
            "a": [make_checkin("a", "p1", 100), make_checkin("a", "p2", 200)],
            "b": [make_checkin("b", "p2", 300), make_checkin("b", "p2", 400)],
            "c": [make_checkin("c", "p3", 500)],
            "d": [make_checkin("d", "p3", 600)],
        }
        assert poi_popularity(columns(train).visits()).tolist() == [0.25, 0.5, 0.5]


def profiles(ratios, n=10, users=None):
    """Profiles of n check-ins each with the given leisure ratios, for user
    codes 0, 1, ... or `users`."""
    ratio = np.array(ratios, dtype=float)
    count = np.full(len(ratio), n)
    user = np.arange(len(ratio)) if users is None else np.array(users)
    return Profiles(user, count, count - np.round(ratio * n).astype(int), ratio,
                    np.full(len(ratio), 0.5))


class TestGroups:
    def test_floor_sizes(self):
        labels = assign_groups(profiles([i / 10 for i in range(10)]), 10)
        assert (labels == LEISURE).sum() == 2
        assert (labels == WORKING).sum() == 2
        assert labels.dtype == np.int8

    def test_hand_sorted_extremes(self):
        ratios = [1.0, 0.9, 0.9, 0.5, 0.2, 0.1, 0.0]
        labels = assign_groups(profiles(ratios), 7)
        assert labels.tolist() == [LEISURE] + [UNASSIGNED] * 5 + [WORKING]

    def test_users_without_a_profile_are_unassigned(self):
        ratios = [1.0, 0.9, 0.9, 0.5, 0.2, 0.1, 0.0]
        labels = assign_groups(profiles(ratios, users=[1, 2, 4, 5, 6, 8, 9]), 11)
        assert labels.tolist() == (
            [UNASSIGNED, LEISURE] + [UNASSIGNED] * 7 + [WORKING, UNASSIGNED]
        )

    def test_equal_ratios_rank_in_user_code_order(self):
        labels = assign_groups(profiles([0.5] * 10), 10, quantile=0.5)
        assert labels.tolist() == [LEISURE] * 5 + [WORKING] * 5

    def test_too_few_users(self):
        with pytest.raises(DataError, match="need at least 5 users"):
            assign_groups(profiles([0.5] * 4), 4)

    def test_overlapping_quantile(self):
        with pytest.raises(ValueError):
            assign_groups(profiles([i / 10 for i in range(10)]), 10, quantile=0.6)

    @given(
        ratios=st.lists(
            st.integers(min_value=0, max_value=100).map(lambda v: v / 100),
            min_size=5,
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_rank_invariance_under_monotone_transform(self, ratios):
        n = len(ratios)
        transformed = [math.tanh(2 * r) for r in ratios]
        labels = assign_groups(profiles(ratios), n)
        assert assign_groups(profiles(transformed), n).tolist() == labels.tolist()
        # Ids in code order.
        objects = oracles.profile_objects(profiles(ratios), [f"u{i:03d}" for i in range(n)])
        want = oracles.assign_groups(objects)
        assert {p.user_id for p, g in zip(objects, labels) if g == LEISURE} == want.leisure_focused
        assert {p.user_id for p, g in zip(objects, labels) if g == WORKING} == want.working_focused


class TestGroupStats:
    def test_bruteforce_means(self):
        train = {
            "l1": [make_checkin("l1", "p", ts_at(22, day=i)) for i in range(4)],
            "l2": [make_checkin("l2", "p", ts_at(23, day=i)) for i in range(6)],
            "w1": [make_checkin("w1", "p", ts_at(10, day=i)) for i in range(8)],
            "w2": [make_checkin("w2", "p", ts_at(11, day=i)) for i in range(2)],
            "m": [make_checkin("m", "p", ts_at(8, day=i)) for i in range(5)]
            + [make_checkin("m", "p", ts_at(20, day=i)) for i in range(5)],
        }
        visits, n_work = training_visits(columns(train))
        profiles = build_profiles(visits, n_work, poi_popularity(visits))
        # Profiles in user id order: l1, l2, m, w1, w2.
        labels = np.array([LEISURE, LEISURE, UNASSIGNED, WORKING, WORKING])
        stats = {g.group: g for g in group_stats(labels, profiles)}
        assert stats["leisure-focused"].n_checkins == 10
        assert stats["leisure-focused"].avg_activity_level == pytest.approx(5.0)
        assert stats["working-focused"].n_checkins == 10
        assert stats["working-focused"].n_users == 2

    def test_empty_group_errors(self):
        train = {"u": [make_checkin("u", "p", 100)]}
        profiles = profiles_of(train, {"p": 1.0})
        with pytest.raises(DataError, match="empty group: leisure-focused"):
            group_stats(np.array([WORKING]), profiles)


class TestHistogram:
    def test_single_hour(self):
        checkins = [make_checkin("u", "p", ts_at(9, m)) for m in (1, 2, 3)]
        bins = temporal_histogram([c.timestamp for c in checkins])
        assert bins[9] == 3
        assert bins.sum() == 3

    def test_empty(self):
        assert temporal_histogram([]).sum() == 0

    def test_random_recount(self):
        rnd = random.Random(11)
        checkins = [
            make_checkin("u", "p", rnd.randrange(1, 10**8)) for _ in range(1000)
        ]
        bins = temporal_histogram(make_dataset(checkins).ts)
        assert bins.tolist() == oracles.temporal_histogram(checkins).tolist()
        for h in range(24):
            assert bins[h] == sum(
                1 for c in checkins if (c.timestamp // 3600) % 24 == h
            )
        assert bins.sum() == 1000


OLS_20K = """
import numpy as np
from poifair.temporal import ols_fit
rng = np.random.default_rng(0)
print(ols_fit(rng.normal(size=20_000), rng.normal(size=20_000)))
"""


class TestCorrelation:
    def test_identity(self):
        x = list(range(10))
        fit = ols_fit(x, x)
        assert fit["slope"] == pytest.approx(1.0)
        assert fit["pearson_r"] == pytest.approx(1.0)

    def test_half_slope(self):
        x = np.arange(10.0)
        fit = ols_fit(x, 0.5 * x)
        assert fit["slope"] == pytest.approx(0.5)
        assert fit["pearson_r"] == pytest.approx(1.0)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=50)
        y = 2.0 * x + rng.normal(size=50)
        fit = ols_fit(x, y)
        # closed-form normal-equation oracle
        A = np.stack([x, np.ones(50)], axis=1)
        coef = np.linalg.solve(A.T @ A, A.T @ y)
        assert fit["slope"] == pytest.approx(coef[0], abs=1e-9)
        assert fit["intercept"] == pytest.approx(coef[1], abs=1e-9)
        assert fit["pearson_r"] == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-9)

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS splits a dot product over threads above 10^4 values.
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out.append(subprocess.run(
                [sys.executable, "-c", OLS_20K], env=env,
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout)
        assert out[0] == out[1]

    def test_zero_variance_errors(self):
        with pytest.raises(ValueError):
            ols_fit([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_ratio_correlations_have_opposite_signs(self):
        # larger profiles skew toward working-hour check-ins by construction
        rnd = random.Random(23)
        train = {}
        for i in range(40):
            size = 5 + i
            work_ratio = 0.3 + 0.6 * (i / 40) + rnd.uniform(-0.05, 0.05)
            n_work = round(size * work_ratio)
            u = f"u{i:02d}"
            train[u] = [
                make_checkin(u, "p", ts_at(10, day=d)) for d in range(n_work)
            ] + [
                make_checkin(u, "p", ts_at(21, day=d)) for d in range(size - n_work)
            ]
        profiles = profiles_of(train, {"p": 1.0})
        corr = correlation_analysis(profiles)
        assert corr["leisure_ratio_vs_size"]["pearson_r"] < 0
        assert corr["working_ratio_vs_size"]["pearson_r"] > 0
