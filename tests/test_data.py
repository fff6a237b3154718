import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poifair.data import (
    DataError,
    Poi,
    dataset_stats,
    parse_dataset,
    preprocess_filter,
    sort_user_checkins,
    temporal_split,
)

from conftest import make_checkin, make_dataset


def write_files(tmp_path, checkin_rows, poi_rows, social_rows=None):
    ci = tmp_path / "checkins.tsv"
    ci.write_text("".join(f"{r}\n" for r in checkin_rows))
    po = tmp_path / "pois.tsv"
    po.write_text("".join(f"{r}\n" for r in poi_rows))
    so = None
    if social_rows is not None:
        so = tmp_path / "social.tsv"
        so.write_text("".join(f"{r}\n" for r in social_rows))
    return ci, po, so


class TestParse:
    def test_basic_counts(self, tmp_path):
        ci, po, _ = write_files(
            tmp_path,
            ["u1\tp1\t100", "u1\tp2\t200", "u2\tp1\t300"],
            ["p1\t40.0\t-100.0\tcafe", "p2\t40.1\t-100.1\t"],
        )
        d = parse_dataset(ci, po)
        assert len(d.checkins) == 3
        assert len(d.pois) == 2
        assert d.pois["p1"].category_id == "cafe"
        assert d.pois["p2"].category_id is None

    def test_duplicate_poi_lines_reported_last_wins(self, tmp_path):
        ci, po, _ = write_files(
            tmp_path,
            ["u1\tp1\t100"],
            [
                "p1\t40.0\t-100.0\tcafe", "p2\t40.1\t-100.1\t",
                "p1\t41.0\t-101.0\tbar", "bad", "p2\t40.2\t-100.2\t",
                "p1\t42.0\t-102.0\t",
            ],
        )
        d = parse_dataset(ci, po, max_malformed_frac=0.5)
        assert d.load_report.poi_lines_duplicate == [3, 5, 6]
        assert d.load_report.poi_lines_malformed == [4]
        assert d.load_report.poi_lines_parsed == 5
        assert d.pois["p1"] == Poi("p1", 42.0, -102.0, None)
        assert d.checkins[0].latitude == 42.0
        assert json.loads(d.load_report.to_json())["poi_lines_duplicate"] == [3, 5, 6]

    def test_unknown_poi_is_hard_error(self, tmp_path):
        ci, po, _ = write_files(tmp_path, ["u1\tpX\t100"], ["p1\t40\t-100\t"])
        with pytest.raises(DataError, match="pX"):
            parse_dataset(ci, po)

    def test_missing_file(self, tmp_path):
        ci, po, _ = write_files(tmp_path, ["u1\tp1\t100"], ["p1\t40\t-100\t"])
        with pytest.raises(DataError, match="unreadable"):
            parse_dataset(tmp_path / "nope.tsv", po)

    def test_malformed_threshold(self, tmp_path):
        # 2 of 3 lines malformed blows past the 1% default
        ci, po, _ = write_files(
            tmp_path,
            ["u1\tp1\t100", "garbage", "u1\tp1\tnot_a_ts"],
            ["p1\t40\t-100\t"],
        )
        with pytest.raises(DataError, match="malformed"):
            parse_dataset(ci, po)
        d = parse_dataset(ci, po, max_malformed_frac=0.9)
        assert len(d.checkins) == 1
        assert d.load_report.checkin_lines_malformed == [2, 3]

    def test_social_edges_dropped_for_unknown_users(self, tmp_path):
        ci, po, so = write_files(
            tmp_path,
            ["u1\tp1\t100", "u2\tp1\t200"],
            ["p1\t40\t-100\t"],
            ["u1\tu2", "u1\tghost", "u1\tu1"],
        )
        d = parse_dataset(ci, po, so)
        assert d.social.has_edge("u1", "u2")
        assert d.social.has_edge("u2", "u1")
        assert d.social.n_edges == 1
        assert d.load_report.social_edges_dropped == 2
        # report serializes
        json.loads(d.load_report.to_json())


class TestFilter:
    def test_user_threshold(self):
        checkins = [make_checkin("A", f"p{i}", 100 + i) for i in range(16)]
        checkins += [make_checkin("B", "p0", 50 + i) for i in range(3)]
        d = make_dataset(checkins)
        filtered, report = preprocess_filter(d, 15, 0)
        assert filtered.users == {"A"}
        assert report.users_removed == 1

    def test_user_retained_when_poi_filter_drops_their_count(self):
        # single pass: user survival is decided before POI removal
        checkins = [make_checkin("A", "rare", 100 + i) for i in range(5)]
        checkins += [make_checkin("A", "hub", 200 + i) for i in range(10)]
        checkins += [make_checkin(f"x{j}", "hub", 1000 + j) for j in range(10)]
        for j in range(10):
            checkins += [make_checkin(f"x{j}", f"h{j}", 2000 + 10 * j + i) for i in range(15)]
        d = make_dataset(checkins)
        filtered, _ = preprocess_filter(d, 15, 10)
        # 'rare' has only 5 check-ins -> removed; A keeps 10 and survives
        assert "A" in filtered.users
        assert "rare" not in filtered.pois
        assert sum(1 for c in filtered.checkins if c.user_id == "A") == 10

    def test_not_idempotent_in_general(self):
        # after POI removal drops user A to 10 check-ins, a second identical
        # pass removes A: the documented single-pass policy is one-shot
        checkins = [make_checkin("A", "rare", 100 + i) for i in range(5)]
        checkins += [make_checkin("A", "hub", 200 + i) for i in range(10)]
        checkins += [make_checkin(f"x{j}", "hub", 1000 + j) for j in range(10)]
        for j in range(10):
            checkins += [make_checkin(f"x{j}", f"h{j}", 2000 + 10 * j + i) for i in range(15)]
        d = make_dataset(checkins)
        once, _ = preprocess_filter(d, 15, 10)
        twice, _ = preprocess_filter(once, 15, 10)
        assert "A" in once.users
        assert "A" not in twice.users

    def test_exhausted(self, tiny_dataset):
        with pytest.raises(DataError, match="exhausted"):
            preprocess_filter(tiny_dataset, 1000, 0)

    def test_filtered_counts_match_bruteforce(self):
        import random

        rnd = random.Random(7)
        checkins = [
            make_checkin(f"u{rnd.randrange(30)}", f"p{rnd.randrange(40)}", rnd.randrange(1, 10**6))
            for _ in range(2000)
        ]
        d = make_dataset(checkins)
        filtered, _ = preprocess_filter(d, 10, 5)
        stats = dataset_stats(filtered)
        # independent recount
        assert stats.n_checkins == len(filtered.checkins)
        assert stats.n_users == len({c.user_id for c in filtered.checkins})
        assert stats.n_pois == len({c.poi_id for c in filtered.checkins})
        assert stats.n_unique_checkins == len(
            {(c.user_id, c.poi_id) for c in filtered.checkins}
        )
        user_counts = Counter(c.user_id for c in d.checkins)
        survivors = {u for u, n in user_counts.items() if n >= 10}
        poi_counts = Counter(c.poi_id for c in d.checkins if c.user_id in survivors)
        kept_pois = {p for p, n in poi_counts.items() if n >= 5}
        expected = [
            c for c in d.checkins if c.user_id in survivors and c.poi_id in kept_pois
        ]
        assert len(filtered.checkins) == len(expected)


class TestSplit:
    # index cutoffs enumerated by hand for the floor rule
    @pytest.mark.parametrize(
        "n,expected",
        [
            (3, (2, 1, 0)),
            (4, (2, 2, 0)),
            (5, (3, 1, 1)),
            (10, (7, 1, 2)),
            (20, (14, 2, 4)),
        ],
    )
    def test_floor_rule(self, n, expected):
        checkins = [make_checkin("u", f"p{i}", 100 * (i + 1)) for i in range(n)]
        d = make_dataset(checkins)
        s = temporal_split(d)
        assert (len(s.train["u"]), len(s.validation["u"]), len(s.test["u"])) == expected

    def test_empty_test_flagged(self):
        checkins = [make_checkin("u", f"p{i}", 100 * (i + 1)) for i in range(3)]
        s = temporal_split(make_dataset(checkins))
        assert s.empty_test_users == {"u"}

    def test_too_few_checkins(self):
        checkins = [make_checkin("u", "p", 100), make_checkin("u", "q", 200)]
        with pytest.raises(DataError, match="< 3"):
            temporal_split(make_dataset(checkins))

    def test_bad_fractions(self, tiny_dataset):
        with pytest.raises(ValueError):
            temporal_split(tiny_dataset, 0.5, 0.1, 0.2)

    @given(
        n=st.integers(min_value=3, max_value=60),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_and_monotonicity(self, n, seed):
        import random

        rnd = random.Random(seed)
        checkins = [
            make_checkin("u", f"p{i}", rnd.randrange(1, 10**6)) for i in range(n)
        ]
        s = temporal_split(make_dataset(checkins))
        parts = [s.train["u"], s.validation["u"], s.test["u"]]
        assert sum(len(p) for p in parts) == n
        merged = parts[0] + parts[1] + parts[2]
        assert sorted(c.timestamp for c in merged) == sorted(
            c.timestamp for c in checkins
        )
        nonempty = [p for p in parts if p]
        for a, b in zip(nonempty, nonempty[1:]):
            assert max(c.timestamp for c in a) <= min(c.timestamp for c in b)

    def test_tie_break_by_poi_then_input_order(self):
        checkins = [
            make_checkin("u", "pB", 100),
            make_checkin("u", "pA", 100),
            make_checkin("u", "pA", 100),
        ]
        ordered = sort_user_checkins(checkins)
        assert [c.poi_id for c in ordered] == ["pA", "pA", "pB"]
        assert ordered[0] is checkins[1]


class TestStats:
    def test_density_small(self):
        checkins = [
            make_checkin("u1", "p1", 100),
            make_checkin("u2", "p2", 200),
        ]
        stats = dataset_stats(make_dataset(checkins))
        assert stats.density == pytest.approx(2 / (2 * 2))

    def test_density_convention_matches_published_rounding(self):
        # raw check-ins over |U x P|: 1,137,521 / (7,135 * 16,621) ~= 0.0096
        assert round(1_137_521 / (7_135 * 16_621), 4) == 0.0096
        assert round(620_683 / 5_628, 2) == 110.28

    def test_empty_zeroes(self):
        from poifair.data import Dataset, SocialGraph

        d = Dataset([], {}, SocialGraph(), set())
        stats = dataset_stats(d)
        assert stats.n_checkins == 0
        assert stats.density == 0.0
