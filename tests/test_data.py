import importlib.util
import json
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poifair.data import (
    MIN_SPLIT_CHECKINS,
    DataError,
    Dataset,
    dataset_stats,
    parse_dataset,
    preprocess_filter,
    temporal_split,
)

import oracles
from conftest import make_checkin, make_dataset
from oracles import INT64_MAX, Poi, SocialGraph


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


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def benchmark_corpus(workload: str) -> dict[str, str]:
    """The TSV texts of a benchmark workload's corpus, by file name."""
    spec = importlib.util.spec_from_file_location("perfbench_corpus", PERFBENCH / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built.
    sys.modules[spec.name] = corpus
    spec.loader.exec_module(corpus)
    w = json.loads((PERFBENCH / "workloads.json").read_text())["workloads"][workload]
    return corpus.generate(corpus.CorpusSpec.from_json(w["corpus"]), w["corpus_seed"])


# The file format's boundary: each line is added, after a blank one, to a
# valid corpus; None if it is malformed, else the record it parses to.
FORMAT_BASE = {
    "pois.tsv": ["p1\t40\t-100\tc", "p2\t41\t-101\t"],
    "checkins.tsv": ["u1\tp1\t100", "u2\tp2\t200", "u1\tp2\t300"],
    "social.tsv": [],
}
FORMAT = [
    # Timestamps with a sign, spaces, underscores, non-ASCII digits or more
    # than 19 digits.
    ("checkins.tsv", "u1\tp1\t+12", None),
    ("checkins.tsv", "u1\tp1\t 12", None),
    ("checkins.tsv", "u1\tp1\t12 ", None),
    ("checkins.tsv", "u1\tp1\t1_000", None),
    ("checkins.tsv", "u1\tp1\t١٢", None),
    ("checkins.tsv", "u1\tp1\t１２", None),
    ("checkins.tsv", "u1\tp1\t" + "0" * 18 + "12", None),
    # Empty ids, and ids with a NUL.
    ("checkins.tsv", "\tp1\t101", None),
    ("checkins.tsv", "u1\t\t101", None),
    ("checkins.tsv", "u\x00x\tp1\t102", None),
    ("pois.tsv", "\t40\t-100\tc", None),
    ("pois.tsv", "p\x009\t40\t-100\tc", None),
    ("social.tsv", "\tu2", None),
    ("social.tsv", "u1\tu\x002", None),
    # Ids and categories over 64 bytes.
    ("checkins.tsv", "M" * 65 + "\tp1\t1", None),
    ("checkins.tsv", "é" * 33 + "\tp1\t1", None),
    ("pois.tsv", "p" * 65 + "\t40\t-100\tc", None),
    ("pois.tsv", "p9\t40\t-100\t" + "c" * 65, None),
    ("social.tsv", "u1\t" + "M" * 65, None),
    # Non-ASCII coordinates.
    ("pois.tsv", "p9\t٤٠\t-100\tc", None),
    ("pois.tsv", "p9\t40\t-１００\tc", None),
    # Lines of non-ASCII whitespace only.
    ("checkins.tsv", "\x85", None),
    ("checkins.tsv", "\u2028", None),
    ("pois.tsv", "\u2028", None),
    ("social.tsv", "\x85", None),
    # Extra fields, the largest timestamp, a 64-byte id, a one-space id.
    ("checkins.tsv", "u1\tp1\t400\textra", ("u1", "p1", 400)),
    ("pois.tsv", "p9\t40\t-100\tc\textra", ("p9", 40.0, -100.0, "c")),
    ("pois.tsv", "p9\t40\t-100\t\textra", ("p9", 40.0, -100.0, None)),
    ("social.tsv", "u1\tu2\textra", ("u1", "u2")),
    ("checkins.tsv", f"u1\tp1\t{2**63 - 1}", ("u1", "p1", 2**63 - 1)),
    ("checkins.tsv", "M" * 64 + "\tp1\t1", ("M" * 64, "p1", 1)),
    ("checkins.tsv", "é" * 32 + "\tp1\t1", ("é" * 32, "p1", 1)),
    ("pois.tsv", "p9\t40\t-100\t" + "c" * 64, ("p9", 40.0, -100.0, "c" * 64)),
    ("checkins.tsv", " \tp1\t1", (" ", "p1", 1)),
]


@pytest.mark.parametrize(
    "name, line, want", FORMAT, ids=[f"{n[:-4]}-{i}" for i, (n, _, _) in enumerate(FORMAT)]
)
def test_format_boundary(tmp_path, name, line, want):
    files = {**FORMAT_BASE, name: [*FORMAT_BASE[name], "", line]}
    for n, rows in files.items():
        (tmp_path / n).write_bytes("".join(r + "\n" for r in rows).encode("utf-8"))
    paths = [tmp_path / n for n in ("checkins.tsv", "pois.tsv", "social.tsv")]
    d = parse_dataset(*paths, max_malformed_frac=0.5)
    r = d.load_report
    malformed = {"checkins.tsv": r.checkin_lines_malformed, "pois.tsv": r.poi_lines_malformed}
    if want is None:
        # The line is listed with its physical line, blank lines counted;
        # a social line is dropped.
        if name == "social.tsv":
            assert (r.social_edges_dropped, r.social_edges_parsed) == (1, 0)
        else:
            assert malformed[name] == [len(FORMAT_BASE[name]) + 2]
        return
    assert r.checkin_lines_malformed == r.poi_lines_malformed == []
    assert r.social_edges_dropped == 0
    if name == "checkins.tsv":
        got = (d.user_ids[d.user[-1]], d.poi_ids[d.poi[-1]], int(d.ts[-1]))
    elif name == "pois.tsv":
        i = d.poi_ids.index(want[0])
        category = d.category_ids[d.category[i]] if d.category[i] >= 0 else None
        got = (want[0], float(d.lat[i]), float(d.lon[i]), category)
    else:
        got = tuple(d.user_ids[c] for c in d.edges[0])
    assert got == want


class TestParse:
    def test_pois_without_category_column_decode_in_bulk(self, tmp_path):
        """A POI file with no category column (SNAP's loc-gowalla has none)
        parses as it does with each line's empty category kept."""
        texts = benchmark_corpus("geosoca-sweep")
        fields = [line.split("\t")[:3] for line in texts["pois.tsv"].splitlines()]
        ci, cut, _ = write_files(
            tmp_path, texts["checkins.tsv"].splitlines(), ["\t".join(f) for f in fields]
        )
        empty = tmp_path / "empty_category.tsv"
        empty.write_text("".join("\t".join(f) + "\t\n" for f in fields))
        got, want = parse_dataset(ci, cut), parse_dataset(ci, empty)
        assert got.load_report.poi_lines_malformed == []
        assert got.load_report.poi_lines_parsed == len(fields) == 240
        assert list(got.poi_ids) == list(want.poi_ids)
        assert got.lat.tobytes() == want.lat.tobytes()
        assert got.lon.tobytes() == want.lon.tobytes()
        assert got.category.tolist() == want.category.tolist() == [-1] * 240
        assert list(got.category_ids) == []

    def test_basic_counts(self, tmp_path):
        ci, po, _ = write_files(
            tmp_path,
            ["u1\tp1\t100", "u1\tp2\t200", "u2\tp1\t300"],
            ["p1\t40.0\t-100.0\tcafe", "p2\t40.1\t-100.1\t"],
        )
        d = parse_dataset(ci, po)
        assert len(d.ts) == 3
        pois = oracles.pois_of(d)
        assert len(d.poi_ids) == len(pois) == 2
        assert pois["p1"].category_id == "cafe"
        assert pois["p2"].category_id is None

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
        assert oracles.pois_of(d)["p1"] == Poi("p1", 42.0, -102.0, None)
        assert oracles.checkins(d)[0].latitude == 42.0

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
        assert len(d.ts) == 1
        assert d.load_report.checkin_lines_malformed == [2, 3]

    def test_line_numbers_count_blank_lines(self, tmp_path):
        ci, po, _ = write_files(
            tmp_path,
            ["u1\tp1\t100", "", "u1\tp1\tnot_a_ts", "  ", "u2\tp1\t300"],
            ["", "p1\t40\t-100\t", "bad", "p2\t40\t-100\t"],
        )
        d = parse_dataset(ci, po, max_malformed_frac=0.5)
        assert d.load_report.checkin_lines_malformed == [3]
        assert d.load_report.checkin_lines_parsed == 2
        assert d.load_report.poi_lines_malformed == [3]
        assert d.load_report.poi_lines_parsed == 2
        assert len(d.ts) == 2

    def test_unknown_poi_reports_physical_line(self, tmp_path):
        ci, po, _ = write_files(
            tmp_path, ["u1\tp1\t100", "", "u1\tpX\t200"], ["p1\t40\t-100\t"]
        )
        with pytest.raises(DataError, match="line 3 references unknown poi_id 'pX'"):
            parse_dataset(ci, po)
        # A whitespace-only line and a malformed line with an unknown POI
        # come first: the line that names the POI is counted and found the
        # same way under each line end.
        lines = ["u1\tp1\t100", " \t ", "u1\tpY\tnever", "", "u1\tpX\t200", "u1\tpZ\t300"]
        for end in ("\n", "\r\n", "\r"):
            ci.write_bytes(end.join(lines).encode("utf-8"))
            with pytest.raises(DataError) as e:
                parse_dataset(ci, po, max_malformed_frac=1.0)
            assert str(e.value) == "check-in at line 5 references unknown poi_id 'pX'", end

    def test_timestamp_beyond_int64_is_malformed(self, tmp_path):
        ci, po, _ = write_files(
            tmp_path,
            ["u1\tp1\t100", f"u1\tp1\t{2**63}", f"u1\tp1\t{2**63 - 1}", "u1\tp1\t0"],
            ["p1\t40\t-100\t"],
        )
        d = parse_dataset(ci, po, max_malformed_frac=0.9)
        assert d.load_report.checkin_lines_malformed == [2, 4]
        assert d.ts.tolist() == [100, 2**63 - 1]

    def test_ids_interned_in_sorted_order(self, tmp_path):
        ci, po, _ = write_files(
            tmp_path,
            ["u9\tp2\t100", "u10\tp10\t200", "U\tp2\t300", "u9\tp10\t400"],
            ["p2\t40\t-100\t", "p10\t41\t-101\t", "p1\t42\t-102\t"],
        )
        d = parse_dataset(ci, po)
        assert list(d.user_ids) == ["U", "u10", "u9"]
        assert list(d.poi_ids) == ["p1", "p10", "p2"]
        assert d.user.tolist() == [2, 1, 0, 2]
        assert d.poi.tolist() == [2, 1, 2, 1]
        assert [(c.user_id, c.poi_id, c.timestamp) for c in oracles.checkins(d)] == [
            ("u9", "p2", 100), ("u10", "p10", 200), ("U", "p2", 300), ("u9", "p10", 400),
        ]

    def test_social_edges_dropped_for_unknown_users(self, tmp_path):
        ci, po, so = write_files(
            tmp_path,
            ["u1\tp1\t100", "u2\tp1\t200"],
            ["p1\t40\t-100\t"],
            ["u1\tu2", "u1\tghost", "u1\tu1"],
        )
        d = parse_dataset(ci, po, so)
        graph = oracles.graph_of(d)
        assert graph.friends("u1") == {"u2"}
        assert graph.friends("u2") == {"u1"}
        assert graph.n_edges == len(d.edges) == 1
        assert d.load_report.social_edges_dropped == 2
        # report serializes
        json.dumps(asdict(d.load_report))

    def test_duplicate_social_edges_counted(self, tmp_path):
        ci, po, so = write_files(
            tmp_path,
            ["u1\tp1\t100", "u2\tp1\t200", "u3\tp1\t300"],
            ["p1\t40\t-100\t"],
            ["u1\tu2", "u1\tu2", "u2\tu1", "u2\tu3"],
        )
        report = parse_dataset(ci, po, so).load_report
        assert report.social_edges_parsed == 4
        assert report.social_edges_duplicate == 2
        assert report.social_edges_dropped == 0


class TestFilter:
    def test_user_threshold(self):
        checkins = [make_checkin("A", f"p{i}", 100 + i) for i in range(16)]
        checkins += [make_checkin("B", "p0", 50 + i) for i in range(3)]
        d = make_dataset(checkins)
        filtered, report = preprocess_filter(d, 15, 0)
        assert list(filtered.user_ids) == ["A"]
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
        assert "A" in filtered.user_ids
        assert "rare" not in filtered.poi_ids
        assert sum(1 for c in oracles.checkins(filtered) if c.user_id == "A") == 10

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
        assert "A" in once.user_ids
        assert "A" not in twice.user_ids

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
        kept = oracles.checkins(filtered)
        # independent recount
        assert stats.n_checkins == len(kept)
        assert stats.n_users == len({c.user_id for c in kept})
        assert stats.n_pois == len({c.poi_id for c in kept})
        assert stats.n_unique_checkins == len({(c.user_id, c.poi_id) for c in kept})
        user_counts = Counter(c.user_id for c in checkins)
        survivors = {u for u, n in user_counts.items() if n >= 10}
        poi_counts = Counter(c.poi_id for c in checkins if c.user_id in survivors)
        kept_pois = {p for p, n in poi_counts.items() if n >= 5}
        expected = [
            c for c in checkins if c.user_id in survivors and c.poi_id in kept_pois
        ]
        assert len(kept) == len(expected)

    def test_users_left_below_three_are_dropped(self):
        # A passes the user filter with 6 check-ins, then loses 4 to a rare
        # POI: 2 are left, too few to split, so A goes with them.
        checkins = [make_checkin("A", "rare", 100 + i) for i in range(4)]
        checkins += [make_checkin("A", "hub", 200 + i) for i in range(2)]
        checkins += [make_checkin(f"x{j}", "hub", 1000 + 10 * j + i)
                     for j in range(3) for i in range(6)]
        d = make_dataset(checkins)
        filtered, report = preprocess_filter(d, 5, 5)
        assert list(filtered.user_ids) == ["x0", "x1", "x2"]
        assert len(filtered.ts) == 18
        assert (report.users_removed, report.pois_removed, report.checkins_removed) == (
            1, 1, 6,
        )
        assert (report.short_users_removed, report.short_checkins_removed) == (1, 2)
        assert set(asdict(report)) == {"users_removed", "pois_removed", "checkins_removed"}
        temporal_split(filtered)

    def test_low_thresholds_still_drop_unsplittable_users(self):
        checkins = [make_checkin("A", "p", 100), make_checkin("A", "q", 200)]
        checkins += [make_checkin("B", "p", 300 + i) for i in range(3)]
        filtered, report = preprocess_filter(make_dataset(checkins), 0, 0)
        assert list(filtered.user_ids) == ["B"]
        assert list(filtered.poi_ids) == ["p"]
        assert (report.users_removed, report.pois_removed, report.checkins_removed) == (
            1, 1, 2,
        )

    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 50)),
            min_size=1, max_size=40,
        ),
        min_user=st.integers(0, 8),
        min_poi=st.integers(0, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_output_always_splits(self, rows, min_user, min_poi):
        d = make_dataset([make_checkin(f"u{u}", f"p{p}", ts) for u, p, ts in rows])
        try:
            filtered, report = preprocess_filter(d, min_user, min_poi)
        except DataError as e:
            assert "exhausted" in str(e)
            return
        s = temporal_split(filtered)
        train, _, _ = oracles.checkin_lists(s)
        assert all(train[u] for u in filtered.user_ids)
        assert report.checkins_removed == len(d.ts) - len(filtered.ts)
        assert report.users_removed == len(d.user_ids) - len(filtered.user_ids)


@st.composite
def split_rows(draw):
    """(user code, POI code, timestamp) rows in shuffled order, every user
    with at least MIN_SPLIT_CHECKINS of them: few POIs and timestamps, so
    that (user, timestamp) ties with different POIs and exact duplicate rows
    are common, and timestamps at both ends of the valid range."""
    stamps = draw(st.lists(
        st.sampled_from([1, 2, 3, 10**9, INT64_MAX - 1, INT64_MAX])
        | st.integers(1, INT64_MAX),
        min_size=1, max_size=4,
    ))
    rows = []
    for u in range(draw(st.integers(1, 4))):
        n = draw(st.just(MIN_SPLIT_CHECKINS) | st.integers(MIN_SPLIT_CHECKINS, 12))
        rows += [
            (u, draw(st.integers(0, 3)), draw(st.sampled_from(stamps))) for _ in range(n)
        ]
    rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    return draw(st.permutations(rows))


def columns_of(rows) -> Dataset:
    """A dataset of (user code, POI code, timestamp) rows, with ids
    "u<code>" and "p<code>", codes zero-padded so that they sort."""
    user, poi, ts = zip(*rows)
    n_users, n_pois = max(user) + 1, max(poi) + 1
    return Dataset(
        oracles.ids_of(f"u{i:04d}" for i in range(n_users)),
        oracles.ids_of(f"p{i:04d}" for i in range(n_pois)),
        np.array(user, dtype=np.int32), np.array(poi, dtype=np.int32),
        np.array(ts, dtype=np.int64), np.zeros(n_pois), np.zeros(n_pois),
        np.full(n_pois, -1, dtype=np.int32), oracles.ids_of([]), np.zeros((0, 2), dtype=np.int32),
    )


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
        parts = oracles.checkin_lists(temporal_split(d))
        assert tuple(len(p["u"]) for p in parts) == expected

    def test_empty_test_flagged(self):
        checkins = [make_checkin("u", f"p{i}", 100 * (i + 1)) for i in range(3)]
        _, _, test = oracles.checkin_lists(temporal_split(make_dataset(checkins)))
        assert test["u"] == []

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
        parts = [p["u"] for p in oracles.checkin_lists(s)]
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
        ordered = oracles.sort_user_checkins(checkins)
        assert [c.poi_id for c in ordered] == ["pA", "pA", "pB"]
        assert ordered[0] is checkins[1]
        s = temporal_split(make_dataset(checkins), 1.0, 0.0, 0.0)
        train, _, _ = oracles.checkin_lists(s)
        assert [c.poi_id for c in train["u"]] == ["pA", "pA", "pB"]
        assert s.rows.tolist() == [1, 2, 0]

    def test_negative_fraction_rejected(self, tiny_dataset):
        with pytest.raises(ValueError, match=">= 0"):
            temporal_split(tiny_dataset, 0.8, -0.1, 0.3)

    @given(rows=split_rows())
    @example(rows=[(0, p, 7) for p in (2, 1, 2, 0, 1, 0, 2)])
    @example(rows=[
        (1, 0, INT64_MAX), (0, 1, 1), (1, 1, 1), (0, 0, INT64_MAX),
        (1, 0, INT64_MAX), (0, 1, INT64_MAX - 1), (1, 1, 2),
    ])
    @settings(max_examples=300, deadline=None)
    def test_row_order_equals_lexsort_oracle(self, rows):
        d = columns_of(rows)
        got = temporal_split(d).rows
        want = oracles.split_rows(d)
        assert got.tolist() == want.tolist()

    @given(rows=split_rows())
    @settings(max_examples=100, deadline=None)
    def test_visits_count_each_user_poi_pair(self, rows):
        d = columns_of(rows)
        assert d.visits().count.tolist() == [
            n for _, n in sorted(Counter(zip(d.user.tolist(), d.poi.tolist())).items())
        ]


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
        d = oracles.from_checkins([], {}, SocialGraph())
        stats = dataset_stats(d)
        assert stats.n_checkins == 0
        assert stats.density == 0.0
