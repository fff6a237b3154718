"""Property test: the block-wise `parse_dataset` equals the line-at-a-time
oracle (`oracles.parse_dataset`), which applies the file format's rules to
one text-mode line at a time, on adversarial TSV files. Both give the same
check-in columns, POI columns, friend CSR and load report, or the same
DataError message; also with blocks of a few bytes, so that lines and CRLF
pairs straddle blocks. Fixed worlds take each decoder step's fast path and
its general path; two block kernels, `_Block.timestamps` and `_distinct`,
are held to a scalar rule and to `np.unique`."""
import re
from dataclasses import asdict
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poifair import data
from poifair.data import DataError, parse_dataset

import oracles

# Ids that sort differently as strings and as numbers, non-ASCII ones, ids
# of 8, 9, 64 and 65 UTF-8 bytes (one or two key words, at and past the
# limit), ids with NUL, empty and whitespace ids.
LONG = "M" * 64
IDS = [
    "u1", "u10", "u9", "U", "a b", "é", "日本", "abcdefgh", "abcdefghi",
    "abcdefghé", LONG, LONG[:-1] + "é", "x", "x\x00y", "\x00", "", " ",
    "\x85", "\u2028",
]
TIMESTAMPS = [
    "1", "100", "1300000000", "0012", "0", "000", "+12", "-5", " 12 ", "1_000",
    "١٢", "１２", "9" * 18, "9" * 19, str(2**63 - 1), str(2**63), "12a", "", "1e5",
]
COORDS = [
    "40.0", "-100.5", "0", "-0.0", "1.5e-300", "+40", " 40 ", "4_0", "nan", "inf",
    "1e1", "٤٠", "91", "-181", "", "abc", "40.000000000000001", "0x10",
]
CATEGORIES = [None, "", "cafe", "bar", "é", "c\x00", LONG + "é"]
BLANK = ["", " ", "\t", "\t\t", "\t\t\t", "\u2028", "\x85", "  \t "]
LINE_ENDS = ["\n", "\r\n", "\r"]


def lines(record):
    """Lines that are blank or a record, with an extra field now and then."""
    extra = st.sampled_from(["", "\textra", "\t"])
    return st.lists(st.one_of(
        st.sampled_from(BLANK), st.tuples(record, extra).map("".join)
    ), max_size=12)


@st.composite
def text(draw, line_list):
    """The lines joined by mixed line ends, the last one possibly without."""
    out = "".join(line + draw(st.sampled_from(LINE_ENDS)) for line in line_list)
    if out and draw(st.booleans()):
        out = out.rstrip("\r\n")
    return out


@st.composite
def files(draw):
    """(POI text, check-in text, social text or None, max_malformed_frac)."""
    pool = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=8, unique=True))
    # Mostly known POIs, sometimes one the POI file does not define.
    poi_ref = st.one_of(*[st.sampled_from(pool)] * 9, st.sampled_from(IDS))
    coord = st.one_of(st.just("40.25"), st.sampled_from(COORDS))
    ts = st.one_of(st.just("1300000000"), st.sampled_from(TIMESTAMPS))
    category = st.sampled_from(CATEGORIES).map(lambda c: "" if c is None else "\t" + c)
    poi_line = st.tuples(st.sampled_from(pool), coord, coord).map("\t".join)
    poi_line = st.tuples(poi_line, category).map("".join)
    user = st.sampled_from(IDS)
    checkin_line = st.tuples(user, poi_ref, ts).map("\t".join)
    edge_line = st.one_of(
        st.tuples(user, st.one_of(user, st.just("ghost"))).map("\t".join),
        user.map(lambda u: f"{u}\t{u}"),
        user,
    )
    social = draw(st.one_of(st.none(), text(draw(lines(edge_line)))))
    return (
        draw(text(draw(lines(poi_line)))),
        draw(text(draw(lines(checkin_line)))),
        social,
        draw(st.sampled_from([0.01, 0.5, 1.0])),
    )


def outcome(parse, paths, frac):
    try:
        return parse(*paths, max_malformed_frac=frac)
    except DataError as e:
        return str(e)


def check_same(tmp_path, world):
    poi_text, checkin_text, social_text, frac = world
    po, ci = tmp_path / "pois.tsv", tmp_path / "checkins.tsv"
    po.write_bytes(poi_text.encode("utf-8"))
    ci.write_bytes(checkin_text.encode("utf-8"))
    so = None
    if social_text is not None:
        so = tmp_path / "social.tsv"
        so.write_bytes(social_text.encode("utf-8"))
    got = outcome(parse_dataset, (ci, po, so), frac)
    want = outcome(oracles.parse_dataset, (ci, po, so), frac)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert asdict(got.load_report) == asdict(want.load_report)
    assert (list(got.user_ids), list(got.poi_ids)) == (want.user_ids, want.poi_ids)
    for name in ("user", "poi", "ts"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.tolist() == w.tolist(), name
    lat, lon, category, category_ids = oracles.poi_columns(want.pois, want.poi_ids)
    assert got.lat.tobytes() == lat.tobytes() and got.lon.tobytes() == lon.tobytes()
    assert got.category.tolist() == category.tolist()
    assert list(got.category_ids) == category_ids
    friends = got.friends()
    assert [oracles.csr_row(friends, u)[0].tolist() for u in range(len(got.user_ids))] == (
        oracles.friend_codes(want.social, want.user_ids)
    )
    assert got.edges.tolist() == oracles.edge_rows(want.social, want.user_ids).tolist()


@given(world=files())
@settings(max_examples=200, deadline=None)
# A short id after a 64-byte one, at the end of a block: its key words past
# its end must be read inside the block.
@example(world=("", f"u1\t{LONG}\t1\nu1\tu1\t1\n", None, 0.01))
# The largest timestamp, of MAX_TS_DIGITS digits, and the first too large.
@example(world=("p\t40\t-100\n", f"u\tp\t{2**63 - 1}\nu\tp\t{2**63}\n", None, 0.5))
def test_parse_equals_line_oracle(tmp_path_factory, world):
    check_same(tmp_path_factory.mktemp("parse"), world)


@given(world=files(), block_bytes=st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_parse_equals_line_oracle_in_tiny_blocks(tmp_path_factory, world, block_bytes):
    with patch.object(data, "BLOCK_BYTES", block_bytes):
        check_same(tmp_path_factory.mktemp("parse"), world)


def _text(*lines, end="\n"):
    return "".join(line + end for line in lines)


POI_LINES = ("p1\t40.5\t-100.25\tcafe", "p2\t41\t-101\tbar", "p3\t42\t-102\tcafe")
CHECKIN_LINES = (
    "u1\tp1\t1300000000", "u1\tp2\t1300000100", "u1\tp3\t1300000200",
    "u2\tp2\t1300000300", "u2\tp1\t1300000400", "u3\tp3\t1300000500",
)
SOCIAL_LINES = ("u1\tu2", "u1\tu3", "u2\tu3")
PLAIN = (_text(*POI_LINES), _text(*CHECKIN_LINES), _text(*SOCIAL_LINES), 0.01)
# Files made of sixteen-byte ids: two key words each.
LONG_IDS = tuple(
    _text(*lines).replace("p", "poi-0000000000-").replace("u", "user-000000000-")
    for lines in (POI_LINES, CHECKIN_LINES, SOCIAL_LINES)
)

# Each step of the block decoder has a fast path for a block of ordinary
# lines (LF ends, ASCII, no NUL, each line led by a visible byte and holding
# its file's most tabs, timestamps of one width) and a general path for any
# other block. "plain" takes every fast path; each world after it takes the
# general path of some step in a block of the whole file, and at 1 to 8
# bytes a block, where most blocks hold one line, the fast paths too. The
# last three give the interning ids out of runs, or of two key words.
DECODER_PATHS = {
    "plain": PLAIN,
    "crlf": tuple(t.replace("\n", "\r\n") for t in PLAIN[:3]) + (0.01,),
    "lone-cr": (
        _text(*POI_LINES, end="\r"),
        _text(*CHECKIN_LINES[:3]) + _text(*CHECKIN_LINES[3:], end="\r"),
        _text(*SOCIAL_LINES, end="\r\n"),
        0.01,
    ),
    "nul": (
        _text(*POI_LINES, "p4\t1\t1\tc\x00"),
        _text(*CHECKIN_LINES, "u1\tp\x001\t5"),
        _text(*SOCIAL_LINES, "u1\x00\tu2"),
        0.5,
    ),
    # Empty lines, lines of spaces and tabs, and lines led by a space or a tab.
    "blank": (
        _text(*POI_LINES, "", "  \t "),
        _text("", *CHECKIN_LINES[:3], " \t", "\t\t", " u1\tp2\t5", "\tp1\t7", *CHECKIN_LINES[3:],
              "  "),
        _text(" ", *SOCIAL_LINES, "\t", " u1\tu2"),
        0.5,
    ),
    "extra-field": (
        _text(*POI_LINES, "p4\t1\t2\tc\textra"),
        _text(*CHECKIN_LINES, "u2\tp3\t9\textra\tmore"),
        _text(*SOCIAL_LINES, "u3\tu1\textra"),
        0.01,
    ),
    "missing-field": (
        _text(*POI_LINES, "p4\t1\t2"),
        _text(*CHECKIN_LINES, "u2\tp3"),
        _text(*SOCIAL_LINES, "u3"),
        0.5,
    ),
    # As many tabs as lines times the most, but a line with one too many is
    # next to one with too few, before it or after it.
    "tab-count": (
        _text(*POI_LINES[:2], "p3\t42\t-102\tcafe\textra", "p4\t1\t2"),
        _text(*CHECKIN_LINES, "u1\tp1\t3\tx", "u2\tp2", "u3\tp3", "u3\tp1\t8\ty"),
        _text("u3", "u1\tu2\tx", *SOCIAL_LINES),
        0.5,
    ),
    "widths": (
        "p1\t40\t-100\tc\n",
        _text(*(f"u1\tp1\t{ts}" for ts in (
            "1", "1300000000", "1000000000000000001", 2**63 - 1, 2**63, "0012",
            "0000000000000000009", "7",
        ))),
        None,
        0.5,
    ),
    "shuffled": (
        _text(*POI_LINES[::-1]),
        _text(*CHECKIN_LINES[::2], *CHECKIN_LINES[1::2]),
        _text(*SOCIAL_LINES[::-1]),
        0.01,
    ),
    "two-word": LONG_IDS + (0.01,),
    "two-word-shuffled": (
        *("".join(sorted(t.splitlines(True), key=lambda line: line[::-1])) for t in LONG_IDS),
        0.01,
    ),
}


@pytest.mark.parametrize("block_bytes", [*range(1, 9), data.BLOCK_BYTES])
@pytest.mark.parametrize("name", DECODER_PATHS)
def test_each_decoder_path_equals_line_oracle(tmp_path, name, block_bytes):
    with patch.object(data, "BLOCK_BYTES", block_bytes):
        check_same(tmp_path, DECODER_PATHS[name])


@pytest.mark.parametrize("block_bytes", [1, 2, 3, data.BLOCK_BYTES])
def test_crlf_and_lone_cr_straddling_blocks(tmp_path, block_bytes):
    po, ci = tmp_path / "pois.tsv", tmp_path / "checkins.tsv"
    po.write_bytes(b"p1\t40\t-100\tc\r\np2\t41\t-101\t\r")
    ci.write_bytes(b"u1\tp1\t100\r\n\r\nu2\tp2\t200\r\rbad\r\nu1\tp2\t300")
    with patch.object(data, "BLOCK_BYTES", block_bytes):
        d = parse_dataset(ci, po, max_malformed_frac=0.5)
    assert d.load_report.checkin_lines_malformed == [5]
    assert d.load_report.checkin_lines_parsed == 3
    assert d.ts.tolist() == [100, 200, 300]
    assert list(d.category_ids) == ["c"] and d.category.tolist() == [0, -1]
    assert d.load_report.blocks >= 2


def test_canonical_lines_parse_and_a_signed_timestamp_is_malformed(tmp_path):
    po, ci, so = tmp_path / "pois.tsv", tmp_path / "checkins.tsv", tmp_path / "social.tsv"
    po.write_text("p1\t40.5\t-100.25\tcafe\np2\t41\t-101\t\n")
    ci.write_text("u1\tp1\t100\nu2\tp2\t999999999999999999\n\nu1\tp2\t+3\n")
    so.write_text("u1\tu2\nu2\tu1\n")
    d = parse_dataset(ci, po, so, max_malformed_frac=0.5)
    assert d.load_report.checkin_lines_malformed == [4]
    assert d.ts.tolist() == [100, 999999999999999999]
    assert d.edges.tolist() == [[0, 1]]
    assert np.array_equal(d.lat, [40.5, 41.0])


# Timestamp fields of up to 21 bytes: plain digit strings, values about
# 2**63, and mixes of digits with signs, spaces, underscores and non-ASCII
# digits (two and three UTF-8 bytes).
TS_FIELDS = st.one_of(
    st.text("0123456789", max_size=21),
    st.sampled_from(["9" * 19, str(2**63 - 1), str(2**63), str(2**64 - 1), "0" * 20 + "1"]),
    st.text("0123456789+- _١９", max_size=21),
).map(str.encode).filter(lambda f: len(f) <= 21)


@given(fields=st.lists(TS_FIELDS, min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
# A short field first, so that its columns before it are read at a
# negative index; then fields of one width only.
@example(fields=[b"1", b"9" * 19, b"12"])
@example(fields=[b"1300000000", b"1300000001", b"13000000+2"])
def test_timestamps_read_each_field_as_the_scalar_rule(fields):
    b = data._Block(b"".join(b"k\t" + f + b"\n" for f in fields), 1, (1, 1), "t")
    assert b.rows.tolist() == list(range(len(fields)))
    want = [int(f) if re.fullmatch(rb"[0-9]{1,19}", f) and int(f) < 2**63 else -1 for f in fields]
    assert b.timestamps(1).tolist() == want


WORDS = st.sampled_from([0, 1, 2, 0x7A00000000000000, 2**63 - 1, 2**63, 2**64 - 1])


@given(rows=st.lists(st.tuples(WORDS, WORDS, st.integers(1, 3)), max_size=30),
       width=st.sampled_from([1, 2]))
@settings(max_examples=300, deadline=None)
@example(rows=[(2, 0, 3), (1, 1, 2), (2, 0, 1), (0, 0, 4)], width=1)
@example(rows=[(2, 5, 1), (2, 1, 1), (2**63, 0, 1), (2, 1, 1)], width=2)
def test_distinct_equals_np_unique(rows, width):
    """Key rows in runs (a row repeated up to 3 times) and out of order,
    of one and two words, with the top bit set in some."""
    base = np.array([r[:2] for r in rows], dtype=np.uint64).reshape(-1, 2)[:, :width]
    keys = np.repeat(base, [r[2] for r in rows], axis=0)
    distinct, of = data._distinct(keys)
    want, want_of = np.unique(keys, axis=0, return_inverse=True)
    assert distinct.dtype == keys.dtype and distinct.tolist() == want.tolist()
    assert of.tolist() == want_of.ravel().tolist()
