"""Check-in dataset loading, validation, filtering, and temporal splitting.

A dataset is numpy columns: one user code, one POI code and one timestamp
per check-in, in input order; coordinates and a category code per POI; one
pair of user codes per friendship. User, POI and category ids are interned
to int32 codes in sorted order, so ordering by code is ordering by id and
every tie-break on ids can be taken on codes.

Each kind of id is held as one `Ids`: a UTF-8 buffer and int64 offsets,
sorted, with no Python object per id until a writer decodes one.

The parse reads each file in blocks of whole lines and numbers a block's
ids before it reads the next, so it holds its output columns, one block's
work, and a key row per distinct id, whatever the number or order of the
lines. Every id field is interned: one `_Intern` numbers the POIs of the
POI and check-in files, another the users of the check-in and social
files, a third the categories of the POI file. Once every file that holds a
kind of id is read, its ids are coded in sorted order and only those of the
defining file are kept: the POI file's POIs, the check-in file's users, the
categories of its POIs. The POI file's POIs are numbered first: the scan of
the check-ins stops at the first numbered past them, an unknown POI. A
friendship with a user without check-ins is dropped.
"""
from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, asdict
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

# Input files are read in blocks of whole lines of about this many bytes.
# A block's work takes a few dozen times as much memory, more for short
# lines; beyond that the parse holds only its columns and distinct ids.
BLOCK_BYTES = 1 << 18
# The most UTF-8 bytes of an id or a category, which bounds the width of a key.
MAX_ID_BYTES = 64
# The most ASCII digits of a timestamp: any such number fits uint64.
MAX_TS_DIGITS = 19
# _PREFIX_MASK[k]: the first k bytes of a big-endian uint64.
_PREFIX_MASK = np.array(
    [(2**64 - 1) ^ (2 ** (64 - 8 * k) - 1) for k in range(9)], dtype=np.uint64
)
# temporal_split needs this many check-ins per user; preprocess_filter
# drops any user it leaves with fewer.
MIN_SPLIT_CHECKINS = 3
# SplitDataset.part labels.
TRAIN, VALIDATION, TEST = 0, 1, 2


class DataError(Exception):
    """Malformed or inconsistent input data."""


class Ids(Sequence):
    """Distinct str ids in ascending order, as one read-only sequence: id i
    is the UTF-8 `buf[offsets[i]:offsets[i + 1]]`, decoded as it is read.
    UTF-8 byte order is code-point order, which is `sorted(str)` order."""

    __slots__ = ("buf", "offsets")

    def __init__(self, buf: bytes, offsets: np.ndarray):
        self.buf, self.offsets = buf, offsets

    @classmethod
    def of(cls, ids) -> Ids:
        """The distinct strs of `ids`, sorted."""
        encoded = sorted({s.encode() for s in ids})
        return cls(b"".join(encoded), np.cumsum([0, *map(len, encoded)], dtype=np.int64))

    @classmethod
    def from_keys(cls, keys: np.ndarray) -> Ids:
        """The ids of sorted, distinct key rows (see `_Block.keys`): an id
        holds no NUL, so its bytes are the nonzero bytes of its row."""
        rows = keys.astype(">u8").view(np.uint8)
        nonzero = rows != 0
        n = np.count_nonzero(nonzero, axis=1)
        return cls(rows[nonzero].tobytes(), np.concatenate(([0], np.cumsum(n, dtype=np.int64))))

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i) -> str:
        i = range(len(self))[i]  # an int's bounds and sign, as a list's
        return self.buf[self.offsets[i]:self.offsets[i + 1]].decode()

    def __iter__(self):
        at = self.offsets.tolist()
        return (self.buf[a:b].decode() for a, b in zip(at, at[1:]))

    def take(self, mask: np.ndarray) -> Ids:
        """The ids at the True entries of the bool `mask`, in order: their
        bytes are gathered through one bool per byte."""
        n = np.diff(self.offsets)
        buf = np.frombuffer(self.buf, dtype=np.uint8)[np.repeat(mask, n)]
        return Ids(buf.tobytes(), np.concatenate(([0], np.cumsum(n[mask]))))

    def decode(self, codes: np.ndarray) -> list[str]:
        """The id at each code of the 1-D int array `codes`; each distinct
        code is decoded once."""
        distinct, of = np.unique(codes, return_inverse=True)
        lo, hi = self.offsets[distinct].tolist(), self.offsets[distinct + 1].tolist()
        names = np.array([self.buf[a:b].decode() for a, b in zip(lo, hi)], dtype=object)
        return names[of].tolist()


def ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices `lo[i]:hi[i]` of every range i, concatenated in order,
    and the range i of each."""
    n = hi - lo
    of = np.repeat(np.arange(len(n)), n)
    return np.arange(len(of)) + (lo - (np.cumsum(n) - n))[of], of


def _pair_keys(row: np.ndarray, col: np.ndarray, n_cols: int) -> np.ndarray:
    """The int64 key `row * n_cols + col` of each pair, ascending: one key
    per pair, built and sorted in place."""
    keys = row.astype(np.int64)
    keys *= n_cols
    keys += col
    keys.sort()
    return keys


@dataclass(frozen=True)
class PairCounts:
    """How often each distinct (row, column) code pair occurs, as CSR: row
    r's columns are `col[indptr[r]:indptr[r + 1]]`, ascending, each seen
    `count` times."""

    indptr: np.ndarray
    col: np.ndarray
    count: np.ndarray
    n_cols: int

    @classmethod
    def of(cls, row: np.ndarray, col: np.ndarray, n_rows: int, n_cols: int) -> PairCounts:
        # Few temporaries: this runs on every check-in of a Gowalla-sized
        # dataset. bounds[i]: keys[i] starts a run; bounds[-1] closes the
        # last one.
        keys = _pair_keys(row, col, n_cols)
        bounds = np.ones(len(keys) + 1, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=bounds[1:-1])
        keys = keys[bounds[:-1]]
        count = np.diff(np.flatnonzero(bounds))
        indptr = np.searchsorted(keys, np.arange(n_rows + 1) * n_cols)
        return cls(indptr, np.remainder(keys, n_cols, out=keys), count, n_cols)

    def rows(self, rs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pairs of rows `rs`, row by row in that order: each pair's
        index into rs, its column and its count."""
        at, of = ranges(self.indptr[rs], self.indptr[rs + 1])
        return of, self.col[at], self.count[at]

    @cached_property
    def keys(self) -> np.ndarray:
        """The ascending int64 key `row * n_cols + col` of each pair."""
        rows = np.arange(len(self.indptr) - 1, dtype=np.int64)
        return np.repeat(rows * self.n_cols, np.diff(self.indptr)) + self.col

    def contains(self, row, col) -> np.ndarray:
        """Whether each (row, col) pair, col in [0, n_cols), occurs: a binary
        search of its key in the sorted pair keys, with three int64
        temporaries per pair. (np.isin raised the peak RSS of a 100-user run
        by about 1 MB.)"""
        want = np.asarray(row, dtype=np.int64) * self.n_cols + col
        return np.searchsorted(self.keys, want, side="right") > np.searchsorted(self.keys, want)


@dataclass
class LoadReport:
    checkin_lines_parsed: int = 0
    checkin_lines_malformed: list[int] = field(default_factory=list)
    poi_lines_parsed: int = 0
    poi_lines_malformed: list[int] = field(default_factory=list)
    # Lines whose poi_id an earlier line already defined; the last one wins.
    poi_lines_duplicate: list[int] = field(default_factory=list)
    social_edges_parsed: int = 0
    # Of the parsed edges: those an earlier line already gave, in either
    # direction; the graph keeps one. A count, not line numbers, because
    # some LBSN dumps list every edge in both directions.
    social_edges_duplicate: int = 0
    social_edges_dropped: int = 0

    # Blocks read from the three files. A plain attribute, not a field, so
    # asdict() and load_report.json keep their keys.
    blocks = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


class Dataset(NamedTuple):
    """Check-ins, POIs and friendships as numpy columns.

    Check-ins are in input order: `user` and `poi` are int32 codes into
    `user_ids` and `poi_ids`; both are sorted, so code order is id order.
    `user_ids` holds the users with at least one check-in. `ts` is int64
    epoch seconds. Every id field is an `Ids`.

    POIs are aligned to `poi_ids`: `lat`, `lon` and `category`, an int32 code
    into the sorted `category_ids` (-1 for none), which holds exactly the
    categories some POI has.

    `edges` holds each friendship once as an int32 (a, b) pair of user codes
    with a < b, in ascending order."""

    user_ids: Ids
    poi_ids: Ids
    user: np.ndarray
    poi: np.ndarray
    ts: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    category: np.ndarray
    category_ids: Ids
    edges: np.ndarray
    load_report: LoadReport | None = None

    def take(self, rows: np.ndarray) -> Dataset:
        """The check-ins at `rows`, in that order, with the same id lists
        (so some users may have no check-in left)."""
        return self._replace(user=self.user[rows], poi=self.poi[rows], ts=self.ts[rows])

    def visits(self) -> PairCounts:
        """Check-ins per distinct (user, POI) pair, by user code then POI
        code."""
        return PairCounts.of(self.user, self.poi, len(self.user_ids), len(self.poi_ids))

    def user_rows(self) -> np.ndarray:
        """Row bounds of each user's check-ins, for columns sorted by user:
        user u's rows are `bounds[u]:bounds[u + 1]`."""
        return np.searchsorted(self.user, np.arange(len(self.user_ids) + 1))

    def friends(self) -> PairCounts:
        """The friendship CSR: row u holds u's friends as ascending user
        codes."""
        a, b = self.edges[:, 0], self.edges[:, 1]
        n = len(self.user_ids)
        return PairCounts.of(np.concatenate((a, b)), np.concatenate((b, a)), n, n)


class SplitDataset(NamedTuple):
    """Per-user chronological partition of a dataset's check-ins.

    `rows` holds the dataset's row indices sorted by (user, timestamp,
    poi_id, input order); `part[i]` is TRAIN, VALIDATION or TEST for
    `rows[i]`. Within each user's block the three parts follow each other in
    that order."""

    dataset: Dataset
    rows: np.ndarray
    part: np.ndarray

    def columns(self, part: int) -> Dataset:
        """The check-ins of one part as columns, in (user, time) order, with
        the dataset's id lists."""
        return self.dataset.take(self.rows[self.part == part])


class DatasetStats(NamedTuple):
    n_users: int
    n_pois: int
    n_checkins: int
    n_unique_checkins: int
    n_social_links: int
    n_categories: int
    checkins_per_user: float
    checkins_per_poi: float
    density: float


@dataclass
class FilterReport:
    users_removed: int
    pois_removed: int
    checkins_removed: int

    # Of the totals above: the users that the single pass left with 1 to
    # MIN_SPLIT_CHECKINS - 1 check-ins, and those check-ins. Plain attributes,
    # not fields, so asdict() and dataset_stats.json keep three keys.
    short_users_removed = 0
    short_checkins_removed = 0


def parse_dataset(
    checkin_path,
    poi_path,
    social_path=None,
    max_malformed_frac: float = 0.01,
) -> Dataset:
    """Load the canonical TSV files into a referentially-consistent Dataset.

    The files are UTF-8 with `\n`, `\r\n` or `\r` line ends, decoded in
    blocks of whole lines. A line that `bytes.strip()` empties is blank and
    skipped. Any other line is malformed unless it holds no NUL byte, at
    least the tabs of its file's required fields (2 in the POI and check-in
    files, 1 in the social file), ids of 1 to MAX_ID_BYTES bytes, a category
    of at most MAX_ID_BYTES bytes (empty for none), a timestamp of 1 to
    MAX_TS_DIGITS ASCII digits with a value in 1..2**63 - 1, and coordinates
    whose float() is in range; fields after the last one read are ignored.
    Line numbers in the report count every physical line, blank ones too.
    Social edges whose endpoints never check in, and malformed social lines,
    are dropped and counted in the load report.
    """
    report = LoadReport()
    # One `_Intern` per kind of id, over every file that holds it.
    pois, users, categories = _Intern(), _Intern(), _Intern()
    poi_lines = _parse_pois(poi_path, pois, categories, report, max_malformed_frac)

    def known_pois(values, line, n_known=pois.n):  # numbers below n_known: the POI file's
        for at in np.flatnonzero(values[1] >= n_known)[:1]:
            poi_id = Ids.from_keys(pois.keys[pois.number == values[1][at]])[0]
            raise DataError(f"check-in at line {line[at]} references unknown poi_id {poi_id!r}")

    (user, poi, ts), bad = _scan(checkin_path, (2, 2), _checkin_block, (users, pois, None),
                                 report, check=known_pois)
    report.checkin_lines_malformed, report.checkin_lines_parsed = bad, len(ts)
    code, poi_ids = _defined(pois, poi_lines[0])
    poi = code[poi]
    _check_malformed(bad, len(ts) + len(bad), max_malformed_frac, checkin_path)
    poi_columns = _poi_columns(code, *poi_lines, categories, report)
    (a, b), bad = (np.zeros(0, dtype=np.int32),) * 2, []
    if social_path is not None:
        (a, b), bad = _scan(social_path, (1, 1), _edge_block, (users, users), report)
    code, user_ids = _defined(users, user)
    # The distinct edges between users with check-ins.
    a, b = code[a], code[b]
    keep = (a >= 0) & (b >= 0) & (a != b)
    report.social_edges_dropped = len(bad) + int(len(keep) - keep.sum())
    report.social_edges_parsed = int(keep.sum())
    edges = edge_pairs(a[keep], b[keep], len(user_ids))
    report.social_edges_duplicate = report.social_edges_parsed - len(edges)
    return Dataset(user_ids, poi_ids, code[user], poi, ts, *poi_columns, edges, report)


def _poi_block(b: _Block):
    lat, lon = b.floats(1), b.floats(2)
    ok = b.id_ok(0) & (b.hi[3] - b.lo[3] <= MAX_ID_BYTES)  # the category may be empty
    ok &= (lat >= -90.0) & (lat <= 90.0) & (lon >= -180.0) & (lon <= 180.0)
    return ok, (b.keys(0, ok), lat[ok], lon[ok], b.keys(3, ok))


def _checkin_block(b: _Block):
    ts = b.timestamps(2)
    ok = b.id_ok(0) & b.id_ok(1) & (ts > 0)
    return ok, (b.keys(0, ok), b.keys(1, ok), ts[ok])


def _edge_block(b: _Block):
    ok = b.id_ok(0) & b.id_ok(1)
    return ok, (b.keys(0, ok), b.keys(1, ok))


def _parse_pois(path, pois: _Intern, categories: _Intern, report: LoadReport, max_frac: float):
    """The POI file's parsed lines as columns: the id numbers in `pois`,
    lat, lon, the category numbers in `categories` (-1 for none), and line
    number."""
    (number, lat, lon, cat, line), bad = _scan(
        path, (2, 3), _poi_block, (pois, None, None, categories), report, lines=True
    )
    report.poi_lines_malformed, report.poi_lines_parsed = bad, len(line)
    _check_malformed(bad, len(line) + len(bad), max_frac, path)
    return number, lat, lon, cat, line


def _defined(intern: _Intern, numbers: np.ndarray) -> tuple[np.ndarray, Ids]:
    """Finishes `intern` and keeps the ids that `numbers` hold: the int32
    code of each number among them, -1 for an id they lack, and the kept
    ids, sorted."""
    code = intern.finish()
    used = np.zeros(len(intern.ids), dtype=bool)
    used[code[np.bincount(numbers, minlength=intern.n) > 0]] = True
    new, kept = renumber(used, intern.ids)
    return new[code], kept


def _poi_columns(code, number, lat, lon, cat, line, categories: _Intern, report: LoadReport):
    """lat, lon, category and category_ids by POI code, from the POI file's
    parsed lines. The first line of a poi_id defines it, later ones are
    duplicates and the last one wins."""
    code = code[number]
    dup = np.ones(len(code), dtype=bool)
    dup[np.unique(code, return_index=True)[1]] = False
    report.poi_lines_duplicate = line[dup].tolist()
    last = len(code) - 1 - np.unique(code[::-1], return_index=True)[1]
    cat = cat[last]
    cat_code, category_ids = _defined(categories, cat[cat >= 0])
    # A last slot maps number -1, no category, to code -1.
    return lat[last], lon[last], np.append(cat_code, np.int32(-1))[cat], category_ids


def edge_pairs(a: np.ndarray, b: np.ndarray, n_users: int) -> np.ndarray:
    """Each distinct undirected pair of user codes once, as an int32
    (lower, higher) row, in ascending order."""
    key = np.sort(np.minimum(a, b).astype(np.int64) * n_users + np.maximum(a, b))
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    key = key[first]
    return np.stack((key // n_users, key % n_users), axis=1).astype(np.int32)


def _scan(path, n_tabs: tuple[int, int], decode, coders, report: LoadReport,
          lines: bool = False, check=lambda *_: None):
    """The parsed lines of `path`, decoded block by block, and the line
    numbers of its malformed ones, in file order.

    `decode(block)` gives the mask of the block's `rows` that it parses and
    their fields: id keys (see `_Block.keys`) or values. A non-blank line
    that it does not parse is malformed. The parsed lines come as columns,
    one per field, then their line numbers if `lines` is set. `coders[j]`,
    an `_Intern`, numbers id field j as int32; then `check(fields, line_numbers)`
    may raise on them, ending the scan, before the next block is read.
    Each column grows in place block by block, so no block outlives its turn
    and no column is ever held twice."""
    columns, bad = None, []
    first_line = 1
    for raw in _read_blocks(path):
        b = _Block(raw, first_line, n_tabs, path)
        ok, fields = decode(b)
        parsed = b.rows[ok]
        malformed = b.nonblank.copy()
        malformed[parsed] = False
        bad += (first_line + np.flatnonzero(malformed)).tolist()
        report.blocks += 1
        values = [f if coder is None else coder.block(f) for f, coder in zip(fields, coders)]
        line = first_line + parsed
        check(values, line)
        if lines:
            values.append(line)
        if columns is None:
            columns = [np.empty(0, dtype=v.dtype) for v in values]
        for column, v in zip(columns, values):
            n = len(column)
            # A realloc: the column grows by the block, not by a copy of itself.
            column.resize(n + len(v), refcheck=False)
            column[n:] = v
        first_line += len(b.ends)
    return columns, bad


def _read_blocks(path):
    """The bytes of `path` in blocks of whole lines of about BLOCK_BYTES, at
    least one. Each block ends at a line end; "\n" ends an unterminated last
    line."""
    p = Path(path)
    if not p.is_file():
        raise DataError(f"unreadable file: {p}")
    with p.open("rb") as fh:
        parts, blocks = [], 0  # parts: the bytes after the last line end
        while chunk := fh.read(BLOCK_BYTES):
            # A CR at the very end may be the first half of a CRLF pair.
            cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, len(chunk) - 1)) + 1
            if cut:
                blocks += 1
                yield b"".join((*parts, chunk[:cut]))
                parts = []
            parts.append(chunk[cut:])
    rest = b"".join(parts)
    if rest and not rest.endswith(b"\r"):
        rest += b"\n"
    if rest or not blocks:
        yield rest


class _Block:
    """One block of whole lines of an input file.

    Line i spans bytes `starts[i]:ends[i]`, its line end excluded, and is
    physical line `first_line + i` of the file. `nonblank[i]`: line i holds
    a byte that `bytes.strip()` keeps. `rows` are the non-blank lines with
    at least `n_tabs[0]` tabs and no NUL byte; field j, for j up to
    `n_tabs[1]`, of `rows[k]` spans bytes `lo[j][k]:hi[j][k]`, and a field
    past a line's last tab is empty.

    A block of LF-ended ASCII lines, each led by a visible byte and holding
    `n_tabs[1]` tabs, is scanned only for LFs, tabs and by `keys`; the CR,
    NUL, UTF-8, blank-byte and tabs-per-line steps run only where needed."""

    def __init__(self, raw: bytes, first_line: int, n_tabs: tuple[int, int], path):
        buf = np.frombuffer(raw, dtype=np.uint8)
        if b"\r" in raw:
            eol = np.flatnonzero((buf == 10) | (buf == 13))
            is_lf = buf[eol] == 10
            # eol[pair] and eol[pair + 1] are a CR and an LF, one line end.
            pair = np.flatnonzero(~is_lf[:-1] & is_lf[1:] & (np.diff(eol) == 1))
            self.ends = np.delete(eol, pair + 1)
            self.starts = np.concatenate(([0], np.delete(eol, pair) + 1))[:-1]
            del eol, is_lf, pair  # not held beside the byte masks below
        else:
            self.ends = np.flatnonzero(buf == 10)
            self.starts = np.concatenate(([0], self.ends + 1))[:-1]
        if not raw.isascii():
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as e:
                line = first_line + int(np.searchsorted(self.ends, e.start))
                raise DataError(f"line {line} of {path} is not valid UTF-8") from None

        # bytes.strip() strips \t, \n, \v, \f, \r (9 to 13) and space. Only if a line is
        # led by one of them (an empty line by its end) are lines tested on every byte.
        lead = buf[self.starts]
        self.nonblank = (lead - np.uint8(9) > 4) & (lead != 32)
        if not self.nonblank.all():
            visible = (buf - np.uint8(9) > 4) & (buf != 32)
            self.nonblank = np.logical_or.reduceat(visible, self.starts)
            del visible
        keep = self.nonblank.copy()
        if b"\0" in raw:
            keep[np.searchsorted(self.ends, np.flatnonzero(buf == 0))] = False
        fewest, most = n_tabs
        tabs = np.flatnonzero(buf == 9)
        # If line i holds the first and last of tabs[most * i:][:most], every
        # line has exactly `most` tabs, those ones.
        if (len(tabs) == most * len(self.ends) and (tabs[::most] >= self.starts).all()
                and (tabs[most - 1::most] < self.ends).all()):
            self.rows = np.flatnonzero(keep)
            self.hi = list(tabs.reshape(-1, most).take(self.rows, axis=0).T)
            end = self.ends[self.rows]
        else:
            per = np.searchsorted(tabs, self.ends)  # the tabs before each line's end
            n_tabs_of = np.diff(per, prepend=0)
            self.rows = np.flatnonzero(keep & (n_tabs_of >= fewest))
            first_tab = (per - n_tabs_of)[self.rows]
            n, end = n_tabs_of[self.rows], self.ends[self.rows]
            # Field j ends at tab j; a missing tab sits at the line end, so
            # the fields after it are empty.
            self.hi = [np.where(j < n, tabs[np.minimum(first_tab + j, len(tabs) - 1)], end)
                       for j in range(most)]
            # The last field ends at a tab before extra fields: set in
            # place, so that it takes no array of its own.
            more = np.flatnonzero(n > most)
            end[more] = tabs[first_tab[more] + most]
        self.lo = [self.starts[self.rows], *(np.minimum(x + 1, end) for x in self.hi)]
        self.hi.append(end)
        self.raw, self.buf = raw, buf
        # words[i]: bytes i to i + 7 as one big-endian integer.
        padded = np.zeros(len(buf) + 8, dtype=np.uint8)
        padded[:len(buf)] = buf
        self.words = np.ndarray((len(buf) + 1,), dtype=">u8", buffer=padded, strides=(1,))

    def id_ok(self, j: int) -> np.ndarray:
        """Whether field j of each of `rows` is 1 to MAX_ID_BYTES bytes."""
        width = self.hi[j] - self.lo[j]
        return (width > 0) & (width <= MAX_ID_BYTES)

    def keys(self, j: int, ok: np.ndarray) -> np.ndarray:
        """Field j of the rows at `ok` as rows of big-endian uint64 words of
        its bytes, NUL-padded. With no NUL in an id, row order is UTF-8 byte
        order, which is code-point order, which is `sorted(str)` order."""
        lo = self.lo[j][ok]
        n = self.hi[j][ok] - lo
        keys = np.empty((len(lo), max(1, -(-int(n.max(initial=0)) // 8))), dtype=np.uint64)
        for w in range(keys.shape[1]):
            # A shorter id's word is masked to 0 wherever it reads.
            at = np.minimum(lo + 8 * w, len(self.buf))
            keys[:, w] = self.words[at] & _PREFIX_MASK[np.clip(n - 8 * w, 0, 8)]
        return keys

    def timestamps(self, j: int) -> np.ndarray:
        """Field j as int64: its value where it is 1 to MAX_TS_DIGITS ASCII
        digits with a value of at most 2**63 - 1, else -1. Digit column k of
        fields right-aligned to `width` bytes is read from the block at
        `hi - width + k` and added into a uint64 value, one column at a time."""
        lo, hi = self.lo[j], self.hi[j]
        n = hi - lo
        width = int(np.clip(n.max(initial=1), 1, MAX_TS_DIGITS))
        ragged = not (n == width).all()
        value = np.zeros(len(n), dtype=np.uint64)
        top = np.zeros(len(n), dtype=np.uint8)  # the largest digit
        for k in range(width):
            # Bytes before a narrower field (at index -1 or less, the block's end) read as 0.
            digit = self.buf[hi - (width - k)] - np.uint8(ord("0"))  # non-digits wrap above 9
            if ragged:
                np.putmask(digit, n < width - k, 0)
            np.maximum(top, digit, out=top)
            value *= np.uint64(10)
            value += digit
        value = value.view(np.int64)
        return np.where((top <= 9) & (n > 0) & (n <= width) & (value >= 0), value, -1)

    def floats(self, j: int) -> np.ndarray:
        """Python's float() of field j's bytes; nan where it raises, as it
        does on non-ASCII text that float() of the str might accept."""
        fields = [self.raw[a:b] for a, b in zip(self.lo[j].tolist(), self.hi[j].tolist())]
        try:
            return np.array(list(map(float, fields)), dtype=float)
        except ValueError:
            return np.array(list(map(_float, fields)), dtype=float)


def _float(text: bytes) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


class _Intern:
    """Numbers the ids of one kind (POIs, users or categories), block by
    block, in every field of every file that holds them; then codes them in
    sorted id order.

    `block(keys)` gives each key row (see `_Block.keys`) a number: each
    distinct key row is numbered when first seen, whatever the block. An
    empty field's zero key row is numbered -1 and names no id. `keys` holds
    the distinct key rows seen so far, sorted, and `number` each one's
    number, so only a block's distinct keys are searched and inserted; no
    key is kept per line. Once every block is in, `finish` gives the code of
    each number: the sorted key rows are the sorted ids, so no line is
    sorted."""

    def __init__(self):
        self.keys = np.zeros((0, 1), dtype=np.uint64)
        self.number = np.zeros(0, dtype=np.int32)
        self.n = 0

    def block(self, keys: np.ndarray) -> np.ndarray:
        distinct, of = _distinct(keys)
        numbers = np.full(len(distinct), -1, dtype=np.int32)
        # The zero row sorts first; `number` views the others' numbers.
        empty = int(len(distinct) > 0 and not distinct[0].any())
        number = numbers[empty:]
        self.keys, distinct = _widen(self.keys, distinct[empty:])
        at, found = _search(self.keys, distinct)
        number[found] = self.number[at[found]]
        new = np.flatnonzero(~found)
        if len(new):  # np.insert copies the whole table, even to insert nothing
            number[new] = np.arange(self.n, self.n + len(new))
            self.n += len(new)
            self.keys = np.insert(self.keys, at[new], distinct[new], axis=0)
            self.number = np.insert(self.number, at[new], number[new])
        return numbers[of]

    def finish(self) -> np.ndarray:
        """Sets `ids`, the sorted distinct ids, and gives the int32 code of
        each number."""
        self.ids = Ids.from_keys(self.keys)
        code = np.empty(self.n, dtype=np.int32)
        code[self.number] = np.arange(len(self.ids))
        return code


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct key rows, sorted, and each row's index among them. Only
    the first row of each run of equal rows is sorted (each user's lines are
    together); take and compress gather rows several times as fast as indexing."""
    head = np.ones(len(keys), dtype=bool)
    head[1:] = _differ(keys[1:], keys[:-1])
    head = np.flatnonzero(head)
    heads = keys.take(head, axis=0)
    order = np.argsort(heads[:, 0]) if keys.shape[1] == 1 else np.lexsort(heads.T[::-1])
    rows = heads.take(order, axis=0)
    new = np.ones(len(rows), dtype=bool)
    new[1:] = _differ(rows[1:], rows[:-1])
    of = np.empty(len(rows), dtype=np.intp)
    of[order] = np.cumsum(new) - 1
    return rows.compress(new, axis=0), np.repeat(of, np.diff(head, append=len(keys)))


def _differ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each key row of a differs from b's, one-word rows as a column."""
    return a[:, 0] != b[:, 0] if a.shape[1] == 1 else (a != b).any(axis=1)


def _widen(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Key rows a and b, the narrower padded with zero words to the wider's
    width; a zero word is all padding, so row order is kept."""
    width = max(a.shape[1], b.shape[1])
    return tuple(
        k if k.shape[1] == width else np.pad(k, ((0, 0), (0, width - k.shape[1])))
        for k in (a, b)
    )


def _search(table: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each key row, the first row of `table` not below it (both sorted
    key rows of one width), and whether that row equals it. Rows of more
    than one word are searched as their big-endian bytes, which sort as the
    rows do."""
    if table.shape[1] == 1:
        at = np.searchsorted(table[:, 0], keys[:, 0])
    else:
        at = np.searchsorted(_bytes(table), _bytes(keys))
    found = at < len(table)
    found[found] = ~_differ(table.take(at[found], axis=0), keys.compress(found, axis=0))
    return at, found


def _bytes(keys: np.ndarray) -> np.ndarray:
    """Each key row as one fixed-width bytes string: its id, NUL-padded."""
    return keys.astype(">u8").view(f"S{8 * keys.shape[1]}").ravel()


def _check_malformed(bad_lines, total, max_frac, path):
    if total and len(bad_lines) / total > max_frac:
        shown = ", ".join(str(n) for n in bad_lines[:20])
        raise DataError(
            f"{len(bad_lines)}/{total} malformed lines in {path} "
            f"(> {max_frac:.0%} threshold); lines: {shown}"
        )


def renumber(used: np.ndarray, ids: Ids) -> tuple[np.ndarray, Ids]:
    """The used ids, in order, and a map from old codes to new int32 ones:
    -1 for an unused id, and one extra last slot so that code -1 maps to
    -1."""
    new = np.full(len(ids) + 1, -1, dtype=np.int32)
    new[:-1][used] = np.arange(int(used.sum()), dtype=np.int32)
    return new, ids.take(used)


def preprocess_filter(
    d: Dataset, min_user_checkins: int, min_poi_checkins: int
) -> tuple[Dataset, FilterReport]:
    """Single-pass cold-start filter: users, then POIs, then orphaned check-ins.

    No fixpoint iteration: a surviving user may end up below threshold after
    POI removal takes some of their check-ins with it. A user left with fewer
    than MIN_SPLIT_CHECKINS cannot be split, so they are dropped with their
    check-ins; the output always passes `temporal_split`.
    """
    if min_user_checkins < 0 or min_poi_checkins < 0:
        raise ValueError("thresholds must be >= 0")

    # One bool per check-in: each kept column is gathered once through the
    # mask, with no int64 row index.
    n_users, n_pois = len(d.user_ids), len(d.poi_ids)
    keep = (np.bincount(d.user, minlength=n_users) >= min_user_checkins)[d.user]
    keep &= (np.bincount(d.poi[keep], minlength=n_pois) >= min_poi_checkins)[d.poi]
    left = np.bincount(d.user[keep], minlength=n_users)
    short = (left > 0) & (left < MIN_SPLIT_CHECKINS)
    keep &= ~short[d.user]
    if not keep.any():
        raise DataError("dataset exhausted by filters")

    new_user, user_ids = renumber(left >= MIN_SPLIT_CHECKINS, d.user_ids)
    new_poi, poi_ids = renumber(np.bincount(d.poi[keep], minlength=n_pois) > 0, d.poi_ids)
    kept = new_poi[:-1] >= 0
    category = d.category[kept]
    new_cat, category_ids = renumber(
        np.bincount(category[category >= 0], minlength=len(d.category_ids)) > 0,
        d.category_ids,
    )
    edges = new_user[d.edges]
    user = new_user[d.user[keep]]
    poi = new_poi[d.poi[keep]]
    ts = d.ts[keep]

    report = FilterReport(
        users_removed=len(d.user_ids) - len(user_ids),
        pois_removed=len(d.poi_ids) - len(poi_ids),
        checkins_removed=len(d.ts) - len(ts),
    )
    report.short_users_removed = int(short.sum())
    report.short_checkins_removed = int(left[short].sum())
    filtered = Dataset(
        user_ids, poi_ids, user, poi, ts,
        d.lat[kept], d.lon[kept], new_cat[category], category_ids,
        edges[(edges >= 0).all(axis=1)], d.load_report,
    )
    return filtered, report


def temporal_split(
    d: Dataset,
    train_frac: float = 0.7,
    val_frac: float = 0.1,
    test_frac: float = 0.2,
) -> SplitDataset:
    """Per-user earliest/latest split: floor(train_frac*n) train, floor(test_frac*n)
    test from the end, remainder validation. Each user's check-ins are
    ordered by (timestamp, poi_id, input order)."""
    if abs(train_frac + val_frac + test_frac - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    if min(train_frac, val_frac, test_frac) < 0:
        raise ValueError("split fractions must be >= 0")

    n = np.bincount(d.user, minlength=len(d.user_ids))
    short = np.flatnonzero(n < MIN_SPLIT_CHECKINS)
    if len(short):
        u = short[0]
        raise DataError(
            f"user {d.user_ids[u]!r} has {int(n[u])} check-ins "
            f"(< {MIN_SPLIT_CHECKINS}); filter first"
        )
    # Each timestamp's dense rank comes from one argsort, counted in place in
    # the sorted copy of the timestamps. The key user code * distinct
    # timestamps + rank cannot overflow int64, whatever the timestamps, and
    # its stable argsort orders by (user, timestamp, input order); then only
    # the rows that tie on it are ordered by POI code.
    by_ts = np.argsort(d.ts)
    rank = d.ts[by_ts]
    new = rank[1:] != rank[:-1]
    rank[:1] = 0
    np.cumsum(new, out=rank[1:])
    del new
    key = np.empty_like(rank)
    key[by_ts] = rank
    n_distinct = int(rank[-1]) + 1 if len(rank) else 0
    del by_ts, rank
    key += d.user.astype(np.int64) * n_distinct
    rows = np.argsort(key, kind="stable")
    # Sorted in place, the key is in the order of the sorted rows.
    key.sort()
    tie = key[1:] == key[:-1]
    tied = np.zeros(len(key), dtype=bool)
    tied[1:] = tie
    tied[:-1] |= tie
    at = np.flatnonzero(tied)
    if len(at):
        rows[at] = rows[at][np.lexsort((d.poi[rows[at]], key[at]))]
    del key, tie, tied
    n_test = (test_frac * n).astype(np.int64)
    n_train = np.minimum((train_frac * n).astype(np.int64), n - n_test)
    # Each user's sorted rows are n_train TRAIN, then VALIDATION, then n_test
    # TEST rows.
    parts = np.tile(np.array([TRAIN, VALIDATION, TEST], dtype=np.int8), len(n))
    part = np.repeat(parts, np.stack((n_train, n - n_train - n_test, n_test), axis=1).ravel())
    return SplitDataset(d, rows, part)


def dataset_stats(d: Dataset) -> DatasetStats:
    n_users = len(d.user_ids)
    n_pois = len(d.poi_ids)
    n_checkins = len(d.ts)
    # Distinct (user, POI) pairs: where the sorted pair keys change.
    key = _pair_keys(d.user, d.poi, n_pois)
    n_unique = int(np.count_nonzero(key[1:] != key[:-1])) + (n_checkins > 0)
    return DatasetStats(
        n_users=n_users,
        n_pois=n_pois,
        n_checkins=n_checkins,
        n_unique_checkins=n_unique,
        n_social_links=len(d.edges),
        n_categories=len(d.category_ids),
        checkins_per_user=n_checkins / n_users if n_users else 0.0,
        checkins_per_poi=n_checkins / n_pois if n_pois else 0.0,
        density=n_checkins / (n_users * n_pois) if n_users and n_pois else 0.0,
    )
