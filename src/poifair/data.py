"""Check-in dataset loading, validation, filtering, and temporal splitting.

Check-ins are numpy columns: one user code, one POI code and one timestamp
per check-in, in input order. User and POI ids are interned to int32 codes in
sorted order, so ordering by code is ordering by id and every tie-break on
ids can be taken on codes. `CheckIn` is only the input of
`Dataset.from_checkins`.
"""
from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import numpy as np

INT64_MAX = 2**63 - 1
# temporal_split needs this many check-ins per user; preprocess_filter
# drops any user it leaves with fewer.
MIN_SPLIT_CHECKINS = 3
# SplitDataset.part labels.
TRAIN, VALIDATION, TEST = 0, 1, 2


class DataError(Exception):
    """Malformed or inconsistent input data."""


@dataclass(frozen=True)
class CheckIn:
    user_id: str
    poi_id: str
    timestamp: int
    latitude: float
    longitude: float


@dataclass(frozen=True)
class Poi:
    poi_id: str
    latitude: float
    longitude: float
    category_id: str | None = None


class SocialGraph:
    """Undirected friendship graph with symmetric membership queries."""

    def __init__(self, edges=()):
        self._adj: dict[str, set[str]] = defaultdict(set)
        self._n_edges = 0
        for a, b in edges:
            self.add_edge(a, b)

    def add_edge(self, a: str, b: str) -> bool:
        """Add the edge; False if it was already there, in either direction."""
        if a == b:
            raise DataError(f"self-loop on user {a!r}")
        if b in self._adj[a]:
            return False
        self._adj[a].add(b)
        self._adj[b].add(a)
        self._n_edges += 1
        return True

    def friends(self, u: str) -> frozenset[str]:
        return frozenset(self._adj.get(u, ()))

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def subgraph(self, users: set[str]) -> SocialGraph:
        """The edges between `users`."""
        g = SocialGraph()
        for u in users:
            kept = self._adj.get(u, set()) & users
            if kept:
                g._adj[u] = kept
        g._n_edges = sum(map(len, g._adj.values())) // 2
        return g


@dataclass(frozen=True)
class PairCounts:
    """How often each distinct (row, column) code pair occurs, as CSR: row
    r's columns are `col[indptr[r]:indptr[r + 1]]`, ascending, each seen
    `count` times."""

    indptr: np.ndarray
    col: np.ndarray
    count: np.ndarray

    @classmethod
    def of(cls, row: np.ndarray, col: np.ndarray, n_rows: int, n_cols: int) -> PairCounts:
        keys = np.sort(row.astype(np.int64) * n_cols + col)
        # bounds[i]: keys[i] starts a run; bounds[-1] closes the last one.
        # Few temporaries: this runs on every check-in of a Gowalla-sized
        # dataset.
        bounds = np.ones(len(keys) + 1, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=bounds[1:-1])
        count = np.diff(np.flatnonzero(bounds))
        keys = keys[bounds[:-1]]
        indptr = np.searchsorted(keys, np.arange(n_rows + 1) * n_cols)
        return cls(indptr, np.remainder(keys, n_cols, out=keys), count)

    def row(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Row r's columns and their counts."""
        lo, hi = self.indptr[r], self.indptr[r + 1]
        return self.col[lo:hi], self.count[lo:hi]


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

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


@dataclass
class Dataset:
    """Check-ins as parallel columns, in input order.

    `user` and `poi` are int32 codes into `user_ids` and `poi_ids`; both are
    sorted, so code order is id order. `poi_ids` is `sorted(pois)` and
    `user_ids` holds the users with at least one check-in. `ts` is int64
    epoch seconds."""

    user_ids: list[str]
    poi_ids: list[str]
    user: np.ndarray
    poi: np.ndarray
    ts: np.ndarray
    pois: dict[str, Poi]
    social: SocialGraph
    load_report: LoadReport | None = None

    @classmethod
    def from_checkins(
        cls, checkins: list[CheckIn], pois: dict[str, Poi], social: SocialGraph
    ) -> Dataset:
        """Columns for a list of check-ins; their coordinates are taken from
        `pois`, which must define every POI they name."""
        user_ids = sorted({c.user_id for c in checkins})
        poi_ids = sorted(pois)
        ucode = {u: i for i, u in enumerate(user_ids)}
        pcode = {p: i for i, p in enumerate(poi_ids)}
        return cls(
            user_ids,
            poi_ids,
            np.array([ucode[c.user_id] for c in checkins], dtype=np.int32),
            np.array([pcode[c.poi_id] for c in checkins], dtype=np.int32),
            np.array([c.timestamp for c in checkins], dtype=np.int64),
            pois,
            social,
        )

    def take(self, rows: np.ndarray) -> Dataset:
        """The check-ins at `rows`, in that order, with the same id lists
        (so some users may have no check-in left)."""
        return replace(
            self, user=self.user[rows], poi=self.poi[rows], ts=self.ts[rows]
        )

    def visits(self) -> PairCounts:
        """Check-ins per distinct (user, POI) pair, by user code then POI
        code."""
        return PairCounts.of(self.user, self.poi, len(self.user_ids), len(self.poi_ids))

    def user_rows(self) -> np.ndarray:
        """Row bounds of each user's check-ins, for columns sorted by user:
        user u's rows are `bounds[u]:bounds[u + 1]`."""
        return np.searchsorted(self.user, np.arange(len(self.user_ids) + 1))

    def poi_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Latitude, longitude and category code of each POI, by POI code.
        Category codes number the distinct categories in sorted order; a POI
        without one gets -1."""
        pois = [self.pois[p] for p in self.poi_ids]
        cats = sorted({p.category_id for p in pois} - {None})
        code = {c: i for i, c in enumerate(cats)}
        return (
            np.array([p.latitude for p in pois], dtype=float),
            np.array([p.longitude for p in pois], dtype=float),
            np.array([code.get(p.category_id, -1) for p in pois], dtype=np.intp),
        )

    def friend_codes(self) -> list[np.ndarray]:
        """Each user's friends that have check-ins, as ascending user codes."""
        code = {u: i for i, u in enumerate(self.user_ids)}
        return [
            np.array(sorted(code[v] for v in self.social.friends(u) if v in code),
                     dtype=np.intp)
            for u in self.user_ids
        ]


@dataclass
class SplitDataset:
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


@dataclass
class DatasetStats:
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


def _validate_coords(lat: float, lon: float) -> bool:
    return -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0


def parse_dataset(
    checkin_path,
    poi_path,
    social_path=None,
    max_malformed_frac: float = 0.01,
) -> Dataset:
    """Load the canonical TSV files into a referentially-consistent Dataset.

    Check-in coordinates are joined from the POI file. Social edges whose
    endpoints never check in are dropped and counted in the load report.
    Line numbers in the report count every physical line, blank ones too.
    """
    report = LoadReport()

    pois: dict[str, Poi] = {}
    poi_lines = 0
    for lineno, line in _read_lines(poi_path):
        poi_lines += 1
        parts = line.rstrip("\n").split("\t")
        if len(parts) < 3:
            report.poi_lines_malformed.append(lineno)
            continue
        try:
            lat, lon = float(parts[1]), float(parts[2])
        except ValueError:
            report.poi_lines_malformed.append(lineno)
            continue
        if not _validate_coords(lat, lon):
            report.poi_lines_malformed.append(lineno)
            continue
        category = parts[3] if len(parts) > 3 and parts[3] != "" else None
        if parts[0] in pois:
            report.poi_lines_duplicate.append(lineno)
        pois[parts[0]] = Poi(parts[0], lat, lon, category)
    report.poi_lines_parsed = poi_lines - len(report.poi_lines_malformed)
    _check_malformed(report.poi_lines_malformed, poi_lines, max_malformed_frac, poi_path)

    poi_ids = sorted(pois)
    poi_code = {p: i for i, p in enumerate(poi_ids)}
    user_code: dict[str, int] = {}  # in order of first appearance
    user_col: list[int] = []
    poi_col: list[int] = []
    ts_col: list[int] = []
    malformed = report.checkin_lines_malformed
    ci_lines = 0
    for lineno, line in _read_lines(checkin_path):
        ci_lines += 1
        parts = line.rstrip("\n").split("\t")
        if len(parts) < 3:
            malformed.append(lineno)
            continue
        try:
            ts = int(parts[2])
        except ValueError:
            malformed.append(lineno)
            continue
        if not 0 < ts <= INT64_MAX:
            malformed.append(lineno)
            continue
        p = poi_code.get(parts[1])
        if p is None:
            raise DataError(
                f"check-in at line {lineno} references unknown poi_id {parts[1]!r}"
            )
        user_col.append(user_code.setdefault(parts[0], len(user_code)))
        poi_col.append(p)
        ts_col.append(ts)
    report.checkin_lines_parsed = ci_lines - len(malformed)
    _check_malformed(malformed, ci_lines, max_malformed_frac, checkin_path)

    # Renumber users from first appearance to sorted id order.
    user_ids = sorted(user_code)
    sorted_code = np.empty(len(user_ids), dtype=np.int32)
    sorted_code[[user_code[u] for u in user_ids]] = np.arange(len(user_ids))
    user = sorted_code[np.array(user_col, dtype=np.intp)]

    social = SocialGraph()
    if social_path is not None:
        for _, line in _read_lines(social_path):
            parts = line.rstrip("\n").split("\t")
            if len(parts) < 2 or parts[0] == parts[1]:
                report.social_edges_dropped += 1
                continue
            if parts[0] not in user_code or parts[1] not in user_code:
                report.social_edges_dropped += 1
                continue
            if not social.add_edge(parts[0], parts[1]):
                report.social_edges_duplicate += 1
            report.social_edges_parsed += 1

    return Dataset(
        user_ids,
        poi_ids,
        user,
        np.array(poi_col, dtype=np.int32),
        np.array(ts_col, dtype=np.int64),
        pois,
        social,
        report,
    )


def _read_lines(path):
    """(physical line number, line) for every non-blank line of path."""
    p = Path(path)
    if not p.is_file():
        raise DataError(f"unreadable file: {p}")
    with p.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield lineno, line


def _check_malformed(bad_lines, total, max_frac, path):
    if total and len(bad_lines) / total > max_frac:
        shown = ", ".join(str(n) for n in bad_lines[:20])
        raise DataError(
            f"{len(bad_lines)}/{total} malformed lines in {path} "
            f"(> {max_frac:.0%} threshold); lines: {shown}"
        )


def _recode(codes: np.ndarray, ids: list[str]) -> tuple[np.ndarray, list[str]]:
    """Renumber codes to the ids they use, keeping the ids' order."""
    used = np.bincount(codes, minlength=len(ids)) > 0
    new_code = (np.cumsum(used) - 1).astype(np.int32)
    return new_code[codes], [i for i, u in zip(ids, used.tolist()) if u]


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

    n_users = len(d.user_ids)
    kept_users = np.bincount(d.user, minlength=n_users) >= min_user_checkins
    keep = kept_users[d.user]
    kept_pois = np.bincount(d.poi[keep], minlength=len(d.poi_ids)) >= min_poi_checkins
    keep &= kept_pois[d.poi]
    left = np.bincount(d.user[keep], minlength=n_users)
    short = (left > 0) & (left < MIN_SPLIT_CHECKINS)
    keep &= ~short[d.user]
    rows = np.flatnonzero(keep)
    if not len(rows):
        raise DataError("dataset exhausted by filters")

    user, user_ids = _recode(d.user[rows], d.user_ids)
    poi, poi_ids = _recode(d.poi[rows], d.poi_ids)
    kept_ids = set(poi_ids)
    pois = {p: poi for p, poi in d.pois.items() if p in kept_ids}
    social = d.social.subgraph(set(user_ids))

    report = FilterReport(
        users_removed=len(d.user_ids) - len(user_ids),
        pois_removed=len(d.pois) - len(pois),
        checkins_removed=len(d.ts) - len(rows),
    )
    report.short_users_removed = int(short.sum())
    report.short_checkins_removed = int(left[short].sum())
    filtered = Dataset(
        user_ids, poi_ids, user, poi, d.ts[rows], pois, social, d.load_report
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
    rows = np.lexsort((np.arange(len(d.ts)), d.poi, d.ts, d.user))
    n_train = (train_frac * n).astype(np.int64)
    n_test = (test_frac * n).astype(np.int64)
    # Position of each sorted row within its user's block.
    block_user = np.repeat(np.arange(len(n)), n)
    pos = np.arange(len(rows)) - (np.cumsum(n) - n)[block_user]
    part = np.full(len(rows), VALIDATION, dtype=np.int8)
    part[pos < n_train[block_user]] = TRAIN
    part[pos >= (n - n_test)[block_user]] = TEST
    return SplitDataset(d, rows, part)


def dataset_stats(d: Dataset) -> DatasetStats:
    n_users = len(d.user_ids)
    n_pois = len(d.pois)
    n_checkins = len(d.ts)
    n_unique = len(d.visits().col)
    n_cats = len({p.category_id for p in d.pois.values() if p.category_id is not None})
    return DatasetStats(
        n_users=n_users,
        n_pois=n_pois,
        n_checkins=n_checkins,
        n_unique_checkins=n_unique,
        n_social_links=d.social.n_edges,
        n_categories=n_cats,
        checkins_per_user=n_checkins / n_users if n_users else 0.0,
        checkins_per_poi=n_checkins / n_pois if n_pois else 0.0,
        density=n_checkins / (n_users * n_pois) if n_users and n_pois else 0.0,
    )
