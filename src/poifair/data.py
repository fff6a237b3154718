"""Check-in dataset loading, validation, filtering, and temporal splitting."""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field, asdict
from pathlib import Path


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

    def add_edge(self, a: str, b: str) -> None:
        if a == b:
            raise DataError(f"self-loop on user {a!r}")
        if b not in self._adj[a]:
            self._adj[a].add(b)
            self._adj[b].add(a)
            self._n_edges += 1

    def friends(self, u: str) -> frozenset[str]:
        return frozenset(self._adj.get(u, ()))

    def has_edge(self, a: str, b: str) -> bool:
        return b in self._adj.get(a, ())

    @property
    def n_edges(self) -> int:
        return self._n_edges


@dataclass
class LoadReport:
    checkin_lines_parsed: int = 0
    checkin_lines_malformed: list[int] = field(default_factory=list)
    poi_lines_parsed: int = 0
    poi_lines_malformed: list[int] = field(default_factory=list)
    # Lines whose poi_id an earlier line already defined; the last one wins.
    poi_lines_duplicate: list[int] = field(default_factory=list)
    social_edges_parsed: int = 0
    social_edges_dropped: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


@dataclass
class Dataset:
    checkins: list[CheckIn]
    pois: dict[str, Poi]
    social: SocialGraph
    users: set[str]
    load_report: LoadReport | None = None


@dataclass
class SplitDataset:
    """Per-user chronological partition of check-ins."""

    train: dict[str, list[CheckIn]]
    validation: dict[str, list[CheckIn]]
    test: dict[str, list[CheckIn]]
    empty_test_users: set[str] = field(default_factory=set)


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
    """
    report = LoadReport()

    pois: dict[str, Poi] = {}
    poi_lines = 0
    for lineno, line in enumerate(_read_lines(poi_path), start=1):
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

    checkins: list[CheckIn] = []
    users: set[str] = set()
    ci_lines = 0
    for lineno, line in enumerate(_read_lines(checkin_path), start=1):
        ci_lines += 1
        parts = line.rstrip("\n").split("\t")
        if len(parts) < 3:
            report.checkin_lines_malformed.append(lineno)
            continue
        try:
            ts = int(parts[2])
        except ValueError:
            report.checkin_lines_malformed.append(lineno)
            continue
        if ts <= 0:
            report.checkin_lines_malformed.append(lineno)
            continue
        poi = pois.get(parts[1])
        if poi is None:
            raise DataError(
                f"check-in at line {lineno} references unknown poi_id {parts[1]!r}"
            )
        checkins.append(CheckIn(parts[0], parts[1], ts, poi.latitude, poi.longitude))
        users.add(parts[0])
    report.checkin_lines_parsed = ci_lines - len(report.checkin_lines_malformed)
    _check_malformed(
        report.checkin_lines_malformed, ci_lines, max_malformed_frac, checkin_path
    )

    social = SocialGraph()
    if social_path is not None:
        for lineno, line in enumerate(_read_lines(social_path), start=1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) < 2 or parts[0] == parts[1]:
                report.social_edges_dropped += 1
                continue
            if parts[0] not in users or parts[1] not in users:
                report.social_edges_dropped += 1
                continue
            social.add_edge(parts[0], parts[1])
            report.social_edges_parsed += 1

    return Dataset(checkins, pois, social, users, report)


def _read_lines(path):
    p = Path(path)
    if not p.is_file():
        raise DataError(f"unreadable file: {p}")
    with p.open("r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield line


def _check_malformed(bad_lines, total, max_frac, path):
    if total and len(bad_lines) / total > max_frac:
        shown = ", ".join(str(n) for n in bad_lines[:20])
        raise DataError(
            f"{len(bad_lines)}/{total} malformed lines in {path} "
            f"(> {max_frac:.0%} threshold); lines: {shown}"
        )


def preprocess_filter(
    d: Dataset, min_user_checkins: int, min_poi_checkins: int
) -> tuple[Dataset, FilterReport]:
    """Single-pass cold-start filter: users, then POIs, then orphaned check-ins.

    No fixpoint iteration: a surviving user may end up below threshold after
    POI removal takes some of their check-ins with it.
    """
    if min_user_checkins < 0 or min_poi_checkins < 0:
        raise ValueError("thresholds must be >= 0")

    user_counts = Counter(c.user_id for c in d.checkins)
    kept_users = {u for u, n in user_counts.items() if n >= min_user_checkins}

    poi_counts = Counter(c.poi_id for c in d.checkins if c.user_id in kept_users)
    kept_pois = {p for p, n in poi_counts.items() if n >= min_poi_checkins}

    checkins = [
        c for c in d.checkins if c.user_id in kept_users and c.poi_id in kept_pois
    ]
    if not checkins:
        raise DataError("dataset exhausted by filters")

    final_users = {c.user_id for c in checkins}
    final_pois = {c.poi_id for c in checkins}
    pois = {p: poi for p, poi in d.pois.items() if p in final_pois}
    social = SocialGraph()
    for u in sorted(final_users):
        for v in sorted(d.social.friends(u)):
            if v in final_users and u < v:
                social.add_edge(u, v)

    report = FilterReport(
        users_removed=len(d.users) - len(final_users),
        pois_removed=len(d.pois) - len(pois),
        checkins_removed=len(d.checkins) - len(checkins),
    )
    return Dataset(checkins, pois, social, final_users, d.load_report), report


def sort_user_checkins(checkins: list[CheckIn]) -> list[CheckIn]:
    """Chronological order with (timestamp, poi_id, input order) tie-breaking."""
    indexed = list(enumerate(checkins))
    indexed.sort(key=lambda ic: (ic[1].timestamp, ic[1].poi_id, ic[0]))
    return [c for _, c in indexed]


def temporal_split(
    d: Dataset,
    train_frac: float = 0.7,
    val_frac: float = 0.1,
    test_frac: float = 0.2,
) -> SplitDataset:
    """Per-user earliest/latest split: floor(train_frac*n) train, floor(test_frac*n)
    test from the end, remainder validation."""
    if abs(train_frac + val_frac + test_frac - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")

    by_user: dict[str, list[CheckIn]] = defaultdict(list)
    for c in d.checkins:
        by_user[c.user_id].append(c)

    train, val, test = {}, {}, {}
    empty_test = set()
    for u in sorted(by_user):
        seq = sort_user_checkins(by_user[u])
        n = len(seq)
        if n < 3:
            raise DataError(f"user {u!r} has {n} check-ins (< 3); filter first")
        n_train = int(train_frac * n)
        n_test = int(test_frac * n)
        train[u] = seq[:n_train]
        test[u] = seq[n - n_test :] if n_test else []
        val[u] = seq[n_train : n - n_test]
        if not test[u]:
            empty_test.add(u)
    return SplitDataset(train, val, test, empty_test)


def dataset_stats(d: Dataset) -> DatasetStats:
    n_users = len(d.users)
    n_pois = len(d.pois)
    n_checkins = len(d.checkins)
    n_unique = len({(c.user_id, c.poi_id) for c in d.checkins})
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
