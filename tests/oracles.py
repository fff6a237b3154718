"""Scalar reference versions of what the library computes in bulk: the
line-at-a-time TSV parse with its string-keyed POI table and social graph,
the per-`CheckIn` filter and split, the temporal analysis with one
`UserTemporalProfile` per user, the string-keyed model fits
(visit counts, residences, transition graph, category frequencies, power-law
inputs), the one-candidate-at-a-time context scores, the one-candidate
fusion, the one-user-at-a-time numpy scoring, fusion and ranking, the top-N
ranking, the one-list ranking metrics, the fairness
groups as sets of users, the user-keyed group metrics and evaluation, and the
weighted-sum sweep with its per-point callback. Tests compare the library
against them. `from_checkins` is the
fixture constructor: it builds a `Dataset` from `CheckIn`, `Poi` and
`SocialGraph` objects."""
from __future__ import annotations

import enum
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from poifair.data import DataError, Dataset, DatasetStats, Ids, LoadReport
from poifair.fusion import (
    OBJECTIVE_MAX_ACC_UNF,
    OBJECTIVE_MIN_DELTA,
    PRODUCT,
    WEIGHTED_SUM,
    rule_lambdas,
    simplex_grid,
)
from poifair import geo, social as lib_social
from poifair.geo import KdeModel, project_km, silverman_bandwidth
from poifair.metrics import EvalReport, GroupMetrics, fairness_summary
from poifair.recommend import GEOSOCA, recommend_topn
from poifair.sequential import AMC_DECAY, AMC_MEMORY, _amc_weights
from poifair.social import BETA_MAX, DEFAULT_FIT, MIN_FIT_OBSERVATIONS, PowerLawFit
from poifair.temporal import (
    WORK_END_HOUR,
    WORK_START_HOUR,
    GroupStats,
    ols_fit,
)


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


def poi_columns(pois: dict[str, Poi], poi_ids: list[str]):
    """(lat, lon, category, category_ids) of the POIs in `poi_ids` order:
    category codes number the distinct categories in sorted order, -1 for
    none."""
    rows = [pois[p] for p in poi_ids]
    cats = sorted({p.category_id for p in rows} - {None})
    code = {c: i for i, c in enumerate(cats)}
    return (
        np.array([p.latitude for p in rows], dtype=float),
        np.array([p.longitude for p in rows], dtype=float),
        np.array([code.get(p.category_id, -1) for p in rows], dtype=np.int32),
        cats,
    )


def friend_codes(social: SocialGraph, user_ids: list[str]) -> list[list[int]]:
    """Each user's friends that have check-ins, as ascending user codes."""
    code = {u: i for i, u in enumerate(user_ids)}
    return [sorted(code[v] for v in social.friends(u) if v in code) for u in user_ids]


def edge_rows(social: SocialGraph, user_ids: list[str]) -> np.ndarray:
    """Each friendship between `user_ids` once, as (a, b) codes with a < b,
    in ascending order."""
    rows = [(a, b) for a, friends in enumerate(friend_codes(social, user_ids))
            for b in friends if a < b]
    return np.array(rows, dtype=np.int32).reshape(-1, 2)


def from_checkins(checkins: list[CheckIn], pois: dict[str, Poi],
                  social: SocialGraph) -> Dataset:
    """Columns for a list of check-ins; `pois` must define every POI they
    name. Friendships of users without a check-in are left out."""
    user_ids = sorted({c.user_id for c in checkins})
    poi_ids = sorted(pois)
    ucode = {u: i for i, u in enumerate(user_ids)}
    pcode = {p: i for i, p in enumerate(poi_ids)}
    lat, lon, category, category_ids = poi_columns(pois, poi_ids)
    return Dataset(
        Ids.of(user_ids),
        Ids.of(poi_ids),
        np.array([ucode[c.user_id] for c in checkins], dtype=np.int32),
        np.array([pcode[c.poi_id] for c in checkins], dtype=np.int32),
        np.array([c.timestamp for c in checkins], dtype=np.int64),
        lat, lon, category, Ids.of(category_ids),
        edge_rows(social, user_ids),
    )


def pois_of(d: Dataset) -> dict[str, Poi]:
    """A dataset's POI columns as `Poi` objects keyed by poi_id."""
    return {
        p: Poi(p, lat, lon, d.category_ids[c] if c >= 0 else None)
        for p, lat, lon, c in zip(
            d.poi_ids, d.lat.tolist(), d.lon.tolist(), d.category.tolist()
        )
    }


def without_categories(d: Dataset) -> Dataset:
    """The dataset with no POI category."""
    return d._replace(
        category=np.full(len(d.poi_ids), -1, dtype=np.int32), category_ids=Ids.of([])
    )


def graph_of(d: Dataset) -> SocialGraph:
    """A dataset's friendships as a `SocialGraph` of user ids."""
    return SocialGraph((d.user_ids[a], d.user_ids[b]) for a, b in d.edges.tolist())


@dataclass
class Parsed:
    """What the line-at-a-time parse gives: check-in columns, the
    string-keyed POI table and social graph, and the load report."""

    user_ids: list[str]
    poi_ids: list[str]
    user: np.ndarray
    poi: np.ndarray
    ts: np.ndarray
    pois: dict[str, Poi]
    social: SocialGraph
    load_report: LoadReport = field(default_factory=LoadReport)


def parse_dataset(checkin_path, poi_path, social_path=None,
                  max_malformed_frac: float = 0.01) -> Parsed:
    """The canonical TSV files read one text-mode line at a time, each
    non-blank line split into fields by the file format's rules."""
    report = LoadReport()

    pois: dict[str, Poi] = {}
    poi_lines = 0
    for lineno, parts in _read_lines(poi_path, 3, 4):
        poi_lines += 1
        fields = _poi_fields(parts)
        if fields is None:
            report.poi_lines_malformed.append(lineno)
            continue
        if fields.poi_id in pois:
            report.poi_lines_duplicate.append(lineno)
        pois[fields.poi_id] = fields
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
    for lineno, parts in _read_lines(checkin_path, 3, 3):
        ci_lines += 1
        if parts is None or not (_is_id(parts[0]) and _is_id(parts[1])):
            malformed.append(lineno)
            continue
        ts = _timestamp(parts[2])
        if ts is None:
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

    user_ids = sorted(user_code)
    sorted_code = np.empty(len(user_ids), dtype=np.int32)
    sorted_code[[user_code[u] for u in user_ids]] = np.arange(len(user_ids))
    user = sorted_code[np.array(user_col, dtype=np.intp)]

    social = SocialGraph()
    if social_path is not None:
        for _, parts in _read_lines(social_path, 2, 2):
            if parts is None or not all(map(_is_id, parts)) or parts[0] == parts[1]:
                report.social_edges_dropped += 1
                continue
            if parts[0] not in user_code or parts[1] not in user_code:
                report.social_edges_dropped += 1
                continue
            if not social.add_edge(parts[0], parts[1]):
                report.social_edges_duplicate += 1
            report.social_edges_parsed += 1

    return Parsed(
        user_ids, poi_ids, user, np.array(poi_col, dtype=np.int32),
        np.array(ts_col, dtype=np.int64), pois, social, report,
    )


# The file format's limits, stated here apart from `poifair.data`: the most
# UTF-8 bytes of an id or a category, the most digits of a timestamp, and
# the largest timestamp.
MAX_ID_BYTES = 64
MAX_TS_DIGITS = 19
INT64_MAX = 2**63 - 1


def _read_lines(path, fewest: int, n_fields: int):
    """(physical line number, fields) for every non-blank line of path, a
    blank one being what bytes.strip() empties. The fields are the line's
    first `n_fields`, those it lacks empty; None if it holds a NUL or fewer
    than `fewest` fields."""
    p = Path(path)
    if not p.is_file():
        raise DataError(f"unreadable file: {p}")
    with p.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.removesuffix("\n")
            if not line.encode("utf-8").strip():
                continue
            parts = line.split("\t")
            if "\x00" in line or len(parts) < fewest:
                yield lineno, None
            else:
                yield lineno, (parts + [""] * n_fields)[:n_fields]


def _is_id(s: str, fewest: int = 1) -> bool:
    """Whether s is `fewest` to MAX_ID_BYTES UTF-8 bytes."""
    return fewest <= len(s.encode("utf-8")) <= MAX_ID_BYTES


def _timestamp(s: str) -> int | None:
    """The value of 1 to MAX_TS_DIGITS ASCII digits, if it is 1 to
    INT64_MAX."""
    if not (s.isascii() and s.isdigit() and len(s) <= MAX_TS_DIGITS):
        return None
    ts = int(s)
    return ts if 0 < ts <= INT64_MAX else None


def _poi_fields(parts) -> Poi | None:
    if parts is None or not (_is_id(parts[0]) and _is_id(parts[3], fewest=0)):
        return None
    try:
        # The float() of the field's UTF-8 bytes, not of the str: it takes
        # no non-ASCII digit.
        lat, lon = float(parts[1].encode("utf-8")), float(parts[2].encode("utf-8"))
    except ValueError:
        return None
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        return None
    return Poi(parts[0], lat, lon, parts[3] or None)


def _check_malformed(bad_lines, total, max_frac, path):
    if total and len(bad_lines) / total > max_frac:
        shown = ", ".join(str(n) for n in bad_lines[:20])
        raise DataError(
            f"{len(bad_lines)}/{total} malformed lines in {path} "
            f"(> {max_frac:.0%} threshold); lines: {shown}"
        )


class PeriodLabel(enum.Enum):
    WORKING = "working"
    LEISURE = "leisure"


def hour_of(timestamp: int) -> int:
    # timestamps are stored as already-local epoch seconds
    return (timestamp // 3600) % 24


def label_period(
    timestamp: int, work_start: int = WORK_START_HOUR, work_end: int = WORK_END_HOUR
) -> PeriodLabel:
    """Working iff the local hour falls in the half-open [work_start, work_end)."""
    h = hour_of(timestamp)
    return PeriodLabel.WORKING if work_start <= h < work_end else PeriodLabel.LEISURE


def checkins(d, rows=None) -> list[CheckIn]:
    """`CheckIn` objects for a dataset's check-ins at `rows` (all, by
    default), in that order, with the coordinates of their POI."""
    if rows is None:
        rows = range(len(d.ts))
    out = []
    for i in rows:
        u, p = d.user_ids[d.user[i]], d.poi_ids[d.poi[i]]
        lat, lon = float(d.lat[d.poi[i]]), float(d.lon[d.poi[i]])
        out.append(CheckIn(u, p, int(d.ts[i]), lat, lon))
    return out


def checkin_lists(split):
    """(train, validation, test) as {user_id: [CheckIn, ...]}, users in id
    order, each list in the split's time order."""
    d = split.dataset
    lists = tuple({u: [] for u in d.user_ids} for _ in range(3))
    for c, part in zip(checkins(d, split.rows), split.part.tolist()):
        lists[part][c.user_id].append(c)
    return lists


def sort_user_checkins(checkins):
    """Chronological order with (timestamp, poi_id, input order) tie-breaking."""
    indexed = list(enumerate(checkins))
    indexed.sort(key=lambda ic: (ic[1].timestamp, ic[1].poi_id, ic[0]))
    return [c for _, c in indexed]


def split_rows(d: Dataset) -> np.ndarray:
    """The dataset's row indices in (user code, timestamp, POI code, input
    order) order, by one four-key lexsort: the order `temporal_split`
    keeps."""
    return np.lexsort((np.arange(len(d.ts)), d.poi, d.ts, d.user))


def preprocess_filter(checkins, min_user_checkins, min_poi_checkins):
    """The check-ins that survive the single-pass cold-start filter (users,
    then POIs) and the drop of users it leaves with fewer than 3, in input
    order."""
    user_counts = Counter(c.user_id for c in checkins)
    kept_users = {u for u, n in user_counts.items() if n >= min_user_checkins}
    poi_counts = Counter(c.poi_id for c in checkins if c.user_id in kept_users)
    kept_pois = {p for p, n in poi_counts.items() if n >= min_poi_checkins}
    kept = [c for c in checkins if c.user_id in kept_users and c.poi_id in kept_pois]
    left = Counter(c.user_id for c in kept)
    return [c for c in kept if left[c.user_id] >= 3]


def temporal_split(checkins, train_frac=0.7, val_frac=0.1, test_frac=0.2):
    """(train, validation, test) as {user_id: [CheckIn, ...]}, users in id
    order: floor(train_frac*n) earliest to train, floor(test_frac*n) latest
    to test, the rest to validation."""
    by_user = defaultdict(list)
    for c in checkins:
        by_user[c.user_id].append(c)
    train, val, test = {}, {}, {}
    for u in sorted(by_user):
        seq = sort_user_checkins(by_user[u])
        n = len(seq)
        n_train = int(train_frac * n)
        n_test = int(test_frac * n)
        train[u] = seq[:n_train]
        test[u] = seq[n - n_test :] if n_test else []
        val[u] = seq[n_train : n - n_test]
    return train, val, test


def poi_popularity(train, n_users):
    """Fraction of users that visited each POI in the training split."""
    visitors = {}
    for u, seq in train.items():
        for c in seq:
            visitors.setdefault(c.poi_id, set()).add(u)
    return {p: len(us) / n_users for p, us in visitors.items()}


@dataclass(frozen=True)
class UserTemporalProfile:
    user_id: str
    n_checkins: int
    n_working: int
    n_leisure: int
    leisure_ratio: float
    avg_popularity_consumption: float


def profile_objects(profiles, user_ids) -> list[UserTemporalProfile]:
    """The library's `Profiles` columns as one object per user, keyed by id."""
    columns = (
        profiles.user, profiles.n_checkins, profiles.n_working, profiles.n_leisure,
        profiles.leisure_ratio, profiles.avg_popularity_consumption,
    )
    return [
        UserTemporalProfile(user_ids[u], *row)
        for u, *row in zip(*(c.tolist() for c in columns))
    ]


def build_profiles(train, popularity, work_window=(WORK_START_HOUR, WORK_END_HOUR)):
    """One temporal profile per user with training check-ins."""
    start, end = work_window
    profiles = []
    for u in sorted(train):
        seq = train[u]
        if not seq:
            continue
        n_work = sum(
            1 for c in seq if label_period(c.timestamp, start, end) is PeriodLabel.WORKING
        )
        n = len(seq)
        distinct = sorted({c.poi_id for c in seq})
        pop = sequential_sum(popularity.get(p, 0.0) for p in distinct) / len(distinct)
        profiles.append(
            UserTemporalProfile(
                user_id=u,
                n_checkins=n,
                n_working=n_work,
                n_leisure=n - n_work,
                leisure_ratio=(n - n_work) / n,
                avg_popularity_consumption=pop,
            )
        )
    return profiles


def temporal_histogram(checkins):
    """24-bin hour-of-day check-in counts."""
    bins = np.zeros(24, dtype=np.int64)
    for c in checkins:
        bins[hour_of(c.timestamp)] += 1
    return bins


def dataset_stats(checkins, pois, n_social_links) -> DatasetStats:
    n_users = len({c.user_id for c in checkins})
    n_pois = len(pois)
    n_checkins = len(checkins)
    return DatasetStats(
        n_users=n_users,
        n_pois=n_pois,
        n_checkins=n_checkins,
        n_unique_checkins=len({(c.user_id, c.poi_id) for c in checkins}),
        n_social_links=n_social_links,
        n_categories=len(
            {p.category_id for p in pois.values() if p.category_id is not None}
        ),
        checkins_per_user=n_checkins / n_users if n_users else 0.0,
        checkins_per_poi=n_checkins / n_pois if n_pois else 0.0,
        density=n_checkins / (n_users * n_pois) if n_users and n_pois else 0.0,
    )


def visit_counts(train) -> dict[str, Counter]:
    """Per-user training check-in counts keyed by POI, in first-visit order."""
    return {u: Counter(c.poi_id for c in seq) for u, seq in train.items()}


def social_frequency(u, p, counts, social) -> int:
    """Total training check-ins of u's friends at POI p."""
    return sum(counts[v].get(p, 0) for v in social.friends(u) if v in counts)


def merged_social_frequency(u, counts, social) -> Counter:
    """Total training check-ins of u's friends at each POI they visited, in
    first-visit order over the sorted friends."""
    merged = Counter()
    for v in sorted(social.friends(u)):
        if counts.get(v):
            merged.update(counts[v])
    return merged


def positive_social_frequencies(train, social) -> list[int]:
    """GeoSoCa's c2 power-law sample, in the order it is summed: users in id
    order, each user's friends' POIs in first-visit order."""
    counts = visit_counts(train)
    freqs = []
    for u in sorted(train):
        merged = merged_social_frequency(u, counts, social)
        freqs.extend(n for n in merged.values() if n >= 1)
    return freqs


def fit_power_law(frequencies) -> PowerLawFit:
    """The one-shot power-law fit over a whole sample: one `np.unique` over
    every observation, Python's `math.log` once per distinct value, and the
    logs added strictly in input order; `DEFAULT_FIT` below
    `MIN_FIT_OBSERVATIONS` observations, beta clamped to (1, BETA_MAX]."""
    xs = np.asarray(frequencies, dtype=float)
    if len(xs) < MIN_FIT_OBSERVATIONS:
        return DEFAULT_FIT
    if (xs < 1.0).any():
        raise ValueError("frequencies must be >= x_min = 1")
    values, inverse = np.unique(xs, return_inverse=True)
    logs = np.array([math.log(v) for v in values.tolist()])
    log_sum = float(np.add.accumulate(logs[inverse])[-1])
    if log_sum <= 0.0:
        return PowerLawFit(beta=BETA_MAX)
    return PowerLawFit(beta=min(1.0 + len(xs) / log_sum, BETA_MAX))


def power_law_score(fit, x: float) -> float:
    """CDF-as-relevance: 0 below x_min, else 1 - (x/x_min)^(1-beta)."""
    if x < fit.x_min:
        return 0.0
    return 1.0 - (x / fit.x_min) ** (1.0 - fit.beta)


def residence(u, counts) -> str:
    """Most frequent training POI; ties broken by smallest poi_id."""
    profile = counts[u]
    return min(profile, key=lambda p: (-profile[p], p))


class CategoricalModel:
    """Per-user category counts and within-category POI popularity, keyed by
    id."""

    def __init__(self, train, pois):
        self.poi_category = {
            p: poi.category_id for p, poi in pois.items() if poi.category_id is not None
        }
        self.user_cat_counts = {}
        self.poi_counts = Counter()
        for u, seq in train.items():
            cc = Counter()
            for c in seq:
                self.poi_counts[c.poi_id] += 1
                cat = self.poi_category.get(c.poi_id)
                if cat is not None:
                    cc[cat] += 1
            self.user_cat_counts[u] = cc
        self.cat_max_count = {}
        for p, n in self.poi_counts.items():
            cat = self.poi_category.get(p)
            if cat is not None and n > self.cat_max_count.get(cat, 0):
                self.cat_max_count[cat] = n

    def frequency(self, u, p) -> float:
        """u's check-in count in p's category, scaled by p's popularity within
        that category; 0 when p carries no category."""
        cat = self.poi_category.get(p)
        if cat is None:
            return 0.0
        user_count = self.user_cat_counts.get(u, {}).get(cat, 0)
        if user_count == 0:
            return 0.0
        max_count = self.cat_max_count.get(cat, 0)
        pop = self.poi_counts.get(p, 0) / max_count if max_count else 0.0
        return user_count * pop


def positive_categorical_frequencies(train, pois) -> list[float]:
    """GeoSoCa's c3 power-law sample, in the order it is summed: users in id
    order, each user's POIs in id order."""
    model = CategoricalModel(train, pois)
    freqs = []
    for u in sorted(train):
        for p in sorted(pois):
            y = model.frequency(u, p)
            if y >= 1.0:
                freqs.append(y)
    return freqs


def distance_km(lat1, lon1, lat2, lon2) -> float:
    """Equirectangular distance using the midpoint latitude as reference."""
    lat_ref = (lat1 + lat2) / 2.0
    p = project_km([lat1, lat2], [lon1, lon2], lat_ref)
    return float(np.hypot(*(p[0] - p[1])))


def fcf_score(u, p, counts, social, residences, poi_coords) -> float:
    """Similarity-weighted mean of friends' check-in counts at p.

    sim(u, v) = 1 / (1 + km distance between residences).
    """
    friends = [v for v in sorted(social.friends(u)) if v in residences]
    if not friends or u not in residences:
        return 0.0
    ru = poi_coords[residences[u]]
    num = 0.0
    den = 0.0
    for v in friends:
        rv = poi_coords[residences[v]]
        sim = 1.0 / (1.0 + distance_km(ru[0], ru[1], rv[0], rv[1]))
        num += sim * counts[v].get(p, 0)
        den += sim
    return num / den if den > 0 else 0.0


@dataclass(frozen=True)
class Kde:
    """One product-Gaussian KDE: (n, 2) projected-km points and their (n,)
    weights, the (h_lat, h_lon) bandwidth in km and the projection's
    reference latitude."""

    points_km: np.ndarray
    bandwidth: tuple[float, float]
    lat_ref: float
    weights: np.ndarray


def fit_kde(coords) -> Kde:
    """A KDE over (n, 2) (lat, lon) degree coordinates: the bandwidth from
    every sample, each distinct point from np.unique(axis=0) once, weighted
    by how many samples share it."""
    arr = np.asarray(coords, dtype=float)
    if not len(arr):
        raise ValueError("cannot fit KDE on empty sample")
    lat_ref = float(arr[:, 0].mean())
    pts = project_km(arr[:, 0], arr[:, 1], lat_ref)
    h = (silverman_bandwidth(pts[:, 0]), silverman_bandwidth(pts[:, 1]))
    distinct, counts = np.unique(pts, axis=0, return_counts=True)
    return Kde(points_km=distinct, bandwidth=h, lat_ref=lat_ref, weights=counts.astype(float))


def kde_row(model: KdeModel, u: int) -> Kde:
    """Row u of a library KDE batch, without its padding."""
    n = int(np.count_nonzero(model.weights[u]))
    return Kde(
        points_km=model.points_km[u, :n], bandwidth=tuple(model.bandwidth[u].tolist()),
        lat_ref=float(model.lat_ref[u]), weights=model.weights[u, :n],
    )


def kde_density_km(model: Kde, x: float, y: float) -> float:
    """Density of `model` at one projected-km point: each point's Gaussian
    kernel in Python floats with `math.exp`, summed in point order."""
    h1, h2 = model.bandwidth
    num = den = 0.0
    for (px, py), w in zip(model.points_km.tolist(), model.weights.tolist()):
        dx, dy = (x - px) / h1, (y - py) / h2
        num += math.exp(-0.5 * (dx * dx + dy * dy)) * w
        den += w
    return num / den / (2.0 * math.pi * h1 * h2)


def geo_score(model: Kde, latitude: float, longitude: float) -> float:
    """Density of `model` at one (lat, lon) point."""
    ((x, y),) = project_km([latitude], [longitude], model.lat_ref).tolist()
    return kde_density_km(model, x, y)


def expanded_kde_score(fitted: Kde, samples, latitude, longitude) -> float:
    """Density of a KDE that keeps every sample as its own unweighted point,
    with the bandwidth and projection of `fitted`."""
    arr = np.asarray(samples, dtype=float)
    pts = project_km(arr[:, 0], arr[:, 1], fitted.lat_ref)
    expanded = Kde(
        points_km=pts, bandwidth=fitted.bandwidth, lat_ref=fitted.lat_ref,
        weights=np.ones(len(pts)),
    )
    return geo_score(expanded, latitude, longitude)


class TransitionGraph:
    """Directed transition counts between POI ids."""

    def __init__(self):
        self._adj = defaultdict(dict)
        self.out_totals = defaultdict(int)

    def add(self, src, dst, n=1) -> None:
        row = self._adj[src]
        row[dst] = row.get(dst, 0) + n
        self.out_totals[src] += n

    def out_edges(self, src) -> dict[str, float]:
        total = self.out_totals.get(src, 0)
        if total == 0:
            return {}
        return {dst: n / total for dst, n in self._adj[src].items()}


def build_l2tg(train, session_gap_hours) -> TransitionGraph:
    """Consecutive same-user POI transitions within the session gap."""
    g = TransitionGraph()
    for (src, dst), n in transition_counts(train, session_gap_hours).items():
        g.add(src, dst, n)
    return g


def transition_counts(train, session_gap_hours) -> dict[tuple[str, str], int]:
    """{(src, dst): n} over consecutive same-user check-ins at most
    session_gap_hours apart."""
    counts = Counter()
    for seq in train.values():
        for a, b in zip(seq, seq[1:]):
            if b.timestamp - a.timestamp <= session_gap_hours * 3600:
                counts[a.poi_id, b.poi_id] += 1
    return dict(counts)


def amc_score(
    g: TransitionGraph, history, p, alpha=AMC_DECAY, memory=AMC_MEMORY
) -> float:
    """Decay-weighted sum of transition probabilities from the `memory` most
    recent history POIs (history most-recent-last) into p. Weights are
    alpha**i for the i-th most recent, normalised to sum to 1."""
    recent = history[::-1][:memory]
    if not recent:
        return 0.0
    raw = [alpha**i for i in range(1, len(recent) + 1)]
    total = sequential_sum(raw)
    return sequential_sum(
        w / total * g.out_edges(src).get(p, 0.0) for w, src in zip(raw, recent)
    )


@dataclass(frozen=True)
class ContextScores:
    c1: float
    c2: float
    c3: float
    enabled: tuple[bool, bool, bool] = (True, True, True)


def fuse(s: ContextScores, rule: str, lambdas=(1.0, 1.0, 1.0)) -> float:
    """One candidate's fused score: under product, the product of the enabled
    contexts; under sum or weighted-sum, lambda_j * c_j summed over them, left
    to right (sum fusion: every lambda 1)."""
    terms = [
        (lam, c)
        for lam, c, on in zip(lambdas, (s.c1, s.c2, s.c3), s.enabled)
        if on
    ]
    if rule == PRODUCT:
        out = terms[0][1]
        for _, c in terms[1:]:
            out = out * c
        return out
    out = terms[0][0] * terms[0][1]
    for lam, c in terms[1:]:
        out = out + lam * c
    return out


def topn(poi_ids, scores, n):
    """The n best candidates by descending score, ties by poi_id ascending,
    with their scores."""
    order = sorted(range(len(poi_ids)), key=lambda i: (-scores[i], poi_ids[i]))[:n]
    return [poi_ids[i] for i in order], [float(scores[i]) for i in order]


@dataclass(frozen=True)
class RankingMetrics:
    precision: float
    recall: float
    ndcg: float


def sequential_sum(values) -> float:
    """Floats added strictly left to right from 0.0, as the builtin sum()
    does up to Python 3.11 (3.12's is compensated)."""
    total = 0.0
    for v in values:
        total += v
    return total


def ranking_metrics(recommended, relevant, n: int) -> RankingMetrics:
    """Precision/recall/nDCG of one list at cutoff n with binary gains.

    DCG discount is 1/log2(rank+1) with 1-indexed ranks; IDCG assumes
    min(n, |relevant|) hits at the top.
    """
    if n < 1:
        raise ValueError("cutoff must be >= 1")
    top = recommended[:n]
    hits = [i for i, p in enumerate(top, start=1) if p in relevant]
    precision = len(hits) / n
    recall = len(hits) / len(relevant) if relevant else 0.0
    dcg = sequential_sum(1.0 / math.log2(rank + 1) for rank in hits)
    ideal = min(n, len(relevant))
    idcg = sequential_sum(1.0 / math.log2(rank + 1) for rank in range(1, ideal + 1))
    ndcg = dcg / idcg if idcg > 0 else 0.0
    return RankingMetrics(precision=precision, recall=recall, ndcg=ndcg)


def mean(values) -> float:
    return sequential_sum(values) / len(values)


@dataclass
class GroupAssignment:
    leisure_focused: set
    working_focused: set
    unassigned: set


def assign_groups(profiles, quantile=0.2) -> GroupAssignment:
    """Top/bottom quantile of users ranked by leisure-check-in ratio, as sets
    of user ids."""
    if len(profiles) < 5:
        raise DataError(
            f"need at least 5 users with training check-ins to form the groups, got {len(profiles)}"
        )
    if quantile > 0.5:
        raise ValueError("quantile > 0.5 makes the groups overlap")
    ranked = sorted(profiles, key=lambda p: (-p.leisure_ratio, p.user_id))
    k = int(quantile * len(ranked))
    leisure = {p.user_id for p in ranked[:k]}
    working = {p.user_id for p in ranked[len(ranked) - k :]}
    rest = {p.user_id for p in ranked} - leisure - working
    return GroupAssignment(leisure, working, rest)


def group_stats(profiles, assignment: GroupAssignment) -> list[GroupStats]:
    """Per fairness group, from the profiles whose ids the group's set holds."""
    out = []
    for name, members in (("leisure-focused", assignment.leisure_focused),
                          ("working-focused", assignment.working_focused)):
        ps = [p for p in profiles if p.user_id in members]
        if not ps:
            raise DataError(f"empty group: {name}")
        out.append(GroupStats(
            group=name,
            n_checkins=sum(p.n_checkins for p in ps),
            avg_popularity_consumption=float(
                np.mean([p.avg_popularity_consumption for p in ps])
            ),
            avg_activity_level=float(np.mean([p.n_checkins for p in ps])),
            n_users=len(ps),
        ))
    return out


def correlation_analysis(profiles) -> dict[str, dict]:
    """The three scatter relations, from lists over the profiles."""
    size = [p.n_checkins for p in profiles]
    return {
        "leisure_vs_working": ols_fit(
            [p.n_working for p in profiles], [p.n_leisure for p in profiles]
        ),
        "leisure_ratio_vs_size": ols_fit(size, [p.leisure_ratio for p in profiles]),
        "working_ratio_vs_size": ols_fit(size, [1.0 - p.leisure_ratio for p in profiles]),
    }


def group_metrics(per_user_ndcg: dict, assignment: GroupAssignment,
                  baseline_delta=None) -> GroupMetrics:
    """Macro-averaged nDCG overall and per fairness group, users keyed as in
    the assignment's sets."""
    leisure = [v for u, v in per_user_ndcg.items() if u in assignment.leisure_focused]
    working = [v for u, v in per_user_ndcg.items() if u in assignment.working_focused]
    if not leisure or not working:
        raise ValueError("both fairness groups must be nonempty")
    return fairness_summary(
        ndcg_all=mean(list(per_user_ndcg.values())),
        ndcg_leisure=mean(leisure),
        ndcg_working=mean(working),
        baseline_delta=baseline_delta,
    )


def evaluate_run(recommendations: dict, test_relevant: dict, assignment: GroupAssignment,
                 cutoff, model, fusion, baseline_delta=None) -> EvalReport:
    """One report row from {user: ranked list} and {user: relevant set}:
    metrics macro-averaged over users with nonempty relevant sets; the other
    recommended-for users are counted as skipped."""
    users = [u for u in recommendations if test_relevant.get(u)]
    if not users:
        raise ValueError("no users with nonempty test sets")
    m = {u: ranking_metrics(recommendations[u], test_relevant[u], cutoff) for u in users}
    gm = group_metrics({u: m[u].ndcg for u in users}, assignment, baseline_delta)
    return EvalReport(
        model=model,
        fusion=fusion,
        cutoff=cutoff,
        precision=mean([m[u].precision for u in users]),
        recall=mean([m[u].recall for u in users]),
        ndcg=gm.ndcg_all,
        ndcg_leisure=gm.ndcg_leisure,
        ndcg_working=gm.ndcg_working,
        delta_ndcg=gm.delta_ndcg,
        pct_delta=gm.pct_delta,
        acc_unf=gm.acc_unf,
        n_users_evaluated=len(users),
        n_users_skipped=len(recommendations) - len(users),
    )


@dataclass(frozen=True)
class SweepPoint:
    lambdas: tuple[float, float, float]
    ndcg: float
    ndcg_leisure: float
    ndcg_working: float
    delta_ndcg: float
    acc_unf: float | None  # None when there is no gap


def weight_sweep(evaluate, step=0.1, objective=OBJECTIVE_MIN_DELTA):
    """Exhaustive simplex grid search of weighted-sum lambdas: (best point,
    every point in grid order).

    `evaluate` maps a lambda triple to a dict with keys ndcg, ndcg_leisure,
    ndcg_working, delta_ndcg, acc_unf (None for no gap; inf for a gap so
    small that the ratio overflows). Under max_acc_unf no gap ranks above
    every number, inf included. Ties break by higher overall ndcg, then
    lexicographic lambdas.
    """
    if objective not in (OBJECTIVE_MIN_DELTA, OBJECTIVE_MAX_ACC_UNF):
        raise ValueError(f"unknown objective: {objective!r}")
    table = [SweepPoint(lambdas=lam, **evaluate(lam)) for lam in simplex_grid(step)]
    if objective == OBJECTIVE_MIN_DELTA:
        key = lambda p: (p.delta_ndcg, -p.ndcg, p.lambdas)
    else:
        no_gap_first = lambda a: (0, 0.0) if a is None else (1, -a)
        key = lambda p: (no_gap_first(p.acc_unf), -p.ndcg, p.lambdas)
    return min(table, key=key), table


def sweep_point(gm: GroupMetrics) -> dict:
    """The `weight_sweep` callback's dict of one point's group metrics."""
    return {
        "ndcg": gm.ndcg_all,
        "ndcg_leisure": gm.ndcg_leisure,
        "ndcg_working": gm.ndcg_working,
        "delta_ndcg": gm.delta_ndcg,
        "acc_unf": gm.acc_unf,
    }


def sweep_rows(name, table) -> list[list]:
    """sweep.csv rows of one model's sweep table."""
    return [
        [
            name, p.lambdas[0], p.lambdas[1], p.lambdas[2],
            p.ndcg, p.ndcg_leisure, p.ndcg_working, p.delta_ndcg, p.acc_unf,
        ]
        for p in table
    ]


def sweep(caches, assignment, val_relevant, cutoff, step, objective):
    """Weighted-sum sweep that re-fuses and re-ranks every user's list at
    each grid point. caches[name] is a list of `UserScores` (None for a
    user not scored) by user code, val_relevant a {user code: set of POI
    codes} and the assignment's sets hold user codes. Returns ({model: best
    lambdas}, sweep.csv rows)."""
    best_lambdas = {}
    rows = []
    for name, cache in sorted(caches.items()):
        def evaluate(lambdas):
            per_user = {}
            for u, cs in enumerate(cache):
                relevant = val_relevant.get(u)
                if cs is None or not relevant or not len(cs.poi_ids):
                    continue
                (scores,) = fused_user_scores(
                    cs, rule_lambdas(WEIGHTED_SUM, cs.enabled, [lambdas])
                )
                pois, _ = topn(cs.poi_ids, scores, cutoff)
                per_user[u] = ranking_metrics(pois, relevant, cutoff).ndcg
            return sweep_point(group_metrics(per_user, assignment))

        best, table = weight_sweep(evaluate, step, objective)
        best_lambdas[name] = best.lambdas
        rows += sweep_rows(name, table)
    return best_lambdas, rows


# -- The per-user numpy path: one user's candidates scored, fused and ranked
# at a time, as the library did before it worked on blocks of users. The
# block path must equal it bit for bit.


@dataclass
class UserScores:
    """Raw (c1, c2, c3) context scores for one user's candidates, ascending
    POI codes."""

    poi_ids: np.ndarray
    raw: np.ndarray  # (n_candidates, 3)
    enabled: tuple[bool, bool, bool]


def csr_row(counts, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Row r of a library `PairCounts`: its columns and their counts."""
    lo, hi = counts.indptr[r], counts.indptr[r + 1]
    return counts.col[lo:hi], counts.count[lo:hi]


def user_social_frequency(friends, bounds, poi, n_pois) -> np.ndarray:
    """The friends' total training check-ins at each POI code."""
    lo, hi = bounds[friends], bounds[friends + 1]
    n = hi - lo
    visited = poi[np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)]
    return np.bincount(visited, minlength=n_pois)


def user_category_frequency(model, u: int) -> np.ndarray:
    """A library `CategoricalModel`'s frequency for user code u, by POI
    code."""
    pois, n = csr_row(model.visits, u)
    user_counts = np.bincount(model.category[pois], weights=n, minlength=model.n_slots)
    return user_counts[model.category] * model.popularity


def user_fcf_score(u, friends, visits, residence, lats, lons) -> np.ndarray:
    """Similarity-weighted mean of friends' check-in counts at each POI code,
    the friends' terms added in the order of `friends`."""
    num = np.zeros(len(lats))
    friends = friends[residence[friends] >= 0].tolist()
    ru = residence[u]
    if not friends or ru < 0:
        return num
    den = 0.0
    for v in friends:
        rv = residence[v]
        sim = 1.0 / (1.0 + distance_km(lats[ru], lons[ru], lats[rv], lons[rv]))
        pois, n = csr_row(visits, v)
        num[pois] += sim * n
        den += sim
    return num / den


def user_amc_scores(g, history, candidates, alpha=AMC_DECAY, memory=AMC_MEMORY):
    """Decay-weighted sum of transition probabilities from the most recent
    history POIs (history most-recent-last) into each candidate POI code."""
    recent = np.asarray(history)[::-1][:memory].tolist()
    acc = np.zeros(len(g.indptr) - 1)
    for w, src in zip(_amc_weights(len(recent), alpha), recent):
        lo, hi = g.indptr[src], g.indptr[src + 1]
        acc[g.dst[lo:hi]] += w * g.prob[lo:hi]
    return acc[candidates]


def normalize_user_scores(raw: np.ndarray) -> np.ndarray:
    """Per-context min-max normalization over one user's (n, 3) candidate
    scores; constant columns map to 0.5."""
    raw = np.asarray(raw, dtype=float)
    out = np.empty_like(raw)
    for j in range(raw.shape[1]):
        col = raw[:, j]
        lo, hi = col.min(), col.max()
        out[:, j] = 0.5 if hi == lo else (col - lo) / (hi - lo)
    return out


def fuse_user_arrays(scores, lambdas, enabled=(True, True, True)) -> np.ndarray:
    """Fuse an (n, 3) score matrix over the enabled contexts into (G, n)."""
    cols = [scores[:, j] for j in range(3) if enabled[j]]
    if lambdas is None:
        out = cols[0]
        for c in cols[1:]:
            out = out * c
        return out[None, :]
    lams = [lambdas[:, j, None] for j in range(3) if enabled[j]]
    out = lams[0] * cols[0]
    for lam, c in zip(lams[1:], cols[1:]):
        out += lam * c
    return out


def fused_user_scores(cs: UserScores, lambdas) -> np.ndarray:
    """One user's (G, n_candidates) fused scores: product on raw scores,
    additive rules on min-max-normalized scores."""
    mat = cs.raw if lambdas is None else normalize_user_scores(cs.raw)
    return fuse_user_arrays(mat, lambdas, cs.enabled)


def score_user(model, u: int) -> UserScores:
    """A library `FittedModel`'s raw (c1, c2, c3) for the POIs user code u
    has not visited in train, one user at a time."""
    n_pois = len(model.poi_ids)
    candidate = np.ones(n_pois, dtype=bool)
    candidate[csr_row(model.visits, u)[0]] = False
    pos = np.flatnonzero(candidate)
    if not len(pos):
        return UserScores(pos, np.zeros((0, 3)), model.enabled)
    friends = csr_row(model.friends, u)[0]
    if model.name == GEOSOCA:
        c1 = geo.geo_scores(model.user_kdes.take([u]), model.lats[pos], model.lons[pos])[0]
        totals = user_social_frequency(friends, model.bounds, model.poi, n_pois)
        c2 = lib_social.power_law_score(model.social_fit, totals[pos])
        if model.cat_fit is not None:
            freq = user_category_frequency(model.cat_model, u)
            c3 = lib_social.power_law_score(model.cat_fit, freq[pos])
        else:
            c3 = np.zeros(len(pos))
    else:
        c1 = model.global_geo[pos]
        c2 = user_fcf_score(
            u, friends, model.visits, model.residence, model.lats, model.lons
        )[pos]
        c3 = user_amc_scores(
            model.l2tg, model.poi[model.bounds[u]:model.bounds[u + 1]], pos,
            model.amc_alpha, model.amc_memory,
        )
    return UserScores(pos, np.stack([c1, c2, c3], axis=1), model.enabled)


def user_topn(cs: UserScores, lambdas, n: int):
    """One user's (G, <= n) top POI codes and fused scores."""
    return recommend_topn(cs.poi_ids, fused_user_scores(cs, lambdas), n)
