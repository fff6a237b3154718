"""Synthetic LBSN corpora for the benchmark, written as the three canonical
TSV files (check-ins, POIs, social edges) that `poifair` parses.

The population model follows `poifair.synth` (clustered POIs on a ring,
leisure-leaning users who stay near a home cluster and check in at night,
working-leaning users who roam and check in by day) but lives here so that a
change to the library's generator cannot change a benchmark workload.
Friends are drawn by rejection sampling, O(friends) per user, instead of
shuffling a pool of every other user, so 10^4 users generate in seconds.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TSV_NAMES = ("checkins.tsv", "pois.tsv", "social.tsv")
NIGHT_HOURS = np.array([19, 20, 21, 22, 23, 0, 1, 2, 3, 6, 7])
GAP_SECONDS = np.array([4 * 3600, 8 * 3600, 30 * 3600])
GAP_PROBS = np.array([0.45, 0.35, 0.2])
FRIENDS_PER_USER = 5
LEISURE_FRACTION = 0.5
HOME_FOCUS_LEISURE = 0.92
HOME_FOCUS_WORKING = 0.3
N_CATEGORIES = 8
CLUSTER_SPREAD_KM = 1.0
CLUSTER_DISTANCE_DEG = 0.5


@dataclass(frozen=True)
class CorpusSpec:
    n_users: int
    n_clusters: int
    pois_per_cluster: int
    checkins_per_user: tuple[int, int]  # inclusive range

    @classmethod
    def from_json(cls, raw: dict) -> "CorpusSpec":
        raw = dict(raw)
        raw["checkins_per_user"] = tuple(raw["checkins_per_user"])
        return cls(**raw)


def _id_width(n: int) -> int:
    return max(4, len(str(max(n - 1, 0))))


def generate(spec: CorpusSpec, seed: int) -> dict[str, str]:
    """Return the TSV texts keyed by file name; the same seed gives the same
    bytes."""
    rng = np.random.default_rng(seed)
    n_pois = spec.n_clusters * spec.pois_per_cluster
    pw = _id_width(n_pois)
    uw = _id_width(spec.n_users)
    poi_ids = [f"p{i:0{pw}d}" for i in range(n_pois)]
    user_ids = [f"u{i:0{uw}d}" for i in range(spec.n_users)]

    ang = 2 * np.pi * np.arange(spec.n_clusters) / spec.n_clusters
    center_lat = 40.0 + CLUSTER_DISTANCE_DEG * np.sin(ang)
    center_lon = -100.0 + CLUSTER_DISTANCE_DEG * np.cos(ang)
    spread_deg = CLUSTER_SPREAD_KM / 111.0
    poi_cluster = np.repeat(np.arange(spec.n_clusters), spec.pois_per_cluster)
    lats = center_lat[poi_cluster] + rng.normal(0, spread_deg, n_pois)
    lons = center_lon[poi_cluster] + rng.normal(0, spread_deg, n_pois)
    cats = rng.integers(N_CATEGORIES, size=n_pois)
    poi_lines = [
        f"{poi_ids[i]}\t{float(lats[i])!r}\t{float(lons[i])!r}\tcat{int(cats[i])}\n"
        for i in range(n_pois)
    ]

    n_leisure = int(LEISURE_FRACTION * spec.n_users)
    lo, hi = spec.checkins_per_user
    checkin_lines = []
    for i, u in enumerate(user_ids):
        is_leisure = i < n_leisure
        home = int(rng.integers(spec.n_clusters))
        focus = HOME_FOCUS_LEISURE if is_leisure else HOME_FOCUS_WORKING
        leisure_prob = rng.uniform(0.7, 0.95) if is_leisure else rng.uniform(0.05, 0.3)
        n = int(rng.integers(lo, hi + 1))
        clusters = np.where(
            rng.random(n) < focus, home, rng.integers(spec.n_clusters, size=n)
        )
        pois = clusters * spec.pois_per_cluster + rng.integers(
            spec.pois_per_cluster, size=n
        )
        hours = np.where(
            rng.random(n) < leisure_prob,
            rng.choice(NIGHT_HOURS, size=n),
            rng.integers(8, 18, size=n),
        )
        jitter = rng.integers(0, 3600, size=n)
        gaps = rng.choice(GAP_SECONDS, size=n, p=GAP_PROBS)
        ts = 1_300_000_000 + int(rng.integers(0, 86400))
        for p, h, j, g in zip(pois.tolist(), hours.tolist(), jitter.tolist(), gaps.tolist()):
            ts = (ts // 86400) * 86400 + h * 3600 + j + g
            checkin_lines.append(f"{u}\t{poi_ids[p]}\t{ts}\n")

    edges = set()
    for i in range(spec.n_users):
        chosen: list[int] = []
        while len(chosen) < min(FRIENDS_PER_USER, spec.n_users - 1):
            v = int(rng.integers(spec.n_users))
            if v != i and v not in chosen:
                chosen.append(v)
        edges.update((min(i, v), max(i, v)) for v in chosen)
    social_lines = [f"{user_ids[a]}\t{user_ids[b]}\n" for a, b in sorted(edges)]

    return {
        "checkins.tsv": "".join(checkin_lines),
        "pois.tsv": "".join(poi_lines),
        "social.tsv": "".join(social_lines),
    }


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write(spec: CorpusSpec, seed: int, out_dir: Path) -> dict[str, str]:
    """Write the corpus into out_dir and return the SHA-256 of each file."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in generate(spec, seed).items():
        tmp = out_dir / (name + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(out_dir / name)
    return {name: sha256_file(out_dir / name) for name in TSV_NAMES}

