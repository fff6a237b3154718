"""Synthetic LBSN corpus generator for fixtures and bias experiments.

Users carry a latent period preference (night vs day check-ins) and a
geographic focus: leisure-leaning users stay close to a home cluster, so
their future (test) check-ins sit near their training density mass, while
working-leaning users roam across clusters. The corpus is TSV text, as an
LBSN dump is; `parse_dataset` builds the `Dataset` from the written files.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

LEISURE_FRACTION = 0.5
HOME_FOCUS_LEISURE = 0.92
CHECKINS_PER_USER = (30, 60)  # inclusive range
N_CATEGORIES = 8
CLUSTER_SPREAD_KM = 1.0
CLUSTER_DISTANCE_DEG = 0.5
FRIEND_SCHEMES = ("home", "random")  # friends from the user's home cluster, or any


@dataclass
class SynthConfig:
    n_users: int = 200
    n_clusters: int = 6
    pois_per_cluster: int = 20
    home_focus_working: float = 0.25
    friends_per_user: int = 4
    friend_scheme: str = "home"
    seed: int = 42

    def __post_init__(self):
        if self.friend_scheme not in FRIEND_SCHEMES:
            raise ValueError(f"unknown friend_scheme {self.friend_scheme!r}")


def generate(cfg: SynthConfig = SynthConfig()) -> dict[str, str]:
    """The check-in, POI and social TSV texts, keyed by file name; the same
    config gives the same bytes. Lines follow generation order, which is id
    order while ids keep 4 digits."""
    rng = np.random.default_rng(cfg.seed)
    # POI grid: clusters on a ring around a mid-latitude city
    poi_lines = []
    for k in range(cfg.n_clusters):
        ang = 2 * np.pi * k / cfg.n_clusters
        clat = 40.0 + CLUSTER_DISTANCE_DEG * np.sin(ang)
        clon = -100.0 + CLUSTER_DISTANCE_DEG * np.cos(ang)
        for _ in range(cfg.pois_per_cluster):
            lat = float(clat + rng.normal(0, CLUSTER_SPREAD_KM / 111.0))
            lon = float(clon + rng.normal(0, CLUSTER_SPREAD_KM / 111.0))
            cat = f"cat{rng.integers(N_CATEGORIES)}"
            poi_lines.append(f"p{len(poi_lines):04d}\t{lat}\t{lon}\t{cat}\n")

    checkin_lines, home = [], []
    for i in range(cfg.n_users):
        is_leisure = i < int(LEISURE_FRACTION * cfg.n_users)
        home.append(int(rng.integers(cfg.n_clusters)))
        focus = HOME_FOCUS_LEISURE if is_leisure else cfg.home_focus_working
        # period preference: leisure users check in at night, with some noise
        leisure_prob = rng.uniform(0.7, 0.95) if is_leisure else rng.uniform(0.05, 0.3)
        n_ci = int(rng.integers(CHECKINS_PER_USER[0], CHECKINS_PER_USER[1] + 1))
        ts = 1_300_000_000 + int(rng.integers(0, 86400))
        for _ in range(n_ci):
            cluster = home[i] if rng.random() < focus else int(rng.integers(cfg.n_clusters))
            poi = cluster * cfg.pois_per_cluster + int(rng.integers(cfg.pois_per_cluster))
            if rng.random() < leisure_prob:
                hour = int(rng.choice([19, 20, 21, 22, 23, 0, 1, 2, 3, 6, 7]))
            else:
                hour = int(rng.integers(8, 18))
            ts = int(ts // 86400 * 86400 + hour * 3600 + rng.integers(0, 3600))
            # advance time: mostly short gaps so transitions land inside sessions
            ts += int(rng.choice([4 * 3600, 8 * 3600, 30 * 3600], p=[0.45, 0.35, 0.2]))
            checkin_lines.append(f"u{i:04d}\tp{poi:04d}\t{ts}\n")

    edges, local = set(), cfg.friend_scheme == "home"
    for i in range(cfg.n_users):
        pool = [j for j in range(cfg.n_users) if j != i and (not local or home[j] == home[i])]
        rng.shuffle(pool)
        edges.update((min(i, j), max(i, j)) for j in pool[: cfg.friends_per_user])

    return {
        "checkins.tsv": "".join(checkin_lines),
        "pois.tsv": "".join(poi_lines),
        "social.tsv": "".join(f"u{a:04d}\tu{b:04d}\n" for a, b in sorted(edges)),
    }


def write_tsv(cfg: SynthConfig, out_dir) -> dict[str, Path]:
    """Write the TSV files into `out_dir`: their paths, keyed by kind."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    texts = generate(cfg)
    for name, text in texts.items():
        (out / name).write_text(text, encoding="utf-8")
    return {name.removesuffix(".tsv"): out / name for name in texts}
