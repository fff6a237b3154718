"""Synthetic LBSN dataset generator for fixtures and bias experiments.

Users carry a latent period preference (night vs day check-ins) and a
geographic focus: leisure-leaning users stay close to a home cluster, so
their future (test) check-ins sit near their training density mass, while
working-leaning users roam across clusters.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import CheckIn, Dataset, Poi, SocialGraph


@dataclass
class SynthConfig:
    n_users: int = 200
    n_clusters: int = 6
    pois_per_cluster: int = 20
    checkins_per_user: tuple[int, int] = (30, 60)  # inclusive range
    leisure_fraction: float = 0.5
    home_focus_leisure: float = 0.92
    home_focus_working: float = 0.25
    friends_per_user: int = 4
    friend_scheme: str = "home"  # "home" | "random" | "mixed"
    n_categories: int = 8
    cluster_spread_km: float = 1.0
    cluster_distance_deg: float = 0.5
    seed: int = 42


def generate(cfg: SynthConfig = SynthConfig()) -> Dataset:
    rng = np.random.default_rng(cfg.seed)

    # POI grid: clusters on a ring around a mid-latitude city
    base_lat, base_lon = 40.0, -100.0
    centers = []
    for k in range(cfg.n_clusters):
        ang = 2 * np.pi * k / cfg.n_clusters
        centers.append(
            (
                base_lat + cfg.cluster_distance_deg * np.sin(ang),
                base_lon + cfg.cluster_distance_deg * np.cos(ang),
            )
        )
    spread_deg = cfg.cluster_spread_km / 111.0
    pois: dict[str, Poi] = {}
    cluster_pois: list[list[str]] = [[] for _ in range(cfg.n_clusters)]
    pid = 0
    for k, (clat, clon) in enumerate(centers):
        for _ in range(cfg.pois_per_cluster):
            poi_id = f"p{pid:04d}"
            pid += 1
            lat = clat + rng.normal(0, spread_deg)
            lon = clon + rng.normal(0, spread_deg)
            cat = f"cat{rng.integers(cfg.n_categories)}"
            pois[poi_id] = Poi(poi_id, float(lat), float(lon), cat)
            cluster_pois[k].append(poi_id)

    n_leisure = int(cfg.leisure_fraction * cfg.n_users)
    checkins: list[CheckIn] = []
    user_ids = [f"u{i:04d}" for i in range(cfg.n_users)]
    user_home = {}
    user_is_leisure = {}
    for i, u in enumerate(user_ids):
        is_leisure = i < n_leisure
        user_is_leisure[u] = is_leisure
        home = int(rng.integers(cfg.n_clusters))
        user_home[u] = home
        focus = cfg.home_focus_leisure if is_leisure else cfg.home_focus_working
        # period preference: leisure users check in at night, with some noise
        leisure_prob = rng.uniform(0.7, 0.95) if is_leisure else rng.uniform(0.05, 0.3)
        n_ci = int(rng.integers(cfg.checkins_per_user[0], cfg.checkins_per_user[1] + 1))
        ts = 1_300_000_000 + int(rng.integers(0, 86400))
        for _ in range(n_ci):
            if rng.random() < focus:
                cluster = home
            else:
                cluster = int(rng.integers(cfg.n_clusters))
            poi_id = cluster_pois[cluster][int(rng.integers(cfg.pois_per_cluster))]
            if rng.random() < leisure_prob:
                hour = int(rng.choice([19, 20, 21, 22, 23, 0, 1, 2, 3, 6, 7]))
            else:
                hour = int(rng.integers(8, 18))
            day = ts // 86400
            ts = int(day * 86400 + hour * 3600 + rng.integers(0, 3600))
            # advance time: mostly short gaps so transitions land inside sessions
            ts += int(rng.choice([4 * 3600, 8 * 3600, 30 * 3600], p=[0.45, 0.35, 0.2]))
            poi = pois[poi_id]
            checkins.append(CheckIn(u, poi_id, ts, poi.latitude, poi.longitude))

    social = SocialGraph()
    for i, u in enumerate(user_ids):
        local = cfg.friend_scheme == "home" or (
            cfg.friend_scheme == "mixed" and user_is_leisure[u]
        )
        if local:
            pool = [v for v in user_ids if v != u and user_home[v] == user_home[u]]
        else:
            pool = [v for v in user_ids if v != u]
        rng.shuffle(pool)
        for v in pool[: cfg.friends_per_user]:
            social.add_edge(u, v)

    return Dataset.from_checkins(checkins, pois, social)


def write_tsv(dataset: Dataset, out_dir) -> dict[str, Path]:
    """Write the canonical TSV files (check-ins, POIs, social) for the CLI
    from the dataset's columns."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "checkins": out / "checkins.tsv",
        "pois": out / "pois.tsv",
        "social": out / "social.tsv",
    }
    users, pois = dataset.user_ids, dataset.poi_ids
    with paths["checkins"].open("w", encoding="utf-8") as fh:
        fh.writelines(
            f"{users[u]}\t{pois[p]}\t{t}\n"
            for u, p, t in zip(
                dataset.user.tolist(), dataset.poi.tolist(), dataset.ts.tolist()
            )
        )
    with paths["pois"].open("w", encoding="utf-8") as fh:
        for p in pois:
            poi = dataset.pois[p]
            cat = poi.category_id or ""
            fh.write(f"{poi.poi_id}\t{poi.latitude}\t{poi.longitude}\t{cat}\n")
    with paths["social"].open("w", encoding="utf-8") as fh:
        # Each edge once, between users with check-ins.
        for u, friends in zip(users, dataset.friend_codes()):
            fh.writelines(f"{u}\t{users[v]}\n" for v in friends.tolist() if users[v] > u)
    return paths
