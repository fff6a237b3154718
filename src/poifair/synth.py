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

from .data import Dataset, Ids, edge_pairs, renumber


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
    poi_names: list[str] = []
    lats: list[float] = []
    lons: list[float] = []
    cats: list[str] = []
    for clat, clon in centers:
        for _ in range(cfg.pois_per_cluster):
            poi_names.append(f"p{len(poi_names):04d}")
            lats.append(float(clat + rng.normal(0, spread_deg)))
            lons.append(float(clon + rng.normal(0, spread_deg)))
            cats.append(f"cat{rng.integers(cfg.n_categories)}")

    n_leisure = int(cfg.leisure_fraction * cfg.n_users)
    # One row per check-in: user index, POI index (both in generation
    # order), timestamp.
    user_col: list[int] = []
    poi_col: list[int] = []
    ts_col: list[int] = []
    user_names = [f"u{i:04d}" for i in range(cfg.n_users)]
    user_home = []
    for i in range(cfg.n_users):
        is_leisure = i < n_leisure
        home = int(rng.integers(cfg.n_clusters))
        user_home.append(home)
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
            poi = cluster * cfg.pois_per_cluster + int(rng.integers(cfg.pois_per_cluster))
            if rng.random() < leisure_prob:
                hour = int(rng.choice([19, 20, 21, 22, 23, 0, 1, 2, 3, 6, 7]))
            else:
                hour = int(rng.integers(8, 18))
            day = ts // 86400
            ts = int(day * 86400 + hour * 3600 + rng.integers(0, 3600))
            # advance time: mostly short gaps so transitions land inside sessions
            ts += int(rng.choice([4 * 3600, 8 * 3600, 30 * 3600], p=[0.45, 0.35, 0.2]))
            user_col.append(i)
            poi_col.append(poi)
            ts_col.append(ts)

    friends: list[tuple[int, int]] = []
    for i in range(cfg.n_users):
        local = cfg.friend_scheme == "home" or (
            cfg.friend_scheme == "mixed" and i < n_leisure
        )
        pool = [
            j for j in range(cfg.n_users)
            if j != i and (not local or user_home[j] == user_home[i])
        ]
        rng.shuffle(pool)
        friends += [(i, j) for j in pool[: cfg.friends_per_user]]

    # Renumber users and POIs in id order; users without check-ins go.
    u_order, p_order = np.argsort(user_names), np.argsort(poi_names)
    new_user, user_ids = renumber(
        np.bincount(user_col, minlength=cfg.n_users)[u_order] > 0, Ids.of(user_names)
    )
    user_code = np.empty(cfg.n_users, dtype=np.int32)
    user_code[u_order] = new_user[:-1]
    poi_code = np.argsort(p_order).astype(np.int32)
    category_ids = Ids.of(cats)
    cat_code = {c: i for i, c in enumerate(category_ids)}
    pairs = user_code[np.array(friends, dtype=np.intp).reshape(-1, 2)]
    pairs = pairs[(pairs >= 0).all(axis=1)]
    return Dataset(
        user_ids,
        Ids.of(poi_names),
        user_code[user_col],
        poi_code[poi_col],
        np.array(ts_col, dtype=np.int64),
        np.array(lats)[p_order],
        np.array(lons)[p_order],
        np.array([cat_code[cats[i]] for i in p_order], dtype=np.int32),
        category_ids,
        edge_pairs(pairs[:, 0], pairs[:, 1], len(user_ids)),
    )


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
    users, pois, cats = (
        list(ids) for ids in (dataset.user_ids, dataset.poi_ids, dataset.category_ids)
    )
    with paths["checkins"].open("w", encoding="utf-8") as fh:
        fh.writelines(
            f"{users[u]}\t{pois[p]}\t{t}\n"
            for u, p, t in zip(
                dataset.user.tolist(), dataset.poi.tolist(), dataset.ts.tolist()
            )
        )
    with paths["pois"].open("w", encoding="utf-8") as fh:
        fh.writelines(
            f"{p}\t{lat}\t{lon}\t{cats[c] if c >= 0 else ''}\n"
            for p, lat, lon, c in zip(
                pois, dataset.lat.tolist(), dataset.lon.tolist(),
                dataset.category.tolist(),
            )
        )
    with paths["social"].open("w", encoding="utf-8") as fh:
        fh.writelines(f"{users[a]}\t{users[b]}\n" for a, b in dataset.edges.tolist())
    return paths
