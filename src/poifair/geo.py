"""Kernel-density geographical influence with per-user or global bandwidth."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset

KM_PER_DEG_LAT = 110.574
KM_PER_DEG_LON_EQUATOR = 111.320
BANDWIDTH_FLOOR_KM = 0.01


def project_km(lats, lons, lat_ref: float) -> np.ndarray:
    """Equirectangular local projection of degree coordinates to km."""
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    x = KM_PER_DEG_LAT * lats
    y = KM_PER_DEG_LON_EQUATOR * math.cos(math.radians(lat_ref)) * lons
    return np.stack([x, y], axis=-1)


def distances_km(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Equirectangular distance of each pair of points, using the pair's
    midpoint latitude as reference: `project_km` of the two points, with
    Python's `math.cos` once per pair."""
    lat_ref = (lat1 + lat2) / 2.0
    kx = KM_PER_DEG_LON_EQUATOR * np.array(
        [math.cos(math.radians(x)) for x in lat_ref.tolist()], dtype=float
    )
    return np.hypot(KM_PER_DEG_LAT * lat1 - KM_PER_DEG_LAT * lat2, kx * lon1 - kx * lon2)


@dataclass(frozen=True)
class KdeModel:
    """Product-Gaussian KDE over distinct projected points.

    `weights` holds each point's sample count (check-ins at one POI share its
    coordinates).
    """

    points_km: np.ndarray  # (n, 2)
    bandwidth: tuple[float, float]  # (h_lat, h_lon) in km
    lat_ref: float
    weights: np.ndarray  # (n,)


def silverman_bandwidth(values: np.ndarray) -> float:
    """1.06 * sigma * n^(-1/5), floored to survive degenerate samples."""
    n = len(values)
    sigma = float(np.std(values))
    return max(1.06 * sigma * n ** (-0.2), BANDWIDTH_FLOOR_KM)


def fit_kde(coords) -> KdeModel:
    """Fit a product-Gaussian KDE over (n, 2) (lat, lon) degree coordinates.

    The bandwidth comes from every sample; the model keeps each distinct
    point once, weighted by how many samples share it.
    """
    arr = np.asarray(coords, dtype=float)
    if not len(arr):
        raise ValueError("cannot fit KDE on empty sample")
    lat_ref = float(arr[:, 0].mean())
    pts = project_km(arr[:, 0], arr[:, 1], lat_ref)
    h = (silverman_bandwidth(pts[:, 0]), silverman_bandwidth(pts[:, 1]))
    distinct, counts = np.unique(pts, axis=0, return_counts=True)
    return KdeModel(
        points_km=distinct, bandwidth=h, lat_ref=lat_ref,
        weights=counts.astype(float),
    )


def fit_user_kdes(train: Dataset, coords: np.ndarray) -> list[KdeModel | None]:
    """One KDE per user code over the (lat, lon) `coords[poi]` of their
    check-ins, in row order, as `fit_kde` fits it; None for a user without
    check-ins. `train` is sorted by user. Every user's distinct points come
    from one lexsort over (user, x, y)."""
    bounds = train.user_rows().tolist()
    samples = coords[train.poi]
    pts = np.empty_like(samples)
    fits = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi == lo:
            fits.append(None)
            continue
        arr = samples[lo:hi]
        lat_ref = float(arr[:, 0].mean())
        p = pts[lo:hi] = project_km(arr[:, 0], arr[:, 1], lat_ref)
        fits.append((lat_ref, (silverman_bandwidth(p[:, 0]), silverman_bandwidth(p[:, 1]))))
    order = np.lexsort((pts[:, 1], pts[:, 0], train.user))
    pts, user = pts[order], train.user[order]
    first = np.ones(len(pts), dtype=bool)
    first[1:] = (user[1:] != user[:-1]) | (pts[1:] != pts[:-1]).any(axis=1)
    at = np.flatnonzero(first)
    counts = np.diff(at, append=len(pts))
    ends = np.searchsorted(user[at], np.arange(len(bounds))).tolist()
    return [
        None if fit is None else KdeModel(
            points_km=pts[at[a:b]], bandwidth=fit[1], lat_ref=fit[0],
            weights=counts[a:b].astype(float),
        )
        for fit, a, b in zip(fits, ends, ends[1:])
    ]


def fit_global_kde(train: Dataset, coords: np.ndarray) -> KdeModel:
    """One KDE over the (lat, lon) `coords[poi]` of every check-in, in row
    order."""
    return fit_kde(coords[train.poi])


def geo_score_km(model: KdeModel, query_km: np.ndarray) -> np.ndarray:
    """Density at projected-km query points, shape (m, 2) -> (m,)."""
    q = np.atleast_2d(np.asarray(query_km, dtype=float))
    h1, h2 = model.bandwidth
    # Two (m, n) arrays, each step in place: the operations and their order
    # are those of exp(-0.5 * (dx * dx + dy * dy)).
    dx = np.subtract.outer(q[:, 0], model.points_km[:, 0])
    dx /= h1
    dy = np.subtract.outer(q[:, 1], model.points_km[:, 1])
    dy /= h2
    dx *= dx
    dy *= dy
    dx += dy
    dx *= -0.5
    np.exp(dx, out=dx)
    norm = 1.0 / (2.0 * math.pi * h1 * h2)
    w = model.weights
    return norm * ((dx @ w) / w.sum())


def geo_scores(model: KdeModel, lats, lons) -> np.ndarray:
    q = project_km(lats, lons, model.lat_ref)
    return geo_score_km(model, q)
