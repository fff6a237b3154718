"""Kernel-density geographical influence with per-user or global bandwidth."""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .data import Dataset

KM_PER_DEG_LAT = 110.574
KM_PER_DEG_LON_EQUATOR = 111.320
BANDWIDTH_FLOOR_KM = 0.01


def project_km(lats, lons, lat_ref) -> np.ndarray:
    """Equirectangular local projection of (n,) or (U, n) degree coordinates to
    km, (n, 2), or (U, n, 2) for (U,) reference latitudes; each cosine is `math.cos`."""
    ref = np.asarray(lat_ref, dtype=float)
    cos = np.array([math.cos(math.radians(r)) for r in ref.ravel().tolist()])
    kx = KM_PER_DEG_LON_EQUATOR * cos.reshape(ref.shape)
    y = kx[..., None] * np.asarray(lons, dtype=float)
    x = np.broadcast_to(KM_PER_DEG_LAT * np.asarray(lats, dtype=float), y.shape)
    return np.stack([x, y], axis=-1)


def distances_km(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Equirectangular distance of each pair of points, using the pair's
    midpoint latitude as reference: `project_km` of the two points, with
    Python's `math.cos` once per pair."""
    p = project_km(np.stack((lat1, lat2), axis=1), np.stack((lon1, lon2), axis=1),
                   (lat1 + lat2) / 2.0)
    return np.hypot(*(p[:, 0] - p[:, 1]).T)


class KdeModel(NamedTuple):
    """A batch of product-Gaussian KDEs over distinct projected points: row u
    is one KDE, padded with weight-0 points to the longest row. `weights`
    holds each point's sample count (check-ins at one POI share its
    coordinates)."""

    points_km: np.ndarray  # (U, n, 2)
    bandwidth: np.ndarray  # (U, 2): (h_lat, h_lon) in km
    lat_ref: np.ndarray  # (U,)
    weights: np.ndarray  # (U, n)

    def take(self, rows) -> KdeModel:
        """The rows `rows`, without the padding that all of them share."""
        w = self.weights[rows]
        n = int(np.count_nonzero(w, axis=1).max(initial=0))
        return KdeModel(
            self.points_km[rows, :n], self.bandwidth[rows], self.lat_ref[rows], w[:, :n]
        )


def silverman_bandwidth(values: np.ndarray) -> float:
    """1.06 * sigma * n^(-1/5), floored to survive degenerate samples."""
    n = len(values)
    sigma = float(np.std(values))
    return max(1.06 * sigma * n ** (-0.2), BANDWIDTH_FLOOR_KM)


def fit_kdes(samples: np.ndarray, bounds) -> KdeModel:
    """One product-Gaussian KDE per run `samples[bounds[i]:bounds[i + 1]]`
    of (lat, lon) degree coordinates, as a batch whose row i is run i's.

    The bandwidth comes from every sample; a row keeps each distinct point
    once, weighted by how many samples share it, in (x, y) order from one
    lexsort over (run, x, y). An empty run's row is only padding, with NaN
    bandwidth and lat_ref."""
    bounds = np.asarray(bounds).tolist()
    n_rows = len(bounds) - 1
    pts = np.empty_like(samples)
    lat_ref = np.full(n_rows, np.nan)
    h = np.full((n_rows, 2), np.nan)
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if hi == lo:
            continue
        arr = samples[lo:hi]
        lat_ref[i] = float(arr[:, 0].mean())
        p = pts[lo:hi] = project_km(arr[:, 0], arr[:, 1], lat_ref[i])
        h[i] = silverman_bandwidth(p[:, 0]), silverman_bandwidth(p[:, 1])
    run = np.repeat(np.arange(n_rows), np.diff(bounds))
    order = np.lexsort((pts[:, 1], pts[:, 0], run))
    pts, run = pts[order], run[order]
    first = np.ones(len(pts), dtype=bool)
    first[1:] = (run[1:] != run[:-1]) | (pts[1:] != pts[:-1]).any(axis=1)
    at = np.flatnonzero(first)
    owner = run[at]
    ends = np.searchsorted(owner, np.arange(n_rows + 1))
    col = np.arange(len(at)) - ends[owner]  # each point's column in its row
    points = np.zeros((n_rows, int(np.diff(ends).max(initial=0)), 2))
    weights = np.zeros(points.shape[:2])
    points[owner, col], weights[owner, col] = pts[at], np.diff(at, append=len(pts))
    return KdeModel(points_km=points, bandwidth=h, lat_ref=lat_ref, weights=weights)


def fit_user_kdes(train: Dataset, coords: np.ndarray) -> KdeModel:
    """Row u: user code u's KDE over the (lat, lon) `coords[poi]` of their
    check-ins, in row order. `train` is sorted by user."""
    return fit_kdes(coords[train.poi], train.user_rows())


def fit_global_kde(train: Dataset, coords: np.ndarray) -> KdeModel:
    """One row: the KDE over the (lat, lon) `coords[poi]` of every check-in,
    in row order."""
    return fit_kdes(coords[train.poi], [0, len(train.poi)])


def geo_score_km(model: KdeModel, query_km: np.ndarray) -> np.ndarray:
    """Density of each of a batch's U KDEs at its row of projected-km query
    points, (U, m, 2) -> (U, m): `exp(-0.5 * (dx * dx + dy * dy)) * w` added
    point by point, in point order, over all queries at once. No BLAS, so a
    query's bits depend neither on the other queries nor on the thread
    count; a weight-0 point adds exactly 0.0, so nor on padding or batch."""
    q = np.asarray(query_km, dtype=float)
    pts, w = model.points_km, model.weights
    h1, h2 = model.bandwidth[:, 0, None], model.bandwidth[:, 1, None]
    acc, dx, dy = np.zeros(q.shape[:-1]), np.empty(q.shape[:-1]), np.empty(q.shape[:-1])
    for j in range(w.shape[1]):  # in place, one step of the formula at a time
        np.divide(np.subtract(q[..., 0], pts[:, j, 0, None], out=dx), h1, out=dx)
        np.divide(np.subtract(q[..., 1], pts[:, j, 1, None], out=dy), h2, out=dy)
        np.add(np.square(dx, out=dx), np.square(dy, out=dy), out=dx)
        np.exp(np.multiply(dx, -0.5, out=dx), out=dx)
        acc += np.multiply(dx, w[:, j, None], out=dx)
    norm = 1.0 / (2.0 * math.pi * h1 * h2)
    # Weights are check-in counts, so their sum is exact in any order.
    return norm * (acc / w.sum(axis=1, keepdims=True))


def geo_scores(model: KdeModel, lats, lons) -> np.ndarray:
    q = project_km(lats, lons, model.lat_ref)
    return geo_score_km(model, q)
