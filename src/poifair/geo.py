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
    """A batch of product-Gaussian KDEs over distinct projected points, as
    CSR: row u is one KDE over `points_km[indptr[u]:indptr[u + 1]]`, each
    point weighted by its sample count (check-ins at one POI share its
    coordinates)."""

    points_km: np.ndarray  # (P, 2)
    weights: np.ndarray  # (P,)
    indptr: np.ndarray  # (U + 1,)
    bandwidth: np.ndarray  # (U, 2): (h_lat, h_lon) in km
    lat_ref: np.ndarray  # (U,)


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
    lexsort over (run, x, y). An empty run's row is empty, with NaN
    bandwidth and lat_ref."""
    bounds = np.asarray(bounds).tolist()
    n_rows = len(bounds) - 1
    pts = np.empty_like(samples)
    lat_ref, h = np.full(n_rows, np.nan), np.full((n_rows, 2), np.nan)
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
    indptr = np.searchsorted(run[at], np.arange(n_rows + 1))
    return KdeModel(pts[at], np.diff(at, append=len(pts)).astype(float), indptr, h, lat_ref)


def fit_user_kdes(train: Dataset, coords: np.ndarray) -> KdeModel:
    """Row u: user code u's KDE over the (lat, lon) `coords[poi]` of their
    check-ins, in row order. `train` is sorted by user."""
    return fit_kdes(coords[train.poi], train.user_rows())


def fit_global_kde(train: Dataset, coords: np.ndarray) -> KdeModel:
    """One row: the KDE over the (lat, lon) `coords[poi]` of every check-in,
    in row order."""
    return fit_kdes(coords[train.poi], [0, len(train.poi)])


def geo_score_km(model: KdeModel, rows, query_km) -> np.ndarray:
    """Density of the batch's KDEs `rows` at their rows of projected-km query
    points, (B, m, 2) -> (B, m): `exp(-0.5 * (dx * dx + dy * dy)) * w` added
    point by point, in each row's point order, over all queries at once,
    without BLAS. Rows are scored busiest first, step j over the rows that
    have a point j, so a row adds only its own points: its bits depend
    neither on the other rows and queries nor on the thread count."""
    rows = np.asarray(rows, dtype=np.intp)
    lo, n = model.indptr[rows], model.indptr[rows + 1] - model.indptr[rows]
    if (n[1:] > n[:-1]).any():
        order = np.argsort(-n, kind="stable")
        return geo_score_km(model, rows[order], np.asarray(query_km)[order])[np.argsort(order)]
    q = np.asarray(query_km, dtype=float)
    h1, h2 = model.bandwidth[rows, 0, None], model.bandwidth[rows, 1, None]
    acc, dx, dy = np.zeros(q.shape[:-1]), np.empty(q.shape[:-1]), np.empty(q.shape[:-1])
    den, js = np.zeros((len(rows), 1)), [*n.tolist(), 0]
    for c in [c for c in range(len(rows), 0, -1) if js[c] < js[c - 1]]:
        # Steps js[c] to js[c - 1] run over the first c rows, their points
        # gathered once: in place, one step of the formula at a time.
        at = (lo[:c, None] + np.arange(js[c], js[c - 1])).T[..., None]  # (steps, c, 1)
        pts, w = model.points_km[at], model.weights[at]
        qx, qy, hx, hy, x, y, a = q[:c, :, 0], q[:c, :, 1], h1[:c], h2[:c], dx[:c], dy[:c], acc[:c]
        for p, wp in zip(pts, w):
            np.divide(np.subtract(qx, p[..., 0], out=x), hx, out=x)
            np.divide(np.subtract(qy, p[..., 1], out=y), hy, out=y)
            np.add(np.square(x, out=x), np.square(y, out=y), out=x)
            np.exp(np.multiply(x, -0.5, out=x), out=x)
            a += np.multiply(x, wp, out=x)
        den[:c] += w.sum(axis=0)  # check-in counts: exact in any order
    norm = 1.0 / (2.0 * math.pi * h1 * h2)
    return np.multiply(norm, np.divide(acc, den, out=acc), out=acc)


def geo_scores(model: KdeModel, rows, lats, lons) -> np.ndarray:
    """Density of the batch's KDEs `rows` at each (lat, lon) point, (B, m)."""
    return geo_score_km(model, rows, project_km(lats, lons, model.lat_ref[rows]))
