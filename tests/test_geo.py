import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poifair.data import Dataset, Ids
from poifair.geo import (
    BANDWIDTH_FLOOR_KM,
    KdeModel,
    distances_km,
    fit_global_kde,
    fit_kdes,
    fit_user_kdes,
    geo_score_km,
    geo_scores,
    project_km,
    silverman_bandwidth,
)

from conftest import coords, make_checkin, make_train
from oracles import Kde, distance_km, expanded_kde_score, fit_kde, kde_density_km, kde_row


def fit(coords) -> KdeModel:
    """The library's KDE over one sample of (lat, lon) coordinates: a batch
    of one row."""
    arr = np.asarray(coords, dtype=float)
    return fit_kdes(arr, [0, len(arr)])


def batch(rows: list[Kde]) -> KdeModel:
    """KDEs as one library batch, padded to the longest with weight-0 points
    at the origin."""
    n = max(len(r.weights) for r in rows)
    points = np.zeros((len(rows), n, 2))
    weights = np.zeros((len(rows), n))
    for i, r in enumerate(rows):
        points[i, :len(r.weights)] = r.points_km
        weights[i, :len(r.weights)] = r.weights
    return KdeModel(
        points_km=points, bandwidth=np.array([r.bandwidth for r in rows]),
        lat_ref=np.array([r.lat_ref for r in rows]), weights=weights,
    )


def one(points_km, bandwidth) -> KdeModel:
    """A batch of one KDE with unit weights."""
    return batch([Kde(points_km, bandwidth, 0.0, np.ones(len(points_km)))])


def density(m: KdeModel, latitude: float, longitude: float) -> float:
    """The library's density of a one-row batch at one (lat, lon) point."""
    return float(geo_scores(m, [latitude], [longitude])[0, 0])


class TestFit:
    def test_single_point_floor(self):
        m = fit([(40.0, -100.0)])
        assert m.bandwidth.tolist() == [[BANDWIDTH_FLOOR_KM, BANDWIDTH_FLOOR_KM]]

    def test_silverman_formula(self):
        # sigma = 1 km, n = 100 -> 1.06 * 100^(-1/5)
        rng = np.random.default_rng(0)
        vals = rng.normal(0, 1.0, 100)
        vals = (vals - vals.mean()) / vals.std()  # exact unit sigma
        h = silverman_bandwidth(vals)
        assert h == pytest.approx(1.06 * 100 ** (-0.2), rel=1e-12)
        assert h == pytest.approx(0.4219, abs=5e-4)

    def test_identical_profiles_identical_models(self):
        sites = [(40.0, -100.0), (40.01, -100.02), (40.02, -99.99)]
        train = make_train([
            make_checkin(u, f"p{i}", i, lat, lon)
            for u in ("a", "b") for i, (lat, lon) in enumerate(sites)
        ])
        m = fit_user_kdes(train, coords(train))
        assert np.array_equal(m.points_km[0], m.points_km[1])
        assert np.array_equal(m.weights[0], m.weights[1])
        assert np.array_equal(m.bandwidth[0], m.bandwidth[1])

    def test_global_uses_all_points(self):
        train = make_train([
            make_checkin("a", "p", 1, 40.0, -100.0),
            make_checkin("b", "q", 1, 41.0, -101.0),
        ])
        m = fit_global_kde(train, coords(train))
        assert m.points_km.shape == (1, 2, 2)

    def test_model_sample_count(self):
        m = fit([(40.0, -100.0), (40.1, -100.1)])
        assert m.weights.sum() == 2

    def test_repeated_coordinates_kept_once_with_counts(self):
        coords = [(40.0, -100.0)] * 3 + [(40.1, -100.1)] * 2 + [(40.2, -99.9)]
        m = fit(coords)
        assert m.points_km.shape == (1, 3, 2)
        assert sorted(m.weights[0].tolist()) == [1.0, 2.0, 3.0]
        assert m.weights.sum() == 6
        expanded = project_km([c[0] for c in coords], [c[1] for c in coords], m.lat_ref[0])
        assert tuple(m.bandwidth[0].tolist()) == (
            silverman_bandwidth(expanded[:, 0]),
            silverman_bandwidth(expanded[:, 1]),
        )


class TestScore:
    def test_peak_at_single_sample(self):
        m = fit([(40.0, -100.0)])
        h1, h2 = m.bandwidth[0]
        assert density(m, 40.0, -100.0) == pytest.approx(
            1.0 / (2 * math.pi * h1 * h2), rel=1e-12
        )

    def test_far_tail_is_zero(self):
        m = fit([(40.0, -100.0)])
        assert density(m, 49.0, -100.0) < 1e-300

    def test_hand_summed_line_model(self):
        # 5 points on a lat line; oracle is the direct kernel sum in km space
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]])
        m = one(pts, (0.5, 0.5))
        q = np.array([[2.0, 0.0]])
        expected = 0.0
        for p in pts:
            d2 = ((q[0, 0] - p[0]) / 0.5) ** 2 + ((q[0, 1] - p[1]) / 0.5) ** 2
            expected += math.exp(-0.5 * d2) / (2 * math.pi * 0.25)
        expected /= 5
        assert geo_score_km(m, q[None])[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_monotone_decay_single_sample(self):
        m = fit([(40.0, -100.0)])
        ds = [density(m, 40.0, -100.0 + eps) for eps in (0, 1e-4, 2e-4, 4e-4)]
        assert all(a > b for a, b in zip(ds, ds[1:]))

    def test_translation_invariance_in_longitude(self):
        rng = np.random.default_rng(1)
        coords = [(40.0 + rng.normal(0, 0.01), -100.0 + rng.normal(0, 0.01)) for _ in range(20)]
        m1 = fit(coords)
        shift = 3.0
        m2 = fit([(lat, lon + shift) for lat, lon in coords])
        q = (40.005, -100.002)
        assert density(m1, *q) == pytest.approx(
            density(m2, q[0], q[1] + shift), abs=1e-9
        )


class TestRepeatedCoordinates:
    @pytest.mark.parametrize("seed", range(5))
    def test_same_density_as_expanded_sample(self, seed):
        rng = np.random.default_rng(seed)
        sites = [(40.0 + rng.normal(0, 0.02), -100.0 + rng.normal(0, 0.02)) for _ in range(6)]
        coords = [sites[i] for i in rng.integers(0, len(sites), size=40)]
        m = fit(coords)
        assert m.points_km.shape[1] < len(coords)
        for lat, lon in [*sites, (40.01, -99.99), (40.3, -100.3)]:
            got = density(m, lat, lon)
            assert got == pytest.approx(
                expanded_kde_score(kde_row(m, 0), coords, lat, lon), rel=1e-12, abs=0.0
            )

    def test_global_kde_weights_sum_to_checkins(self):
        train = make_train([
            *(make_checkin("a", "p", t, 40.0, -100.0) for t in (1, 2, 3)),
            make_checkin("b", "q", 4, 41.0, -101.0),
        ])
        m = fit_global_kde(train, coords(train))
        assert m.points_km.shape == (1, 2, 2)
        assert sorted(m.weights[0].tolist()) == [1.0, 3.0]


class TestNormalization:
    @pytest.mark.parametrize("seed", range(5))
    def test_density_integrates_to_one(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 15))
        pts = rng.normal(0, 1.0, size=(n, 2))
        h = (max(0.3, rng.uniform(0.2, 1.0)), max(0.3, rng.uniform(0.2, 1.0)))
        mass = quadrature_mass(one(pts, h))
        assert mass == pytest.approx(1.0, abs=0.02)


def quadrature_mass(m: KdeModel, cells: int = 220) -> float:
    """The density of a one-row batch, integrated over a grid that spans its
    points and six bandwidths beyond."""
    (h1, h2), pts = m.bandwidth[0], m.points_km[0]
    x0, x1 = pts[:, 0].min() - 6 * h1, pts[:, 0].max() + 6 * h1
    y0, y1 = pts[:, 1].min() - 6 * h2, pts[:, 1].max() + 6 * h2
    xs = np.linspace(x0, x1, cells)
    ys = np.linspace(y0, y1, cells)
    gx, gy = np.meshgrid(xs, ys)
    q = np.stack([gx.ravel(), gy.ravel()], axis=1)
    dens = geo_score_km(m, q[None])[0].reshape(cells, cells)
    return float(np.trapezoid(np.trapezoid(dens, ys, axis=0), xs))


# Few sites, so users repeat points; two share a latitude, two a longitude.
KDE_SITES = np.array([
    (40.0, -100.0), (40.0, -100.002), (40.001, -100.0), (0.0, 0.5), (-33.9, 151.2),
])


@settings(max_examples=200, deadline=None)
@example(samples=[[0]])
@example(samples=[[1, 1, 1], [], [3, 0, 3, 0, 4]])
@given(samples=st.lists(
    st.lists(st.integers(0, len(KDE_SITES) - 1), max_size=6), min_size=1, max_size=5,
))
def test_user_kdes_equal_per_user_fit_kde(samples):
    """Each row of the batch from one lexsort over (user, x, y) holds
    `fit_kde`'s distinct points from np.unique(axis=0), with the same
    weights, bandwidths and lat_ref, bit for bit, then only weight-0
    padding: repeated points, a single point, and a row of padding with NaN
    bandwidth for a user with no check-in."""
    n = [len(s) for s in samples]
    train = Dataset(
        user_ids=Ids.of(f"u{i:04d}" for i in range(len(samples))),
        poi_ids=Ids.of(f"p{i:04d}" for i in range(len(KDE_SITES))),
        user=np.repeat(np.arange(len(samples)), n).astype(np.int32),
        poi=np.array([p for s in samples for p in s], dtype=np.int32),
        ts=np.zeros(sum(n), dtype=np.int64),
        lat=KDE_SITES[:, 0], lon=KDE_SITES[:, 1],
        category=np.full(len(KDE_SITES), -1, dtype=np.int32), category_ids=Ids.of([]),
        edges=np.zeros((0, 2), dtype=np.int32),
    )
    got = fit_user_kdes(train, KDE_SITES)
    assert got.weights.shape == got.points_km.shape[:2] == (len(samples), max(
        len(set(s)) for s in samples
    ))
    for u, s in enumerate(samples):
        if not s:
            assert not got.weights[u].any()
            assert np.isnan(got.bandwidth[u]).all() and np.isnan(got.lat_ref[u])
            continue
        want = fit_kde(KDE_SITES[s])
        k = len(want.weights)
        assert got.points_km[u, :k].tobytes() == want.points_km.tobytes()
        assert got.weights[u, :k].tobytes() == want.weights.tobytes()
        assert not got.weights[u, k:].any()
        assert tuple(got.bandwidth[u].tolist()) == want.bandwidth
        assert got.lat_ref[u] == want.lat_ref


km_st = st.floats(min_value=-5.0, max_value=5.0)
kde_st = st.builds(
    lambda pts, h: Kde(
        points_km=np.array([p for p, _ in pts]).reshape(-1, 2), bandwidth=h,
        lat_ref=0.0, weights=np.array([float(w) for _, w in pts]),
    ),
    st.lists(st.tuples(st.tuples(km_st, km_st), st.integers(1, 5)), min_size=1, max_size=8),
    st.tuples(st.floats(0.05, 3.0), st.floats(0.05, 3.0)),
)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(kde_st, min_size=1, max_size=4),
    queries=st.lists(st.tuples(km_st, km_st), min_size=1, max_size=12),
    pad=st.lists(st.tuples(km_st, km_st), min_size=1, max_size=3),
    cut=st.integers(1, 12),
)
def test_kernel_row_bits_do_not_depend_on_batch_padding_or_query_blocks(
    rows, queries, pad, cut
):
    """Each KDE's density at each query is the same float scored alone,
    inside a batch, with extra weight-0 points, and with its queries split
    into blocks; and it matches the pure-Python sum over its points."""
    q = np.array(queries)
    together = geo_score_km(batch(rows), np.broadcast_to(q, (len(rows),) + q.shape))
    for r, row in enumerate(rows):
        alone = geo_score_km(batch([row]), q[None])[0]
        padded = replace(
            row, points_km=np.concatenate([row.points_km, pad]),
            weights=np.concatenate([row.weights, np.zeros(len(pad))]),
        )
        blocks = [
            geo_score_km(batch([row]), q[None, lo:lo + cut])[0] for lo in range(0, len(q), cut)
        ]
        assert together[r].tobytes() == alone.tobytes()
        assert geo_score_km(batch([padded]), q[None])[0].tobytes() == alone.tobytes()
        assert np.concatenate(blocks).tobytes() == alone.tobytes()
        want = [kde_density_km(row, x, y) for x, y in queries]
        assert alone.tolist() == pytest.approx(want, rel=1e-12, abs=1e-300)


lat_st = st.floats(min_value=-89.0, max_value=89.0)
lon_st = st.floats(min_value=-180.0, max_value=180.0)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(lat_st, lon_st, lat_st, lon_st), min_size=1, max_size=20))
def test_distances_equal_pairwise_distance_km(pairs):
    """The vectorised distance of each pair equals the scalar oracle's,
    projection included, bit for bit."""
    cols = [np.array(c) for c in zip(*pairs)]
    want = [distance_km(*map(np.float64, p)) for p in pairs]
    assert distances_km(*cols).tolist() == want
