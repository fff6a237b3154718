"""Property test: the columnar parse -> filter -> split -> profiles path
equals the per-`CheckIn` oracles in `oracles.py`, exactly, on small random
inputs written as TSV files."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from poifair.data import (
    TRAIN,
    DataError,
    dataset_stats,
    parse_dataset,
    preprocess_filter,
    temporal_split,
)
from poifair.temporal import (
    LEISURE,
    UNASSIGNED,
    WORKING,
    assign_groups,
    build_profiles,
    correlation_analysis,
    group_stats,
    poi_popularity,
    temporal_histogram,
    training_visits,
)

import oracles
from conftest import make_dataset
from oracles import CheckIn
from test_ranking_properties import outcome

# Ids whose string order differs from their numeric order.
USER_IDS = ["u9", "u10", "u1", "U", "a b", "u2", "b", "u11"]
POI_IDS = ["p2", "p10", "p1", "P", "q"]
SITES = [(40.0, -100.0), (40.5, -100.25), (-33.9, 151.2)]
CATEGORIES = [None, "c0", "c1"]
DAY = 1_300_000_000 // 86400 * 86400
# Hours 8 and 18, and both sides of hour boundaries; few values, so equal
# timestamps and repeated (ts, poi) pairs are common.
SPECIAL_TS = [
    DAY + h * 3600 + s for h in (0, 7, 8, 17, 18, 23) for s in (-1, 0, 1)
]
timestamps = st.one_of(
    st.sampled_from(SPECIAL_TS), st.integers(1, 3 * 86400).map(lambda s: DAY + s)
)
FRACTIONS = [(0.7, 0.1, 0.2), (1.0, 0.0, 0.0), (0.5, 0.25, 0.25), (0.34, 0.33, 0.33)]


@st.composite
def inputs(draw):
    """(pois, rows): POI lines as (id, site, category), in file order; check-in
    lines as (user_id, poi_id, ts), in file order."""
    n_pois = draw(st.integers(1, len(POI_IDS)))
    poi_ids = draw(st.permutations(POI_IDS))[:n_pois]
    pois = [
        (p, draw(st.sampled_from(range(len(SITES)))), draw(st.sampled_from(CATEGORIES)))
        for p in poi_ids
    ]
    rows = []
    for u in USER_IDS[: draw(st.integers(1, len(USER_IDS)))]:
        # Counts around 3, the fewest a split takes.
        for _ in range(draw(st.integers(1, 7))):
            rows.append((u, draw(st.sampled_from(poi_ids)), draw(timestamps)))
    order = draw(st.permutations(range(len(rows))))
    return pois, [rows[i] for i in order]


def write_inputs(tmp_path, pois, rows):
    ci, po = tmp_path / "checkins.tsv", tmp_path / "pois.tsv"
    po.write_text("".join(
        f"{p}\t{SITES[s][0]}\t{SITES[s][1]}\t{c or ''}\n" for p, s, c in pois
    ))
    ci.write_text("".join(f"{u}\t{p}\t{ts}\n" for u, p, ts in rows))
    return ci, po


@given(
    world=inputs(),
    min_user=st.integers(0, 6),
    min_poi=st.integers(0, 6),
    fractions=st.sampled_from(FRACTIONS),
    window=st.sampled_from([(8, 18), (0, 24), (17, 19), (9, 9)]),
    quantile=st.sampled_from([0.2, 0.5]),
)
@settings(max_examples=150, deadline=None)
def test_columns_match_checkin_oracles(tmp_path_factory, world, min_user, min_poi,
                                       fractions, window, quantile):
    pois_spec, rows = world
    ci, po = write_inputs(tmp_path_factory.mktemp("cols"), pois_spec, rows)
    d = parse_dataset(ci, po)
    pois = oracles.pois_of(d)
    checkins = [
        CheckIn(u, p, ts, pois[p].latitude, pois[p].longitude) for u, p, ts in rows
    ]
    assert oracles.checkins(d) == checkins
    assert list(d.user_ids) == sorted({u for u, _, _ in rows})
    assert list(d.poi_ids) == sorted({p for p, _, _ in pois_spec})

    kept = oracles.preprocess_filter(checkins, min_user, min_poi)
    try:
        filtered, report = preprocess_filter(d, min_user, min_poi)
    except DataError:
        assert not kept
        return
    assert oracles.checkins(filtered) == kept
    kept_pois = {c.poi_id for c in kept}
    assert list(filtered.poi_ids) == [p for p in d.poi_ids if p in kept_pois]
    assert report.users_removed == len(d.user_ids) - len({c.user_id for c in kept})
    assert report.checkins_removed == len(checkins) - len(kept)
    assert report.pois_removed == len(d.poi_ids) - len(kept_pois)
    assert dataset_stats(filtered) == oracles.dataset_stats(
        kept, oracles.pois_of(filtered), len(filtered.edges)
    )
    hist = temporal_histogram(filtered.ts)
    assert hist.tolist() == oracles.temporal_histogram(kept).tolist()

    split = temporal_split(filtered, *fractions)
    train, val, test = oracles.temporal_split(kept, *fractions)
    assert oracles.checkin_lists(split) == (train, val, test)

    cols = split.columns(TRAIN)
    assert oracles.checkins(cols) == [c for seq in train.values() for c in seq]
    visits, n_work = training_visits(cols, window)
    pop = poi_popularity(visits)
    want_pop = oracles.poi_popularity(train, len(train))
    assert pop.tolist() == [want_pop.get(p, 0.0) for p in cols.poi_ids]
    profiles = build_profiles(visits, n_work, pop)
    objects = oracles.build_profiles(train, want_pop, window)
    assert oracles.profile_objects(profiles, cols.user_ids) == objects

    # With window (0, 24) every ratio ties; groups then rank by user id.
    def groups():
        labels = assign_groups(profiles, len(cols.user_ids), quantile)
        return [
            [cols.user_ids[u] for u in np.flatnonzero(labels == g).tolist()]
            for g in (LEISURE, WORKING, UNASSIGNED)
        ], group_stats(labels, profiles)

    def oracle_groups():
        a = oracles.assign_groups(objects, quantile)
        # Users without a training row are unassigned too.
        unassigned = a.unassigned | set(cols.user_ids) - {p.user_id for p in objects}
        return [
            sorted(users) for users in (a.leisure_focused, a.working_focused, unassigned)
        ], oracles.group_stats(objects, a)

    assert outcome(groups) == outcome(oracle_groups)
    assert outcome(lambda: correlation_analysis(profiles)) == outcome(
        lambda: oracles.correlation_analysis(objects)
    )


def test_popularity_consumption_sums_left_to_right():
    """Users with 64, 1, 17 and 40 distinct POIs, some visited again and out
    of poi_id order. The 64 popularities add up to a different last bit in
    numpy's pairwise sum than left to right, and dividing by 64 keeps that
    bit. A user whose rows are all outside the training columns gets no
    profile."""
    pop = np.random.default_rng(0).random(64)
    assert float(np.sum(pop)) / 64 != oracles.sequential_sum(pop.tolist()) / 64
    visited = {
        "a": list(range(64)), "b": [5], "c": list(range(40, 23, -1)) + [30, 24],
        "d": list(range(24, 64))[::-1], "z": [0, 1],
    }
    checkins = [
        CheckIn(u, f"p{i:02d}", 1000 + t, 40.0, -100.0)
        for u, pois in visited.items() for t, i in enumerate(pois)
    ]
    d = make_dataset(checkins)
    train = d.take(np.flatnonzero(d.user != d.user_ids.index("z")))
    profiles = build_profiles(*training_visits(train), pop)
    assert profiles.user.tolist() == [0, 1, 2, 3]
    assert profiles.avg_popularity_consumption.tolist() == [
        oracles.sequential_sum(pop[sorted(set(visited[u]))].tolist()) / len(set(visited[u]))
        for u in "abcd"
    ]
    assert profiles.avg_popularity_consumption[0] == oracles.sequential_sum(pop.tolist()) / 64
