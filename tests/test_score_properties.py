"""Property tests on random small worlds: FittedModel.score_candidates, which
shares per-user and per-model work across candidates, equals the
one-candidate-at-a-time oracles, and the int-indexed fit structures equal
the string-keyed oracles."""
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poifair import social
from poifair.data import TRAIN, Dataset, temporal_split
from poifair.recommend import GEOSOCA, LORE, FittedModel
from poifair.sequential import SESSION_GAP_HOURS
from poifair.social import fit_power_law
from poifair.synth import SynthConfig, generate

import oracles
from oracles import CheckIn, Poi, SocialGraph

# Few sites, so POIs often share coordinates.
SITES = [(40.0, -100.0), (40.001, -100.002), (40.03, -99.97)]
CATEGORIES = [None, "c0", "c1"]


@st.composite
def worlds(draw):
    """(pois, users, n_ghosts, edges): POIs as (site, category); each user's
    check-ins as (poi index, hours since the previous check-in); ghosts are
    friends with no check-ins, hence no residence; edges index users then
    ghosts."""
    n_pois = draw(st.integers(1, 6))
    pois = draw(st.lists(
        st.tuples(st.integers(0, len(SITES) - 1), st.sampled_from(CATEGORIES)),
        min_size=n_pois, max_size=n_pois,
    ))
    users = draw(st.lists(
        st.lists(st.tuples(st.integers(0, n_pois - 1), st.integers(1, 48)),
                 min_size=3, max_size=8),
        min_size=1, max_size=5,
    ))
    n_ghosts = draw(st.integers(0, 2))
    n_nodes = len(users) + n_ghosts
    edges = draw(st.lists(
        st.tuples(st.integers(0, n_nodes - 1), st.integers(0, n_nodes - 1)),
        max_size=8,
    ))
    return pois, users, n_ghosts, edges


def build(world) -> Dataset:
    pois_spec, users_spec, n_ghosts, edges = world
    pois = {
        f"p{i}": Poi(f"p{i}", *SITES[site], cat)
        for i, (site, cat) in enumerate(pois_spec)
    }
    names = [f"u{i}" for i in range(len(users_spec))]
    names += [f"g{i}" for i in range(n_ghosts)]
    checkins = []
    for u, seq in zip(names, users_spec):
        ts = 1_300_000_000
        for poi_idx, gap_h in seq:
            ts += gap_h * 3600
            poi = pois[f"p{poi_idx}"]
            checkins.append(CheckIn(u, poi.poi_id, ts, poi.latitude, poi.longitude))
    graph = SocialGraph((names[a], names[b]) for a, b in edges if a != b)
    return oracles.from_checkins(checkins, pois, graph)


def same(got: float, want: float) -> bool:
    """Equal within rel 1e-12; a zero on either side must be exact."""
    if got == 0.0 or want == 0.0:
        return got == want
    return math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)


def check_geosoca(model: FittedModel, ds: Dataset, train) -> None:
    counts = oracles.visit_counts(train)
    pois, social = oracles.pois_of(ds), oracles.graph_of(ds)
    categories = oracles.CategoricalModel(train, pois)
    for i, u in enumerate(ds.user_ids):
        cs = model.score_candidates(i)
        cands = [ds.poi_ids[p] for p in cs.poi_ids]
        assert cands == sorted(set(pois) - {c.poi_id for c in train[u]})
        samples = [(c.latitude, c.longitude) for c in train[u]]
        for p, (c1, c2, c3) in zip(cands, cs.raw):
            poi = pois[p]
            g = oracles.expanded_kde_score(
                model.user_kdes[i], samples, poi.latitude, poi.longitude
            )
            x = oracles.social_frequency(u, p, counts, social)
            s = oracles.power_law_score(model.social_fit, x)
            c = (
                oracles.power_law_score(model.cat_fit, categories.frequency(u, p))
                if model.cat_fit is not None else 0.0
            )
            assert same(c1, g), (u, p, c1, g)
            assert c2 == s, (u, p, c2, s)
            assert c3 == c, (u, p, c3, c)


def check_lore(model: FittedModel, ds: Dataset, train) -> None:
    samples = [(c.latitude, c.longitude) for u in sorted(train) for c in train[u]]
    counts = oracles.visit_counts(train)
    residences = {u: oracles.residence(u, counts) for u in train if counts[u]}
    pois, social = oracles.pois_of(ds), oracles.graph_of(ds)
    coords = {p: (x.latitude, x.longitude) for p, x in pois.items()}
    l2tg = oracles.build_l2tg(train, SESSION_GAP_HOURS)
    for i, u in enumerate(ds.user_ids):
        cs = model.score_candidates(i)
        history = [c.poi_id for c in train[u]]
        for p, (c1, c2, c3) in zip(cs.poi_ids, cs.raw):
            poi = pois[ds.poi_ids[p]]
            g = oracles.expanded_kde_score(
                model.global_kde, samples, poi.latitude, poi.longitude
            )
            f = oracles.fcf_score(u, poi.poi_id, counts, social, residences, coords)
            a = oracles.amc_score(
                l2tg, history, poi.poi_id, model.amc_alpha, model.amc_memory
            )
            assert same(c1, g), (u, p, c1, g)
            assert c2 == f, (u, p, c2, f)
            assert same(c3, a), (u, p, c3, a)


def check_fit_structures(ds: Dataset, split) -> None:
    """The int-indexed fit structures, read back by id, equal the string
    oracles exactly; so does each power-law sample, given to fit_power_law
    as one chunk per user code and flattened in order."""
    train = oracles.checkin_lists(split)[0]
    cols = split.columns(TRAIN)
    users, pois = ds.user_ids, ds.poi_ids
    samples = []

    def record(chunks):
        chunks = [c.tolist() for c in chunks]
        samples.append((len(chunks), [x for c in chunks for x in c]))
        return fit_power_law(chunks)

    with patch.object(social, "fit_power_law", side_effect=record):
        geosoca = FittedModel(GEOSOCA, cols)
    lore = FittedModel(LORE, cols)

    counts = oracles.visit_counts(train)
    visits = lore.visits
    assert {
        u: dict(zip((pois[p] for p in visits.row(i)[0]), visits.row(i)[1].tolist()))
        for i, u in enumerate(users)
    } == counts
    assert {
        users[i]: pois[r] for i, r in enumerate(lore.residence.tolist()) if r >= 0
    } == {u: oracles.residence(u, counts) for u in train if counts[u]}

    want = oracles.build_l2tg(train, SESSION_GAP_HOURS)
    g = lore.l2tg
    assert {
        pois[s]: dict(zip(
            (pois[d] for d in g.dst[g.indptr[s]:g.indptr[s + 1]]),
            g.prob[g.indptr[s]:g.indptr[s + 1]].tolist(),
        ))
        for s in np.flatnonzero(np.diff(g.indptr))
    } == {s: want.out_edges(s) for s in want.out_totals if want.out_totals[s]}

    pois = oracles.pois_of(ds)
    categories = oracles.CategoricalModel(train, pois)
    assert [geosoca.cat_model.frequency(i).tolist() for i in range(len(users))] == [
        [categories.frequency(u, p) for p in pois] for u in users
    ]

    want_samples = [oracles.positive_social_frequencies(train, oracles.graph_of(ds))]
    if geosoca.cat_model.has_categories:
        want_samples.append(oracles.positive_categorical_frequencies(train, pois))
    assert samples == [(len(users), want) for want in want_samples]


# u0 visits two of three POIs (p0, p1 share a site): a single candidate, p2,
# and a ghost friend g0 with no residence. u1 has no friends.
SINGLE_CANDIDATE = (
    [(0, "c0"), (0, None), (2, "c1")],
    [[(0, 1), (1, 2), (0, 3), (1, 30)], [(2, 1), (2, 1), (0, 5)]],
    1,
    [(0, 2)],
)


@settings(max_examples=60, deadline=None)
@example(SINGLE_CANDIDATE)
@given(worlds())
def test_score_candidates_match_scalar_oracles(world):
    ds = build(world)
    split = temporal_split(ds)
    cols = split.columns(TRAIN)
    train = oracles.checkin_lists(split)[0]
    check_geosoca(FittedModel(GEOSOCA, cols), ds, train)
    check_lore(FittedModel(LORE, cols), ds, train)


@settings(max_examples=60, deadline=None)
@example(SINGLE_CANDIDATE)
@given(worlds())
def test_fit_structures_match_string_oracles(world):
    ds = build(world)
    check_fit_structures(ds, temporal_split(ds))


@pytest.mark.parametrize("categories", [True, False])
def test_power_law_samples_in_oracle_order_on_synthetic_world(categories):
    """A world large enough that both power laws are fitted: users with many
    friends whose histories overlap."""
    ds = generate(SynthConfig(n_users=40, n_clusters=3, pois_per_cluster=8, seed=5))
    if not categories:
        ds = oracles.without_categories(ds)
    check_fit_structures(ds, temporal_split(ds))


def test_single_candidate_example_shape():
    ds = build(SINGLE_CANDIDATE)
    lore = FittedModel(LORE, temporal_split(ds).columns(TRAIN))
    assert lore.score_candidates(0).poi_ids.tolist() == [ds.poi_ids.index("p2")]
    # u0's one friend, g0, has no check-in, so no code: neither user has a
    # friend in the dataset.
    assert SINGLE_CANDIDATE[3] == [(0, 2)] and "g0" not in ds.user_ids
    assert [f.tolist() for f in ds.friend_codes()] == [[], []]
