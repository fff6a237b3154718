"""Property test: FittedModel.score_candidates, which shares per-user and
per-model work across candidates, equals the one-candidate-at-a-time oracles
on random small worlds."""
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from poifair.data import CheckIn, Dataset, Poi, SocialGraph, temporal_split
from poifair.recommend import GEOSOCA, LORE, FittedModel
from poifair.social import power_law_score

import oracles

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
    return Dataset.from_checkins(checkins, pois, graph)


def same(got: float, want: float) -> bool:
    """Equal within rel 1e-12; a zero on either side must be exact."""
    if got == 0.0 or want == 0.0:
        return got == want
    return math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)


def check_geosoca(model: FittedModel, ds: Dataset, split) -> None:
    for u, seq in split.train.items():
        cs = model.score_candidates(u)
        assert cs.poi_ids == sorted(set(ds.pois) - {c.poi_id for c in seq})
        samples = [(c.latitude, c.longitude) for c in seq]
        for p, (c1, c2, c3) in zip(cs.poi_ids, cs.raw):
            poi = ds.pois[p]
            g = oracles.expanded_kde_score(
                model.user_kdes[u], samples, poi.latitude, poi.longitude
            )
            x = oracles.social_frequency(u, p, model.counts, ds.social)
            s = power_law_score(model.social_fit, x)
            c = (
                power_law_score(model.cat_fit, model.cat_model.frequency(u, p))
                if model.cat_fit is not None else 0.0
            )
            assert same(c1, g), (u, p, c1, g)
            assert same(c2, s), (u, p, c2, s)
            assert same(c3, c), (u, p, c3, c)


def check_lore(model: FittedModel, ds: Dataset, split) -> None:
    samples = [
        (c.latitude, c.longitude) for u in sorted(split.train) for c in split.train[u]
    ]
    for u, seq in split.train.items():
        cs = model.score_candidates(u)
        history = [c.poi_id for c in seq]
        for p, (c1, c2, c3) in zip(cs.poi_ids, cs.raw):
            poi = ds.pois[p]
            g = oracles.expanded_kde_score(
                model.global_kde, samples, poi.latitude, poi.longitude
            )
            f = oracles.fcf_score(
                u, p, model.counts, ds.social, model.residences, model.poi_coords
            )
            a = oracles.amc_score(
                model.l2tg, history, p, model.amc_alpha, model.amc_memory
            )
            assert same(c1, g), (u, p, c1, g)
            assert same(c2, f), (u, p, c2, f)
            assert same(c3, a), (u, p, c3, a)


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
    check_geosoca(FittedModel(GEOSOCA, ds, split), ds, split)
    check_lore(FittedModel(LORE, ds, split), ds, split)


def test_single_candidate_example_shape():
    ds = build(SINGLE_CANDIDATE)
    split = temporal_split(ds)
    lore = FittedModel(LORE, ds, split)
    assert lore.score_candidates("u0").poi_ids == ["p2"]
    assert "g0" in ds.social.friends("u0") and "g0" not in lore.residences
    assert not ds.social.friends("u1")
