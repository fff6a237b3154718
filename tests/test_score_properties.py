"""Property tests on random small worlds: FittedModel.score_candidates, which
scores a block of users at once, equals the one-candidate-at-a-time oracles;
the pipeline's block path equals the one-user-at-a-time numpy path bit for
bit at any block size; and the int-indexed fit structures equal the
string-keyed oracles."""
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poifair import recommend, social
from poifair.config import ExperimentConfig
from poifair.data import TRAIN, VALIDATION, Dataset, SplitDataset, temporal_split
from poifair.fusion import PRODUCT, SUM, WEIGHTED_SUM, rule_lambdas, simplex_grid
from poifair.pipeline import Pipeline
from poifair.recommend import GEOSOCA, LORE, FittedModel, fused_scores, normalized_scores
from poifair.sequential import SESSION_GAP_HOURS
from poifair.social import fit_power_law, friend_totals
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
    ghosts. Some worlds have no category at all, and in some the first user
    visits every POI within the training part of their history."""
    n_pois = draw(st.integers(1, 6))
    categories = st.just(None) if draw(st.booleans()) else st.sampled_from(CATEGORIES)
    pois = draw(st.lists(
        st.tuples(st.integers(0, len(SITES) - 1), categories),
        min_size=n_pois, max_size=n_pois,
    ))
    users = draw(st.lists(
        st.lists(st.tuples(st.integers(0, n_pois - 1), st.integers(1, 48)),
                 min_size=3, max_size=8),
        min_size=1, max_size=5,
    ))
    if draw(st.booleans()):
        # Every POI first, then enough later check-ins that the first
        # floor(0.7 n) of them, the training part, cover every POI.
        users[0] = [(p, 1) for p in range(n_pois)] + [(0, 1)] * (n_pois + 2)
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


def scored_rows(model: FittedModel):
    """Each user code with training check-ins, its candidate POI codes and
    their (n, 3) raw scores, all from one block."""
    users = np.flatnonzero(np.diff(model.bounds) > 0)
    cs = model.score_candidates(users)
    for b, u in enumerate(users.tolist()):
        pos = np.flatnonzero(cs.candidate[b])
        yield u, pos, cs.raw[:, b, pos].T


def check_geosoca(model: FittedModel, ds: Dataset, train) -> None:
    counts = oracles.visit_counts(train)
    pois, social = oracles.pois_of(ds), oracles.graph_of(ds)
    categories = oracles.CategoricalModel(train, pois)
    for i, pos, raw in scored_rows(model):
        u = ds.user_ids[i]
        cands = [ds.poi_ids[p] for p in pos]
        assert cands == sorted(set(pois) - {c.poi_id for c in train[u]})
        samples = [(c.latitude, c.longitude) for c in train[u]]
        for p, (c1, c2, c3) in zip(cands, raw):
            poi = pois[p]
            g = oracles.expanded_kde_score(
                oracles.kde_row(model.user_kdes, i), samples, poi.latitude, poi.longitude
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
    for i, pos, raw in scored_rows(model):
        u = ds.user_ids[i]
        history = [c.poi_id for c in train[u]]
        for p, (c1, c2, c3) in zip(pos, raw):
            poi = pois[ds.poi_ids[p]]
            g = oracles.expanded_kde_score(
                oracles.kde_row(model.global_kde, 0), samples, poi.latitude, poi.longitude
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
    in chunks of user codes (the categorical one a scoring block each) and
    flattened in order, equals the oracle's sample; one user per block
    gives the same fits, and 1, 7 or all users per social chunk the same
    social fit, bit for bit."""
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
    rows = [oracles.csr_row(visits, i) for i in range(len(users))]
    assert {
        u: dict(zip((pois[p] for p in at), n.tolist())) for u, (at, n) in zip(users, rows)
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
    assert geosoca.cat_model.frequency(np.arange(len(users))).tolist() == [
        [categories.frequency(u, p) for p in pois] for u in users
    ]

    want_samples = [oracles.positive_social_frequencies(train, oracles.graph_of(ds))]
    if geosoca.cat_model.has_categories:
        want_samples.append(oracles.positive_categorical_frequencies(train, pois))
    assert [sample for _, sample in samples] == want_samples
    if geosoca.cat_model.has_categories:
        assert samples[1][0] == -(-len(users) // recommend.score_block_rows(len(ds.poi_ids)))
    with patch.object(recommend, "BLOCK_BYTES", 24 * len(ds.poi_ids)):
        one = FittedModel(GEOSOCA, cols)
    assert (one.social_fit, one.cat_fit) == (geosoca.social_fit, geosoca.cat_fit)
    codes = np.arange(len(users))
    for step in (1, 7, len(users)):
        fit = fit_power_law(
            friend_totals(geosoca.friends, codes[lo:lo + step], geosoca.bounds, geosoca.poi,
                          len(ds.poi_ids))
            for lo in range(0, len(users), step)
        )
        assert fit.beta.hex() == geosoca.social_fit.beta.hex(), step


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
    assert lore.score_candidates([0]).poi_ids.tolist() == [ds.poi_ids.index("p2")]
    # u0's one friend, g0, has no check-in, so no code: neither user has a
    # friend in the dataset.
    assert SINGLE_CANDIDATE[3] == [(0, 2)] and "g0" not in ds.user_ids
    assert ds.friends().indptr.tolist() == [0, 0, 0]


RULES = [PRODUCT, SUM, WEIGHTED_SUM]
K = 4


def without_training_rows(split: SplitDataset, u: int) -> SplitDataset:
    """The split with user code u's training check-ins moved to validation:
    u keeps a code but has no residence, so is a friend without one."""
    part = split.part.copy()
    part[(split.dataset.user[split.rows] == u) & (part == TRAIN)] = VALIDATION
    return SplitDataset(split.dataset, split.rows, part)


def check_blocks_against_users(split, cfg, users_per_block) -> None:
    """The pipeline's lists, and each block's raw and fused scores, at
    `users_per_block` users per block (None: one block), equal the
    per-user path's bit for bit. Every rule's scores are read through its
    holder's `scores`, as evaluate reads them: for each weighted-sum grid
    row, re-fused from the normalised contexts of the POIs the grid lists
    name, which the grid's holder keeps and nothing more."""
    train = split.columns(TRAIN)
    n_pois = len(train.poi_ids)
    budget = 1 << 40 if users_per_block is None else users_per_block * 24 * n_pois
    grid = simplex_grid(cfg.sweep_step)
    with patch.object(recommend, "BLOCK_BYTES", budget):
        assert users_per_block is None or recommend.score_block_rows(n_pois) == users_per_block
        ranked = Pipeline(cfg).fit_and_recommend(split, RULES)
        for name in cfg.models:
            model = FittedModel(name, train, amc_memory=cfg.amc_memory)
            scored = np.flatnonzero(np.diff(train.user_rows()) > 0)
            step = recommend.score_block_rows(n_pois)
            want_users, want = [], {rule: ([], []) for rule in RULES}
            want_contexts = []
            lams = {rule: rule_lambdas(rule, model.enabled, grid) for rule in RULES}
            for lo in range(0, len(scored), step):
                cs = model.score_candidates(scored[lo:lo + step])
                # As the pipeline does, the block's rows with candidates
                # are fused together.
                has = cs.candidate.any(axis=1)
                block = cs.take(has)
                normalized = normalized_scores(block)
                fused = {rule: fused_scores(block, lam, normalized) for rule, lam in lams.items()}
                for b, u in enumerate(cs.users.tolist()):
                    one = oracles.score_user(model, u)
                    pos = np.flatnonzero(cs.candidate[b])
                    assert pos.tolist() == one.poi_ids.tolist()
                    assert cs.raw[:, b, pos].T.tobytes() == one.raw.tobytes()
                    if not len(pos):
                        continue
                    want_users.append(u)
                    for rule, lam in lams.items():
                        row = fused[rule][int(has[:b].sum())]
                        assert row[:, pos].tobytes() == (
                            oracles.fused_user_scores(one, lam).tobytes()
                        )
                        assert (row[:, ~cs.candidate[b]] == -np.inf).all()
                        top, vals = oracles.user_topn(one, lam, K)
                        # Lists are as long as the POI count allows.
                        pad = min(K, n_pois) - top.shape[1]
                        want[rule][0].append(np.pad(top, ((0, 0), (0, pad)), constant_values=-1))
                        want[rule][1].append(np.pad(vals, ((0, 0), (0, pad))))
                    grid_codes = want[WEIGHTED_SUM][0][-1]
                    named = np.unique(grid_codes[grid_codes >= 0])
                    at = np.searchsorted(one.poi_ids, named)
                    want_contexts.append((named, oracles.normalize_user_scores(one.raw)[at]))
            users, lists = ranked[name]
            assert users.tolist() == want_users
            for rule, (codes, scores) in want.items():
                got_codes, held = lists[rule]
                assert got_codes.tolist() == np.array(codes).reshape(got_codes.shape).tolist()
                scores = np.array(scores).reshape(got_codes.shape)
                got = np.stack([
                    held.scores(got_codes[:, g], g) for g in range(got_codes.shape[1])
                ], axis=1)
                assert got.tobytes() == scores.tobytes()
            held = lists[WEIGHTED_SUM][1]
            for i, (named, contexts) in enumerate(want_contexts):
                row = slice(held.indptr[i], held.indptr[i + 1])
                assert held.poi[row].tolist() == named.tolist()
                assert held.values[row].tobytes() == contexts.tobytes()


# u0 visits both POIs in train; u1, u0's friend, keeps no training check-in.
FULL_AND_GONE = (
    [(0, "c0"), (1, None)],
    [[(0, 1), (1, 1), (0, 1), (0, 1), (0, 1), (1, 1)], [(1, 1), (0, 2), (1, 3)]],
    0,
    [(0, 1)],
)


# u0's three friends visit p3 in train once, 3 and 3 times, two from a
# residence at u0's site and one from 4 km away: the friend-CF score's
# rounded sums depend on the order of their terms.
THREE_FRIENDS = (
    [(0, "c0"), (1, "c0"), (2, "c1"), (0, None)],
    [
        [(0, 1)] * 3,
        [(0, 1), (0, 1), (3, 1), (0, 1), (0, 1)],
        [(0, 1)] * 4 + [(3, 1)] * 3 + [(0, 1)] * 3,
        [(2, 1)] * 4 + [(3, 1)] * 3 + [(2, 1)] * 3,
    ],
    0,
    [(0, 1), (0, 2), (0, 3)],
)


# No POI has a category, so GeoSoCa's categorical context is disabled.
NO_CATEGORIES = (
    [(0, None), (1, None), (2, None)],
    [[(0, 1), (1, 2), (2, 3), (0, 30)], [(2, 1), (1, 1), (0, 5), (2, 2)]],
    0,
    [(0, 1)],
)


def test_no_categories_example_disables_c3():
    train = temporal_split(build(NO_CATEGORIES)).columns(TRAIN)
    assert FittedModel(GEOSOCA, train).enabled == (True, True, False)


@settings(max_examples=40, deadline=None)
@example(SINGLE_CANDIDATE, 5, None)
@example(NO_CATEGORIES, 2, None)
@example(FULL_AND_GONE, 2, 1)
@example(THREE_FRIENDS, 5, None)
@given(worlds(), st.sampled_from([1, 2, 5, 9]), st.one_of(st.none(), st.integers(0, 4)))
def test_blocks_equal_the_per_user_path(tmp_path_factory, world, memory, gone):
    """At 1, 2 and 7 users per block and in one block: raw scores, fused rows
    and top-K lists. Worlds include a user who visited every POI, a friend
    with no residence (`gone`), histories shorter than `memory` and no
    categories."""
    ds = build(world)
    split = temporal_split(ds)
    # Another user keeps training check-ins: a model fits on at least one.
    if gone is not None and 1 < len(ds.user_ids) and gone < len(ds.user_ids):
        split = without_training_rows(split, gone)
    cfg = ExperimentConfig(
        checkin_path="x", poi_path="y", out_dir=str(tmp_path_factory.mktemp("blocks")),
        cutoffs=[K], sweep_step=0.5, amc_memory=memory,
    )
    for users_per_block in (1, 2, 7, None):
        check_blocks_against_users(split, cfg, users_per_block)
