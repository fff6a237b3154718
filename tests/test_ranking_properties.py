"""Property tests of the bulk ranking and fusion paths against their scalar
oracles: top_k and recommend_topn against a full sort, the row-wise ranking
metrics against the one-list oracle, evaluation and the weight sweep on user
codes against their user-keyed oracles, and multi-row fusion against one-row
calls and the one-candidate fusion oracle, bit for bit."""
import struct
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poifair.data import DataError, PairCounts
from poifair.fusion import (
    OBJECTIVE_MAX_ACC_UNF,
    OBJECTIVE_MIN_DELTA,
    PRODUCT,
    SUM,
    WEIGHTED_SUM,
    fuse_arrays,
    normalize_scores,
    rule_lambdas,
    simplex_grid,
    weight_sweep,
)
from poifair import recommend
from poifair.metrics import RankingMetrics, evaluate_run, ranking_metrics
from poifair.pipeline import user_metrics
from poifair.temporal import LEISURE, UNASSIGNED, WORKING
from poifair.recommend import (
    CandidateScores, fused_scores, normalized_scores, recommend_topn, top_k,
)

import oracles

# A small pool forces ties; 0.0 and -0.0 compare equal but differ in bits.
score_st = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1e-300]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


def bits(values):
    return [struct.pack("<d", v) for v in values]


@st.composite
def candidates(draw):
    """Distinct ids in ascending order, as `CandidateScores.poi_ids` are."""
    ids = sorted(draw(st.sets(st.text("abcAB0_", min_size=1, max_size=3), max_size=40)))
    scores = np.array(draw(st.lists(score_st, min_size=len(ids), max_size=len(ids))))
    n = draw(st.integers(min_value=1, max_value=len(ids) + 5))
    return list(ids), scores, n


@settings(max_examples=300, deadline=None)
@given(candidates())
def test_topn_matches_sort_oracle(case):
    ids, scores, n = case
    pois, vals = recommend_topn(ids, scores, n)
    want_pois, want_vals = oracles.topn(ids, scores, n)
    assert pois.tolist() == want_pois
    assert bits(vals.tolist()) == bits(want_vals)
    assert len(pois) == min(n, len(ids))


def test_topn_signed_zero_ties_break_by_poi_id():
    ids = ["a", "b", "c", "d"]
    scores = np.array([0.0, -0.0, -0.0, 0.0])
    pois, vals = recommend_topn(ids, scores, 10)
    assert pois.tolist() == ["a", "b", "c", "d"]
    assert bits(vals.tolist()) == bits([0.0, -0.0, -0.0, 0.0])


@st.composite
def score_matrices(draw):
    """(scores, k): a (B, G, n) block as the recommend stage ranks it, B
    users of G = 1 or 66 rows, or one user's rows without the block axis
    (and one row as 1-D); values drawn from a small pool so that ties are
    common, with a run of zeros of both signs across every row."""
    b = draw(st.sampled_from([1, 2, 6, 47]))
    g = draw(st.sampled_from([1, 66]))
    n = draw(st.integers(min_value=1, max_value=60))
    pool = np.array(draw(st.lists(score_st, min_size=1, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scores = rng.choice(pool, size=(b, g, n))
    lo = draw(st.integers(min_value=0, max_value=n))
    hi = draw(st.integers(min_value=lo, max_value=n))
    scores[..., lo:hi] = rng.choice([0.0, -0.0], size=(b, g, hi - lo))
    if b == 1 and draw(st.booleans()):
        scores = scores[0]
        if g == 1 and draw(st.booleans()):
            scores = scores[0]
    k = draw(st.one_of(st.just(1), st.integers(min_value=1, max_value=n + 3)))
    return scores, k


@settings(max_examples=200, deadline=None)
@given(case=score_matrices())
def test_top_k_equals_stable_argsort(case):
    """top_k gives the stable argsort's prefix, which is a Python sort by
    (-score, position)."""
    scores, k = case
    got = top_k(scores, k)
    want = np.argsort(-scores, axis=-1, kind="stable")[..., :k]
    assert got.shape == want.shape
    assert got.tolist() == want.tolist()
    n, kept = scores.shape[-1], got.shape[-1]
    for row, top in zip(scores.reshape(-1, n).tolist(), got.reshape(-1, kept).tolist()):
        assert top == sorted(range(len(row)), key=lambda i: (-row[i], i))[:k]


@pytest.mark.parametrize(
    "shape",
    [(47, 1, 230), (6, 1, 230), (2, 66, 230), (1, 66, 4000), (0, 1, 230), (3, 66, 20)],
)
def test_top_k_at_pipeline_shapes(shape):
    """The (users, rule rows, POIs) blocks that the recommend stage ranks:
    product and sum blocks of 47 users of the benchmark corpus's 230 POIs
    and their 6-user tail, a weighted-sum block of 2 users, one user's
    weighted-sum rows over 4,000 POIs, an empty block, and a weighted-sum
    block over 20 POIs, where k = 20 lists every POI. A tenth of the scores
    are zero and the rest on a 0.01 grid."""
    rng = np.random.default_rng(sum(shape))
    scores = np.round(rng.random(shape), 2)
    scores[..., rng.random(shape[-1]) < 0.1] = 0.0
    for k in (1, 10, 20):
        want = np.argsort(-scores, axis=-1, kind="stable")[..., :k]
        assert top_k(scores, k).tolist() == want.tolist()


def test_top_k_rejects_k_below_one():
    with pytest.raises(ValueError):
        top_k(np.zeros(5), 0)


@st.composite
def ranked_lists(draw):
    """(lists, relevant sets, n): lists over 30 items, some shorter than n,
    some relevant sets empty or larger than n."""
    n = draw(st.integers(min_value=1, max_value=25))
    item = st.integers(min_value=0, max_value=29)
    rows = draw(st.lists(
        st.tuples(st.lists(item, unique=True, max_size=n + 5), st.sets(item)),
        min_size=1, max_size=8,
    ))
    lists, relevant = zip(*rows)
    return list(lists), list(relevant), n


@settings(max_examples=300, deadline=None)
@given(case=ranked_lists())
def test_row_metrics_equal_one_list_oracle(case):
    lists, relevant, n = case
    width = max(len(top[:n]) for top in lists)
    hits = np.zeros((len(lists), width), dtype=bool)
    for i, (top, rel) in enumerate(zip(lists, relevant)):
        hits[i, :len(top[:n])] = [p in rel for p in top[:n]]
    m = ranking_metrics(hits, [len(rel) for rel in relevant], n)
    for i, (top, rel) in enumerate(zip(lists, relevant)):
        want = oracles.ranking_metrics(top, rel, n)
        got = (m.precision[i], m.recall[i], m.ndcg[i])
        assert bits(got) == bits([want.precision, want.recall, want.ndcg])


@st.composite
def short_hits(draw):
    """(hits, n_relevant, n): up to 6 lists of up to 12 ranks each, marked,
    with relevant counts up to 400 and a cutoff n beyond their width."""
    rows = draw(st.integers(min_value=1, max_value=6))
    width = draw(st.integers(min_value=0, max_value=12))
    flat = draw(st.lists(st.booleans(), min_size=rows * width, max_size=rows * width))
    n_relevant = draw(st.lists(st.integers(min_value=0, max_value=400),
                               min_size=rows, max_size=rows))
    n = draw(st.integers(min_value=width + 1, max_value=width + 300))
    return np.array(flat, dtype=bool).reshape(rows, width), n_relevant, n


@settings(max_examples=300, deadline=None)
@given(case=short_hits())
def test_cutoff_past_the_hits_equals_hits_padded_to_it(case):
    """A list holds no hit past its width, so a cutoff n beyond it reads as
    the hits padded with False up to n."""
    hits, n_relevant, n = case
    padded = np.zeros((len(hits), n), dtype=bool)
    padded[:, :hits.shape[1]] = hits
    got, want = ranking_metrics(hits, n_relevant, n), ranking_metrics(padded, n_relevant, n)
    for field in ("n_hits", "precision", "recall", "ndcg"):
        assert bits(getattr(got, field)) == bits(getattr(want, field)), field


label_st = st.sampled_from([UNASSIGNED, LEISURE, WORKING])


def groups_of(labels):
    """The oracle's fairness groups: sets of the user codes with each label."""
    return oracles.GroupAssignment(
        *({u for u, g in enumerate(labels.tolist()) if g == label}
          for label in (LEISURE, WORKING, UNASSIGNED))
    )


def outcome(f):
    """repr of f's result, which tells -0.0 from 0.0, or its ValueError or
    DataError."""
    try:
        return repr(f())
    except (ValueError, DataError) as e:
        return f"{type(e).__name__}: {e}"


@st.composite
def evaluation_runs(draw):
    """(n_pois, recommended-for user codes, their lists, relevant POI codes
    of every user code, labels of every user code, list width, cutoffs).
    Each user has the same number of lists, one a row as the weighted-sum
    grid has; a list may be shorter than the width, and a relevant set may
    be empty. With the trap on, the last POI code is relevant to every user:
    a padding -1 keyed as user * n_pois - 1 would hit the previous user's
    last POI."""
    n_pois = draw(st.integers(min_value=1, max_value=12))
    n_users = draw(st.integers(min_value=1, max_value=10))
    users = sorted(draw(st.sets(st.integers(min_value=0, max_value=n_users - 1), min_size=1)))
    rows = draw(st.integers(min_value=1, max_value=3))
    width = draw(st.integers(min_value=1, max_value=8))
    poi = st.integers(min_value=0, max_value=n_pois - 1)
    one_list = st.lists(poi, unique=True, min_size=1, max_size=width)
    lists = {u: draw(st.lists(one_list, min_size=rows, max_size=rows)) for u in users}
    trap = {n_pois - 1} if draw(st.booleans()) else set()
    relevant = {u: draw(st.sets(poi)) | trap for u in range(n_users)}
    labels = np.array(draw(st.lists(label_st, min_size=n_users, max_size=n_users)), dtype=np.int8)
    cutoffs = sorted(draw(st.sets(st.integers(min_value=1, max_value=width), min_size=1, max_size=3)))
    return n_pois, users, lists, relevant, labels, width, cutoffs


@settings(max_examples=300, deadline=None)
@given(case=evaluation_runs(), flat=st.booleans(), baseline=st.sampled_from([None, 0.0, 0.25]))
def test_array_evaluation_equals_user_keyed_oracle(case, flat, baseline):
    """user_metrics, marking hits one user a block, then evaluate_run per
    (row, cutoff) give the user-keyed oracle's reports and per-user metrics
    bit for bit, and the oracle's first error. With one row a user, the
    lists may come as the (users, K) matrix evaluate passes."""
    n_pois, users, lists, relevant, labels, width, cutoffs = case
    rows = len(lists[users[0]])
    pairs = [(u, p) for u in sorted(relevant) for p in sorted(relevant[u])]
    row, col = (np.array([pair[i] for pair in pairs], dtype=np.int64) for i in (0, 1))
    truth = PairCounts.of(row, col, len(labels), n_pois)
    top = np.full((len(users), rows, width), -1, dtype=np.int32)
    for i, u in enumerate(users):
        for r, ranked in enumerate(lists[u]):
            top[i, r, :len(ranked)] = ranked
    with patch.object(recommend, "BLOCK_BYTES", 1):
        kept, metrics = user_metrics(
            truth, np.array(users), top[:, 0] if flat and rows == 1 else top, cutoffs
        )
    kept_users = np.array(users)[kept].tolist()
    assert kept_users == [u for u in users if relevant[u]]
    for n, m in metrics.items():
        for r in range(rows):
            row = lambda a: np.broadcast_to(a, m.ndcg.shape).reshape(len(kept), rows)[:, r]
            got = RankingMetrics(row(m.n_hits), row(m.n_relevant), m.n, row(m.ndcg))
            assert outcome(lambda: evaluate_run(
                got, labels[kept_users], len(users) - len(kept), n, "m", "r", baseline
            )._asdict()) == outcome(lambda: oracles.evaluate_run(
                {u: lists[u][r] for u in users}, relevant, groups_of(labels), n, "m", "r",
                baseline,
            )._asdict())
            for i, u in enumerate(kept_users):
                want = oracles.ranking_metrics(lists[u][r], relevant[u], n)
                assert bits([got.precision[i], got.recall[i], got.ndcg[i]]) == bits(
                    [want.precision, want.recall, want.ndcg]
                )


ndcg_st = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 0.6309297535714575]),
    st.floats(min_value=0, max_value=1),
)


@st.composite
def sweep_cases(draw):
    """(step, (users, grid) validation nDCG matrix, the users' labels)."""
    step = draw(st.sampled_from([1.0, 0.5, 1 / 3]))
    n_users, width = draw(st.integers(min_value=1, max_value=8)), len(simplex_grid(step))
    ndcg = draw(st.lists(
        st.lists(ndcg_st, min_size=width, max_size=width), min_size=n_users, max_size=n_users,
    ))
    labels = draw(st.lists(label_st, min_size=n_users, max_size=n_users))
    return step, ndcg, labels


# A subnormal gap: the accuracy-to-unfairness ratio overflows to inf, which
# is not "no gap" (None).
SUBNORMAL_GAP = (1.0, [[0.0, 0.0, 0.0], [5e-324, 0.0, 0.0], [0.5, 0.0, 0.0]],
                 [LEISURE, WORKING, UNASSIGNED])


@settings(max_examples=200, deadline=None)
@given(
    case=sweep_cases(),
    objective=st.sampled_from([OBJECTIVE_MIN_DELTA, OBJECTIVE_MAX_ACC_UNF]),
)
@example(case=SUBNORMAL_GAP, objective=OBJECTIVE_MIN_DELTA)
@example(case=SUBNORMAL_GAP, objective=OBJECTIVE_MAX_ACC_UNF)
def test_matrix_weight_sweep_equals_callback_oracle(case, objective):
    step, ndcg, labels = case
    grid = simplex_grid(step)
    n_users = len(ndcg)
    ndcg = np.array(ndcg)
    labels = np.array(labels, dtype=np.int8)
    column = {lambdas: j for j, lambdas in enumerate(grid)}

    def evaluate(lambdas):
        per_user = {u: float(ndcg[u, column[lambdas]]) for u in range(n_users)}
        return oracles.sweep_point(oracles.group_metrics(per_user, groups_of(labels)))

    def array_sweep():
        best, table = weight_sweep(ndcg, labels, grid, objective)
        return best, [
            ["m", *lambdas, gm.ndcg_all, gm.ndcg_leisure, gm.ndcg_working,
             gm.delta_ndcg, gm.acc_unf]
            for lambdas, gm in zip(grid, table)
        ]

    def callback_sweep():
        best, table = oracles.weight_sweep(evaluate, step, objective)
        return best.lambdas, oracles.sweep_rows("m", table)

    assert outcome(array_sweep) == outcome(callback_sweep)


unit_st = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0, max_value=1e3)
)


@st.composite
def raw_scores(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    flat = draw(st.lists(unit_st, min_size=3 * n, max_size=3 * n))
    return np.array(flat).reshape(n, 3)


def candidate_scores(raw, enabled):
    """A one-user block whose candidates are every POI, from (n, 3) scores."""
    return CandidateScores(
        np.array([0]), np.ones((1, len(raw)), dtype=bool), raw.T[:, None, :], enabled
    )


def oracle_row(mat, enabled, rule, lambdas):
    return [
        oracles.fuse(oracles.ContextScores(*c, enabled), rule, lambdas)
        for c in mat.tolist()
    ]


@pytest.mark.parametrize("enabled", [(True, True, True), (True, True, False)])
@pytest.mark.parametrize("step", [0.1, 0.5])
@settings(max_examples=40, deadline=None)
@given(raw=raw_scores())
def test_stacked_weighted_sum_rows_equal_per_point_fusion(raw, enabled, step):
    grid = simplex_grid(step)
    cs = candidate_scores(raw, enabled)
    (rows,) = fused_scores(cs, rule_lambdas(WEIGHTED_SUM, enabled, grid), normalized_scores(cs))
    assert rows.shape == (len(grid), len(raw))
    normalized = normalize_scores(raw.T, np.ones(len(raw), dtype=bool)).T
    for row, point in zip(rows, grid):
        one = rule_lambdas(WEIGHTED_SUM, enabled, [point])
        assert row.tobytes() == fused_scores(cs, one, normalized_scores(cs)).tobytes()
        assert bits(row) == bits(oracle_row(normalized, enabled, WEIGHTED_SUM, one[0]))


@pytest.mark.parametrize("enabled", [(True, True, True), (True, True, False)])
@pytest.mark.parametrize("rule", [PRODUCT, SUM])
@settings(max_examples=40, deadline=None)
@given(
    raw=raw_scores(),
    lambdas=st.lists(st.tuples(unit_st, unit_st, unit_st), min_size=1, max_size=5),
)
def test_stacked_arbitrary_weights_equal_per_set_fusion(raw, lambdas, enabled, rule):
    """Product on raw scores; any non-negative lambda rows on normalised
    scores. Each row of a multi-row call equals a one-row call and the
    scalar oracle."""
    if rule == PRODUCT:
        mat, stacked = raw, None
        assert fused_scores(candidate_scores(raw, enabled), None, None).tobytes() == (
            fuse_arrays(raw.T, None, enabled).tobytes()
        )
    else:
        mat = normalize_scores(raw.T, np.ones(len(raw), dtype=bool)).T
        stacked = np.array(lambdas)
    rows = fuse_arrays(mat.T, stacked, enabled)
    assert rows.shape == (1 if stacked is None else len(lambdas), len(raw))
    for g, row in enumerate(rows):
        if stacked is not None:
            assert row.tobytes() == fuse_arrays(mat.T, stacked[g:g + 1], enabled)[0].tobytes()
        assert bits(row) == bits(oracle_row(mat, enabled, rule, lambdas[g]))
