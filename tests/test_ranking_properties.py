"""Property tests of the bulk ranking and fusion paths against their scalar
oracles: recommend_topn against a full Python sort, and multi-row fusion
against one-row calls and the one-candidate fusion oracle, bit for bit."""
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poifair.fusion import (
    PRODUCT,
    SUM,
    WEIGHTED_SUM,
    fuse_arrays,
    normalize_scores,
    rule_lambdas,
    simplex_grid,
)
from poifair.recommend import CandidateScores, fused_scores, recommend_topn

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
    assert pois == want_pois
    assert bits(vals) == bits(want_vals)
    assert len(pois) == min(n, len(ids))


def test_topn_signed_zero_ties_break_by_poi_id():
    ids = ["a", "b", "c", "d"]
    scores = np.array([0.0, -0.0, -0.0, 0.0])
    pois, vals = recommend_topn(ids, scores, 10)
    assert pois == ["a", "b", "c", "d"]
    assert bits(vals) == bits([0.0, -0.0, -0.0, 0.0])


unit_st = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0, max_value=1e3)
)


@st.composite
def raw_scores(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    flat = draw(st.lists(unit_st, min_size=3 * n, max_size=3 * n))
    return np.array(flat).reshape(n, 3)


def candidate_scores(raw, enabled):
    ids = [f"p{i:03d}" for i in range(len(raw))]
    return CandidateScores(ids, raw, enabled)


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
    rows = fused_scores(cs, rule_lambdas(WEIGHTED_SUM, enabled, grid))
    assert rows.shape == (len(grid), len(raw))
    normalized = normalize_scores(raw)
    for row, point in zip(rows, grid):
        one = rule_lambdas(WEIGHTED_SUM, enabled, [point])
        assert row.tobytes() == fused_scores(cs, one).tobytes()
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
        assert fused_scores(candidate_scores(raw, enabled), None).tobytes() == (
            fuse_arrays(raw, None, enabled).tobytes()
        )
    else:
        mat, stacked = normalize_scores(raw), np.array(lambdas)
    rows = fuse_arrays(mat, stacked, enabled)
    assert rows.shape == (1 if stacked is None else len(lambdas), len(raw))
    for g, row in enumerate(rows):
        if stacked is not None:
            assert row.tobytes() == fuse_arrays(mat, stacked[g:g + 1], enabled)[0].tobytes()
        assert bits(row) == bits(oracle_row(mat, enabled, rule, lambdas[g]))
