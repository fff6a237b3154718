"""Property tests of the bulk ranking and fusion paths against their scalar
oracles: recommend_topn against a full Python sort, and stacked-weight
fusion against one fuse_arrays call per weight set."""
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poifair.fusion import (
    PRODUCT,
    SUM,
    WEIGHTED_SUM,
    FusionWeights,
    fuse_arrays,
    normalize_scores,
    simplex_grid,
    stack_weights,
)
from poifair.recommend import (
    CandidateScores,
    fused_scores,
    fusion_weights_for,
    recommend_topn,
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
    ids = draw(st.lists(st.text("abcAB0_", min_size=1, max_size=3), max_size=40))
    order = draw(st.sampled_from(["ascending", "shuffled", "as drawn"]))
    if order == "ascending":
        ids.sort()
    elif order == "shuffled":
        ids = draw(st.permutations(ids))
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
    ids = ["d", "c", "b", "a"]
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
    return CandidateScores("u", ids, raw, enabled)


@pytest.mark.parametrize("enabled", [(True, True, True), (True, True, False)])
@pytest.mark.parametrize("step", [0.1, 0.5])
@settings(max_examples=40, deadline=None)
@given(raw=raw_scores())
def test_stacked_weighted_sum_rows_equal_per_point_fusion(raw, enabled, step):
    grid = simplex_grid(step)
    weights = [fusion_weights_for(WEIGHTED_SUM, enabled, lam) for lam in grid]
    rows = fused_scores(candidate_scores(raw, enabled), WEIGHTED_SUM,
                        stack_weights(weights))
    assert rows.shape == (len(grid), len(raw))
    normalized = normalize_scores(raw)
    for row, w in zip(rows, weights):
        assert row.tobytes() == fuse_arrays(normalized, w, enabled).tobytes()


@pytest.mark.parametrize("enabled", [(True, True, True), (True, True, False)])
@pytest.mark.parametrize("rule", [PRODUCT, SUM])
@settings(max_examples=40, deadline=None)
@given(
    raw=raw_scores(),
    weights=st.lists(
        st.builds(FusionWeights, *[unit_st] * 7), min_size=1, max_size=5
    ),
)
def test_stacked_arbitrary_weights_equal_per_set_fusion(raw, weights, enabled, rule):
    """Interaction terms too, on raw (product) and normalised (sum) scores."""
    rows = fused_scores(candidate_scores(raw, enabled), rule, stack_weights(weights))
    mat = raw if rule == PRODUCT else normalize_scores(raw)
    for row, w in zip(rows, weights):
        assert row.tobytes() == fuse_arrays(mat, w, enabled).tobytes()
