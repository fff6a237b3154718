import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poifair.fusion import (
    OBJECTIVE_MAX_ACC_UNF,
    PRODUCT,
    SUM,
    WEIGHTED_SUM,
    fuse_arrays,
    normalize_scores,
    renormalize_weighted_sum,
    rule_lambdas,
    simplex_grid,
    weight_sweep,
)
from poifair.temporal import LEISURE, WORKING

from oracles import ContextScores, fuse

scores_st = st.floats(min_value=0, max_value=1e6, allow_nan=False)
ALL = (True, True, True)


def fuse_one(rule, c, enabled=ALL, points=None):
    """fuse_arrays on one candidate under a rule, as a Python float."""
    (row,) = fuse_arrays(np.array([c]).T, rule_lambdas(rule, enabled, points), enabled)
    return float(row[0])


class TestRuleWeights:
    def test_product_preset(self):
        assert rule_lambdas(PRODUCT, ALL) is None

    def test_sum_preset(self):
        assert rule_lambdas(SUM, ALL).tolist() == [[1.0, 1.0, 1.0]]
        assert rule_lambdas(SUM, (True, True, False)).tolist() == [[1.0, 1.0, 1.0]]

    def test_weighted_sum_projection(self):
        lam = rule_lambdas(WEIGHTED_SUM, ALL, [(1.0, 0.0, 0.0), (0.5, 0.3, 0.2)])
        assert lam.tolist() == [[1.0, 0.0, 0.0], [0.5, 0.3, 0.2]]
        assert fuse_one(WEIGHTED_SUM, (0.7, 0.2, 0.9), points=[(1.0, 0.0, 0.0)]) == 0.7
        renormalized = rule_lambdas(WEIGHTED_SUM, (True, True, False), [(0.5, 0.3, 0.2)])
        assert renormalized.tolist() == [
            list(renormalize_weighted_sum((0.5, 0.3, 0.2), (True, True, False)))
        ]

    def test_invalid_simplex(self):
        with pytest.raises(ValueError):
            rule_lambdas(WEIGHTED_SUM, ALL, [(0.5, 0.5, 0.5)])
        with pytest.raises(ValueError):
            rule_lambdas(WEIGHTED_SUM, ALL, [(1.0, 0.0, 0.0), (-0.2, 0.6, 0.6)])
        with pytest.raises(ValueError):
            rule_lambdas(WEIGHTED_SUM, ALL)
        with pytest.raises(ValueError):
            rule_lambdas("mystery", ALL)


class TestFuse:
    def test_product_example(self):
        assert fuse_one(PRODUCT, (0.5, 0.4, 0.2)) == pytest.approx(0.04, abs=1e-12)

    def test_sum_example(self):
        assert fuse_one(SUM, (0.5, 0.4, 0.2)) == pytest.approx(1.1, abs=1e-12)

    def test_all_zero(self):
        for rule in (PRODUCT, SUM):
            assert fuse_one(rule, (0.0, 0.0, 0.0)) == 0.0

    @given(c1=scores_st, c2=scores_st, c3=scores_st)
    @settings(max_examples=200)
    def test_product_equals_multiplication(self, c1, c2, c3):
        assert fuse_one(PRODUCT, (c1, c2, c3)) == c1 * c2 * c3
        assert fuse(ContextScores(c1, c2, c3), PRODUCT) == c1 * c2 * c3

    @given(c1=scores_st, c2=scores_st, c3=scores_st)
    @settings(max_examples=200)
    def test_sum_equals_addition(self, c1, c2, c3):
        assert fuse_one(SUM, (c1, c2, c3)) == c1 + c2 + c3
        assert fuse(ContextScores(c1, c2, c3), SUM) == c1 + c2 + c3

    def test_disabled_context_product_neutral(self):
        assert fuse_one(PRODUCT, (0.5, 0.4, 0.0), (True, True, False)) == 0.5 * 0.4

    def test_disabled_context_sum_dropped(self):
        assert fuse_one(SUM, (0.5, 0.4, 0.9), (True, True, False)) == 0.5 + 0.4

    def test_array_fuse_matches_scalar(self):
        rng = np.random.default_rng(0)
        mat = rng.random((50, 3))
        lambdas = rng.random((4, 3))
        for enabled in (ALL, (True, True, False)):
            for rule, lam in ((PRODUCT, None), (SUM, lambdas)):
                rows = fuse_arrays(mat.T, lam, enabled)
                assert rows.shape == (1 if lam is None else 4, 50)
                for g, row in enumerate(rows):
                    weights = (1.0, 1.0, 1.0) if lam is None else tuple(lam[g])
                    want = [
                        fuse(ContextScores(*c, enabled), rule, weights)
                        for c in mat.tolist()
                    ]
                    assert row.tolist() == want


class TestRenormalize:
    def test_disabled_lambda_redistributed(self):
        lam = renormalize_weighted_sum((0.5, 0.3, 0.2), (True, True, False))
        assert lam == pytest.approx((0.625, 0.375, 0.0))

    def test_all_mass_on_disabled(self):
        lam = renormalize_weighted_sum((0.0, 0.0, 1.0), (True, True, False))
        assert lam == pytest.approx((0.5, 0.5, 0.0))

    @pytest.mark.parametrize("point", [
        (0.2, 0.7, 0.1), (0.3, 0.6, 0.1), (0.6, 0.3, 0.1), (0.7, 0.2, 0.1),
    ])
    def test_total_is_added_left_to_right(self, point):
        """These grid points total 0.9999999999999999 added left to right; a
        compensated sum, as the builtin sum() of floats is from Python 3.12
        on, gives 1.0 and other lambdas."""
        assert math.fsum(point) == 1.0
        assert renormalize_weighted_sum(point, ALL) == tuple(
            l / 0.9999999999999999 for l in point
        )


class TestNormalize:
    def test_min_max(self):
        out = normalize_scores(np.array([[2.0, 4.0, 6.0]]), np.ones(3, dtype=bool))
        assert out.ravel() == pytest.approx([0.0, 0.5, 1.0])

    def test_constant_convention(self):
        out = normalize_scores(np.array([[3.0, 3.0, 3.0]]), np.ones(3, dtype=bool))
        assert out.ravel() == pytest.approx([0.5, 0.5, 0.5])

    def test_random_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        raw = rng.random((40, 3)) * 100
        out = normalize_scores(raw.T, np.ones(len(raw), dtype=bool)).T
        for j in range(3):
            lo, hi = raw[:, j].min(), raw[:, j].max()
            assert out[:, j] == pytest.approx((raw[:, j] - lo) / (hi - lo), abs=1e-12)

    def test_preserves_candidate_ordering(self):
        rng = np.random.default_rng(4)
        raw = rng.random((30, 3))
        out = normalize_scores(raw.T, np.ones(len(raw), dtype=bool)).T
        for j in range(3):
            assert np.array_equal(np.argsort(raw[:, j]), np.argsort(out[:, j]))


class TestSweep:
    def test_grid_counts(self):
        assert len(simplex_grid(0.1)) == 66
        assert len(simplex_grid(0.5)) == 6

    def test_grid_points_on_simplex(self):
        for lam in simplex_grid(0.1):
            assert min(lam) >= 0
            assert sum(lam) == pytest.approx(1.0, abs=1e-9)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            simplex_grid(0.3)

    @staticmethod
    def neutral_context_ndcg(grid):
        """One leisure and one working user whose nDCG gap shrinks as
        lambda1 grows: context 1 is group-neutral."""
        return np.array([[0.5 + (1.0 - l[0]) / 2 for l in grid],
                         [0.5 - (1.0 - l[0]) / 2 for l in grid]])

    labels = np.array([LEISURE, WORKING])

    def test_selects_neutral_corner(self):
        grid = simplex_grid(0.1)
        ndcg = self.neutral_context_ndcg(grid)
        best, table = weight_sweep(ndcg, self.labels, grid)
        assert best == (1.0, 0.0, 0.0)
        assert len(table) == 66
        # independent exhaustive recomputation
        oracle = min(
            (abs(ndcg[0, j] - ndcg[1, j]), -(ndcg[0, j] + ndcg[1, j]) / 2, l)
            for j, l in enumerate(grid)
        )
        assert best == oracle[2]
        assert table[grid.index(best)].delta_ndcg == oracle[0]

    def test_tie_break_deterministic(self):
        grid = simplex_grid(0.5)
        best, table = weight_sweep(np.full((2, len(grid)), 0.5), self.labels, grid)
        assert best == min(grid)
        assert all(gm.delta_ndcg == 0.0 and gm.acc_unf is None for gm in table)

    def test_max_acc_unf_objective(self):
        grid = simplex_grid(0.5)
        best, _ = weight_sweep(
            self.neutral_context_ndcg(grid), self.labels, grid,
            objective=OBJECTIVE_MAX_ACC_UNF,
        )
        assert best == (1.0, 0.0, 0.0)

    def test_no_gap_is_the_highest_acc_unf(self):
        grid = simplex_grid(0.5)
        ndcg = np.full((2, len(grid)), 0.5)
        ndcg[0, 1:] = 0.9  # only point 0 has no gap, and the lowest nDCG
        best, table = weight_sweep(ndcg, self.labels, grid, OBJECTIVE_MAX_ACC_UNF)
        assert best == grid[0]
        assert table[0].acc_unf is None

    def test_unknown_objective(self):
        grid = simplex_grid(0.5)
        with pytest.raises(ValueError):
            weight_sweep(self.neutral_context_ndcg(grid), self.labels, grid, objective="party")
