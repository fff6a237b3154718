"""Context fusion by rule (product, sum or weighted-sum), score
normalization, and the simplex weight sweep for weighted-sum."""
from __future__ import annotations

import numpy as np

from .metrics import GroupMetrics, group_metrics

PRODUCT = "product"
SUM = "sum"
WEIGHTED_SUM = "weighted_sum"
RULES = (PRODUCT, SUM, WEIGHTED_SUM)

OBJECTIVE_MIN_DELTA = "min_delta"
OBJECTIVE_MAX_ACC_UNF = "max_acc_unf"
OBJECTIVES = (OBJECTIVE_MIN_DELTA, OBJECTIVE_MAX_ACC_UNF)


def rule_lambdas(
    rule: str,
    enabled: tuple[bool, bool, bool],
    points: list[tuple[float, float, float]] | None = None,
) -> np.ndarray | None:
    """Per-context weights of an additive rule, one (l1, l2, l3) row per
    fusion: None for product, [[1, 1, 1]] for sum, and for weighted-sum each
    simplex point renormalised over the enabled contexts."""
    if rule == PRODUCT:
        return None
    if rule == SUM:
        return np.ones((1, 3))
    if rule != WEIGHTED_SUM:
        raise ValueError(f"unknown fusion rule: {rule!r}")
    if points is None:
        raise ValueError("weighted_sum needs (lambda1, lambda2, lambda3) points")
    for p in points:
        if min(p) < 0 or abs(sum(p) - 1.0) > 1e-9:
            raise ValueError(f"not a simplex point: {p}")
    return np.array([renormalize_weighted_sum(p, enabled) for p in points])


def fuse_arrays(
    scores: np.ndarray, lambdas: np.ndarray | None, enabled=(True, True, True), out=None
) -> np.ndarray:
    """Fuse (3, ..., n) context scores over the enabled contexts into
    (..., G, n), into `out` if given: with lambdas None, one row, the product
    c1 * c2 * c3; otherwise l1 * c1 + l2 * c2 + l3 * c3 added left to right
    per lambda row."""
    cols = [scores[j][..., None, :] for j in range(3) if enabled[j]]
    if lambdas is None:
        # Times 1.0 is exact: a lone context is copied as it is.
        out = np.multiply(cols[0], cols[1] if len(cols) > 1 else 1.0, out=out)
        for c in cols[2:]:
            out *= c
        return out
    lams = [lambdas[:, j, None] for j in range(3) if enabled[j]]
    out = np.multiply(lams[0], cols[0], out=out)
    for lam, c in zip(lams[1:], cols[1:]):
        out += lam * c
    return out


def renormalize_weighted_sum(
    lambdas: tuple[float, float, float], enabled: tuple[bool, bool, bool]
) -> tuple[float, float, float]:
    """Rescale weighted-sum lambdas over the enabled contexts to sum to 1."""
    masked = [l if e else 0.0 for l, e in zip(lambdas, enabled)]
    # Left to right: the builtin sum() of floats is compensated from Python
    # 3.12 on.
    total = masked[0] + masked[1] + masked[2]
    if total <= 0:
        n = sum(enabled)
        return tuple((1.0 / n if e else 0.0) for e in enabled)
    return tuple(l / total for l in masked)


def normalize_scores(raw: np.ndarray, candidate: np.ndarray) -> np.ndarray:
    """Per-context min-max normalization of (3, ..., n) scores along the
    last axis, over the (..., n) mask `candidate`.

    Constant columns map to 0.5 by convention.
    """
    raw = np.asarray(raw, dtype=float)
    out = np.where(candidate, raw, np.inf)
    lo = out.min(axis=-1, keepdims=True)
    np.copyto(out, -np.inf, where=~candidate)
    hi = out.max(axis=-1, keepdims=True)
    span = hi - lo
    np.subtract(raw, lo, out=out)
    np.divide(out, span, out=out, where=span != 0)
    np.copyto(out, 0.5, where=span == 0)
    return out


def simplex_grid(step: float = 0.1) -> list[tuple[float, float, float]]:
    """All (l1, l2, l3) with nonnegative multiples of step summing to 1."""
    k = round(1.0 / step)
    if abs(k * step - 1.0) > 1e-9:
        raise ValueError("grid step must divide 1")
    points = []
    for i in range(k + 1):
        for j in range(k + 1 - i):
            points.append((i / k, j / k, (k - i - j) / k))
    return points


def weight_sweep(
    ndcg: np.ndarray,
    labels: np.ndarray,
    grid: list[tuple[float, float, float]],
    objective: str = OBJECTIVE_MIN_DELTA,
) -> tuple[tuple[float, float, float], list[GroupMetrics]]:
    """Exhaustive grid search of weighted-sum lambdas: the best grid point
    and the group metrics of each, from the (users, grid) validation nDCG
    matrix and the users' group labels.

    Ties break by higher overall ndcg, then lexicographic lambdas; no gap
    (acc_unf None) is the highest acc_unf.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective: {objective!r}")
    table = [group_metrics(ndcg[:, j], labels) for j in range(len(grid))]
    if objective == OBJECTIVE_MIN_DELTA:
        key = lambda j: (table[j].delta_ndcg, -table[j].ndcg_all, grid[j])
    else:
        key = lambda j: (table[j].acc_unf is not None, -(table[j].acc_unf or 0),
                         -table[j].ndcg_all, grid[j])
    return grid[min(range(len(grid)), key=key)], table
