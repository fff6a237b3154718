"""Polynomial context fusion: product, sum, and weighted-sum instantiations,
score normalization, and the simplex weight sweep."""
from __future__ import annotations

from dataclasses import dataclass, astuple
from typing import Callable

import numpy as np

PRODUCT = "product"
SUM = "sum"
WEIGHTED_SUM = "weighted_sum"

OBJECTIVE_MIN_DELTA = "min_delta"
OBJECTIVE_MAX_ACC_UNF = "max_acc_unf"


@dataclass(frozen=True)
class ContextScores:
    c1: float
    c2: float
    c3: float
    enabled: tuple[bool, bool, bool] = (True, True, True)


@dataclass(frozen=True)
class FusionWeights:
    lambda1: float = 0.0
    lambda2: float = 0.0
    lambda3: float = 0.0
    lambda12: float = 0.0
    lambda13: float = 0.0
    lambda23: float = 0.0
    lambda123: float = 0.0

    def as_tuple(self) -> tuple[float, ...]:
        return astuple(self)


def stack_weights(weights: list[FusionWeights]) -> FusionWeights:
    """One FusionWeights whose fields are (G, 1) columns, row g from
    weights[g]. fuse_arrays broadcasts it against the candidates and returns
    (G, n) rows, each equal bit for bit to fusing with weights[g] alone."""
    columns = zip(*(w.as_tuple() for w in weights))
    return FusionWeights(*(np.array(c, dtype=float)[:, None] for c in columns))


def rule_weights(rule: str, lambdas: tuple[float, float, float] | None = None) -> FusionWeights:
    """Named weight presets for the three fusion rules."""
    if rule == PRODUCT:
        return FusionWeights(lambda123=1.0)
    if rule == SUM:
        return FusionWeights(lambda1=1.0, lambda2=1.0, lambda3=1.0)
    if rule == WEIGHTED_SUM:
        if lambdas is None:
            raise ValueError("weighted_sum needs (lambda1, lambda2, lambda3)")
        l1, l2, l3 = lambdas
        if min(l1, l2, l3) < 0 or abs(l1 + l2 + l3 - 1.0) > 1e-9:
            raise ValueError(f"not a simplex point: {lambdas}")
        return FusionWeights(lambda1=l1, lambda2=l2, lambda3=l3)
    raise ValueError(f"unknown fusion rule: {rule!r}")


def fuse(s: ContextScores, w: FusionWeights):
    """Polynomial combination of the three context scores.

    Disabled contexts contribute the multiplicative identity to interaction
    terms and are dropped from the linear terms (the caller renormalizes
    weighted-sum lambdas over the enabled contexts).
    """
    e1, e2, e3 = s.enabled
    c1 = s.c1 if e1 else 1.0
    c2 = s.c2 if e2 else 1.0
    c3 = s.c3 if e3 else 1.0
    lin = 0.0
    if e1:
        lin = lin + w.lambda1 * c1
    if e2:
        lin = lin + w.lambda2 * c2
    if e3:
        lin = lin + w.lambda3 * c3
    return (
        lin
        + w.lambda12 * c1 * c2
        + w.lambda13 * c1 * c3
        + w.lambda23 * c2 * c3
        + w.lambda123 * c1 * c2 * c3
    )


def fuse_arrays(scores: np.ndarray, w: FusionWeights, enabled=(True, True, True)) -> np.ndarray:
    """Vectorized fuse over an (n, 3) score matrix."""
    c1 = scores[:, 0] if enabled[0] else np.ones(len(scores))
    c2 = scores[:, 1] if enabled[1] else np.ones(len(scores))
    c3 = scores[:, 2] if enabled[2] else np.ones(len(scores))
    lin = np.zeros(len(scores))
    if enabled[0]:
        lin = lin + w.lambda1 * c1
    if enabled[1]:
        lin = lin + w.lambda2 * c2
    if enabled[2]:
        lin = lin + w.lambda3 * c3
    return (
        lin
        + w.lambda12 * c1 * c2
        + w.lambda13 * c1 * c3
        + w.lambda23 * c2 * c3
        + w.lambda123 * c1 * c2 * c3
    )


def renormalize_weighted_sum(
    lambdas: tuple[float, float, float], enabled: tuple[bool, bool, bool]
) -> tuple[float, float, float]:
    """Rescale weighted-sum lambdas over the enabled contexts to sum to 1."""
    masked = [l if e else 0.0 for l, e in zip(lambdas, enabled)]
    total = sum(masked)
    if total <= 0:
        n = sum(enabled)
        return tuple((1.0 / n if e else 0.0) for e in enabled)
    return tuple(l / total for l in masked)


def normalize_scores(raw: np.ndarray) -> np.ndarray:
    """Per-context min-max normalization over one user's candidate set.

    Constant columns map to 0.5 by convention.
    """
    raw = np.asarray(raw, dtype=float)
    out = np.empty_like(raw)
    for j in range(raw.shape[1]):
        col = raw[:, j]
        lo, hi = col.min(), col.max()
        out[:, j] = 0.5 if hi == lo else (col - lo) / (hi - lo)
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


@dataclass(frozen=True)
class SweepPoint:
    lambdas: tuple[float, float, float]
    ndcg: float
    ndcg_leisure: float
    ndcg_working: float
    delta_ndcg: float
    acc_unf: float


def weight_sweep(
    evaluate: Callable[[tuple[float, float, float]], dict],
    step: float = 0.1,
    objective: str = OBJECTIVE_MIN_DELTA,
) -> tuple[SweepPoint, list[SweepPoint]]:
    """Exhaustive simplex grid search of weighted-sum lambdas.

    `evaluate` maps a lambda triple to a dict with keys ndcg, ndcg_leisure,
    ndcg_working, delta_ndcg, acc_unf (measured on the validation split).
    Ties break by higher overall ndcg, then lexicographic lambdas.
    """
    if objective not in (OBJECTIVE_MIN_DELTA, OBJECTIVE_MAX_ACC_UNF):
        raise ValueError(f"unknown objective: {objective!r}")
    table = []
    for lambdas in simplex_grid(step):
        m = evaluate(lambdas)
        table.append(
            SweepPoint(
                lambdas=lambdas,
                ndcg=m["ndcg"],
                ndcg_leisure=m["ndcg_leisure"],
                ndcg_working=m["ndcg_working"],
                delta_ndcg=m["delta_ndcg"],
                acc_unf=m["acc_unf"],
            )
        )
    if objective == OBJECTIVE_MIN_DELTA:
        key = lambda p: (p.delta_ndcg, -p.ndcg, p.lambdas)
    else:
        key = lambda p: (-p.acc_unf, -p.ndcg, p.lambdas)
    best = min(table, key=key)
    return best, table
