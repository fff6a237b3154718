"""Social influence: power-law friend check-in frequency and friend-based CF."""
from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import CheckIn, SocialGraph
from .geo import distance_km

log = logging.getLogger(__name__)

BETA_MAX = 10.0
MIN_FIT_OBSERVATIONS = 10


@dataclass(frozen=True)
class PowerLawFit:
    beta: float
    x_min: float = 1.0


def visit_counts(train: dict[str, list[CheckIn]]) -> dict[str, Counter]:
    """Per-user training check-in counts keyed by POI."""
    return {u: Counter(c.poi_id for c in seq) for u, seq in train.items()}


def social_frequency(
    u: str, counts: dict[str, Counter], social: SocialGraph
) -> Counter:
    """Total training check-ins of u's friends at each POI they visited, in
    first-visit order over the sorted friends."""
    merged = Counter()
    for v in sorted(social.friends(u)):
        friend_counts = counts.get(v)
        if friend_counts:
            merged.update(friend_counts)
    return merged


def fit_power_law(frequencies) -> PowerLawFit:
    """Continuous-approximation MLE with x_min = 1, exponent clamped to (1, 10]."""
    xs = [float(x) for x in frequencies]
    if len(xs) < MIN_FIT_OBSERVATIONS:
        raise ValueError(
            f"need >= {MIN_FIT_OBSERVATIONS} positive observations, got {len(xs)}"
        )
    if any(x < 1.0 for x in xs):
        raise ValueError("frequencies must be >= x_min = 1")
    log_sum = sum(math.log(x) for x in xs)
    if log_sum <= 0.0:
        log.warning("all observations at x_min; exponent clamped to %s", BETA_MAX)
        return PowerLawFit(beta=BETA_MAX)
    beta = 1.0 + len(xs) / log_sum
    return PowerLawFit(beta=min(beta, BETA_MAX))


def power_law_score(fit: PowerLawFit, x: float) -> float:
    """CDF-as-relevance: 0 below x_min, else 1 - (x/x_min)^(1-beta)."""
    if x < fit.x_min:
        return 0.0
    return 1.0 - (x / fit.x_min) ** (1.0 - fit.beta)


def residence(u: str, counts: dict[str, Counter]) -> str:
    """Most frequent training POI; ties broken by smallest poi_id."""
    profile = counts.get(u)
    if not profile:
        raise ValueError(f"user {u!r} has no training check-ins")
    return min(profile, key=lambda p: (-profile[p], p))


def fcf_score(
    u: str,
    candidates: list[str],
    counts: dict[str, Counter],
    social: SocialGraph,
    residences: dict[str, str],
    poi_coords: dict[str, tuple[float, float]],
) -> np.ndarray:
    """Similarity-weighted mean of friends' check-in counts at each candidate.

    sim(u, v) = 1 / (1 + km distance between residences), computed once per
    friend. Each candidate's numerator adds the friends' terms in friend
    order, so it equals the sum taken one candidate at a time. Friends are
    sorted: set order follows string hashing, which differs per process.
    """
    num = np.zeros(len(candidates))
    friends = [v for v in sorted(social.friends(u)) if v in residences]
    if not friends or u not in residences:
        return num
    position = {p: i for i, p in enumerate(candidates)}
    ru = poi_coords[residences[u]]
    den = 0.0
    for v in friends:
        rv = poi_coords[residences[v]]
        sim = 1.0 / (1.0 + distance_km(ru[0], ru[1], rv[0], rv[1]))
        hits = [(position[p], n) for p, n in counts[v].items() if p in position]
        if hits:
            idx, n = zip(*hits)
            num[list(idx)] += sim * np.array(n, dtype=float)
        den += sim
    return num / den
