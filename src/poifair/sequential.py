"""Sequential influence: location-location transition graph plus additive
Markov chain scoring over a user's recent history."""
from __future__ import annotations

from collections import defaultdict

from .data import CheckIn

SESSION_GAP_HOURS = 24.0
AMC_DECAY = 0.5
AMC_MEMORY = 5


class TransitionGraph:
    """Directed transition counts between POIs."""

    def __init__(self):
        self._adj: dict[str, dict[str, int]] = defaultdict(dict)
        self.out_totals: dict[str, int] = defaultdict(int)

    def add(self, src: str, dst: str, n: int = 1) -> None:
        row = self._adj[src]
        row[dst] = row.get(dst, 0) + n
        self.out_totals[src] += n

    def out_edges(self, src: str) -> dict[str, float]:
        total = self.out_totals.get(src, 0)
        if total == 0:
            return {}
        return {dst: n / total for dst, n in self._adj[src].items()}


def build_l2tg(
    train: dict[str, list[CheckIn]], session_gap_hours: float = SESSION_GAP_HOURS
) -> TransitionGraph:
    """Count consecutive same-user POI transitions within the session gap."""
    g = TransitionGraph()
    gap_s = session_gap_hours * 3600.0
    for u in sorted(train):
        seq = train[u]
        for a, b in zip(seq, seq[1:]):
            if b.timestamp - a.timestamp <= gap_s:
                g.add(a.poi_id, b.poi_id)
    return g


def _amc_weights(k: int, alpha: float) -> list[float]:
    raw = [alpha**i for i in range(1, k + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def amc_scores(
    g: TransitionGraph,
    history: list[str],
    candidates: list[str],
    alpha: float = AMC_DECAY,
    memory: int = AMC_MEMORY,
) -> list[float]:
    """Decay-weighted sum of transition probabilities from the most recent
    history POIs (history most-recent-last) into each candidate.

    History POIs with no out-edges contribute 0 but still consume weight.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if memory < 1:
        raise ValueError("memory must be >= 1")
    k = min(memory, len(history))
    if k == 0:
        return [0.0] * len(candidates)
    weights = _amc_weights(k, alpha)
    recent = history[::-1][:k]
    acc = defaultdict(float)
    for w, src in zip(weights, recent):
        for dst, prob in g.out_edges(src).items():
            acc[dst] += w * prob
    return [acc.get(p, 0.0) for p in candidates]
