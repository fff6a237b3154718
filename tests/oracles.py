"""Scalar, one-candidate-at-a-time reference versions of the context scores,
the top-N ranking and the weighted-sum sweep that the library computes in
bulk. Tests compare the library against them."""
from __future__ import annotations

import numpy as np

from poifair.fusion import WEIGHTED_SUM, weight_sweep
from poifair.geo import KdeModel, distance_km, geo_score, project_km
from poifair.metrics import group_metrics, ranking_metrics
from poifair.recommend import fused_scores, fusion_weights_for


def social_frequency(u, p, counts, social) -> int:
    """Total training check-ins of u's friends at POI p."""
    return sum(counts[v].get(p, 0) for v in social.friends(u) if v in counts)


def fcf_score(u, p, counts, social, residences, poi_coords) -> float:
    """Similarity-weighted mean of friends' check-in counts at p.

    sim(u, v) = 1 / (1 + km distance between residences).
    """
    friends = [v for v in sorted(social.friends(u)) if v in residences]
    if not friends or u not in residences:
        return 0.0
    ru = poi_coords[residences[u]]
    num = 0.0
    den = 0.0
    for v in friends:
        rv = poi_coords[residences[v]]
        sim = 1.0 / (1.0 + distance_km(ru[0], ru[1], rv[0], rv[1]))
        num += sim * counts[v].get(p, 0)
        den += sim
    return num / den if den > 0 else 0.0


def expanded_kde_score(fitted: KdeModel, samples, latitude, longitude) -> float:
    """Density of a KDE that keeps every sample as its own unweighted point,
    with the bandwidth and projection of `fitted`."""
    arr = np.asarray(samples, dtype=float)
    pts = project_km(arr[:, 0], arr[:, 1], fitted.lat_ref)
    expanded = KdeModel(
        points_km=pts, bandwidth=fitted.bandwidth, mode=fitted.mode,
        lat_ref=fitted.lat_ref,
    )
    return geo_score(expanded, latitude, longitude)


def topn(poi_ids, scores, n):
    """The n best candidates by descending score, ties by poi_id ascending,
    with their scores."""
    order = sorted(range(len(poi_ids)), key=lambda i: (-scores[i], poi_ids[i]))[:n]
    return [poi_ids[i] for i in order], [float(scores[i]) for i in order]


def sweep(caches, assignment, val_relevant, cutoff, step, objective):
    """Weighted-sum sweep that re-fuses and re-ranks every user's list at
    each grid point. Returns ({model: best lambdas}, sweep.csv rows)."""
    best_lambdas = {}
    rows = []
    for name, cache in sorted(caches.items()):
        def evaluate(lambdas):
            per_user = {}
            for u, cs in cache.items():
                relevant = val_relevant.get(u)
                if not relevant or not cs.poi_ids:
                    continue
                w = fusion_weights_for(WEIGHTED_SUM, cs.enabled, lambdas)
                scores = fused_scores(cs, WEIGHTED_SUM, w)
                pois, _ = topn(cs.poi_ids, scores, cutoff)
                per_user[u] = ranking_metrics(pois, relevant, cutoff).ndcg
            gm = group_metrics(per_user, assignment)
            return {
                "ndcg": gm.ndcg_all,
                "ndcg_leisure": gm.ndcg_leisure,
                "ndcg_working": gm.ndcg_working,
                "delta_ndcg": gm.delta_ndcg,
                "acc_unf": gm.acc_unf if gm.acc_unf is not None else float("inf"),
            }

        best, table = weight_sweep(evaluate, step, objective)
        best_lambdas[name] = best.lambdas
        for p in table:
            rows.append(
                [
                    name, p.lambdas[0], p.lambdas[1], p.lambdas[2],
                    p.ndcg, p.ndcg_leisure, p.ndcg_working, p.delta_ndcg,
                    p.acc_unf if p.acc_unf != float("inf") else None,
                ]
            )
    return best_lambdas, rows
