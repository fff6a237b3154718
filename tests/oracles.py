"""Scalar, one-candidate-at-a-time reference versions of the context scores
that the library computes per user. Tests compare the library against them."""
from __future__ import annotations

import numpy as np

from poifair.geo import KdeModel, distance_km, geo_score, project_km


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
