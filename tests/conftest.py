import numpy as np
import pytest

import oracles
from oracles import CheckIn, Poi, SocialGraph


def make_checkin(user, poi, ts, lat=40.0, lon=-100.0):
    return CheckIn(user, poi, ts, lat, lon)


def make_dataset(checkins, pois=None, edges=()):
    if pois is None:
        pois = {}
        for c in checkins:
            pois.setdefault(c.poi_id, Poi(c.poi_id, c.latitude, c.longitude))
    return oracles.from_checkins(list(checkins), pois, SocialGraph(edges))


def make_train(checkins, pois=None, edges=()):
    """Columns sorted by (user, time), as `SplitDataset.columns` gives them."""
    ordered = sorted(checkins, key=lambda c: (c.user_id, c.timestamp, c.poi_id))
    return make_dataset(ordered, pois, edges)


def coords(d):
    """(P, 2) (lat, lon) of each POI code."""
    return np.stack([d.lat, d.lon], axis=1)


@pytest.fixture
def tiny_dataset():
    checkins = [
        make_checkin("u1", "pA", 1000),
        make_checkin("u1", "pB", 2000),
        make_checkin("u2", "pA", 1500),
    ]
    return make_dataset(checkins)
