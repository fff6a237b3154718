"""The synthetic generator writes the same corpus bytes for a config, and
the parse reads every line of them."""
import hashlib

import pytest

from poifair.data import parse_dataset
from poifair.synth import SynthConfig, write_tsv

# SHA-256 of (checkins.tsv, pois.tsv, social.tsv).
CORPUS_HASHES = [
    (
        SynthConfig(),
        "7f5a9a31535e1195f1438281396d42e99c70b1c4bf2d247a3526bb9d027d8f1c",
        "8117ff64310ba3859c47bd9e2672700e1f9472113e1c9156ca147161b089d4f1",
        "0f0b0a80e161c5f435884abe5d4c44d87828cb5204c32eefe223cc51cdb3f8c2",
    ),
    (  # acceptance c09's corpus
        SynthConfig(friend_scheme="random", home_focus_working=0.3, friends_per_user=5, seed=42),
        "24521de8b315178abb346e4662dd4cdd3a90e42b7f61d8984cc928d069ca9002",
        "8117ff64310ba3859c47bd9e2672700e1f9472113e1c9156ca147161b089d4f1",
        "4c71576402415099c034de1b8ae9b68e884d08fb6a578499cf8429b2cadc4566",
    ),
    (
        SynthConfig(n_users=60, n_clusters=4, pois_per_cluster=10, seed=11),
        "1e561463450b65b2200582b59810b14325d9cff0153dd75492a22d8bc189a41b",
        "f2ae3a99904666c650e9b483a10a7e1a91a5817f925711641a4a7eb99f94454b",
        "3db69aeaf91cf9929864e1984f8d69904fcecce37d2f3b0a99316ccd835aad1c",
    ),
]


@pytest.mark.parametrize(
    "cfg,checkins,pois,social", CORPUS_HASHES, ids=["default", "c09", "60-users"]
)
def test_corpus_bytes_are_pinned_and_parse_whole(tmp_path, cfg, checkins, pois, social):
    paths = write_tsv(cfg, tmp_path)
    digests = {k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in paths.items()}
    assert digests == {"checkins": checkins, "pois": pois, "social": social}
    report = parse_dataset(paths["checkins"], paths["pois"], paths["social"]).load_report
    assert report.checkin_lines_malformed == report.poi_lines_malformed == []
    assert report.poi_lines_duplicate == []
    assert report.social_edges_dropped == report.social_edges_duplicate == 0


@pytest.mark.parametrize("scheme", ["mixed", "", "Home"])
def test_unknown_friend_scheme_is_rejected(scheme):
    with pytest.raises(ValueError, match="friend_scheme"):
        SynthConfig(friend_scheme=scheme)
