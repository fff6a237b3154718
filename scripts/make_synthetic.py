#!/usr/bin/env python3
"""Emit a synthetic check-in corpus as the three canonical TSV files.

The generated population has a built-in temporal/spatial bias: night-leaning
users cluster around a home neighbourhood (predictable), day-leaning users
roam (hard to predict), so accuracy gaps between the two groups are expected.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from poifair.synth import SynthConfig, generate, write_tsv  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("out_dir", help="directory for checkins/pois/social TSVs")
    ap.add_argument("--users", type=int, default=200)
    ap.add_argument("--clusters", type=int, default=6)
    ap.add_argument("--pois-per-cluster", type=int, default=20)
    ap.add_argument("--friends", type=int, default=4)
    ap.add_argument(
        "--friend-scheme", choices=["home", "random", "mixed"], default="home"
    )
    ap.add_argument("--home-focus-working", type=float, default=0.25)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    cfg = SynthConfig(
        n_users=args.users,
        n_clusters=args.clusters,
        pois_per_cluster=args.pois_per_cluster,
        friends_per_user=args.friends,
        friend_scheme=args.friend_scheme,
        home_focus_working=args.home_focus_working,
        seed=args.seed,
    )
    ds = generate(cfg)
    paths = write_tsv(ds, args.out_dir)
    print(f"{len(ds.user_ids)} users, {len(ds.poi_ids)} POIs, {len(ds.ts)} check-ins")
    for name, p in paths.items():
        print(f"  {name}: {p}")


if __name__ == "__main__":
    main()
