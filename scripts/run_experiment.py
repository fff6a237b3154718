#!/usr/bin/env python3
"""Full demo experiment on a synthetic corpus: generate data, run both models
under product and sum fusion, and print the fairness table. With --sweep,
weighted-sum fusion joins them, its lambdas tuned on validation.

Usage: python3 scripts/run_experiment.py /tmp/experiment [--sweep]
"""
import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from poifair.config import ExperimentConfig  # noqa: E402
from poifair.fusion import WEIGHTED_SUM  # noqa: E402
from poifair.pipeline import run_pipeline  # noqa: E402
from poifair.synth import SynthConfig, generate, write_tsv  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("workdir", help="scratch directory for data and outputs")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--cutoff", type=int, default=10)
    ap.add_argument("--sweep", action="store_true",
                    help="also rank weighted-sum fusion, which runs the weight sweep")
    args = ap.parse_args()

    work = Path(args.workdir)
    ds = generate(
        SynthConfig(
            friend_scheme="random",
            home_focus_working=0.3,
            friends_per_user=5,
            seed=args.seed,
        )
    )
    paths = write_tsv(ds, work / "data")
    cfg = ExperimentConfig(
        checkin_path=str(paths["checkins"]),
        poi_path=str(paths["pois"]),
        social_path=str(paths["social"]),
        out_dir=str(work / "out"),
        cutoffs=[args.cutoff],
        seed=args.seed,
    )
    if args.sweep:
        cfg.fusion_rules.append(WEIGHTED_SUM)
    run_pipeline(cfg)

    table = work / "out" / "table3.csv"
    with table.open() as fh:
        rows = list(csv.DictReader(fh))
    cols = ["model", "fusion", "N", "nDCG", "nDCG_L", "nDCG_W", "dnDCG", "acc_unf"]
    lines = [cols, *([cell(row[c]) for c in cols] for row in rows)]
    widths = [max(map(len, column)) for column in zip(*lines)]
    for line in lines:
        print("  ".join(text.rjust(w) for text, w in zip(line, widths)))
    print(f"\nfull artifacts in {work / 'out'}")


def cell(text: str) -> str:
    """A table3.csv cell as the table prints it: a number to 6 significant
    digits, any other text whole; an empty cell (an undefined acc_unf) is
    blank."""
    try:
        return f"{float(text):.6g}"
    except ValueError:
        return text


if __name__ == "__main__":
    main()
