"""Record the committed expectations the benchmark checks against: the
SHA-256 of each workload's three input TSVs (into workloads.json) and the
reference outputs of one pipeline run per workload (into reference/).

    python3 perfbench/record.py [--workload NAME]

Run it only when a workload or its corpus is defined anew, never to make a
changed program pass: the references are the outputs of the program as it
was when the workload was added.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import harness  # noqa: E402


def record(w: harness.Workload) -> dict[str, str]:
    corpus_dir = harness.prepare_corpus(w, verify=False)
    work = harness.BUILD / "record" / w.name
    config = harness.write_config(w, corpus_dir, work)
    inv = harness.invoke(w.command, config, work / "out", timeout_s=600)
    if inv.failed:
        raise harness.BenchError(f"{w.name}: {inv.problems}")
    ref = harness.reference_dir(w)
    ref.mkdir(parents=True, exist_ok=True)
    expected = {
        "sha256": {
            n: corpus.sha256_file(inv.out_dir / n) for n in harness.ANALYZE_OUTPUTS
        },
        "recommendations": sorted(
            p.name for p in inv.out_dir.glob("recommendations_*.tsv")
        ),
    }
    (ref / "expected.json").write_text(
        json.dumps(expected, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if w.command == "run":
        shutil.copyfile(inv.out_dir / "table3.csv", ref / "table3.csv")
    print(f"{w.name}: {inv.wall_s:.2f} s, reference in {ref}")
    return {n: corpus.sha256_file(corpus_dir / n) for n in corpus.TSV_NAMES}


def main() -> int:
    workloads = harness.load_workloads()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(workloads))
    args = ap.parse_args()
    harness.require_program()
    raw = json.loads(harness.WORKLOADS_JSON.read_text(encoding="utf-8"))
    for name, w in workloads.items():
        if args.workload in (None, name):
            raw["workloads"][name]["input_sha256"] = record(w)
    harness.WORKLOADS_JSON.write_text(
        json.dumps(raw, indent=2) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
