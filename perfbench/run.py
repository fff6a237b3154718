"""The poifair benchmark: batch runs of the real CLI on fixed synthetic
corpora, one fresh pipeline process at a time (a closed loop with a single
client and no request stream).

    python3 perfbench/run.py --workload table3-default --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all        # every workload, human summary

Run it from the root of a checkout. Each workload has one corpus, drawn from
its fixed corpus seed (see workloads.json); its inputs are checked against a
committed SHA-256 before anything is timed, and each pipeline process's
outputs against the workload's committed reference. `--seed n` changes no
input and no output: it only shuffles the order of the processes within
each cycle of a run (see below).

--trace 0 runs cycles of processes until --seconds would be exceeded. For a
`run` workload a cycle is one pipeline process plus SETUP_PER_RUN `poifair
analyze` processes on the same inputs; for an `analyze` workload it is one
pipeline process, which is then also the set-up. It reports the median
over the run's processes of the end-to-end metrics of BENCHMARK.json:
  run_s        wall seconds of one pipeline process, spawn to exit
  setup_s      wall seconds of one `poifair analyze` process (parse,
               preprocess, split, analyze: everything before a model is
               fitted)
  peak_rss_mb  peak resident memory of one pipeline process
The two times are scaled to a fixed host speed. A shared host's speed can
drift by half for seconds to minutes at a time, which moves every process
of a run alike. So before and after each pipeline process the benchmark
times two probes of the host's speed: a fixed pure-Python loop in its own
process (compute), and probe.py, a process that starts an interpreter,
imports numpy and runs the same loop (start-up). A sample is wall * REF /
probe, probe being the mean of the probe's two timings around the process
and REF the probe's time at the reference speed: the wall time the process
would take on a host where the probe takes REF. run_s is scaled by the
compute probe, as the pipeline's work is; setup_s by the start-up probe, as
an analyze process on the small corpus is mostly interpreter start-up. The
summary lines give the raw wall times as well.
--trace 1 runs the workload once untraced and once under trace_run.py and
reports the per-layer metrics: busy seconds and counts per poifair module,
result-quality counters of the top-10 lists, and trace.overhead_s (traced
minus untraced wall seconds).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A pipeline process counts as failed if it
exits nonzero, leaves a .partial artifact, or its outputs differ from the
reference. The exit code is nonzero, with no result line, when the program
or the benchmark's inputs are absent or corrupt.
"""
from __future__ import annotations

import argparse
import json
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

SETUP_PER_RUN = 2
# Every run must end within 180 s, including the processes it waits for.
BUDGET_S = 170.0
PROBE_LOOPS = 600_000
PROBE = Path(__file__).resolve().parent / "probe.py"
# Probe times that define the reference host speed (on a 2-vCPU x86-64
# cloud VM under CPython 3.11 the loop takes 0.04-0.06 s, probe.py 0.2-0.3 s).
LOOP_REF_S = 0.04
PROBE_REF_S = 0.25


def probe() -> tuple[float, float]:
    """Seconds of the compute probe and of the start-up probe."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    t1 = time.perf_counter()
    subprocess.run([sys.executable, str(PROBE)], check=True, timeout=60,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return t1 - t0, time.perf_counter() - t1


def metric_specs() -> dict:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "run_seconds": spec["run_seconds"],
    }


class Run:
    """One benchmark run of one workload: every pipeline process it starts,
    checked against the workload's reference."""

    def __init__(self, w: harness.Workload, seed: int):
        harness.require_program()
        self.w = w
        self.seed = seed
        corpus_dir = harness.prepare_corpus(w)
        self.ref = harness.reference_dir(w)
        self.work = harness.BUILD / "work" / w.name
        self.config = harness.write_config(w, corpus_dir, self.work)
        self.deadline = time.monotonic() + BUDGET_S
        self.invocations: list[harness.Invocation] = []

    def call(self, command: str, out_name: str, tracer_out: Path | None = None):
        remaining = self.deadline - time.monotonic()
        inv = harness.invoke(command, self.config, self.work / out_name, remaining,
                             tracer_out)
        if not inv.failed:
            harness.check_outputs(inv, self.ref)
        for problem in inv.problems:
            print(f"{self.w.name}: {command} failed: {problem}", file=sys.stderr)
        self.invocations.append(inv)
        return inv

    def untraced(self, seconds: float) -> dict[str, list[float]]:
        """Raw and speed-scaled samples of each end-to-end metric, from the
        processes that passed the output check."""
        cycle = ["run"]
        if self.w.command != "analyze":
            cycle += ["setup"] * SETUP_PER_RUN
        walls: dict[str, list[float]] = {"run": [], "setup": []}
        compute: dict[str, list[float]] = {"run": [], "setup": []}
        startup: dict[str, list[float]] = {"run": [], "setup": []}
        rss = []
        last: dict[str, float] = {}
        rng = random.Random(self.seed)
        t0 = time.monotonic()
        before = probe()
        while True:
            rng.shuffle(cycle)
            for kind in cycle:
                # Take one process of each kind; another only if one like
                # the last of its kind ends within the run.
                now = time.monotonic()
                if kind in last and (
                    self.deadline - now <= last[kind] or now - t0 + last[kind] > seconds
                ):
                    setup = "run" if self.w.command == "analyze" else "setup"
                    return {
                        "run_s": compute["run"],
                        "setup_s": startup[setup],
                        "peak_rss_mb": rss,
                        "raw run_s": walls["run"],
                        "raw setup_s": walls[setup],
                    }
                if kind == "run":
                    inv = self.call(self.w.command, "out")
                else:
                    inv = self.call("analyze", "setup")
                after = probe()
                last[kind] = inv.wall_s
                if not inv.failed:
                    wall = inv.wall_s
                    walls[kind].append(wall)
                    compute[kind].append(wall * LOOP_REF_S * 2 / (before[0] + after[0]))
                    startup[kind].append(wall * PROBE_REF_S * 2 / (before[1] + after[1]))
                    if kind == "run":
                        rss.append(inv.peak_rss_mb)
                before = after

    def traced(self) -> dict[str, float]:
        plain = self.call(self.w.command, "out")
        trace_json = self.work / "trace.json"
        trace_json.unlink(missing_ok=True)
        traced = self.call(self.w.command, "traced", tracer_out=trace_json)
        metrics = {}
        if trace_json.is_file():
            metrics = json.loads(trace_json.read_text(encoding="utf-8"))["metrics"]
        metrics["pipeline.artifact_bytes"] = harness.artifact_bytes(plain.out_dir)
        metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
        run_files = harness.load_expected(self.ref)["recommendations"]
        metrics.update(harness.quality_counters(plain.out_dir, run_files))
        return metrics

    def result(self, metrics: dict[str, float], units: dict[str, str]) -> dict:
        missing = sorted(set(units) - set(metrics))
        if missing:
            print(f"{self.w.name}: missing metrics: {', '.join(missing)}", file=sys.stderr)
        failed = sum(inv.failed for inv in self.invocations)
        return {
            "correct": failed == 0,
            "attempted": len(self.invocations),
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items()
                if name in metrics
            },
        }


def run_workload(w: harness.Workload, seed: int, seconds: float, trace: bool,
                 specs: dict) -> dict:
    run = Run(w, seed)
    if trace:
        return run.result(run.traced(), specs["per_layer"])
    samples = run.untraced(seconds)
    samples = {name: values for name, values in samples.items() if values}
    for name, values in samples.items():
        med, q1, q3 = harness.summary(values)
        unit = specs["end_to_end"][name.split()[-1]]
        print(f"{w.name} {name}: median {med:.4f} {unit} (q1 {q1:.4f}, "
              f"q3 {q3:.4f}, min {min(values):.4f}, n={len(values)})")
    failed = sum(inv.failed for inv in run.invocations)
    print(f"{w.name} failed_frac: {failed}/{len(run.invocations)} "
          f"= {failed / len(run.invocations):.4f}")
    values = {name: statistics.median(v) for name, v in samples.items()}
    return run.result(values, specs["end_to_end"])


def _terminate(signum, frame):
    # Unwinds through harness.invoke, which kills and reaps the running child.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    specs = metric_specs()
    workloads = harness.load_workloads()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=specs["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(workloads) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(workloads[name], args.seed, args.seconds,
                                  bool(args.trace), specs)
            print(json.dumps(result, sort_keys=True), flush=True)
    except harness.BenchError as e:
        print(f"benchmark cannot run: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
