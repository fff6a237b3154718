"""Workload set-up, pipeline invocation, output checks and result-quality
counters shared by `run.py` (measure) and `record.py` (write references).

Every pipeline invocation is a fresh interpreter started from the checkout
root with `PYTHONPATH=src`, one at a time, so in-process warm-up and drift
cannot leak between repetitions and peak RSS is per run.
"""
from __future__ import annotations

import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import corpus

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
REFERENCE = BENCH_DIR / "reference"
WORKLOADS_JSON = BENCH_DIR / "workloads.json"

# Artifacts of the pre-fit stages; compared byte for byte.
ANALYZE_OUTPUTS = ("dataset_stats.json", "groups.csv", "profiles.csv")
# Table 3 may move by at most this much (relative, floor 1) between commits.
TABLE3_TOL = 1e-9
QUALITY_N = 10
MODELS = ("geosoca", "lore")
RULES = ("product", "sum", "weighted_sum")


class BenchError(Exception):
    """The benchmark cannot run here: program absent or inputs corrupt."""


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: corpus.CorpusSpec
    corpus_seed: int
    command: str
    config: dict
    input_sha256: dict[str, str]


def load_workloads() -> dict[str, Workload]:
    raw = json.loads(WORKLOADS_JSON.read_text(encoding="utf-8"))["workloads"]
    return {
        name: Workload(
            name=name,
            corpus=corpus.CorpusSpec.from_json(w["corpus"]),
            corpus_seed=w["corpus_seed"],
            command=w["command"],
            config=dict(w["config"]),
            input_sha256=dict(w["input_sha256"]),
        )
        for name, w in raw.items()
    }


def require_program() -> None:
    if not (SRC / "poifair" / "cli.py").is_file():
        raise BenchError(f"no poifair sources under {SRC}")


def prepare_corpus(w: Workload, verify: bool = True) -> Path:
    """Generate (or reuse) the workload's corpus and check its SHA-256
    against the committed value."""
    out = BUILD / "corpus" / w.name
    expected = w.input_sha256 if verify else None
    if expected and _hashes(out) == expected:
        return out
    got = corpus.write(w.corpus, w.corpus_seed, out)
    if expected is not None and got != expected:
        raise BenchError(
            f"{w.name} corpus: generated inputs differ from the committed "
            f"SHA-256 ({got} != {expected})"
        )
    return out


def _hashes(d: Path) -> dict[str, str] | None:
    if not all((d / n).is_file() for n in corpus.TSV_NAMES):
        return None
    return {n: corpus.sha256_file(d / n) for n in corpus.TSV_NAMES}


def write_config(w: Workload, corpus_dir: Path, work: Path) -> Path:
    cfg = {
        "checkin_path": str(corpus_dir / "checkins.tsv"),
        "poi_path": str(corpus_dir / "pois.tsv"),
        "social_path": str(corpus_dir / "social.tsv"),
        "out_dir": str(work / "out"),
        **w.config,
    }
    work.mkdir(parents=True, exist_ok=True)
    path = work / "config.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True), encoding="utf-8")
    return path


@dataclass
class Invocation:
    command: str
    wall_s: float
    peak_rss_mb: float
    returncode: int
    out_dir: Path
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def invoke(
    command: str, config: Path, out_dir: Path, timeout_s: float,
    tracer_out: Path | None = None,
) -> Invocation:
    """Run one pipeline process to completion and time it from spawn to
    reap. With tracer_out, the process runs under trace_run.py instead of
    `python -m poifair.cli`."""
    shutil.rmtree(out_dir, ignore_errors=True)
    args = ["--config", str(config), "--out", str(out_dir)]
    if tracer_out is None:
        argv = [sys.executable, "-m", "poifair.cli", command, *args]
    else:
        argv = [sys.executable, str(BENCH_DIR / "trace_run.py"), str(tracer_out),
                command, *args]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    log_path = out_dir.parent / f"{out_dir.name}.log"
    log_path.parent.mkdir(parents=True, exist_ok=True)
    with log_path.open("wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, env=env
        )
        timer = threading.Timer(max(timeout_s, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    inv = Invocation(command, wall, usage.ru_maxrss / 1024.0, proc.returncode, out_dir)
    if proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-400:]
        inv.problems.append(f"exit code {proc.returncode}: {tail.strip()}")
    return inv


def reference_dir(w: Workload) -> Path:
    return REFERENCE / w.name


def load_expected(ref: Path) -> dict:
    return json.loads((ref / "expected.json").read_text(encoding="utf-8"))


def check_outputs(inv: Invocation, ref: Path) -> None:
    """Append to inv.problems every way the outputs differ from the
    committed reference. An analyze process is held to the analyze
    artifacts only; a run process also to table3.csv and to the
    recommendation lists the reference run wrote."""
    out = inv.out_dir
    partial = sorted(p.name for p in out.glob("*.partial"))
    if partial:
        inv.problems.append(f"partial artifacts left: {partial}")
    expected = load_expected(ref)
    for name, digest in expected["sha256"].items():
        f = out / name
        if not f.is_file():
            inv.problems.append(f"{name} missing")
        elif corpus.sha256_file(f) != digest:
            inv.problems.append(f"{name} differs from the reference SHA-256")
    if inv.command == "run":
        for name in expected["recommendations"]:
            if not (out / name).is_file():
                inv.problems.append(f"{name} missing")
        inv.problems.extend(compare_table3(ref / "table3.csv", out / "table3.csv"))


def compare_table3(expected: Path, actual: Path, tol: float = TABLE3_TOL) -> list[str]:
    """Cell-by-cell comparison: text cells exactly, numeric cells within
    tol relative to max(1, |expected|)."""
    if not actual.is_file():
        return [f"{actual.name} missing"]
    with expected.open(newline="") as fh:
        want = list(csv.reader(fh))
    with actual.open(newline="") as fh:
        got = list(csv.reader(fh))
    if len(want) != len(got) or want[:1] != got[:1]:
        return [f"{actual.name}: header or row count differs from reference"]
    problems = []
    for r, (wr, gr) in enumerate(zip(want, got)):
        if len(wr) != len(gr):
            problems.append(f"{actual.name} row {r}: column count differs")
            continue
        for col, (a, b) in enumerate(zip(wr, gr)):
            if not _cell_equal(a, b, tol):
                problems.append(
                    f"{actual.name} row {r} {want[0][col]}: {b} != reference {a}"
                )
    return problems


def _cell_equal(want: str, got: str, tol: float) -> bool:
    try:
        a, b = float(want), float(got)
    except ValueError:
        return want == got
    if not (math.isfinite(a) and math.isfinite(b)):
        return want == got
    return abs(a - b) <= tol * max(1.0, abs(a))


def quality_counters(
    out_dir: Path, run_files: list[str], n: int = QUALITY_N
) -> dict[str, float]:
    """Share of top-n slots whose fused score is exactly 0, and share whose
    score equals a neighbour's (their order then rests on poi_id alone), per
    (model, rule), read from recommendations_<model>_<rule>.tsv.

    run_files names the recommendation lists the workload writes (from its
    reference). A pair outside them reads 0, like every layer a workload
    does not exercise. A pair inside them whose file is absent or no longer
    reads as user, rank, poi, score lines is left out; check_outputs
    already fails the process that lost it."""
    metrics = {}
    for model in MODELS:
        for rule in RULES:
            name = f"recommendations_{model}_{rule}.tsv"
            if name not in run_files:
                metrics[f"quality.zero_score_frac.{model}.{rule}"] = 0.0
                metrics[f"quality.tie_frac.{model}.{rule}"] = 0.0
                continue
            try:
                by_user = _ranked_scores(out_dir / name)
            except (OSError, ValueError):
                continue
            slots = zero = tied = 0
            for scores in by_user.values():
                for r, s in enumerate(scores[:n]):
                    slots += 1
                    zero += s == 0.0
                    tied += (r > 0 and scores[r - 1] == s) or (
                        r + 1 < len(scores) and scores[r + 1] == s
                    )
            metrics[f"quality.zero_score_frac.{model}.{rule}"] = zero / slots if slots else 0.0
            metrics[f"quality.tie_frac.{model}.{rule}"] = tied / slots if slots else 0.0
    return metrics


def _ranked_scores(path: Path) -> dict[str, list[float]]:
    by_user: dict[str, list[float]] = {}
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            user, _rank, _poi, score = line.rstrip("\n").split("\t")
            by_user.setdefault(user, []).append(float(score))
    return by_user


def artifact_bytes(out_dir: Path) -> int:
    if not out_dir.is_dir():
        return 0
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q1, q3
