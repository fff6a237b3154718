"""End-to-end orchestration: raw TSV files to evaluation reports and
plot-ready CSV artifacts."""
from __future__ import annotations

import json
import logging
import os
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig
from .data import (
    TEST,
    TRAIN,
    VALIDATION,
    DataError,
    Dataset,
    Ids,
    PairCounts,
    SplitDataset,
    dataset_stats,
    parse_dataset,
    preprocess_filter,
    temporal_split,
)
from .fusion import (
    PRODUCT,
    WEIGHTED_SUM,
    fuse_arrays,
    rule_lambdas,
    simplex_grid,
    weight_sweep,
)
from .metrics import evaluate_run, group_metrics, hit_matrix, ranking_metrics
from .recommend import (
    FittedModel,
    block_rows,
    fused_scores,
    normalized_scores,
    recommend_topn,
    score_block_rows,
)
from .temporal import (
    LEISURE,
    WORKING,
    assign_groups,
    build_profiles,
    correlation_analysis,
    group_stats,
    poi_popularity,
    temporal_histogram,
    training_visits,
)

# CPython's built-in SHA-256: hashlib would map OpenSSL's libcrypto, a few
# MB of resident memory, to hash the config.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:  # no built-in hashes, as in some FIPS builds
        from hashlib import sha256

log = logging.getLogger(__name__)


class StageFailure(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


# The text of a float in every artifact; `"%.12g" % x` is `f"{x:.12g}"`.
_fmt_float = "%.12g".__mod__


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return _fmt_float(x)
    return str(x)


def _quote(text: str) -> str:
    """A CSV text cell as `csv.writer` quotes it by default: wrapped in `"`
    when it holds `,`, `"`, CR or LF, with each `"` doubled."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_line(row) -> str:
    """The CSV line of a row, each cell `_fmt`'s text; `csv.writer` writes a
    lone empty cell, which no artifact row is, as `""`."""
    return ",".join([_quote(_fmt(x)) for x in row]) + "\r\n"


def _recommendation_rows(
    user_ids: Ids, poi_ids: Ids, users: np.ndarray, top: np.ndarray, scores: np.ndarray
):
    """The rows `user_id, rank, poi_id, score` of a rule's (users, K) top POI
    codes, each list up to its first -1, with the text `_fmt` gives."""
    listed = np.logical_and.accumulate(top >= 0, axis=1)
    return zip(
        user_ids.decode(np.repeat(users, listed.sum(axis=1))),
        (np.nonzero(listed)[1] + 1).tolist(),
        poi_ids.decode(top[listed]),
        map(_fmt_float, scores[listed].tolist()),
    )


def ground_truth(split: SplitDataset, part: int) -> PairCounts:
    """Per user code, the POI codes of one part that the user did not visit
    in train (train-visited POIs are never candidates), as a CSR."""
    held, train = (split.columns(p) for p in (part, TRAIN))
    n_pois = len(held.poi_ids)
    new = ~train.visits().contains(held.user, held.poi)
    return PairCounts.of(held.user[new], held.poi[new], len(held.user_ids), n_pois)


def user_metrics(relevant: PairCounts, users: np.ndarray, codes: np.ndarray, cutoffs):
    """The positions in `users`, ranked user codes, of the users with a
    relevant POI, and per cutoff the `RankingMetrics` of their lists
    `codes`, (users, ..., K) int32 POI codes, -1 past a short list: arrays
    shaped (kept users, ...). Hits are marked for the first min(K,
    max(cutoffs)) ranks, a block of users at a time under the common
    budget: hit_matrix holds three int64s per entry."""
    n_relevant = np.diff(relevant.indptr)[users]
    kept = np.flatnonzero(n_relevant)
    width = min(codes.shape[-1], max(cutoffs))
    hits = np.empty((len(kept), *codes.shape[1:-1], width), dtype=bool)
    step = block_rows(3 * 8 * int(np.prod(hits.shape[1:])))
    for lo in range(0, len(kept), step):
        at = kept[lo:lo + step]
        hits[lo:lo + step] = hit_matrix(relevant, users[at], codes[at, ..., :width])
    n_relevant = n_relevant[kept].reshape(-1, *(1,) * (hits.ndim - 2))
    return kept, {n: ranking_metrics(hits, n_relevant, n) for n in cutoffs}


class ListScores:
    """A one-row rule's (product, sum) lists: `codes`, (users, 1, K) int32
    top POI codes, -1 past a short list, and their (users, K) fused scores,
    0.0 past a short list. `add` keeps ranked users `at`'s codes and scores,
    and `scores(row)` gives every user's for row `row`."""

    def __init__(self, lambdas, enabled, n_users: int, k: int):
        self.lambdas = lambdas
        self.codes = np.empty((n_users, 1, k), dtype=np.int32)
        self.values = np.zeros((n_users, k))

    def add(self, at: slice, top: np.ndarray, vals: np.ndarray, normalized) -> None:
        self.codes[at] = np.where(vals > -np.inf, top, -1)
        self.values[at] = np.where(vals[:, 0] > -np.inf, vals[:, 0], 0.0)

    def scores(self, row: int) -> np.ndarray:
        return self.values


class GridContexts:
    """The weighted-sum grid's lists, a row per `lambdas` row, as in
    `ListScores`, and per ranked user the normalised (c1, c2, c3) of each
    distinct POI code its lists name, 28 bytes each, as CSR: user i's codes
    are `poi[indptr[i]:indptr[i + 1]]`, ascending, each array grown in place."""

    def __init__(self, lambdas, enabled, n_users: int, k: int):
        self.lambdas, self.enabled = lambdas, enabled
        self.codes = np.empty((n_users, len(lambdas), k), dtype=np.int32)
        self.indptr = np.zeros(1, dtype=np.intp)
        self.poi = np.empty(0, dtype=np.int32)
        self.values = np.empty((0, 3))

    def add(self, at: slice, top: np.ndarray, vals: np.ndarray, normalized) -> None:
        self.codes[at] = np.where(vals > -np.inf, top, -1)
        # Exactly the candidates are listed, in every row that selects them:
        # one value a POI.
        named = np.zeros(normalized.shape[1:], dtype=bool)
        named[np.arange(len(top))[:, None, None], top] = vals > -np.inf
        row, poi = np.divmod(np.flatnonzero(named), named.shape[1])
        end, n = len(self.indptr), len(self.poi)
        # A realloc each: the arrays grow by the sub-block, not by a copy.
        self.indptr.resize(end + len(named), refcheck=False)
        self.indptr[end:] = n + np.cumsum(np.bincount(row, minlength=len(named)))
        self.poi.resize(n + len(poi), refcheck=False)
        self.poi[n:] = poi
        self.values.resize((n + len(poi), 3), refcheck=False)
        self.values[n:] = normalized[:, row, poi].T

    def scores(self, row: int) -> np.ndarray:
        """Fused from the listed POIs' contexts with row `row`'s lambdas:
        the grid's element-wise fuse, so each score is its grid score bit
        for bit. 0.0 past a short list."""
        top = self.codes[:, row]
        listed = top >= 0
        n_cols = int(self.poi.max(initial=0)) + 1
        users = np.arange(len(self.indptr) - 1, dtype=np.int64)
        keys = np.repeat(users * n_cols, np.diff(self.indptr)) + self.poi
        want = (users[:, None] * n_cols + top)[listed]
        contexts = np.zeros((3,) + top.shape)
        contexts[:, listed] = self.values[np.searchsorted(keys, want)].T
        return fuse_arrays(contexts, self.lambdas[row:row + 1], self.enabled)[:, 0]


class Pipeline:
    def __init__(self, config: ExperimentConfig):
        self.cfg = config
        self.out = Path(config.out_dir)
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as e:  # a file, or a path under one
            raise ConfigError(f"unusable out_dir {config.out_dir!r}: {e.strerror}") from e
        self.timings: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.peak_rss_mb: dict[str, float] = {}
        self._stage_files: list[Path] = []

    # -- stages ------------------------------------------------------------

    @contextmanager
    def _stage(self, name: str):
        self._stage_files = []
        t0 = time.perf_counter()
        log.info("stage %s started", name)
        try:
            yield
        except BaseException as e:
            for path in self._stage_files:
                if path.exists():
                    path.rename(path.with_suffix(path.suffix + ".partial"))
            raise StageFailure(name, e) from e
        finally:
            self.timings[name] = time.perf_counter() - t0
            self.peak_rss_mb[name] = _peak_rss_mb()
        log.info("stage %s done in %.2fs", name, self.timings[name])

    def parse(self) -> Dataset:
        with self._stage("parse"):
            d = parse_dataset(
                self.cfg.checkin_path, self.cfg.poi_path, self.cfg.social_path
            )
            self._write_json("load_report.json", asdict(d.load_report))
            self.counts["parse.blocks"] = d.load_report.blocks
            return d

    def preprocess(self, d: Dataset) -> Dataset:
        with self._stage("preprocess"):
            filtered, report = preprocess_filter(
                d, self.cfg.min_user_checkins, self.cfg.min_poi_checkins
            )
            # Frees the parsed columns before the stats, on CPython 3.11+,
            # where `p.preprocess(p.parse())` leaves this frame the only
            # reference; on 3.10 the caller's stack holds one too.
            del d
            self.counts["preprocess.short_users_removed"] = report.short_users_removed
            self.counts["preprocess.short_checkins_removed"] = (
                report.short_checkins_removed
            )
            stats = dataset_stats(filtered)
            self._write_json(
                "dataset_stats.json", {"filter": asdict(report), "stats": stats._asdict()}
            )
            return filtered

    def split(self, d: Dataset) -> SplitDataset:
        with self._stage("split"):
            return temporal_split(
                d, self.cfg.train_frac, self.cfg.val_frac, self.cfg.test_frac
            )

    def analyze(self, d: Dataset, split: SplitDataset):
        with self._stage("analyze"):
            window = (self.cfg.work_start_hour, self.cfg.work_end_hour)
            # The call holds the only reference to the training columns.
            visits, n_work = training_visits(split.columns(TRAIN), window)
            profiles = build_profiles(visits, n_work, poi_popularity(visits))
            del visits, n_work
            user_ids = split.dataset.user_ids
            labels = assign_groups(profiles, len(user_ids), self.cfg.group_quantile)
            gstats = group_stats(labels, profiles)
            hist = temporal_histogram(d.ts)

            self._write_csv_artifact(
                "histogram.csv", ["hour", "count"], [[h, int(n)] for h, n in enumerate(hist)]
            )
            header = [
                "user_id", "n_checkins", "n_working", "n_leisure",
                "leisure_ratio", "avg_popularity_consumption",
            ]
            ints = (profiles.n_checkins, profiles.n_working, profiles.n_leisure)
            floats = (profiles.leisure_ratio, profiles.avg_popularity_consumption)
            # Only the id can need quotes, so each line is one format.
            self._write_rows(
                "profiles.csv", _csv_line(header), len(profiles.user), 6, lambda at: zip(
                    map(_quote, user_ids.decode(profiles.user[at])),
                    *(c[at].tolist() for c in ints),
                    *(map(_fmt_float, c[at].tolist()) for c in floats),
                ), "%s,%d,%d,%d,%s,%s\r\n".__mod__,
            )
            # GroupStats' fields are the columns, in order.
            self._write_csv_artifact("groups.csv", [
                "group", "n_checkins", "avg_popularity_consumption", "avg_activity_level",
                "n_users",
            ], gstats)
            try:
                corr = correlation_analysis(profiles)
            except ValueError as e:
                corr = {"error": str(e)}
            self._write_json("correlations.json", corr)
            return profiles, labels

    def fit_and_recommend(self, split: SplitDataset, rules):
        """Fit each model once and rank each user once. Per model: the ranked
        user codes, ascending, those with a training check-in and a
        candidate, and per rule in `rules` its `ListScores` (one-row rules)
        or `GridContexts` (the grid), whose `codes` are the users' (users,
        rows, K) int32 top POI codes, -1 past a short list, K being
        max(cutoffs) or the POI count if that is less, the longest list
        there can be. The ranked users are scored, fused and ranked a block
        at a time, blocks sized by `recommend.BLOCK_BYTES`, each normalised
        once for every additive rule."""
        with self._stage("recommend"):
            train = split.columns(TRAIN)
            missing = len(train.user_ids) - int(np.count_nonzero(np.diff(train.user_rows())))
            self.counts["recommend.users_without_train"] = missing
            if missing:
                log.warning("%d users have no training check-in; not scored", missing)
            grid = simplex_grid(self.cfg.sweep_step)
            n_pois = len(train.poi_ids)
            k = min(max(self.cfg.cutoffs), n_pois)
            step = score_block_rows(n_pois)
            pois = np.arange(n_pois)
            ranked = {}
            for name in self.cfg.models:
                t0 = time.perf_counter()
                model = FittedModel(
                    name, train,
                    session_gap_hours=self.cfg.session_gap_hours,
                    amc_alpha=self.cfg.amc_alpha,
                    amc_memory=self.cfg.amc_memory,
                )
                fit_s, score_s, select_s = time.perf_counter() - t0, 0.0, 0.0
                self.counts[f"recommend.power_law_fallbacks.{name}"] = model.power_law_fallbacks
                # A user who visited every POI in train has no candidate.
                distinct = np.diff(model.visits.indptr)
                users = np.flatnonzero((distinct > 0) & (distinct < n_pois))
                empty = len(train.user_ids) - missing - len(users)
                if empty:
                    log.warning("%s: %d users visited every POI; not ranked", name, empty)
                lists = {}
                for rule in rules:
                    lam = rule_lambdas(rule, model.enabled, grid)
                    # A one-row rule keeps its scores; a grid, its contexts.
                    holder = ListScores if lam is None or len(lam) == 1 else GridContexts
                    lists[rule] = holder(lam, model.enabled, len(users), k)
                additive = any(held.lambdas is not None for held in lists.values())
                # Fused in place: a fresh array per block costs page faults.
                bufs = [np.empty((min(step, len(users), block_rows(8 * r * n_pois)), r, n_pois))
                        for r in (held.codes.shape[1] for held in lists.values())]
                candidates, blocks = 0, 0
                for lo in range(0, len(users), step):
                    t0 = time.perf_counter()
                    cs = model.score_candidates(users[lo:lo + step])
                    t1 = time.perf_counter()
                    blocks += 1
                    candidates += int(np.count_nonzero(cs.candidate))
                    normalized = normalized_scores(cs) if additive else None
                    for held, buf in zip(lists.values(), bufs):
                        for a in range(0, len(cs.users), len(buf)):
                            part = cs.take(slice(a, a + len(buf)))
                            m = len(part.users)
                            mat = None if normalized is None else normalized[:, a:a + m]
                            fused = fused_scores(part, held.lambdas, mat, buf[:m])
                            top, vals = recommend_topn(pois, fused, k)
                            held.add(slice(lo + a, lo + a + m), top, vals, mat)
                    normalized = mat = None  # freed before the next block is scored
                    score_s += t1 - t0
                    select_s += time.perf_counter() - t1
                self.timings[f"recommend.fit.{name}"] = fit_s
                self.timings[f"recommend.score.{name}"] = score_s
                self.timings[f"recommend.fuse_select.{name}"] = select_s
                self.counts[f"recommend.blocks.{name}"] = blocks
                self.counts[f"recommend.users_ranked.{name}"] = len(users)
                self.counts[f"recommend.candidates.{name}"] = candidates
                self.counts[f"recommend.empty_candidate_users.{name}"] = empty
                ranked[name] = users, lists
            return ranked

    def sweep(self, ranked, labels, split: SplitDataset):
        """Tune weighted-sum lambdas on the validation split: nDCG of the
        grid lists at 10 when 10 is a cutoff, else at the first cutoff,
        over the users with a relevant POI."""
        with self._stage("sweep"):
            relevant = ground_truth(split, VALIDATION)
            cutoff = 10 if 10 in self.cfg.cutoffs else self.cfg.cutoffs[0]
            grid = simplex_grid(self.cfg.sweep_step)
            best_lambdas = {}
            all_rows = []
            for name, (users, lists) in sorted(ranked.items()):
                kept, m = user_metrics(relevant, users, lists[WEIGHTED_SUM].codes, [cutoff])
                self.counts[f"sweep.users_without_validation.{name}"] = len(users) - len(kept)
                best_lambdas[name], table = weight_sweep(
                    m[cutoff].ndcg, _scored_groups(labels, users[kept], name, "validation"),
                    grid, self.cfg.sweep_objective,
                )
                all_rows += [
                    [name, *lambdas, gm.ndcg_all, gm.ndcg_leisure, gm.ndcg_working,
                     gm.delta_ndcg, gm.acc_unf]
                    for lambdas, gm in zip(grid, table)
                ]
            self._write_csv_artifact(
                "sweep.csv",
                [
                    "model", "lambda1", "lambda2", "lambda3",
                    "nDCG", "nDCG_L", "nDCG_W", "dnDCG", "acc_unf",
                ],
                all_rows,
            )
            return best_lambdas

    def evaluate(self, ranked, labels, split: SplitDataset, best_lambdas):
        with self._stage("evaluate"):
            relevant = ground_truth(split, TEST)
            user_ids, poi_ids = split.dataset.user_ids, split.dataset.poi_ids
            grid = simplex_grid(self.cfg.sweep_step)
            reports = []
            for name in self.cfg.models:
                users, lists = ranked[name]
                metrics = {}
                for rule in self.cfg.fusion_rules:
                    held = lists[rule]
                    # The best lambdas' grid row; a one-row rule's only row.
                    row = grid.index(best_lambdas[name]) if rule == WEIGHTED_SUM else 0
                    top = held.codes[:, row]
                    scores = held.scores(row)
                    kept, metrics[rule] = user_metrics(relevant, users, top, self.cfg.cutoffs)
                    self._write_rows(
                        f"recommendations_{name}_{rule}.tsv", "", len(users), 4 * top.shape[1],
                        lambda at: _recommendation_rows(
                            user_ids, poi_ids, users[at], top[at], scores[at]
                        ),
                        "%s\t%d\t%s\t%s\n".__mod__,
                    )
                skipped = len(users) - len(kept)
                self.counts[f"evaluate.users_without_test.{name}"] = skipped
                group = _scored_groups(labels, users[kept], name, "test")
                for n in self.cfg.cutoffs:
                    # Every rule's pct_delta, product's own too, is against product's gap.
                    baseline_delta = None
                    if PRODUCT in metrics:
                        baseline_delta = group_metrics(metrics[PRODUCT][n].ndcg, group).delta_ndcg
                    reports += [
                        evaluate_run(metrics[rule][n], group, skipped, n, name, rule, baseline_delta)
                        for rule in self.cfg.fusion_rules
                    ]
            # Table 3's columns are the reports' first fields, in order.
            header = [
                "model", "fusion", "N", "Pre", "Rec", "nDCG",
                "nDCG_L", "nDCG_W", "dnDCG", "pct_delta", "acc_unf",
            ]
            self._write_csv_artifact("table3.csv", header, [r[:len(header)] for r in reports])
            self._write_json("table3.json", [r._asdict() for r in reports])
            return reports

    def write_manifest(self, failure: StageFailure | None = None) -> None:
        """Write manifest.json, or after a failed stage manifest.json.partial
        with what was recorded so far and the stage and error that ended the
        run; either way remove the other name, left by an earlier run."""
        cfg_json = self.cfg.to_json()
        manifest = {
            "config": json.loads(cfg_json),
            "config_sha256": sha256(cfg_json.encode()).hexdigest(),
            "version": __version__,
            "timings_s": {k: round(v, 4) for k, v in self.timings.items()},
            "counts": self.counts,
            "peak_rss_mb": self.peak_rss_mb,
        }
        name, other = "manifest.json", "manifest.json.partial"
        if failure is not None:
            manifest["failed_stage"] = failure.stage
            manifest["error"] = f"{type(failure.cause).__name__}: {failure.cause}"
            name, other = other, name
        (self.out / other).unlink(missing_ok=True)
        self._write_json(name, manifest)

    # -- helpers -----------------------------------------------------------

    def _write(self, path: Path, text: str) -> None:
        self._replace(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))

    def _write_json(self, name: str, obj) -> None:
        """Write JSON artifact `name`: `obj` indented by 2, keys sorted."""
        self._write(self.out / name, json.dumps(obj, indent=2, sort_keys=True))

    def _write_csv_artifact(self, name: str, header, rows: list) -> None:
        self._write_rows(name, _csv_line(header), len(rows), len(header),
                         lambda at: rows[at], _csv_line)

    def _write_rows(self, name: str, head: str, n: int, fields: int, rows, line) -> None:
        """Write artifact `name`: the text `head`, then the text `line(row)`
        of each row of `rows(at)`, for blocks `at` of the n items; a block
        is what the common budget holds at 64 bytes a field."""
        step = block_rows(64 * fields)

        def write(tmp):
            with tmp.open("w", encoding="utf-8", newline="") as fh:
                fh.write(head)
                for lo in range(0, n, step):
                    fh.write("".join(map(line, rows(slice(lo, lo + step)))))

        self._replace(self.out / name, write)

    def _replace(self, path: Path, write) -> None:
        """Write through a temporary file next to path and move it into
        place, so path is never left truncated."""
        tmp = path.with_name(path.name + ".tmp")
        try:
            write(tmp)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        self._stage_files.append(path)


def _scored_groups(labels: np.ndarray, users: np.ndarray, model: str, part: str) -> np.ndarray:
    """The group labels of a model's ranked `users` with a relevant POI in
    `part`; DataError if there is none, or none of a fairness group."""
    group = labels[users]
    for kind, n in (("ranked", len(group)), ("leisure-focused", np.sum(group == LEISURE)),
                    ("working-focused", np.sum(group == WORKING))):
        if not n:
            raise DataError(f"{model}: no {kind} user has a relevant POI in the {part} split")
    return group


def _peak_rss_mb() -> float:
    """The process's high-water resident memory so far, in MB (2**20
    bytes). It starts from the spawning process's own high-water, which the
    kernel carries into a child across exec."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux gives kilobytes, macOS bytes.
    return round(peak / (2**20 if sys.platform == "darwin" else 2**10), 1)


# Each command, in stage order, and its help text.
COMMANDS = {
    "preprocess": "parse, filter, and report dataset statistics",
    "analyze": "temporal profiles, groups, histogram, correlations",
    "sweep": "weighted-sum lambda grid search on validation",
    "run": "all stages end to end",
}


def run_pipeline(config: ExperimentConfig, command: str = "run"):
    """Run the stages in order up to the last one `command` needs, write the
    manifest and return the evaluation reports (none for the commands that
    stop before evaluate). `sweep` ranks only the weighted-sum grid, `run`
    the configured fusion rules, and the sweep runs exactly when the grid is
    ranked. An empty split part that a stage would score, or an unusable
    out_dir, raises ConfigError before anything is written; a failed stage
    leaves a partial manifest and raises its StageFailure."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    rules = [WEIGHTED_SUM] if command == "sweep" else config.fusion_rules
    if command == "run" and not config.test_frac:
        raise ConfigError("run evaluates on the test split: test_frac must be > 0")
    if command in ("sweep", "run") and WEIGHTED_SUM in rules and not config.val_frac:
        raise ConfigError("the weighted-sum sweep tunes on validation: val_frac must be > 0")
    p = Pipeline(config)
    try:
        reports = _run_stages(p, command, rules)
    except StageFailure as e:
        p.write_manifest(e)
        raise
    p.write_manifest()
    return reports


def _run_stages(p: Pipeline, command: str, rules: list[str]):
    d = p.preprocess(p.parse())
    if command == "preprocess":
        return []
    split = p.split(d)
    _, labels = p.analyze(d, split)
    if command == "analyze":
        return []
    ranked = p.fit_and_recommend(split, rules)
    best_lambdas = p.sweep(ranked, labels, split) if WEIGHTED_SUM in rules else {}
    if command == "sweep":
        return []
    return p.evaluate(ranked, labels, split, best_lambdas)
