"""Run the poifair CLI in this process with spans wrapped around the public
functions of each poifair module, then write busy times and counts as JSON.

    PYTHONPATH=src python3 perfbench/trace_run.py OUT.json <cli args...>

Each span is installed where its callee's name is bound at call time (a
function imported by name into `pipeline` is wrapped there, not in its home
module). A span whose target no longer exists is reported under "missing"
with the metrics it would have given; the run itself goes on. A component
that both models call is attributed to the model whose fit or scoring span
encloses it.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

MODELS = ("geosoca", "lore")


@dataclass(frozen=True)
class Span:
    sites: tuple[str, ...]  # "module:attribute.path" where the callee is bound
    time: str | None = None  # busy-time metric
    calls: str | None = None  # call-count metric
    self_time: str | None = None  # busy time minus enclosed spans
    model: Callable | None = None  # (args, kwargs) -> model name for the call
    counts: Callable | None = None  # (args, kwargs, result) -> {metric: increment}
    count_names: tuple[str, ...] = ()

    def metric_names(self) -> list[str]:
        names = [n for n in (self.time, self.calls, self.self_time) if n]
        return _expand([*names, *self.count_names])


def _expand(names) -> list[str]:
    """Metric names with each "{model}" template written out per model."""
    return [n.format(model=m) for n in names for m in MODELS if "{model}" in n] + [
        n for n in names if "{model}" not in n
    ]


def _load_report(args, kwargs, d):
    r = d.load_report
    return {
        "data.lines_parsed": r.checkin_lines_parsed + r.poi_lines_parsed
        + r.social_edges_parsed,
        "data.malformed_lines": len(r.checkin_lines_malformed)
        + len(r.poi_lines_malformed),
    }


def _stage(method: str, stage: str) -> Span:
    return Span((f"poifair.pipeline:Pipeline.{method}",), time=f"pipeline.{stage}_s")


SPANS = [
    *itertools.starmap(_stage, [
        ("parse", "parse"), ("preprocess", "preprocess"), ("split", "split"),
        ("analyze", "analyze"), ("fit_and_recommend", "recommend"),
        ("sweep", "sweep"), ("evaluate", "evaluate"),
    ]),
    Span(("poifair.pipeline:parse_dataset",), time="data.parse_dataset_s",
         counts=_load_report,
         count_names=("data.lines_parsed", "data.malformed_lines")),
    Span(("poifair.pipeline:preprocess_filter",), time="data.preprocess_filter_s",
         counts=lambda a, k, r: {"data.checkins_removed": r[1].checkins_removed},
         count_names=("data.checkins_removed",)),
    Span(("poifair.pipeline:temporal_split",), time="data.temporal_split_s"),
    Span(("poifair.pipeline:poi_popularity",), time="temporal.poi_popularity_s"),
    Span(("poifair.pipeline:build_profiles",), time="temporal.build_profiles_s"),
    Span(("poifair.pipeline:temporal_histogram",), time="temporal.temporal_histogram_s"),
    Span(("poifair.recommend:FittedModel.__init__",), time="recommend.fit_s.{model}",
         model=lambda a, k: a[1] if len(a) > 1 else k["name"]),
    Span(("poifair.recommend:FittedModel.score_candidates",),
         time="recommend.score_s.{model}",
         self_time="recommend.score_self_s.{model}",
         calls="recommend.users_scored.{model}",
         model=lambda a, k: a[0].name,
         counts=lambda a, k, r: {
             "recommend.candidates.{model}": len(r.poi_ids),
             "recommend.empty_candidate_users": int(not len(r.poi_ids)),
         },
         count_names=("recommend.candidates.{model}", "recommend.empty_candidate_users")),
    Span(("poifair.pipeline:fused_scores",), time="recommend.fuse_s",
         calls="recommend.fuse_calls"),
    Span(("poifair.pipeline:recommend_topn",), time="recommend.topn_s",
         calls="recommend.topn_calls",
         counts=lambda a, k, r: {
             "recommend.topn_kept": len(r[0]), "recommend.topn_sorted": len(a[0]),
         },
         count_names=("recommend.topn_kept_frac",)),
    Span(("poifair.geo:fit_user_kdes", "poifair.geo:fit_global_kde"),
         time="geo.fit_s.{model}"),
    Span(("poifair.geo:geo_scores",), time="geo.score_s.{model}",
         counts=lambda a, k, r: {
             "geo.kernel_evals.{model}": len(r) * len(a[0].points_km),
         },
         count_names=("geo.kernel_evals.{model}",)),
    Span(("poifair.social:fcf_score",), time="social.fcf_s", calls="social.fcf_calls"),
    Span(("poifair.social:social_frequency",), time="social.frequency_s",
         calls="social.frequency_calls"),
    Span(("poifair.social:power_law_score",), time="social.power_law_s"),
    Span(("poifair.categorical:CategoricalModel.frequency",),
         time="categorical.frequency_s", calls="categorical.frequency_calls"),
    Span(("poifair.sequential:build_l2tg",), time="sequential.build_l2tg_s"),
    Span(("poifair.sequential:amc_scores",), time="sequential.amc_s",
         calls="sequential.amc_calls"),
    Span(("poifair.pipeline:weight_sweep",), time="fusion.weight_sweep_s",
         counts=lambda a, k, r: {"fusion.sweep_points": len(r[1])},
         count_names=("fusion.sweep_points",)),
    Span(("poifair.recommend:normalize_scores",), time="fusion.normalize_s",
         calls="fusion.normalize_calls"),
    Span(("poifair.recommend:fuse_arrays",), time="fusion.fuse_arrays_s"),
    Span(("poifair.pipeline:ranking_metrics", "poifair.metrics:ranking_metrics"),
         time="metrics.ranking_s", calls="metrics.ranking_calls"),
    Span(("poifair.pipeline:evaluate_run",), time="metrics.evaluate_run_s",
         counts=lambda a, k, r: {"metrics.users_skipped": r.n_users_skipped},
         count_names=("metrics.users_skipped",)),
]


class Tracer:
    """Accumulates busy time and counts per metric; spans stay in memory and
    are written once, when the traced command returns."""

    def __init__(self):
        self.values: dict[str, float] = defaultdict(int)
        self.missing: set[str] = set()
        self._child_time: list[float] = []
        self._models: list[str] = []

    def install(self, spans: list[Span]) -> None:
        for span in spans:
            names = span.metric_names()
            for n in names:
                self.values[n] += 0
            resolved = [_resolve(site) for site in span.sites]
            if not any(resolved):
                self.missing.update(names)
                continue
            for target in filter(None, resolved):
                owner, attr = target
                setattr(owner, attr, self._wrap(span, getattr(owner, attr), names))

    def _wrap(self, span: Span, fn, names: list[str]):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            model = self._enter_model(span, args, kwargs, names)
            self._child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += dt
                if span.model is not None and model is not None:
                    self._models.pop()
            model = model or (self._models[-1] if self._models else "none")
            self._record(span, model, dt, dt - child, args, kwargs, result)
            return result

        return wrapper

    def _enter_model(self, span, args, kwargs, names):
        if span.model is None:
            return None
        try:
            model = span.model(args, kwargs)
        except (AttributeError, IndexError, KeyError) as e:
            self._broken(names, e)
            return None
        self._models.append(model)
        return model

    def _record(self, span, model, dt, self_dt, args, kwargs, result):
        v = self.values
        if span.time:
            v[span.time.format(model=model)] += dt
        if span.self_time:
            v[span.self_time.format(model=model)] += self_dt
        if span.calls:
            v[span.calls.format(model=model)] += 1
        if span.counts is not None:
            try:
                counts = span.counts(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError) as e:
                self._broken(_expand(span.count_names), e)
                return
            for name, inc in counts.items():
                v[name.format(model=model)] += inc

    def _broken(self, names, err) -> None:
        if not self.missing.issuperset(names):
            print(f"trace: span for {names} broken: {err!r}", file=sys.stderr)
        self.missing.update(names)

    def results(self) -> dict:
        v = dict(self.values)
        kept, total = v.pop("recommend.topn_kept", 0), v.pop("recommend.topn_sorted", 0)
        v["recommend.topn_kept_frac"] = kept / total if total else 0.0
        for name in self.missing:
            v.pop(name, None)
        v = {k: x for k, x in v.items() if not k.endswith(".none")}
        return {"metrics": v, "missing": sorted(self.missing)}


def _resolve(site: str):
    """(owner, attribute) for "module:Attr.path", or None if it is gone."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    return (owner, attr) if callable(getattr(owner, attr, None)) else None


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    from poifair import cli

    # Import every module before wrapping, so each by-name import is bound
    # to the original function and wrapped exactly once at its own site.
    for site in (s for span in SPANS for s in span.sites):
        try:
            importlib.import_module(site.partition(":")[0])
        except ImportError:
            pass
    tracer = Tracer()
    tracer.install(SPANS)
    code = cli.main(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.results(), fh, indent=2, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
