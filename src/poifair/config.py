"""Experiment configuration: JSON-backed, with every protocol constant as a
default rather than a hard-coded value. Model, rule and objective names, and
each default that a module already holds, are taken from that module."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

from . import fusion, recommend, sequential, temporal


class ConfigError(Exception):
    """Invalid or incomplete experiment configuration."""


@dataclass
class ExperimentConfig:
    checkin_path: str = ""
    poi_path: str = ""
    social_path: str | None = None
    min_user_checkins: int = 15
    min_poi_checkins: int = 10
    train_frac: float = 0.7
    val_frac: float = 0.1
    test_frac: float = 0.2
    work_start_hour: int = temporal.WORK_START_HOUR
    work_end_hour: int = temporal.WORK_END_HOUR
    group_quantile: float = 0.2
    models: list[str] = field(default_factory=lambda: list(recommend.MODEL_NAMES))
    fusion_rules: list[str] = field(default_factory=lambda: [fusion.PRODUCT, fusion.SUM])
    sweep_step: float = 0.1
    sweep_objective: str = fusion.OBJECTIVE_MIN_DELTA
    cutoffs: list[int] = field(default_factory=lambda: [10, 20])
    session_gap_hours: float = sequential.SESSION_GAP_HOURS
    amc_alpha: float = sequential.AMC_DECAY
    amc_memory: int = sequential.AMC_MEMORY
    out_dir: str = "out"
    seed: int = 42

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        try:
            raw = json.loads(p.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ConfigError(f"invalid JSON in {p}: {e}") from e
        if not isinstance(raw, dict):
            raise ConfigError(f"{p} must hold a JSON object, not {raw!r}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, f.type):
                raise ConfigError(f"{f.name} must be {f.type}, not {value!r}")
            # json.loads accepts NaN and Infinity; every comparison with NaN is false.
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, not {value!r}")
        if not self.checkin_path or not self.poi_path:
            raise ConfigError("checkin_path and poi_path are required")
        for path in (self.checkin_path, self.poi_path, self.social_path):
            if path and not Path(path).is_file():
                raise ConfigError(f"input file not found: {path}")
        if abs(self.train_frac + self.val_frac + self.test_frac - 1.0) > 1e-9:
            raise ConfigError("split fractions must sum to 1")
        if min(self.train_frac, self.val_frac, self.test_frac) < 0:
            raise ConfigError("split fractions must be >= 0")
        if min(self.min_user_checkins, self.min_poi_checkins) < 0:
            raise ConfigError("min_user_checkins and min_poi_checkins must be >= 0")
        # The working window is [start, end) within one day; it does not wrap
        # midnight.
        if not 0 <= self.work_start_hour < self.work_end_hour <= 24:
            raise ConfigError("need 0 <= work_start_hour < work_end_hour <= 24")
        if not 0 < self.group_quantile <= 0.5:
            raise ConfigError("group_quantile must be in (0, 0.5]")
        for key in ("models", "fusion_rules", "cutoffs"):
            values = getattr(self, key)
            if not values or len(set(values)) < len(values):
                raise ConfigError(f"{key} must be nonempty without repeats")
        for m in self.models:
            if m not in recommend.MODEL_NAMES:
                raise ConfigError(f"unknown model {m!r}")
        for r in self.fusion_rules:
            if r not in fusion.RULES:
                raise ConfigError(f"unknown fusion rule {r!r}")
        if any(n < 1 for n in self.cutoffs):
            raise ConfigError("cutoffs must be >= 1")
        if self.sweep_objective not in fusion.OBJECTIVES:
            raise ConfigError(f"unknown sweep_objective {self.sweep_objective!r}")
        step = self.sweep_step  # the simplex grid's step must divide 1
        if not 0 < step <= 1 or abs(round(1 / step) * step - 1) > 1e-9:
            raise ConfigError("sweep_step must be in (0, 1] and divide 1")
        if self.session_gap_hours <= 0:
            raise ConfigError("session_gap_hours must be > 0")
        if not 0 < self.amc_alpha < 1 or self.amc_memory < 1:
            raise ConfigError("amc_alpha must be in (0, 1) and amc_memory >= 1")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _has_type(value, kind: str) -> bool:
    """Whether a JSON value has a field's annotated type: no field is a
    bool, a bool is not a number, and an int is a float."""
    if kind.startswith("list["):
        return isinstance(value, list) and all(_has_type(v, kind[5:-1]) for v in value)
    if kind == "str | None":
        return value is None or isinstance(value, str)
    if isinstance(value, bool):
        return False
    return isinstance(value, {"str": str, "int": int, "float": (int, float)}[kind])
