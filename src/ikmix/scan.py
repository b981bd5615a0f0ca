"""Seeded region scans: sample theorem inputs, confront each prediction
with a grid verdict, and sort the outcomes into categories.

The interesting buckets are the two asymmetric ones.  A soundness alarm
is a draw whose hypotheses all hold while the grid check still finds a
violation; for a correct sufficient condition that bucket stays empty.
Draws whose hypotheses fail but whose order holds anyway are reported
too, as a reminder that these conditions are sufficient, not necessary.

The generator is counter-based (Philox), so a seed pins the exact
sample stream on every platform.  A scan draws every sample and runs its
checker first, in draw order, and then decides all predicted orders
together with check_orders, in stacks of draws; each verdict is the one
its pair gets alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .ikdist import DomainError, _count, _positive
from .ordercheck import DEFAULT_GRID, Grid, check_orders
from .theorems import CHECKERS, SCAN_LAYOUTS, ConditionReport

__all__ = [
    "SCANNABLE_THEOREMS",
    "CATEGORIES",
    "ScanConfig",
    "ScanFinding",
    "ScanReport",
    "draw_sample",
    "run_scan",
]

SCANNABLE_THEOREMS = tuple(SCAN_LAYOUTS)

_GRID_KEYS = {"x_min", "x_max", "points", "spacing"}

CATEGORIES = (
    "soundness_alarm",
    "consistent",
    "order_holds_without_hypotheses",
    "hypotheses_false_order_violated",
    "undecided",
)


def _normalise_range(name: str, value, n: int) -> list[tuple[float, float]]:
    """Accept [lo, hi] (shared by all coordinates) or [[lo, hi], ...]."""
    bad = DomainError(
        f"range for {name!r} must be [lo, hi] or a list of n such pairs")
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise bad
    if not isinstance(value[0], (list, tuple)):
        value = [value] * n
    if len(value) != n:
        raise DomainError(
            f"range list for {name!r} has {len(value)} pairs, expected {n}")
    pairs = []
    for v in value:
        if not isinstance(v, (list, tuple)) or len(v) != 2:
            raise bad
        lo, hi = (_positive(f"range bound for {name!r} (0 < lo <= hi)", b) for b in v)
        if lo > hi:
            raise DomainError(f"range for {name!r} must satisfy 0 < lo <= hi")
        pairs.append((lo, hi))
    return pairs


@dataclass(frozen=True)
class ScanConfig:
    theorem: str
    samples: int
    seed: int
    ranges: dict
    n_components: int = 2
    grid: Grid = field(default=DEFAULT_GRID)

    def __post_init__(self) -> None:
        if not isinstance(self.theorem, str) or self.theorem not in SCAN_LAYOUTS:
            raise DomainError(
                f"scan supports theorems {SCANNABLE_THEOREMS}, got theorem {self.theorem!r}")
        object.__setattr__(self, "samples", _count("samples", self.samples, 1))
        object.__setattr__(self, "seed", _count("seed", self.seed, 0))
        object.__setattr__(self, "n_components", _count("n_components", self.n_components, 2))
        if not isinstance(self.ranges, dict):
            raise DomainError(f"scan config ranges must be an object, got {self.ranges!r}")
        layout = SCAN_LAYOUTS[self.theorem]
        missing = [n for n, _ in layout if n not in self.ranges]
        if missing:
            raise DomainError(f"ranges missing for {missing}")
        extra = sorted(set(self.ranges) - {n for n, _ in layout})
        if extra:
            raise DomainError(f"ranges given for unknown parameters {extra}")
        # normalise eagerly so config errors surface before sampling
        norm = {}
        for name, kind in layout:
            n = 1 if kind == "scalar" else self.n_components
            norm[name] = _normalise_range(name, self.ranges[name], n)
        object.__setattr__(self, "ranges", norm)

    @classmethod
    def from_dict(cls, d: dict) -> "ScanConfig":
        if not isinstance(d, dict):
            raise DomainError(f"scan config must be a JSON object, got {d!r}")
        grid = d.get("grid")
        if grid is None:
            g = DEFAULT_GRID
        elif isinstance(grid, str):
            g = Grid.from_spec(grid)
        elif isinstance(grid, dict) and {"x_min", "x_max"} <= grid.keys() <= _GRID_KEYS:
            g = Grid(**grid)
        else:
            raise DomainError("scan config grid must be a spec string or a dict with keys "
                              f"x_min, x_max and optionally points, spacing; got {grid!r}")
        missing = [k for k in ("theorem", "samples", "seed", "ranges")
                   if k not in d]
        if missing:
            raise DomainError(f"scan config missing required keys {missing}")
        return cls(theorem=d["theorem"], samples=d["samples"], seed=d["seed"],
                   ranges=d["ranges"], n_components=d.get("n_components", 2),
                   grid=g)

    @classmethod
    def from_file(cls, path) -> "ScanConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {"theorem": self.theorem, "samples": self.samples,
                "seed": self.seed, "n_components": self.n_components,
                "ranges": {k: [list(p) for p in v] for k, v in self.ranges.items()},
                "grid": self.grid.to_dict()}


def draw_sample(config: ScanConfig, rng: np.random.Generator) -> dict:
    """One parameter set, drawn in the fixed layout order."""
    out: dict = {}
    for name, kind in SCAN_LAYOUTS[config.theorem]:
        pairs = config.ranges[name]
        vals = [rng.uniform(lo, hi) if hi > lo else lo for lo, hi in pairs]
        if kind == "scalar":
            out[name] = float(vals[0])
        elif kind == "weights":
            total = sum(vals)
            out[name] = tuple(v / total for v in vals)
        else:
            out[name] = tuple(float(v) for v in vals)
    return out


@dataclass(frozen=True)
class ScanFinding:
    index: int
    params: dict
    category: str
    witness: dict | None = None

    def to_dict(self) -> dict:
        return {"index": self.index, "params": _jsonable(self.params),
                "category": self.category, "witness": self.witness}


def _jsonable(params: dict) -> dict:
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in params.items()}


@dataclass(frozen=True)
class ScanReport:
    config: ScanConfig
    counts: dict
    soundness_alarms: tuple[ScanFinding, ...]
    holds_without_hypotheses: tuple[ScanFinding, ...]

    @property
    def alarm_count(self) -> int:
        return len(self.soundness_alarms)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "counts": dict(self.counts),
            "soundness_alarms": [f.to_dict() for f in self.soundness_alarms],
            "holds_without_hypotheses": [f.to_dict()
                                         for f in self.holds_without_hypotheses],
        }


def _categorise(report: ConditionReport, verdict_status: str) -> str:
    if verdict_status == "inconclusive":
        return "undecided"
    violated = verdict_status == "violated"
    if report.all_held:
        return "soundness_alarm" if violated else "consistent"
    return ("hypotheses_false_order_violated" if violated
            else "order_holds_without_hypotheses")


def run_scan(config: ScanConfig) -> ScanReport:
    rng = np.random.Generator(np.random.Philox(config.seed))
    checker = CHECKERS[config.theorem]
    draws = []
    for _ in range(config.samples):
        params = draw_sample(config, rng)
        draws.append((params, checker(**params)))
    verdicts = check_orders([(r.orientation.kind, r.orientation.lhs, r.orientation.rhs)
                             for _, r in draws], config.grid)
    counts = {c: 0 for c in CATEGORIES}
    alarms: list[ScanFinding] = []
    free_holds: list[ScanFinding] = []
    for index, ((params, report), verdict) in enumerate(zip(draws, verdicts)):
        category = _categorise(report, verdict.status)
        counts[category] += 1
        if category == "soundness_alarm":
            alarms.append(ScanFinding(
                index, params, category,
                verdict.witness.to_dict() if verdict.witness else None))
        elif category == "order_holds_without_hypotheses":
            free_holds.append(ScanFinding(index, params, category))
    return ScanReport(config, counts, tuple(alarms), tuple(free_holds))
