"""Seeded region scans: sample theorem inputs, confront each prediction
with a grid verdict, and sort the outcomes into categories.

The interesting buckets are the two asymmetric ones.  A soundness alarm
is a draw whose hypotheses all hold while the grid check still finds a
violation; for a correct sufficient condition that bucket stays empty.
Draws whose hypotheses fail but whose order holds anyway are reported
too, as a reminder that these conditions are sufficient, not necessary.

The generator is counter-based (Philox), so a seed pins the exact
sample stream on every platform.  A scan works on arrays with a leading
draw axis from draw to report: draw_sample takes every sample from one
call to the generator, theorems.check_stack decides each hypothesis for
all draws at once, and ordercheck decides the predicted orders on the
(weights, alpha, beta) arrays it returns, weights renormalised as a
FiniteMixture's (mixture._renormalised_rows: each row's math.fsum, one
division); each verdict is the one its pair gets alone.  run_scan reads
the verdicts as the columns they are decided in (ordercheck._decide), so
no OrderVerdict is built: a table maps each draw's hypotheses and status
code to its category, and the witnesses and the draws of the findings
are gathered from their arrays, each turned into Python floats once per
scan.  No draw becomes a FiniteMixture.  The two weight divisions are by
design: the hypotheses see the weights as drawn, as a checker sees its
arguments, and the verdicts see them renormalised, as the checker's
mixtures hold them, so a finding's printed params replayed through
CHECKERS give its witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .ikdist import DomainError, _count, _known_keys, _positive, _read_json
from .mixture import _renormalised_rows
from .ordercheck import DEFAULT_GRID, Grid, _decide
from .theorems import SCAN_LAYOUTS, check_stack

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

# far above any scan's needs: a larger count is an input error, not a
# request for gigabytes
MAX_SAMPLES = 1_000_000
MAX_COMPONENTS = 1_000

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
        object.__setattr__(self, "samples", _count("samples", self.samples, 1, MAX_SAMPLES))
        object.__setattr__(self, "seed", _count("seed", self.seed, 0))
        object.__setattr__(self, "n_components",
                           _count("n_components", self.n_components, 2, MAX_COMPONENTS))
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
        _known_keys("scan config", d, [f.name for f in fields(cls)])
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
        return cls.from_dict(_read_json("scan config", path))

    def to_dict(self) -> dict:
        return {"theorem": self.theorem, "samples": self.samples,
                "seed": self.seed, "n_components": self.n_components,
                "ranges": {k: [list(p) for p in v] for k, v in self.ranges.items()},
                "grid": self.grid.to_dict()}


def draw_sample(config: ScanConfig, rng: np.random.Generator) -> dict:
    """Every draw of the scan, as one array per layout name in layout
    order with a leading draw axis: draws x components, or one value per
    draw for a scalar.  One rng.random call takes a uniform u per draw and
    coordinate whose range [lo, hi] is not a point, draw-major in layout
    order, and the value is lo + (hi - lo) * u; a point range gives lo and
    takes nothing.  Weights are divided by their sum, taken column by column
    from the left as a Python sum over one draw would take it."""
    layout = SCAN_LAYOUTS[config.theorem]
    lo, hi = np.array([pair for name, _ in layout for pair in config.ranges[name]]).T
    free = hi > lo
    values = np.tile(lo, (config.samples, 1))
    values[:, free] = lo[free] + (hi - lo)[free] * rng.random((config.samples, int(free.sum())))
    out, start = {}, 0
    for name, kind in layout:
        v = values[:, start:start + len(config.ranges[name])]
        start += v.shape[1]
        if kind == "weights":
            v = v / sum(v.T)[:, None]
        out[name] = v[:, 0] if kind == "scalar" else v
    return out


@dataclass(frozen=True)
class ScanFinding:
    index: int
    params: dict
    category: str
    witness: dict | None = None

    def to_dict(self) -> dict:
        return {"index": self.index,
                "params": {k: list(v) if isinstance(v, tuple) else v
                           for k, v in self.params.items()},
                "category": self.category, "witness": self.witness}


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


# a draw's category, as an index into CATEGORIES, by whether every
# hypothesis held (row) and by its verdict's status code (column, as in
# ordercheck._STATUSES: holds_on_grid, violated, inconclusive)
_CATEGORY = np.array([[2, 3, 4], [1, 0, 4]])


def run_scan(config: ScanConfig) -> ScanReport:
    draws = draw_sample(config, np.random.Generator(np.random.Philox(config.seed)))
    kind, lhs, rhs, hypotheses = check_stack(config.theorem, draws)
    chunks = _decide(kind, *((_renormalised_rows(w), a, b) for w, a, b in (lhs, rhs)),
                     config.grid)
    category = _CATEGORY[np.logical_and.reduce(hypotheses).astype(np.intp),
                         np.concatenate([c.status for c in chunks])]
    witness = np.concatenate([c.witness[:3] for c in chunks], axis=1)
    findings = []
    for code in (0, 2):  # soundness_alarm, order_holds_without_hypotheses
        index = np.flatnonzero(category == code)
        # the draws as floats and tuples of floats; an alarm's witness
        params = zip(*(map(tuple, v[index].tolist()) if v.ndim == 2 else v[index].tolist()
                       for v in draws.values()))
        found = ([{"x": x, "lhs": y1, "rhs": y2} for x, y1, y2 in witness[:, index].T.tolist()]
                 if code == 0 else [None] * index.size)
        findings.append(tuple(ScanFinding(i, dict(zip(draws, p)), CATEGORIES[code], w)
                              for i, p, w in zip(index.tolist(), params, found)))
    counts = np.bincount(category, minlength=len(CATEGORIES)).tolist()
    return ScanReport(config, dict(zip(CATEGORIES, counts)), *findings)
