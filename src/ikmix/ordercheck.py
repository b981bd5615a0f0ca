"""Grid verification and refutation of stochastic orders between mixtures.

Each order kind is one entry of _KINDS, which holds all that is its own:
its test on the grid, a pointwise comparison within tolerance or a log
ratio whose every step must move in one direction (_bad_steps), its
crossing search, witness values, reason and curve.  ORDER_KINDS,
CURVE_FOR_KIND and CURVE_KINDS are views of it.

A verdict of holds_on_grid is exactly that: a statement about the sampled
grid, not a proof.  violated, by contrast, is a hard refutation and comes
with the witness that produced it.  Comparisons carry a tolerance
tau = 1e-12 * (1 + scale) so that ties never flip verdicts; the scale is
the larger sf for st and, for the log tests, the largest |log| a value
is built from, since a log rounds in proportion to its size.

The checks decide stacks of pairs: every array holds one row per pair,
and the two tests run on the whole stack.  check_orders takes one kind
and the (weights, alphas, betas) arrays of both sides, as
theorems.check_stack returns them, and cuts the pairs into chunks of as
many as 32,768 values per side hold (_STACK_VALUES: 32 pairs of
2-component mixtures on 500 points), and check_order decides the stack
of one.  A stack of one pair whose sides share a component count
evaluates both sides in one kernel call, on their two-row stack (_pair);
so do its crossing search, round by round, and difference_curve.  Each
row of a stack holds the bits of its mixture alone, so every value is
the same either way.

A chunk's verdicts are decided as columns, with no loop over its rows
(_verdicts): each row's status code, its skipped and non-finite point
counts, and for a violated row its witness and the left end of its
crossing search, in one array.  Points where a compared value or log is
NaN or infinite are counted in nonfinite_points, and st also skips the
points where both survival functions underflow float64 (below 1e-300),
counted in skipped_points.  When more than 10% of the grid is unusable
the verdict is inconclusive; so is an rh verdict whose two criteria
disagree; only these rows get a reason as the chunk is decided.
Otherwise the row's first bad point, if any, makes the verdict violated,
its witness read from the test's own arrays: the usable mask, the two
compared arrays (a log ratio twice for a step test) and the entry's
value transform.  One function (_verdict) builds a row's OrderVerdict
from the columns, with its Witness, its reason (the entry's template)
and its pending crossing (the entry's search bound to the pair's
parameter rows); check_orders and check_order build every verdict they
return through it, and a scan reads the columns instead (scan.run_scan).

Every step is taken between neighbouring points: the step test compares
neighbour slices of the ratio, with the tolerance of the left one
(_bad_steps).  A row that holds an unusable point is first prepared, on
copies: each usable point's ratio and tolerance scale are carried over the
unusable points after it, so that a step into an unusable point is 0 (NaN
before the row's first usable point) and never bad, and a step into a
usable point is taken from the last usable point before it.  Rows whose
every point is usable are used as they are.  A witness's left point is
k - 1 when that point is usable, and otherwise the last usable point
before k (for st, none), read from the usable mask (_left).

Witness semantics: for pointwise checks, (x, lhs, rhs) are the two
compared values (sf or rh) at the offending x.  For monotonicity checks,
x is the right endpoint of the offending step and lhs/rhs are the ratio
at its two ends.  refined_crossing, when present, is a root inside one
grid step found by the batched bracket search (64 interior points per
vectorised round, down to a relative width of 1e-9): of the difference
of the compared values for st and rh, and of the closed-form slope of
the log ratio for lr and r-rh.  A violated verdict runs that search the
first time its crossing is read, with the search function bound to its
pair's parameter rows when the verdict was built; to_dict(), equality,
hashing and repr read it.  Scans and fixture replays read only status and
witness, so they never run it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .ikdist import DomainError, _count, _positive
# mixture_sf is no longer called here; perfbench's span test reads it from
# this module, so it stays imported
from .mixture import (_BLOCK_VALUES, FiniteMixture, _evaluate, _exp, _params, _refine_crossing,
                      _survival, _weight_sums, mixture_sf)  # noqa: F401

__all__ = [
    "Grid",
    "DEFAULT_GRID",
    "ORDER_KINDS",
    "Witness",
    "OrderVerdict",
    "check_order",
    "check_orders",
    "CURVE_FOR_KIND",
    "CURVE_KINDS",
    "Curve",
    "difference_curve",
    "write_curve_csv",
]

_TOL = 1e-12
# values per side that check_orders stacks into one chunk, 256 KiB: four
# kernel blocks, so a scan pays the per-call cost of the kernel and the
# decision once for four times as many pairs
_STACK_VALUES = 4 * _BLOCK_VALUES
_UNDERFLOW = 1e-300
_SKIP_FRACTION = 0.10
# far above any grid's needs: a larger count is an input error
MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class Grid:
    """Evaluation grid; strictly positive, at least two points."""

    x_min: float
    x_max: float
    points: int = 2000
    spacing: str = "logarithmic"

    def __post_init__(self) -> None:
        if self.spacing not in ("logarithmic", "linear"):
            raise DomainError(f"spacing must be logarithmic or linear, got {self.spacing!r}")
        x_min, x_max = _positive("grid x_min", self.x_min), _positive("grid x_max", self.x_max)
        if not x_min < x_max:
            raise DomainError("grid requires 0 < x_min < x_max")
        object.__setattr__(self, "x_min", x_min)
        object.__setattr__(self, "x_max", x_max)
        object.__setattr__(self, "points", _count("grid points", self.points, 2, MAX_GRID_POINTS))

    def xs(self) -> np.ndarray:
        """The grid points, computed on the first call and returned as the
        same read-only array from then on.  The array is kept outside the
        dataclass fields, so equality, hashing and repr ignore it."""
        xs = self.__dict__.get("_xs")
        if xs is None:
            xs = (np.geomspace if self.spacing == "logarithmic" else np.linspace)(
                self.x_min, self.x_max, self.points)
            xs.flags.writeable = False
            self.__dict__["_xs"] = xs
        return xs

    def __getstate__(self) -> dict:
        # copies and pickles leave the points out and compute them again,
        # read-only: a pickled array would come back writeable
        return {k: v for k, v in self.__dict__.items() if k != "_xs"}

    @classmethod
    def from_spec(cls, spec: str) -> "Grid":
        """Parse 'xmin:xmax:points:spacing', e.g. '1e-4:1e4:2000:log'."""
        parts = spec.split(":")
        if len(parts) != 4:
            raise DomainError(f"grid spec must be xmin:xmax:points:spacing, got {spec!r}")
        try:
            x_min, x_max, points = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise DomainError(f"bad grid spec {spec!r}: {exc}") from exc
        spacing = {"log": "logarithmic", "lin": "linear"}.get(parts[3], parts[3])
        return cls(x_min, x_max, points, spacing)

    to_dict = asdict


DEFAULT_GRID = Grid(1e-4, 1e4, 2000, "logarithmic")


@dataclass(frozen=True)
class Witness:
    x: float
    lhs: float
    rhs: float

    to_dict = asdict


class _Crossing:
    """The refined_crossing field of OrderVerdict.  It holds a float or
    None, or a pending search given as a zero-argument callable, which
    runs on the first read; its result replaces it."""

    def __get__(self, verdict, owner=None):
        if verdict is None:
            return None  # the field's default
        value = verdict.__dict__["_refined_crossing"]
        if callable(value):
            value = verdict.__dict__["_refined_crossing"] = value()
        return value

    def __set__(self, verdict, value) -> None:
        verdict.__dict__["_refined_crossing"] = value


@dataclass(frozen=True)
class OrderVerdict:
    kind: str
    status: str  # holds_on_grid | violated | inconclusive
    witness: Witness | None = None
    refined_crossing: float | None = _Crossing()
    reason: str | None = None
    skipped_points: int = 0
    nonfinite_points: int = 0
    grid: Grid = field(default=DEFAULT_GRID)

    def __getstate__(self) -> dict:
        # copies and pickles carry the crossing, not the pending search
        _ = self.refined_crossing
        return self.__dict__

    # the field order is the key order; asdict reads refined_crossing
    # through its descriptor
    to_dict = asdict


# ---------------------------------------------------------------------------
# shared machinery: every array is stacked, one row per pair
# ---------------------------------------------------------------------------


def _left(usable: np.ndarray, rows: np.ndarray, ks: np.ndarray, across: bool) -> np.ndarray:
    """The left point of the step into point ks[n] of row rows[n]: ks[n] - 1
    when that point is usable, else with across the last usable point
    before ks[n], or -1 if there is none (always -1 at the first point)."""
    left = ks - 1
    gap = (ks > 0) & ~usable[rows, left]
    left[gap] = -1
    if across and gap.any():
        at = np.arange(usable.shape[1])
        left[gap] = np.where(usable[rows[gap]] & (at < ks[gap, None]), at, -1).max(axis=1)
    return left


def _exceeds(v1: np.ndarray, v2: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Points where v1 > v2 beyond the tolerance _TOL * (1 + scale)."""
    with np.errstate(invalid="ignore"):
        return v1 > v2 + _TOL * (1.0 + scale)


def _bad_steps(r: np.ndarray, scale: np.ndarray, usable: np.ndarray,
               nondecreasing: bool) -> np.ndarray:
    """Steps of r between consecutive usable points that break monotonicity
    in the named direction beyond the tolerance _TOL * (1 + scale) at the
    step's left end; entry j is the step into point j.  Every row takes
    its steps from neighbouring points, by slices.  A row that holds an
    unusable point does so on copies of r and scale in which each usable
    point's values are carried over the unusable points after it, and r is
    NaN before the row's first usable point: a step into an unusable point
    is then 0 or NaN, never bad, and a step into a usable one is taken from
    the last usable point before it.  r and scale are left as they are."""
    rows = np.flatnonzero(~usable.all(axis=1))
    if rows.size:
        last = np.maximum.accumulate(np.where(usable[rows], np.arange(r.shape[1]), -1), axis=1)
        r, scale = r.copy(), scale.copy()
        r[rows] = np.where(last < 0, np.nan, np.take_along_axis(r[rows], last, axis=1))
        scale[rows] = np.take_along_axis(scale[rows], last, axis=1)
    with np.errstate(invalid="ignore"):
        diffs = r[:, 1:] - r[:, :-1]
    tau = _TOL * (1.0 + scale[:, :-1])
    bad = np.zeros(r.shape, dtype=bool)
    bad[:, 1:] = diffs < -tau if nondecreasing else diffs > tau
    return bad


def _magnitude(*logs: np.ndarray) -> np.ndarray:
    """The tolerance scale of values built from logs: the largest |log|,
    kept in one array (max and abs are exact and keep NaN, so the bits are
    those of np.max(np.abs(logs), axis=0))."""
    out = np.abs(logs[0])
    for log in logs[1:]:
        np.maximum(out, np.abs(log), out=out)
    return out


def _pair(fn, x, m1, m2, *args, **kwargs) -> tuple:
    """fn(x, m, ...) for m = m1 and for m = m2: the two sides' values, or
    with fn = _evaluate the two sides' values of each output.  fn takes a
    stack of mixtures, one row per mixture (_survival, _rh_slope and
    _evaluate do); m1 and m2 are mixtures, parameter arrays or stacks of
    them (see _stacked).  A single pair whose sides share a component
    count takes one call on its two-row stack: each row keeps the bits of
    its mixture alone, and the components are cut by the number of
    points only.  Stacks of several pairs, which check_orders sizes per
    side, and sides of two component counts take one call per side: joined
    stacks would cut a scan's chunks of 3-component pairs on 500 points
    from 21 pairs to 10; measured at 8192 values per side (5 pairs to 2),
    scan_quiet ran 13-21% slower on a 2-core machine, and at 16-pair
    chunks, though 5-9% faster, its traced peak rose from 1,278 to 2,095
    KiB."""
    m1, m2 = _params(m1), _params(m2)
    if m1.shape != m2.shape or m1.ndim == 3 and len(m1) > 1:
        v1, v2 = fn(x, m1, *args, **kwargs), fn(x, m2, *args, **kwargs)
        return tuple(zip(v1, v2)) if isinstance(v1, tuple) else (v1, v2)
    out = fn(x, np.concatenate((m1, m2)).reshape(-1, *m1.shape[-2:]), *args, **kwargs)
    shape = (2,) + m1.shape[:-2] + np.shape(x)
    return tuple(v.reshape(shape) for v in out) if isinstance(out, tuple) else out.reshape(shape)


def _sf_difference(m1, m2, x):
    """sf(m1) - sf(m2) at x, by one _pair: the st check's search, the sf
    curve and the sf-difference spot values."""
    return np.subtract(*_pair(_survival, x, m1, m2))


# a verdict's status by its code (0, 1 or 2) in _Columns.status
_STATUSES = ("holds_on_grid", "violated", "inconclusive")
# The verdicts of one chunk of pairs (_verdicts), one entry per row (pair)
# in each column, and what _verdict needs to build a row's OrderVerdict:
# the chunk's order kind, grid and parameter rows; each row's int8 status
# code and its skipped and non-finite point counts; an inconclusive row's
# reason, by row; a 4 x rows array of a violated row's witness x, lhs and
# rhs and the left end of its crossing search (NaN where it has none).
_Columns = namedtuple("_Columns", "kind grid m1s m2s status skipped nonfinite reasons witness")


def _verdicts(kind: str, grid: Grid, m1s, m2s) -> _Columns:
    """Every row's verdict, decided as columns from the arrays of the test
    of the kind's entry e in _KINDS on grid.  A row with over 10% of the
    grid unusable (skip or nonfinite) is inconclusive and names each count;
    passing leaves at least two usable points on any grid.  Then a row in
    split is inconclusive with the reason it maps to; a row with no point
    in bad holds on the grid; any other row is violated at its first bad
    point k, whose step starts at p: k - 1 if usable, else with e.across
    the last usable point (neither skip nor nonfinite) before k, or none
    (_left).  Its witness holds x[k], v1 at p when bad marks steps (e.step;
    v1 = v2, a log ratio) or at k when it marks points, and v2 at k,
    through e.value, which takes the stack's witness values in one array.
    Its crossing is searched inside the step from p to k: always for a
    step test, and for a pointwise one when v1 < v2 at p."""
    e = _kind(kind)
    skip, nonfinite, bad, v1, v2, split = e.test(m1s, m2s, grid.xs())
    # no pass over the rows when the chunk has no such point
    n_skip, n_nonfinite = (m.sum(axis=1) if m.any() else np.zeros(len(m), np.intp)
                           for m in (skip, nonfinite))
    gated = (n_skip + n_nonfinite > _SKIP_FRACTION * grid.points).nonzero()[0]
    causes = ((n_skip, "underflowed float64"), (n_nonfinite, "were non-finite (NaN or inf)"))
    reasons = split | {i: "; ".join(f"{n[i]} of {grid.points} grid points {what}"
                                    for n, what in causes if n[i]) for i in gated.tolist()}
    status = bad.any(axis=1).astype(np.int8)
    status[list(reasons)] = 2
    hit = (status == 1).nonzero()[0]
    witness = np.full((4, len(status)), np.nan)
    if hit.size:
        ks = bad[hit].argmax(axis=1)
        ps = _left(~(skip | nonfinite), hit, ks, e.across)
        xs = grid.xs()
        searched = (ps >= 0) & (e.step or v1[hit, ps] < v2[hit, ps])
        ends = np.array((v1[hit, ps if e.step else ks], v2[hit, ks]))
        witness[:, hit] = (xs[ks], *e.value(ends), np.where(searched, xs[ps], np.nan))
    return _Columns(kind, grid, m1s, m2s, status, n_skip, n_nonfinite, reasons, witness)


def _verdict(c: _Columns, i: int) -> OrderVerdict:
    """Row i of the columns c as an OrderVerdict: a violated row gets its
    Witness, its reason from the kind's template and its crossing search,
    bound to the pair's parameter rows and run on first read."""
    status, witness, crossing, reason = _STATUSES[c.status[i]], None, None, c.reasons.get(i)
    if status == "violated":
        e = _KINDS[c.kind]
        x, lhs, rhs, lo = c.witness[:, i].tolist()
        witness, reason = Witness(x, lhs, rhs), e.template.format(x)
        if not np.isnan(lo):
            crossing = partial(_refine_crossing, partial(e.search, c.m1s[i], c.m2s[i]), lo, x)
    return OrderVerdict(c.kind, status, witness, crossing, reason, int(c.skipped[i]),
                        int(c.nonfinite[i]), c.grid)


def _ratio_steps(log_num, log_den, scale, nondecreasing: bool) -> tuple:
    """The step test of lr and r-rh: log_num - log_den monotone in the named
    direction within the tolerance of scale; none of its points is skipped."""
    with np.errstate(invalid="ignore"):
        log_ratio = log_num - log_den
    nonfinite = ~np.isfinite(log_ratio)
    return (np.zeros_like(nonfinite), nonfinite,
            _bad_steps(log_ratio, scale, ~nonfinite, nondecreasing), log_ratio, log_ratio, {})


def _rh_slope(x, m: np.ndarray) -> np.ndarray:
    """d/dx log rh of m, one mixture or a stack, at x: d/dx log pdf - rh,
    since d/dx log cdf = rh."""
    log_rh, slope = _evaluate(x, m, ("rh",), slope=True)
    return slope - _exp(log_rh)


# ---------------------------------------------------------------------------
# the four tests, each over the pairs (m1s[i], m2s[i]) of parameter arrays
# ---------------------------------------------------------------------------


def _st(m1s: np.ndarray, m2s: np.ndarray, xs: np.ndarray) -> tuple:
    s1, s2 = _pair(_survival, xs, m1s, m2s)
    nonfinite = ~(np.isfinite(s1) & np.isfinite(s2))
    skip = ~nonfinite & (s1 < _UNDERFLOW) & (s2 < _UNDERFLOW)
    return skip, nonfinite, ~(skip | nonfinite) & _exceeds(s1, s2, np.maximum(s1, s2)), s1, s2, {}


def _rh(m1s: np.ndarray, m2s: np.ndarray, xs: np.ndarray) -> tuple:
    (F1, F2), (f1, f2), (h1, h2) = _pair(_evaluate, xs, m1s, m2s, ("cdf", "pdf", "rh"))
    nonfinite = ~(np.isfinite(h1) & np.isfinite(h2))
    usable = ~nonfinite
    scale = _magnitude(F1, f1, F2, f2)
    with np.errstate(invalid="ignore"):
        ratio_bad = _bad_steps(F2 - F1, scale, usable, nondecreasing=True).any(axis=1)
    viol = usable & _exceeds(h1, h2, scale)
    split = {}
    for i in np.flatnonzero(ratio_bad != viol.any(axis=1)).tolist():
        which = "cdf-ratio monotonicity" if ratio_bad[i] else "pointwise reversed hazards"
        split[i] = f"the two rh criteria disagree (only {which} flagged a violation)"
    return np.zeros_like(nonfinite), nonfinite, viol, h1, h2, split


def _lr(m1s: np.ndarray, m2s: np.ndarray, xs: np.ndarray) -> tuple:
    (f1, f2), = _pair(_evaluate, xs, m1s, m2s, ("pdf",))
    return _ratio_steps(f2, f1, _magnitude(f1, f2), nondecreasing=True)


def _r_rh(m1s: np.ndarray, m2s: np.ndarray, xs: np.ndarray) -> tuple:
    (F1, F2), (f1, f2), (h1, h2) = _pair(_evaluate, xs, m1s, m2s, ("cdf", "pdf", "rh"))
    return _ratio_steps(h1, h2, _magnitude(F1, f1, F2, f2), nondecreasing=False)


# One entry per order kind; m1 <= m2 holds on the grid when its test flags none:
#   st    sf(m1) <= sf(m2) pointwise
#   rh    log rh(m1) <= log rh(m2) pointwise AND log cdf(m2) - log cdf(m1)
#         nondecreasing; the two criteria must agree or the verdict degrades
#         to inconclusive (split)
#   lr    log pdf(m2) - log pdf(m1) nondecreasing  (m1 <= m2 in likelihood ratio)
#   r_rh  log rh(m1) - log rh(m2) nonincreasing
# An entry holds its test, (m1s, m2s, xs) -> (skip, nonfinite, bad, v1, v2,
# split): stacked masks, compared values and the reasons of the rows it
# finds inconclusive; step, whether bad marks steps or points; across,
# whether a witness's left point may lie before an unusable point; its
# crossing search, (m1, m2, x) -> the difference of the compared values
# (st, rh) or the closed-form slope of the log ratio (lr, r_rh); the
# witness value transform; the reason template for the witness x; and its
# curve.  Public callables stay out: a tracer swaps them by name.
_Kind = namedtuple("_Kind", "test step across search value template curve")
_KINDS = {
    "st": _Kind(_st, False, False, _sf_difference, np.asarray,
                "sf(m1) exceeds sf(m2) at x={!r}", "sf"),
    "rh": _Kind(_rh, False, True,
                lambda m1, m2, x: np.subtract(*_pair(_evaluate, x, m1, m2, ("rh",))[0]), _exp,
                "rh(m1) exceeds rh(m2) at x={!r}, confirmed by the cdf ratio", "cdf_ratio"),
    # m2 first: the slope of log pdf(m2) - log pdf(m1), as np.subtract(v2, v1)
    "lr": _Kind(_lr, True, True,
                lambda m1, m2, x: np.subtract(*_pair(_evaluate, x, m2, m1, (), slope=True)[0]),
                _exp, "ratio fails to be nondecreasing on the step ending at x={!r}",
                "pdf_ratio"),
    "r_rh": _Kind(_r_rh, True, True, lambda m1, m2, x: np.subtract(*_pair(_rh_slope, x, m1, m2)),
                  _exp, "ratio fails to be nonincreasing on the step ending at x={!r}",
                  "rh_ratio"),
}
ORDER_KINDS = tuple(_KINDS)
# the curve that shows each order kind: the sf difference for st, the m1/m2
# ratio of the named function for the others
CURVE_FOR_KIND = {kind: e.curve for kind, e in _KINDS.items()}
CURVE_KINDS = tuple(CURVE_FOR_KIND.values())


def _kind(kind: str) -> _Kind:
    """The entry of the order kind; DomainError for an unknown kind."""
    if kind not in _KINDS:
        raise DomainError(f"unknown order kind {kind!r}; expected one of {ORDER_KINDS}")
    return _KINDS[kind]


def _decide(kind: str, lhs: tuple, rhs: tuple, grid: Grid) -> list[_Columns]:
    """The columns of check_orders(kind, lhs, rhs, grid), one per chunk."""
    _kind(kind)  # refused before the sides are read, even with no pairs
    stacks = []
    for name, side in (("lhs", lhs), ("rhs", rhs)):
        try:
            raw = [np.asarray(v) for v in side]
            arrays = [np.asarray(v, dtype=float) for v in raw]
        except (TypeError, ValueError) as exc:  # ragged or non-numeric
            raise DomainError(f"{name} needs (weights, alphas, betas) arrays of numbers: "
                              f"{exc}") from None
        # text and bools convert, but FiniteMixture refuses them
        for what, v in zip(("weights", "alphas", "betas"), raw):
            if v.dtype.kind in "bSU":
                raise DomainError(f"{name} {what} must be real numbers, got "
                                  f"{'bools' if v.dtype.kind == 'b' else 'text'}")
        if len(arrays) != 3:
            raise DomainError(f"{name} needs (weights, alphas, betas), got {len(arrays)} arrays")
        shapes = [v.shape for v in arrays]
        if len(set(shapes)) != 1:
            raise DomainError(f"{name} needs one component count, got (weights, alphas, betas) "
                              f"shaped {shapes}")
        if len(shapes[0]) != 2:
            raise DomainError(f"{name} needs (weights, alphas, betas) arrays of pairs x "
                              f"components, got shape {shapes[0]}")
        m = np.stack(arrays, axis=1)
        ok = (m > 0.0) & (m < np.inf)  # NaN fails both
        if not ok.all():
            i, j, k = np.argwhere(~ok)[0].tolist()
            raise DomainError(f"{name} {('weights', 'alphas', 'betas')[j]} must be finite and "
                              f"> 0, got {float(m[i, j, k])!r} in pair {i}")
        _weight_sums(m[:, 0].tolist(), name)
        stacks.append(m)
    m1s, m2s = stacks
    if len(m1s) != len(m2s):
        raise DomainError(f"{len(m1s)} lhs mixtures vs {len(m2s)} rhs mixtures")
    chunk = max(1, _STACK_VALUES // (max(m1s.shape[2], m2s.shape[2]) * grid.points))
    return [_verdicts(kind, grid, m1s[start:start + chunk], m2s[start:start + chunk])
            for start in range(0, len(m1s), chunk)]


def check_orders(kind: str, lhs: tuple, rhs: tuple,
                 grid: Grid = DEFAULT_GRID) -> list[OrderVerdict]:
    """Decide, for each pair i, that lhs mixture i <= rhs mixture i in the
    order kind (one of ORDER_KINDS) on grid, in pair order.  lhs and rhs
    are each a (weights, alphas, betas) triple of pairs x components
    arrays, as theorems.check_stack returns them (weights as a
    FiniteMixture holds them), every entry finite and > 0 and each row's
    weights' math.fsum lying within 1e-6 of 1, as FiniteMixture's raw
    weights must (mixture._weight_sums; the rows are not renormalised); the
    sides may differ in component count.
    The pairs are decided in chunks of _STACK_VALUES // (components *
    grid.points) with the larger count (at least one; 32 pairs of
    2-component mixtures on 500 points), one kernel pass per side each,
    but one pass on both sides' two-row stack for a chunk of one pair
    whose sides share a component count; each verdict is the one its pair
    gets alone, built from its chunk's columns (_verdict)."""
    return [_verdict(c, i) for c in _decide(kind, lhs, rhs, grid) for i in range(len(c.status))]


def check_order(kind: str, m1: FiniteMixture, m2: FiniteMixture,
                grid: Grid = DEFAULT_GRID) -> OrderVerdict:
    """m1 <= m2 in the order kind (one of ORDER_KINDS) on grid: the
    verdict check_orders gives the pair, without its checks of the
    parameters, which a FiniteMixture has passed."""
    return _verdict(_verdicts(kind, grid, _params(m1)[None], _params(m2)[None]), 0)


# ---------------------------------------------------------------------------
# curve extraction
# ---------------------------------------------------------------------------

class Curve(NamedTuple):
    """A comparison curve as three read-only columns of one length: the
    points x (float64, ascending), the value at each (float64) and
    whether that value is finite (bool)."""

    x: np.ndarray
    value: np.ndarray
    defined: np.ndarray


def difference_curve(m1: FiniteMixture, m2: FiniteMixture, grid: Grid, which: str) -> Curve:
    """Tabulate the comparison curve between two mixtures on grid.

    which = 'sf' gives sf(m1) - sf(m2); the ratio variants give the m1/m2
    quotient of the named function, as exp of the difference of its logs.
    Both mixtures are evaluated in one kernel call when their component
    counts match (_pair).  A point is undefined when its value is not
    finite.
    """
    if which not in CURVE_KINDS:
        raise DomainError(f"unknown curve kind {which!r}; expected one of {CURVE_KINDS}")
    xs = grid.xs()
    if which == "sf":
        vals = _sf_difference(m1, m2, xs)
    else:
        name = which.removesuffix("_ratio")
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            vals = np.exp(np.subtract(*_pair(_evaluate, xs, m1, m2, (name,))[0]))
    defined = np.isfinite(vals)
    vals.flags.writeable = defined.flags.writeable = False
    return Curve(xs, vals, defined)


# Exact %.17g text for float64 arrays.  A finite v != 0 whose text has the
# exponent E prints the 17 digits of N = |v| * 10**(16 - E), rounded half to
# even, and 10**16 - 0.5 <= N < 10**17 - 0.5: 17 digits that round up to
# 10**17 carry into the next exponent (the float64 below 1e153 prints as
# 1e+153), and the float64 below 1e-6 prints as 9.9999999999999995e-07.  E
# is read from tables: np.frexp names the binade [2**(k-1), 2**k) of |v|,
# whose values have one of two exponents, and |v| takes the higher one from
# the least float64 whose text has it on.  N is |v| * 2**s times 10**(16 -
# E) / 2**s = hi + lo, a double-double within 2**-106 of it, the power of
# two keeping both factors normal for every E (subnormal v included).
# Dekker's exact product (with Veltkamp's split; Numer. Math. 18, 1971)
# gives |v| * 2**s * hi = P + err, P an integer, as every float64 from
# 2**53 up is, and T = err + |v| * 2**s * lo misses N - P by at most
# 2**-105 * N (the rounding of lo and of its product) plus half an ulp of a
# number below 32 (the sum), under 5e-15.  N then rounds to P + rint(T)
# wherever T lies more than _G17_TIE from a half-integer; the values that
# do not (the exact ties, which round half to even, and any value that near
# one) and NaN and inf go through _g17_exact; zeros take N = 0.  The text
# matrix has one column per value and NULs in empty cells, 29 rows: the
# sign; "0." and up to 3 zeros (E < 0, fixed notation); 18 rows for the 17
# digits and the point, which follows digit `point`, so that the digits
# after it sit one row lower; then "e", the exponent's sign and its digits
# (the hundreds only from 100 on).  The digits are read from a table of
# every 4-digit group, and the rows before and after them, which depend on
# E alone, from tables indexed by E (_text_tables).
_G17_HEIGHT = 29
_G17_TIE = 1e-14  # twice the bound on T's error
_E_MIN = -324  # E lies in [-324, 308] for every finite v != 0
_K_MIN = -1073  # and k in [-1073, 1024]
_SPLITTER = 2.0**27 + 1  # splits a float64 into two halves of 26 bits and a sign
_K = np.arange(18, dtype=np.int8)[:, None]


def _split(x: np.ndarray) -> tuple:
    """x as high + low, each with at most 26 significant bits (Veltkamp)."""
    c = _SPLITTER * x
    high = c - (c - x)
    return high, x - high


@lru_cache(maxsize=1)
def _g17_tables() -> tuple:
    """The tables of _g17_product, built on first use from exact integers:
    for each binade k in [_K_MIN, 1024], E - _E_MIN for the exponent E of
    2**(k-1) and the least float64 whose exponent is E + 1; for each E in
    [_E_MIN, 308], 2**s and hi + lo = 10**(16 - E) / 2**s, hi correctly
    rounded (as int / int is) and split into its halves, lo the rest
    rounded, and hi in (1/2, 2) unless that makes 2**s overflow."""
    least, rows = [], []
    for e in range(_E_MIN, 309):
        # the least float64 whose exponent is E: (10**17 - 0.5) * 10**(E - 17), rounded up
        num, den = (2 * 10**17 - 1) * 10**max(e - 17, 0), 2 * 10**max(17 - e, 0)
        a, b = (num / den).as_integer_ratio()
        least.append(math.nextafter(num / den, math.inf) if a * den < num * b else num / den)
        num, den = 10**max(16 - e, 0), 10**max(e - 16, 0)
        s = min(num.bit_length() - den.bit_length(), 1023)
        num, den = num << max(-s, 0), den << max(s, 0)
        a, b = (num / den).as_integer_ratio()
        rows.append((2.0**s, *_split(num / den), (num * b - a * den) / (den * b)))
    least = np.array(least + [math.inf])  # no float64 reaches E = 309
    first = np.searchsorted(least, np.ldexp(1.0, np.arange(_K_MIN, 1025) - 1), "right") - 1
    return first, least[first + 1], *np.array(rows).T.copy()


@lru_cache(maxsize=1)
def _text_tables() -> tuple:
    """The ASCII digits of every group of 4 digits, a (4 x 10,000) matrix;
    for each E in [_E_MIN, 308], the rows 1-5 and 24-28 of the text
    matrix, two (5 x 633) matrices, and the digit the point follows (-1
    where "0." leads); built on first use."""
    # in int16, so the table's temporaries stay small
    digits = np.arange(10_000, dtype=np.int16) // np.array([[1000], [100], [10], [1]], np.int16)
    digits = (digits % 10 + ord("0")).astype(np.uint8)
    es = range(_E_MIN, 309)
    before = ["0." + "0" * (-1 - e) if -4 <= e < 0 else "" for e in es]
    after = ["" if -4 <= e < 17 else f"e{e:+03d}" for e in es]
    before, after = (np.frombuffer("".join(t.ljust(5, "\0") for t in texts).encode(), np.uint8)
                     .reshape(-1, 5).T.copy() for texts in (before, after))
    point = np.array([max(e, -1) if -4 <= e < 17 else 0 for e in es], np.int8)
    return digits, before, after, point


def _g17_exact(v: float) -> bytes:
    """format(v, ".17g"), NUL-padded to one column of the text matrix."""
    return format(v, ".17g").encode().ljust(_G17_HEIGHT, b"\0")


def _g17_product(a: np.ndarray) -> tuple:
    """For each finite float64 a >= 0: E - _E_MIN, E being the exponent of
    a's text (0 for zeros), and N = a * 10**(16 - E) as P + T, P a float64
    integer and T within 5e-15 of N - P."""
    first, bound, scale, high, low, rest = _g17_tables()
    k = np.subtract(np.frexp(a)[1], _K_MIN, dtype=np.intp)
    e = first[k] + ((a >= bound[k]) | (a == 0.0))  # zeros, in the binade of E = -1, take E = 0
    a = a * scale[e]
    (ah, al), bh, bl = _split(a), high[e], low[e]
    p = a * (bh + bl)  # a * hi, rounded
    return e, p, ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * rest[e]


def _g17_digits(values: np.ndarray) -> tuple:
    """For each float64 v in values: E - _E_MIN (E taken as 0 for zeros
    and non-finite values), whether the product decides v, and the ASCII
    digits of N, a (17 x values) matrix, all zeros where the product does
    not decide.  Apart from _g17, so that its temporaries are freed before
    the text is laid out."""
    finite = np.isfinite(values)
    e, p, t = _g17_product(np.where(finite, np.abs(values), 0.0))
    whole = np.rint(t)
    exact = finite & (np.abs(t - whole) < 0.5 - _G17_TIE)
    n = (p.astype(np.int64) + whole.astype(np.int64)) * exact
    # N's leading digit and four groups of 4 digits, from its two halves
    hi, lo = np.divmod(n, 10**8)
    lead, high, low = hi // 10**8, hi // 10**4, lo // 10**4
    digits = np.empty((17, values.size), np.uint8)
    digits[0] = lead + ord("0")
    for i, group in enumerate((high - lead * 10**4, hi - high * 10**4, low, lo - low * 10**4)):
        np.take(_text_tables()[0], group, axis=1, out=digits[1 + 4 * i:5 + 4 * i])
    return e, exact, digits


def _g17(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The text of format(v, ".17g") for each float64 v in values, as a
    (_G17_HEIGHT x values) uint8 matrix whose column i holds value i's
    characters in order, with NULs between and after them; written into
    out when given."""
    _, before, after, points = _text_tables()
    e, exact, digits = _g17_digits(values)
    text = np.empty((_G17_HEIGHT, values.size), np.uint8) if out is None else out
    text[0] = np.signbit(values) * ord("-")
    np.take(before, e, axis=1, out=text[1:6], mode="clip")
    point = points[e]  # -1: "0." leads
    last = ((digits != ord("0")) * _K[:17]).max(axis=0)  # of the significant digits
    dotted = (point >= 0) & (last > point)
    # the digits after a point one row down, the point in the row they left
    text[6:23] = digits
    np.copyto(text[7:24], digits, where=_K[:17] > np.where(dotted, point, 16))
    text[7 + point[dotted], dotted] = ord(".")
    np.copyto(text[6:24], 0, where=_K > np.maximum(point, last) + dotted)
    np.take(after, e, axis=1, out=text[24:], mode="clip")
    rest = np.flatnonzero(~exact)
    if rest.size:
        exact_text = b"".join(map(_g17_exact, values[rest].tolist()))
        text[:, rest] = np.frombuffer(exact_text, np.uint8).reshape(rest.size, -1).T
    return text


@lru_cache(maxsize=1)
def _x_text(bits: bytes) -> np.ndarray:
    """The x rows of a curve's text matrix: _g17 of the float64 values whose
    bytes are bits, each column's text moved to its top and followed by a
    comma, in as many rows as the longest needs.  Keyed on the bytes, not
    the floats, because 0.0 == -0.0 but they print differently."""
    chars = _g17(np.frombuffer(bits)).T
    size = np.count_nonzero(chars, axis=1)
    text = np.zeros((len(chars), size.max(initial=0) + 1), np.uint8)
    text[np.arange(text.shape[1]) < size[:, None]] = chars[chars != 0]
    text[np.arange(len(chars)), size] = ord(",")
    text = np.ascontiguousarray(text.T)
    text.flags.writeable = False
    return text


# the ",false" and ",true" row ends, NUL-padded to one length
_ROW_ENDS = np.frombuffer(b",false\r\n,true\r\n\0", np.uint8).reshape(2, 8).T


def write_curve_csv(curve: Curve, path) -> None:
    """CSV with header x,value,defined and one row per point of curve,
    each float written as format(v, ".17g") is, by _g17.  The bytes are
    the csv module's: no field needs quoting, lines end in \\r\\n.  The
    columns are read as float64, float64 and bool; DomainError unless
    they are 1-D and of one length.  The x column is formatted once for
    consecutive calls on the same x values."""
    x, value, defined = (np.asarray(c, t) for c, t in zip(curve, (float, float, bool)))
    shapes = [x.shape, value.shape, defined.shape]
    if len(shapes[0]) != 1 or len(set(shapes)) != 1:
        raise DomainError(f"curve columns must be 1-D and of one length, got shapes {shapes}")
    x_text = _x_text(x.tobytes())
    rows = len(x_text)
    # one column per row of the file: x and its comma, the value, the row end
    text = np.empty((rows + _G17_HEIGHT + len(_ROW_ENDS), x.size), np.uint8)
    text[:rows] = x_text
    _g17(value, out=text[rows:rows + _G17_HEIGHT])
    np.take(_ROW_ENDS, defined.view(np.uint8), axis=1, out=text[rows + _G17_HEIGHT:])
    with open(path, "wb") as fh:
        fh.write(b"x,value,defined\r\n")
        fh.write(text.T.tobytes().translate(None, b"\0"))
