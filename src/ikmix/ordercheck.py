"""Grid verification and refutation of stochastic orders between mixtures.

Each of the four checks comes down to one of two tests on the grid: a
pointwise comparison within tolerance, or a log ratio whose every step
must move in one direction (_bad_steps).

  st    sf(m1) <= sf(m2) pointwise
  rh    log cdf(m2) - log cdf(m1) nondecreasing AND log rh(m1) <= log rh(m2)
        pointwise; the two criteria must agree or the verdict degrades to
        inconclusive
  lr    log pdf(m2) - log pdf(m1) nondecreasing  (m1 <= m2 in likelihood ratio)
  r-rh  log rh(m1) - log rh(m2) nonincreasing

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
many as one kernel block of 8192 values holds (8 pairs of 2-component
mixtures on 500 points), and check_order decides the stack of one.  A
stack of one pair whose sides share a component count evaluates both
sides in one kernel call, on their two-row stack (_pair); so do its
crossing search, round by round, and difference_curve.  Each row of a
stack holds the bits of its mixture alone, so every value is the same
either way.

One row loop (_verdicts) builds every verdict.  Points where a compared
value or log is NaN or infinite are counted in nonfinite_points, and st
also skips the points where both survival functions underflow float64
(below 1e-300), counted in skipped_points.  When more than 10% of the
grid is unusable the verdict is inconclusive; so is an rh verdict whose
two criteria disagree.  Otherwise the row's first bad point, if any,
makes the verdict violated, and _verdicts builds its witness, reason and
pending crossing from the test's own arrays: the usable point before
each point, the two compared arrays (a log ratio twice for a step test),
the search function, the reason template and the witness value
transform.

Witness semantics: for pointwise checks, (x, lhs, rhs) are the two
compared values (sf or rh) at the offending x.  For monotonicity checks,
x is the right endpoint of the offending step and lhs/rhs are the ratio
at its two ends.  refined_crossing, when present, is a root inside one
grid step found by the batched bracket search (64 interior points per
vectorised round, down to a relative width of 1e-9): of the difference
of the compared values for st and rh, and of the closed-form slope of
the log ratio for lr and r-rh.  A violated verdict runs that search the
first time its crossing is read, with the search function bound to its
pair's parameter rows when the check ran; to_dict(), equality, hashing
and repr read it.  Scans and fixture replays read only status and
witness, so they never run it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .ikdist import DomainError, _count, _positive
# mixture_sf is no longer called here; perfbench's span test reads it from
# this module, so it stays imported
from .mixture import (_BLOCK_VALUES, FiniteMixture, _evaluate, _exp, _params, _refine_crossing,
                      _survival, mixture_sf)  # noqa: F401

__all__ = [
    "Grid",
    "DEFAULT_GRID",
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
            if self.spacing == "logarithmic":
                xs = np.geomspace(self.x_min, self.x_max, self.points)
            else:
                xs = np.linspace(self.x_min, self.x_max, self.points)
            xs.flags.writeable = False
            self.__dict__["_xs"] = xs
        return xs

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

    def to_dict(self) -> dict:
        return {"x": self.x, "lhs": self.lhs, "rhs": self.rhs}


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


def _previous(usable: np.ndarray, across_gaps: bool) -> np.ndarray:
    """Per point, the index of the point before it if that one is usable,
    or with across_gaps the last usable point before it; -1 if none."""
    prev = np.full(usable.shape, -1)
    before = np.where(usable[:, :-1], np.arange(usable.shape[1] - 1), -1)
    prev[:, 1:] = np.maximum.accumulate(before, axis=1) if across_gaps else before
    return prev


def _exceeds(v1: np.ndarray, v2: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Points where v1 > v2 beyond the tolerance _TOL * (1 + scale)."""
    with np.errstate(invalid="ignore"):
        return v1 > v2 + _TOL * (1.0 + scale)


def _bad_steps(r: np.ndarray, scale: np.ndarray, usable: np.ndarray, prev: np.ndarray,
               nondecreasing: bool) -> np.ndarray:
    """Steps of r between consecutive usable points that break monotonicity
    in the named direction beyond the tolerance _TOL * (1 + scale) at the
    step's left end; entry j is the step from point prev[j] to point j."""
    # prev as indices into the flattened rows; a -1 reads the row's first
    # point, and the mask below drops that step
    left = np.maximum(prev, 0) + np.arange(0, r.size, r.shape[1])[:, None]
    with np.errstate(invalid="ignore"):
        diffs = r - r.take(left)
    tau = _TOL * (1.0 + scale.take(left))
    return (diffs < -tau if nondecreasing else diffs > tau) & usable & (prev >= 0)


def _magnitude(*logs: np.ndarray) -> np.ndarray:
    """The tolerance scale of values built from logs: the largest |log|."""
    return np.max(np.abs(logs), axis=0)


def _pair(fn, x, m1, m2, *args, **kwargs) -> tuple:
    """fn(x, m, ...) for m = m1 and for m = m2: the two sides' values, or
    with fn = _evaluate the two sides' values of each output.  fn takes a
    stack of mixtures, one row per mixture (_survival, _rh_slope and
    _evaluate do); m1 and m2 are mixtures, parameter arrays or stacks of
    them (see _stacked).  A single pair whose sides share a component
    count takes one call on its two-row stack: each row keeps the bits of
    its mixture alone, and the components are cut by the number of
    points only.  Stacks of several pairs, which check_orders sizes per
    side, and sides of two component counts take one call per side."""
    m1, m2 = _params(m1), _params(m2)
    if m1.shape != m2.shape or m1.ndim == 3 and len(m1) > 1:
        v1, v2 = fn(x, m1, *args, **kwargs), fn(x, m2, *args, **kwargs)
        return tuple(zip(v1, v2)) if isinstance(v1, tuple) else (v1, v2)
    out = fn(x, np.stack((m1, m2)).reshape(-1, *m1.shape[-2:]), *args, **kwargs)
    shape = (2,) + m1.shape[:-2] + np.shape(x)
    return tuple(v.reshape(shape) for v in out) if isinstance(out, tuple) else out.reshape(shape)


def _sf_difference(m1, m2, x):
    """sf(m1) - sf(m2) at x, by one _pair: the st check's search, the sf
    curve and the sf-difference spot values."""
    return np.subtract(*_pair(_survival, x, m1, m2))


def _verdicts(kind: str, grid: Grid, m1s, m2s, skip: np.ndarray, nonfinite: np.ndarray,
              bad: np.ndarray, prev: np.ndarray, v1: np.ndarray, v2: np.ndarray, step: bool,
              search, reason: str, value, split: dict | None = None) -> list[OrderVerdict]:
    """Each row's verdict, built once.  A row with over 10% of the grid
    unusable (skip or nonfinite) is inconclusive and names each count;
    passing leaves at least two usable points on any grid.  Then a row in
    split is inconclusive with the reason it maps to; a row with no point
    in bad holds on the grid; any other row is violated at its first bad
    point k, with p = prev[k].  Its witness holds x[k], v1 at p for a step
    test (v1 = v2, a log ratio) or at k for a pointwise one, and v2 at k,
    through value, which takes the stack's witness values in one array;
    reason is a template for the witness x.  Its crossing, the root of
    search(m1, m2, x) bound to the pair's parameter rows, is refined on
    first read inside the step from p to k: always for a step test, and
    for a pointwise test when p is strictly ordered (v1 < v2 there)."""
    xs = grid.xs()
    rows = list(zip(skip.sum(axis=1).tolist(), nonfinite.sum(axis=1).tolist(),
                    bad.any(axis=1).tolist(), bad.argmax(axis=1).tolist()))
    reasons = []  # an inconclusive row's reason, else None
    for i, (n_skip, n_nonfinite, _, _) in enumerate(rows):
        causes = []
        if n_skip + n_nonfinite > _SKIP_FRACTION * grid.points:
            if n_skip:
                causes.append(f"{n_skip} of {grid.points} grid points underflowed float64")
            if n_nonfinite:
                causes.append(f"{n_nonfinite} of {grid.points} grid points were non-finite "
                              "(NaN or inf)")
        elif split and i in split:
            causes.append(split[i])
        reasons.append("; ".join(causes) or None)
    hit = [i for i, row in enumerate(rows) if row[2] and reasons[i] is None]
    found = {}
    if hit:
        ks = [rows[i][3] for i in hit]
        ps = prev[hit, ks]
        lhs, rhs = value(np.stack((v1[hit, ps if step else ks], v2[hit, ks]))).tolist()
        for i, k, p, left, right in zip(hit, ks, ps.tolist(), lhs, rhs):
            x, refined = float(xs[k]), None
            if step or (p >= 0 and v1[i, p] - v2[i, p] < 0.0):
                refined = partial(_refine_crossing, partial(search, m1s[i], m2s[i]),
                                  float(xs[p]), x)
            found[i] = (Witness(x, left, right), refined, reason.format(x))
    return [OrderVerdict(kind, "violated", *found[i], n_skip, n_nonfinite, grid) if i in found
            else OrderVerdict(kind, "holds_on_grid" if reasons[i] is None else "inconclusive",
                              None, None, reasons[i], n_skip, n_nonfinite, grid)
            for i, (n_skip, n_nonfinite, _, _) in enumerate(rows)]


def _check_ratio_monotone(kind: str, grid: Grid, log_num: np.ndarray, log_den: np.ndarray,
                          scale: np.ndarray, slope, m1s, m2s, *,
                          nondecreasing: bool) -> list[OrderVerdict]:
    """Common body of the lr and r-rh checks: log_num - log_den must be
    monotone on the grid in the named direction, within the tolerance of
    scale.  A violated verdict refines the root of slope(m1, m2, x), the
    vectorised derivative of that log ratio, inside the offending step;
    the ratios at the ends of every violated row's step take one exp."""
    with np.errstate(invalid="ignore"):
        log_ratio = log_num - log_den
    nonfinite = ~np.isfinite(log_ratio)
    usable = ~nonfinite
    prev = _previous(usable, across_gaps=True)
    direction = "nondecreasing" if nondecreasing else "nonincreasing"
    return _verdicts(kind, grid, m1s, m2s, np.zeros_like(nonfinite), nonfinite,
                     _bad_steps(log_ratio, scale, usable, prev, nondecreasing), prev,
                     log_ratio, log_ratio, True, slope,
                     f"ratio fails to be {direction} on the step ending at x={{!r}}", _exp)


def _rh_slope(x, m: np.ndarray) -> np.ndarray:
    """d/dx log rh of m, one mixture or a stack, at x: d/dx log pdf - rh,
    since d/dx log cdf = rh."""
    log_rh, slope = _evaluate(x, m, ("rh",), slope=True)
    return slope - _exp(log_rh)


# ---------------------------------------------------------------------------
# the four checks, each over the pairs (m1s[i], m2s[i]) of parameter arrays
# ---------------------------------------------------------------------------


def _st(m1s: np.ndarray, m2s: np.ndarray, grid: Grid) -> list[OrderVerdict]:
    s1, s2 = _pair(_survival, grid.xs(), m1s, m2s)
    nonfinite = ~(np.isfinite(s1) & np.isfinite(s2))
    skip = ~nonfinite & (s1 < _UNDERFLOW) & (s2 < _UNDERFLOW)
    usable = ~(skip | nonfinite)
    return _verdicts("st", grid, m1s, m2s, skip, nonfinite,
                     usable & _exceeds(s1, s2, np.maximum(s1, s2)),
                     _previous(usable, across_gaps=False), s1, s2, False, _sf_difference,
                     "sf(m1) exceeds sf(m2) at x={!r}", np.asarray)


def _rh(m1s: np.ndarray, m2s: np.ndarray, grid: Grid) -> list[OrderVerdict]:
    (F1, F2), (f1, f2), (h1, h2) = _pair(_evaluate, grid.xs(), m1s, m2s, ("cdf", "pdf", "rh"))
    nonfinite = ~(np.isfinite(h1) & np.isfinite(h2))
    usable = ~nonfinite
    prev = _previous(usable, across_gaps=True)
    scale = _magnitude(F1, f1, F2, f2)
    with np.errstate(invalid="ignore"):
        ratio_bad = _bad_steps(F2 - F1, scale, usable, prev, nondecreasing=True).any(axis=1)
    viol = usable & _exceeds(h1, h2, scale)
    split = {}
    for i in np.flatnonzero(ratio_bad != viol.any(axis=1)).tolist():
        which = "cdf-ratio monotonicity" if ratio_bad[i] else "pointwise reversed hazards"
        split[i] = f"the two rh criteria disagree (only {which} flagged a violation)"
    return _verdicts("rh", grid, m1s, m2s, np.zeros_like(nonfinite), nonfinite, viol, prev,
                     h1, h2, False,
                     lambda m1, m2, x: np.subtract(*_pair(_evaluate, x, m1, m2, ("rh",))[0]),
                     "rh(m1) exceeds rh(m2) at x={!r}, confirmed by the cdf ratio", _exp, split)


def _lr(m1s: np.ndarray, m2s: np.ndarray, grid: Grid) -> list[OrderVerdict]:
    (f1, f2), = _pair(_evaluate, grid.xs(), m1s, m2s, ("pdf",))
    # m2 first: the slope of log pdf(m2) - log pdf(m1), as np.subtract(v2, v1)
    return _check_ratio_monotone(
        "lr", grid, f2, f1, _magnitude(f1, f2),
        lambda m1, m2, x: np.subtract(*_pair(_evaluate, x, m2, m1, (), slope=True)[0]),
        m1s, m2s, nondecreasing=True)


def _r_rh(m1s: np.ndarray, m2s: np.ndarray, grid: Grid) -> list[OrderVerdict]:
    (F1, F2), (f1, f2), (h1, h2) = _pair(_evaluate, grid.xs(), m1s, m2s, ("cdf", "pdf", "rh"))
    return _check_ratio_monotone("r_rh", grid, h1, h2, _magnitude(F1, f1, F2, f2),
                                 lambda m1, m2, x: np.subtract(*_pair(_rh_slope, x, m1, m2)),
                                 m1s, m2s, nondecreasing=False)


_CHECKS = {"st": _st, "rh": _rh, "lr": _lr, "r_rh": _r_rh}
ORDER_KINDS = tuple(_CHECKS)


def check_orders(kind: str, lhs: tuple, rhs: tuple,
                 grid: Grid = DEFAULT_GRID) -> list[OrderVerdict]:
    """Decide, for each pair i, that lhs mixture i <= rhs mixture i in the
    order kind (one of ORDER_KINDS) on grid, in pair order.  lhs and rhs
    are each a (weights, alphas, betas) triple of pairs x components
    arrays, as theorems.check_stack returns them (weights as a
    FiniteMixture holds them); the sides may differ in component count.
    The pairs are decided in chunks of _BLOCK_VALUES // (components *
    grid.points) with the larger count (at least one), one kernel pass per
    side each, but one pass on both sides' two-row stack for a chunk of
    one pair whose sides share a component count; each verdict is the one
    its pair gets alone."""
    if kind not in _CHECKS:
        raise DomainError(f"unknown order kind {kind!r}; expected one of {ORDER_KINDS}")
    for name, side in (("lhs", lhs), ("rhs", rhs)):
        if len({np.shape(v) for v in side}) != 1:
            raise DomainError(f"{name} needs one component count, got (weights, alphas, betas) "
                              f"shaped {[np.shape(v) for v in side]}")
    m1s, m2s = np.stack(lhs, axis=1), np.stack(rhs, axis=1)
    if len(m1s) != len(m2s):
        raise DomainError(f"{len(m1s)} lhs mixtures vs {len(m2s)} rhs mixtures")
    chunk = max(1, _BLOCK_VALUES // (max(m1s.shape[2], m2s.shape[2]) * grid.points))
    return [verdict for start in range(0, len(m1s), chunk)
            for verdict in _CHECKS[kind](m1s[start:start + chunk], m2s[start:start + chunk],
                                         grid)]


def check_order(kind: str, m1: FiniteMixture, m2: FiniteMixture,
                grid: Grid = DEFAULT_GRID) -> OrderVerdict:
    """m1 <= m2 in the order kind (one of ORDER_KINDS) on grid:
    check_orders on one-row arrays of m1 and m2."""
    return check_orders(kind, *([[v] for v in (m.weights, m.alphas, m.betas)] for m in (m1, m2)),
                        grid)[0]


# ---------------------------------------------------------------------------
# curve extraction
# ---------------------------------------------------------------------------

# the curve that shows each order kind: the sf difference for st, the m1/m2
# ratio of the named function for the others
CURVE_FOR_KIND = {"st": "sf", "rh": "cdf_ratio", "lr": "pdf_ratio", "r_rh": "rh_ratio"}
CURVE_KINDS = tuple(CURVE_FOR_KIND.values())


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
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.exp(np.subtract(*_pair(_evaluate, xs, m1, m2, (name,))[0]))
    defined = np.isfinite(vals)
    vals.flags.writeable = defined.flags.writeable = False
    return Curve(xs, vals, defined)


# Exact %.17g text for float64 arrays.  A finite v != 0 with exponent
# E = floor(log10|v|) prints the 17 digits of N = |v| * 10**(16 - E), rounded.
# N', that product in np.longdouble with the power parsed from its string, is
# rounded twice by at most eps/2, so |N' - N| < 1e17 * eps (0.011 on x87).
# Where N' clears 1e16 and lies more than a margin of 2e17 * eps from a tie,
# N' rounds as N does and E is v's exponent; zeros take N = 0; every other
# value (NaN, inf, a misjudged E, a near-tie; every value where np.longdouble
# is no wider than float64, the margin then exceeding 0.5) goes through
# _g17_exact.  The text matrix has one column per value and NULs in empty
# slots; its rows: a sign, "0." and up to 3 zeros (E < 0, fixed notation),
# the 17 digits with a slot for a point after each of the first 16, then
# "e", a sign and 3 digits.
_G17_HEIGHT = 44
_Q_MIN = -292  # q = 16 - E lies in [-292, 340] for every finite v != 0
_K = np.arange(17, dtype=np.int8)[:, None]
_P9, _P8 = (10.0 ** np.arange(k - 1, -1, -1)[:, None] for k in (9, 8))
_P3 = np.array([[100], [10], [1]])


@lru_cache(maxsize=1)
def _g17_tables() -> tuple:
    """10**q for q in [_Q_MIN, 340], the margin 2e17 * eps and 1e16 +
    margin, in np.longdouble; built on first use."""
    margin = 2e17 * float(np.finfo(np.longdouble).eps)
    pow10 = np.array([f"1e{q}" for q in range(_Q_MIN, 341)], dtype=np.longdouble)
    return pow10, margin, np.longdouble(10**16) + np.longdouble(margin)


def _g17_exact(v: float) -> bytes:
    """format(v, ".17g"), NUL-padded to one column of the text matrix."""
    return format(v, ".17g").encode().ljust(_G17_HEIGHT, b"\0")


def _g17(values: np.ndarray) -> np.ndarray:
    """The text of format(v, ".17g") for each float64 v in values, as a
    (_G17_HEIGHT x values) uint8 matrix whose column i holds value i's
    characters in order, with NULs between and after them."""
    pow10, margin, least = _g17_tables()
    a = np.abs(values)
    finite = np.isfinite(a)
    a = np.where(finite, a, 0.0)
    e = np.floor(np.log10(np.where(a > 0.0, a, 1.0))).astype(np.int16)  # 0 for 0
    with np.errstate(over="ignore", invalid="ignore"):
        big = a.astype(np.longdouble) * pow10[16 - _Q_MIN - e]
        frac, whole = np.modf(big)
        frac = frac.astype(np.float64)
        n = whole.astype(np.uint64) + (frac > 0.5)
    exact = (finite & (np.abs(frac - 0.5) > margin) & (n < 10**17)
             & ((big >= least) | (a == 0.0)))
    n *= exact
    # the digits, exact in float64: floor(c / 10**k) for c below 1e9
    hi, lo = (half.astype(np.float64) for half in np.divmod(n, 10**8))
    digits = np.empty((17, values.size))
    np.divide(hi, _P9, out=digits[:9])
    np.divide(lo, _P8, out=digits[9:])
    np.floor(digits, out=digits)
    digits[1:9] -= 10.0 * digits[:8]
    digits[10:] -= 10.0 * digits[9:16]
    digits = digits.astype(np.uint8)
    fixed = (e >= -4) & (e < 17)
    point = np.where(fixed, np.maximum(e, -1), 0).astype(np.int8)  # -1: "0." leads
    last = ((digits != 0) * _K).max(axis=0)  # of the significant digits
    text = np.zeros((_G17_HEIGHT, values.size), np.uint8)
    text[0] = np.signbit(values) * ord("-")
    lead = fixed & (e < 0)
    text[1], text[2] = lead * ord("0"), lead * ord(".")
    text[3:6] = (lead & (_K[:3] < -1 - e)) * ord("0")
    text[6:39:2] = (digits + ord("0")) * (_K <= np.maximum(point, last))
    dotted = np.flatnonzero((point >= 0) & (last > point))
    text[7 + 2 * point[dotted], dotted] = ord(".")
    sci, exponent = ~fixed, np.abs(e)
    text[39], text[40] = sci * ord("e"), sci * np.where(e < 0, ord("-"), ord("+"))
    # the hundreds digit only from 100 on
    text[41:] = (sci & (_K[:3] >= (exponent < 100))) * (ord("0") + exponent // _P3 % 10)
    rest = np.flatnonzero(~exact)
    if rest.size:
        exact_text = b"".join(map(_g17_exact, values[rest].tolist()))
        text[:, rest] = np.frombuffer(exact_text, np.uint8).reshape(rest.size, -1).T
    return text


@lru_cache(maxsize=1)
def _x_text(bits: bytes) -> np.ndarray:
    """_g17 of the float64 values whose bytes are bits.  Keyed on the
    bytes, not the floats, because 0.0 == -0.0 but they print differently."""
    return _g17(np.frombuffer(bits))


# the ",false" and ",true" row ends, NUL-padded to one length
_ROW_ENDS = np.frombuffer(b",false\r\n,true\r\n\0", np.uint8).reshape(2, 8).T


def write_curve_csv(curve: Curve, path) -> None:
    """CSV with header x,value,defined and one row per point of curve,
    each float written as format(v, ".17g") is, by _g17.  The bytes are
    the csv module's: no field needs quoting, lines end in \\r\\n.  The x
    column is formatted once for consecutive calls on the same x values."""
    x, value, defined = curve
    text = np.vstack([_x_text(x.tobytes()), np.full((1, x.size), ord(","), np.uint8),
                      _g17(value), _ROW_ENDS[:, defined.view(np.uint8)]])
    with open(path, "wb") as fh:
        fh.write(b"x,value,defined\r\n" + text.T.tobytes().translate(None, b"\0"))
