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

Every check passes one usable-point gate (_gate): points where a compared
value or log is NaN or infinite are counted in nonfinite_points, and st
also skips the points where both survival functions underflow float64
(below 1e-300), counted in skipped_points.  When more than 10% of the
grid is unusable the verdict is inconclusive.

Witness semantics: for pointwise checks, (x, lhs, rhs) are the two
compared values (sf or rh) at the offending x.  For monotonicity checks,
x is the right endpoint of the offending step and lhs/rhs are the ratio
at its two ends.  refined_crossing, when present, is a root inside one
grid step found by the batched bracket search (64 interior points per
vectorised round, down to a relative width of 1e-9): of the difference
of the compared values for st and rh, and of the closed-form slope of
the log ratio for lr and r-rh.  A violated verdict runs that search the
first time its crossing is read, with the search function bound when the
check ran; to_dict(), equality, hashing and repr read it.  Scans and
fixture replays read only status and witness, so they never run it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial

import numpy as np

from .ikdist import DomainError
from .mixture import FiniteMixture, _evaluate, _exp, _refine_crossing, mixture_sf

__all__ = [
    "Grid",
    "DEFAULT_GRID",
    "Witness",
    "OrderVerdict",
    "check_st",
    "check_rh",
    "check_lr",
    "check_r_rh",
    "check_order",
    "CURVE_FOR_KIND",
    "CURVE_KINDS",
    "difference_curve",
    "write_curve_csv",
]

_TOL = 1e-12
_UNDERFLOW = 1e-300
_SKIP_FRACTION = 0.10


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
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise DomainError("grid bounds must be finite")
        if not (0.0 < self.x_min < self.x_max):
            raise DomainError("grid requires 0 < x_min < x_max")
        if int(self.points) < 2:
            raise DomainError("grid needs at least 2 points")
        object.__setattr__(self, "points", int(self.points))

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
        spacing = {"log": "logarithmic", "logarithmic": "logarithmic",
                   "lin": "linear", "linear": "linear"}.get(parts[3])
        if spacing is None:
            raise DomainError(f"unknown spacing {parts[3]!r}")
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
# shared machinery
# ---------------------------------------------------------------------------


def _gate(kind: str, grid: Grid, skip: np.ndarray, nonfinite: np.ndarray):
    """The usable-point gate of every check: the usable mask and a maker
    for the check's verdict, with kind, grid and both counts filled in.
    Over 10% of the grid unusable gives mask None and the inconclusive
    maker; passing leaves at least two usable points on any grid."""
    n_skip = int(np.count_nonzero(skip))
    n_nonfinite = int(np.count_nonzero(nonfinite))
    verdict = partial(OrderVerdict, kind=kind, grid=grid, skipped_points=n_skip,
                      nonfinite_points=n_nonfinite)
    if n_skip + n_nonfinite <= _SKIP_FRACTION * grid.points:
        return ~(skip | nonfinite), verdict
    causes = []
    if n_skip:
        causes.append(f"{n_skip} of {grid.points} grid points underflowed float64")
    if n_nonfinite:
        causes.append(f"{n_nonfinite} of {grid.points} grid points were non-finite (NaN or inf)")
    return None, partial(verdict, status="inconclusive", reason="; ".join(causes))


def _exceeds(v1: np.ndarray, v2: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Points where v1 > v2 beyond the tolerance _TOL * (1 + scale)."""
    return v1 > v2 + _TOL * (1.0 + scale)


def _bad_steps(r: np.ndarray, scale: np.ndarray, nondecreasing: bool) -> np.ndarray:
    """Steps of r that break monotonicity in the named direction beyond
    the tolerance _TOL * (1 + scale) at the step's left end; entry k is
    the step from r[k] to r[k + 1]."""
    diffs = np.diff(r)
    tau = _TOL * (1.0 + scale[:-1])
    return diffs < -tau if nondecreasing else diffs > tau


def _magnitude(*logs: np.ndarray) -> np.ndarray:
    """The tolerance scale of values built from logs: the largest |log|."""
    return np.max(np.abs(logs), axis=0)


def _pointwise_verdict(verdict, xs: np.ndarray, v1: np.ndarray, v2: np.ndarray,
                       scale: np.ndarray, usable: np.ndarray, diff_fn, reason: str,
                       value) -> OrderVerdict:
    """Common tail of the st and rh checks: v1 <= v2 must hold at every
    usable point, and fails first where it does not.  The crossing of
    diff_fn = v1 - v2 is refined inside the step from the previous point
    when that point is usable and strictly ordered, on first read.  reason
    is a template for the witness x; value maps v1 and v2 to the witness's
    values."""
    viol = usable & _exceeds(v1, v2, scale)
    if not np.any(viol):
        return verdict(status="holds_on_grid")
    k = int(np.argmax(viol))
    witness = Witness(x=float(xs[k]), lhs=value(v1[k]), rhs=value(v2[k]))
    refined = None
    if k > 0 and usable[k - 1] and v1[k - 1] - v2[k - 1] < 0.0:
        refined = partial(_refine_crossing, diff_fn, float(xs[k - 1]), float(xs[k]))
    return verdict(status="violated", witness=witness, refined_crossing=refined,
                   reason=reason.format(witness.x))


def _check_ratio_monotone(kind: str, grid: Grid, log_num: np.ndarray, log_den: np.ndarray,
                          scale: np.ndarray, slope, *, nondecreasing: bool) -> OrderVerdict:
    """Common body of the lr and r-rh checks: log_num - log_den must be
    monotone on the grid in the named direction, within the tolerance of
    scale.  A violated verdict refines the root of slope, the vectorised
    derivative of that log ratio, inside the offending step."""
    xs = grid.xs()
    with np.errstate(invalid="ignore"):
        log_ratio = log_num - log_den
    usable, verdict = _gate(kind, grid, False, ~np.isfinite(log_ratio))
    if usable is None:
        return verdict()
    idx = np.nonzero(usable)[0]
    r = log_ratio[idx]
    bad = _bad_steps(r, scale[idx], nondecreasing)
    if not np.any(bad):
        return verdict(status="holds_on_grid")
    k = int(np.argmax(bad))
    x_lo, x_hi = float(xs[idx[k]]), float(xs[idx[k + 1]])
    witness = Witness(x=x_hi, lhs=_exp(r[k]), rhs=_exp(r[k + 1]))
    direction = "nondecreasing" if nondecreasing else "nonincreasing"
    return verdict(status="violated", witness=witness,
                   refined_crossing=partial(_refine_crossing, slope, x_lo, x_hi),
                   reason=f"ratio fails to be {direction} on the step ending at x={x_hi!r}")


def _rh_slope(x, m: FiniteMixture) -> np.ndarray:
    """d/dx log rh of m at x: d/dx log pdf - rh, since d/dx log cdf = rh."""
    log_rh, slope = _evaluate(x, m, ("rh",), slope=True)
    return slope - _exp(log_rh)


# ---------------------------------------------------------------------------
# the four checks
# ---------------------------------------------------------------------------


def check_st(m1: FiniteMixture, m2: FiniteMixture, grid: Grid = DEFAULT_GRID) -> OrderVerdict:
    """m1 <= m2 in the usual stochastic order: sf(m1) <= sf(m2) on the grid."""
    xs = grid.xs()
    s1 = mixture_sf(xs, m1)
    s2 = mixture_sf(xs, m2)
    nonfinite = ~(np.isfinite(s1) & np.isfinite(s2))
    skip = ~nonfinite & (s1 < _UNDERFLOW) & (s2 < _UNDERFLOW)
    usable, verdict = _gate("st", grid, skip, nonfinite)
    if usable is None:
        return verdict()
    return _pointwise_verdict(verdict, xs, s1, s2, np.maximum(s1, s2), usable,
                              lambda x: mixture_sf(x, m1) - mixture_sf(x, m2),
                              "sf(m1) exceeds sf(m2) at x={!r}", float)


def check_rh(m1: FiniteMixture, m2: FiniteMixture, grid: Grid = DEFAULT_GRID) -> OrderVerdict:
    """m1 <= m2 in the reversed hazard order: log cdf(m2) - log cdf(m1)
    nondecreasing and, decided independently from the same kernel pass,
    log rh(m1) <= log rh(m2) pointwise.  A split decision signals numerical
    trouble and yields inconclusive."""
    xs = grid.xs()
    F1, f1, h1 = _evaluate(xs, m1, ("cdf", "pdf", "rh"))
    F2, f2, h2 = _evaluate(xs, m2, ("cdf", "pdf", "rh"))
    usable, verdict = _gate("rh", grid, False, ~(np.isfinite(h1) & np.isfinite(h2)))
    if usable is None:
        return verdict()
    idx = np.nonzero(usable)[0]
    h1, h2, scale = h1[idx], h2[idx], _magnitude(F1[idx], f1[idx], F2[idx], f2[idx])
    ratio_violated = bool(np.any(_bad_steps(F2[idx] - F1[idx], scale, nondecreasing=True)))
    if ratio_violated != bool(np.any(_exceeds(h1, h2, scale))):
        which = "cdf-ratio monotonicity" if ratio_violated else "pointwise reversed hazards"
        return verdict(status="inconclusive",
                       reason=f"the two rh criteria disagree (only {which} flagged a violation)")
    # idx keeps usable points only, so every previous point is usable
    return _pointwise_verdict(
        verdict, xs[idx], h1, h2, scale, np.ones(idx.size, dtype=bool),
        lambda x: _evaluate(x, m1, ("rh",))[0] - _evaluate(x, m2, ("rh",))[0],
        "rh(m1) exceeds rh(m2) at x={!r}, confirmed by the cdf ratio", _exp)


def check_lr(m1: FiniteMixture, m2: FiniteMixture, grid: Grid = DEFAULT_GRID) -> OrderVerdict:
    """m1 <= m2 in the likelihood ratio order: pdf(m2)/pdf(m1) nondecreasing."""
    f1 = _evaluate(grid.xs(), m1, ("pdf",))[0]
    f2 = _evaluate(grid.xs(), m2, ("pdf",))[0]
    return _check_ratio_monotone(
        "lr", grid, f2, f1, _magnitude(f1, f2),
        lambda x: _evaluate(x, m2, (), slope=True)[0] - _evaluate(x, m1, (), slope=True)[0],
        nondecreasing=True)


def check_r_rh(m1: FiniteMixture, m2: FiniteMixture, grid: Grid = DEFAULT_GRID) -> OrderVerdict:
    """m1 <= m2 in the reversed-hazard-ratio sense: rh(m1)/rh(m2) nonincreasing."""
    F1, f1, h1 = _evaluate(grid.xs(), m1, ("cdf", "pdf", "rh"))
    F2, f2, h2 = _evaluate(grid.xs(), m2, ("cdf", "pdf", "rh"))
    return _check_ratio_monotone("r_rh", grid, h1, h2, _magnitude(F1, f1, F2, f2),
                                 lambda x: _rh_slope(x, m1) - _rh_slope(x, m2),
                                 nondecreasing=False)


_CHECKS = {"st": check_st, "rh": check_rh, "lr": check_lr, "r_rh": check_r_rh}
ORDER_KINDS = tuple(_CHECKS)


def check_order(kind: str, m1: FiniteMixture, m2: FiniteMixture,
                grid: Grid = DEFAULT_GRID) -> OrderVerdict:
    try:
        fn = _CHECKS[kind]
    except KeyError:
        raise DomainError(f"unknown order kind {kind!r}; expected one of {ORDER_KINDS}") from None
    return fn(m1, m2, grid)


# ---------------------------------------------------------------------------
# curve extraction
# ---------------------------------------------------------------------------

# the curve that shows each order kind: the sf difference for st, the m1/m2
# ratio of the named function for the others
CURVE_FOR_KIND = {"st": "sf", "rh": "cdf_ratio", "lr": "pdf_ratio", "r_rh": "rh_ratio"}
CURVE_KINDS = tuple(CURVE_FOR_KIND.values())


def difference_curve(m1: FiniteMixture, m2: FiniteMixture, grid: Grid,
                     which: str) -> list[tuple[float, float, bool]]:
    """Tabulate the comparison curve between two mixtures.

    which = 'sf' gives sf(m1) - sf(m2); the ratio variants give the m1/m2
    quotient of the named function, as exp of the difference of its logs.
    Rows are (x, value, defined) in ascending x; a row is undefined when
    its value is not finite.
    """
    if which not in CURVE_KINDS:
        raise DomainError(f"unknown curve kind {which!r}; expected one of {CURVE_KINDS}")
    xs = grid.xs()
    if which == "sf":
        vals = mixture_sf(xs, m1) - mixture_sf(xs, m2)
    else:
        name = which.removesuffix("_ratio")
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.exp(_evaluate(xs, m1, (name,))[0] - _evaluate(xs, m2, (name,))[0])
    return list(zip(xs.tolist(), vals.tolist(), np.isfinite(vals).tolist()))


@lru_cache(maxsize=1)
def _x_column(bits: bytes) -> tuple[str, ...]:
    """The formatted x fields, each with its comma, of the float64 values
    whose bytes are bits.  Keyed on the bytes, not the floats, because
    0.0 == -0.0 but they print differently."""
    return tuple(f"{x:.17g}," for x in array("d", bits))


def write_curve_csv(rows: list[tuple[float, float, bool]], path) -> None:
    """CSV with header x,value,defined; 17 significant digits throughout.
    The bytes are the csv module's: no field needs quoting, lines end in \\r\\n.
    The x column is formatted once for consecutive calls on the same x values."""
    xs = _x_column(array("d", [row[0] for row in rows]).tobytes())
    lines = ["x,value,defined"]
    lines += [f"{x}{v:.17g},{'true' if d else 'false'}" for x, (_, v, d) in zip(xs, rows)]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")
