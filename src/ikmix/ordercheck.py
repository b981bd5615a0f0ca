"""Grid verification and refutation of stochastic orders between mixtures.

Each of the four checks comes down to one of two tests on the grid: a
pointwise comparison within tolerance, or a ratio whose every step must
move in one direction (_bad_steps).

  st    sf(m1) <= sf(m2) pointwise
  rh    cdf(m2)/cdf(m1) nondecreasing AND reversed hazards pointwise
        ordered; the two criteria must agree or the verdict degrades to
        inconclusive
  lr    pdf(m2)/pdf(m1) nondecreasing  (m1 <= m2 in likelihood ratio)
  r-rh  rh(m1)/rh(m2) nonincreasing

A verdict of holds_on_grid is exactly that: a statement about the sampled
grid, not a proof.  violated, by contrast, is a hard refutation and comes
with the witness that produced it.  Comparisons carry a relative-absolute
tolerance tau = 1e-12 * (1 + magnitude) so that ties never flip verdicts.

Every check passes one usable-point gate (_gate).  Grid points where the
compared quantities underflow float64 (below 1e-300) are skipped and
counted in skipped_points; points where either compared value is NaN or
infinite are unusable too and counted apart in nonfinite_points.  When
more than 10% of the grid is unusable the verdict is inconclusive rather
than a claim built on zeros or NaN.  st skips a point for underflow only
when both sides underflow; rh, lr and r-rh skip it when either side does,
since the quotient is then meaningless.

Witness semantics: for pointwise checks, (x, lhs, rhs) are the two
compared values at the offending x.  For monotonicity checks, x is the
right endpoint of the offending step and lhs/rhs are the ratio at the
left and right endpoints.  refined_crossing, when present, is a root of
the deciding sign function inside one grid step, found by a batched
bracket search: each round evaluates 64 interior points of the bracket
in one vectorised call and keeps the first sign change, down to a
relative width of 1e-9.  A violated verdict runs that search the first
time its crossing is read, with the search function bound when the check
ran; to_dict(), equality, hashing and repr read it.  Scans and fixture
replays read only status and witness, so they never run it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .ikdist import DomainError
from .mixture import (
    EVALUATORS,
    FiniteMixture,
    _evaluate,
    _refine_crossing,
    mixture_pdf,
    mixture_reversed_hazard,
    mixture_sf,
)

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
_SLOPE_OFFSET = 1e-6


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

    def to_dict(self) -> dict:
        return {"x_min": self.x_min, "x_max": self.x_max,
                "points": self.points, "spacing": self.spacing}


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

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "status": self.status,
            "witness": self.witness.to_dict() if self.witness else None,
            "refined_crossing": self.refined_crossing,
            "reason": self.reason,
            "skipped_points": self.skipped_points,
            "nonfinite_points": self.nonfinite_points,
            "grid": self.grid.to_dict(),
        }


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


def _exceeds(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Points where v1 > v2 beyond the tolerance."""
    return v1 > v2 + _TOL * (1.0 + np.maximum(np.abs(v1), np.abs(v2)))


def _bad_steps(r: np.ndarray, nondecreasing: bool) -> np.ndarray:
    """Steps of r that break monotonicity in the named direction beyond
    the tolerance; entry k is the step from r[k] to r[k + 1]."""
    diffs = np.diff(r)
    tau = _TOL * (1.0 + np.abs(r[:-1]))
    return diffs < -tau if nondecreasing else diffs > tau


def _pointwise_verdict(verdict, xs: np.ndarray, v1: np.ndarray, v2: np.ndarray,
                       usable: np.ndarray, diff_fn, reason: str) -> OrderVerdict:
    """Common tail of the st and rh checks: v1 <= v2 must hold at every
    usable point, and fails first where it does not.  The crossing of
    diff_fn = v1 - v2 is refined inside the step from the previous point
    when that point is usable and strictly ordered, on first read.  reason
    is a template for the witness x."""
    viol = usable & _exceeds(v1, v2)
    if not np.any(viol):
        return verdict(status="holds_on_grid")
    k = int(np.argmax(viol))
    witness = Witness(x=float(xs[k]), lhs=float(v1[k]), rhs=float(v2[k]))
    refined = None
    if k > 0 and usable[k - 1] and v1[k - 1] - v2[k - 1] < 0.0:
        refined = partial(_refine_crossing, diff_fn, float(xs[k - 1]), float(xs[k]))
    return verdict(status="violated", witness=witness, refined_crossing=refined,
                   reason=reason.format(witness.x))


def _check_ratio_monotone(kind: str, grid: Grid, fn, top: FiniteMixture,
                          bottom: FiniteMixture, *, nondecreasing: bool) -> OrderVerdict:
    """Common body of the lr and r-rh checks: the ratio fn(top)/fn(bottom)
    of the mixture function fn must be monotone in the named direction."""
    xs = grid.xs()
    num = fn(xs, top)
    den = fn(xs, bottom)
    nonfinite = ~(np.isfinite(num) & np.isfinite(den))
    skip = ~nonfinite & ((num < _UNDERFLOW) | (den < _UNDERFLOW))
    usable, verdict = _gate(kind, grid, skip, nonfinite)
    if usable is None:
        return verdict()
    idx = np.nonzero(usable)[0]
    r = num[idx] / den[idx]
    bad = _bad_steps(r, nondecreasing)
    if not np.any(bad):
        return verdict(status="holds_on_grid")
    k = int(np.argmax(bad))
    x_lo, x_hi = float(xs[idx[k]]), float(xs[idx[k + 1]])
    witness = Witness(x=x_hi, lhs=float(r[k]), rhs=float(r[k + 1]))

    def slope(x: np.ndarray) -> np.ndarray:
        # both offsets in one call: one evaluation per mixture per round
        both = np.concatenate((x * (1.0 + _SLOPE_OFFSET), x * (1.0 - _SLOPE_OFFSET)))
        r = fn(both, top) / fn(both, bottom)
        return r[:x.size] - r[x.size:]

    direction = "nondecreasing" if nondecreasing else "nonincreasing"
    return verdict(status="violated", witness=witness,
                   refined_crossing=partial(_refine_crossing, slope, x_lo, x_hi),
                   reason=f"ratio fails to be {direction} on the step ending at x={x_hi!r}")


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
    return _pointwise_verdict(verdict, xs, s1, s2, usable,
                              lambda x: mixture_sf(x, m1) - mixture_sf(x, m2),
                              "sf(m1) exceeds sf(m2) at x={!r}")


def check_rh(m1: FiniteMixture, m2: FiniteMixture, grid: Grid = DEFAULT_GRID) -> OrderVerdict:
    """m1 <= m2 in the reversed hazard order.

    Two equivalent formulations are evaluated independently: the cdf ratio
    cdf(m2)/cdf(m1) must be nondecreasing, and the reversed hazards must
    satisfy rh(m1) <= rh(m2) pointwise.  Agreement is required; a split
    decision signals numerical trouble and yields inconclusive.  Both
    criteria come from one kernel pass per mixture that returns its cdf
    and pdf; the reversed hazards are pdf/cdf at the usable points.
    """
    xs = grid.xs()
    F1, f1 = _evaluate(xs, m1, ("cdf", "pdf"))
    F2, f2 = _evaluate(xs, m2, ("cdf", "pdf"))
    nonfinite = ~(np.isfinite(F1) & np.isfinite(F2))
    skip = ~nonfinite & ((F1 < _UNDERFLOW) | (F2 < _UNDERFLOW))
    usable, verdict = _gate("rh", grid, skip, nonfinite)
    if usable is None:
        return verdict()
    # reversed hazards only where both cdfs are usable; a point where
    # either of them is non-finite is unusable for both criteria
    idx = np.nonzero(usable)[0]
    r1 = f1[idx] / F1[idx]
    r2 = f2[idx] / F2[idx]
    finite = np.isfinite(r1) & np.isfinite(r2)
    nonfinite[idx[~finite]] = True
    usable, verdict = _gate("rh", grid, skip, nonfinite)
    if usable is None:
        return verdict()
    idx, r1, r2 = idx[finite], r1[finite], r2[finite]
    ratio_violated = bool(np.any(_bad_steps(F2[idx] / F1[idx], nondecreasing=True)))
    if ratio_violated != bool(np.any(_exceeds(r1, r2))):
        which = "cdf-ratio monotonicity" if ratio_violated else "pointwise reversed hazards"
        return verdict(status="inconclusive",
                       reason=f"the two rh criteria disagree (only {which} flagged a violation)")
    # idx keeps usable points only, so every previous point is usable
    return _pointwise_verdict(
        verdict, xs[idx], r1, r2, np.ones(idx.size, dtype=bool),
        lambda x: mixture_reversed_hazard(x, m1) - mixture_reversed_hazard(x, m2),
        "rh(m1) exceeds rh(m2) at x={!r}, confirmed by the cdf ratio")


def check_lr(m1: FiniteMixture, m2: FiniteMixture, grid: Grid = DEFAULT_GRID) -> OrderVerdict:
    """m1 <= m2 in the likelihood ratio order: pdf(m2)/pdf(m1) nondecreasing."""
    return _check_ratio_monotone("lr", grid, mixture_pdf, m2, m1, nondecreasing=True)


def check_r_rh(m1: FiniteMixture, m2: FiniteMixture, grid: Grid = DEFAULT_GRID) -> OrderVerdict:
    """m1 <= m2 in the reversed-hazard-ratio sense: rh(m1)/rh(m2) nonincreasing."""
    return _check_ratio_monotone("r_rh", grid, mixture_reversed_hazard, m1, m2,
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
    quotient of the named function.  Rows are (x, value, defined) in
    ascending x; a row is undefined when its denominator underflows or
    its value is not finite.
    """
    if which not in CURVE_KINDS:
        raise DomainError(f"unknown curve kind {which!r}; expected one of {CURVE_KINDS}")
    xs = grid.xs()
    if which == "sf":
        vals = mixture_sf(xs, m1) - mixture_sf(xs, m2)
        defined = np.ones_like(vals, dtype=bool)
    else:
        fn = EVALUATORS[which.removesuffix("_ratio")]
        num, den = fn(xs, m1), fn(xs, m2)
        defined = den >= _UNDERFLOW
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(defined, num / np.where(defined, den, 1.0), np.nan)
    defined &= np.isfinite(vals)
    return list(zip(xs.tolist(), vals.tolist(), defined.tolist()))


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
