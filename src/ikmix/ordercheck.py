"""Grid verification and refutation of stochastic orders between mixtures.

Four checks, all sharing the same discipline:

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

Grid points where the compared quantities underflow float64 (below
1e-300) are skipped and counted in skipped_points; points where either
compared value is NaN or infinite are unusable too and counted apart in
nonfinite_points.  When more than 10% of the grid is unusable the
verdict is inconclusive rather than a claim built on zeros or NaN.
Pointwise checks skip for underflow only when both sides underflow;
ratio checks skip when either side does, since the quotient is then
meaningless.

Witness semantics: for pointwise checks, (x, lhs, rhs) are the two
compared values at the offending x.  For monotonicity checks, x is the
right endpoint of the offending step and lhs/rhs are the ratio at the
left and right endpoints.  refined_crossing, when present, is a root of
the deciding sign function inside one grid step, found by a batched
bracket search: each round evaluates 64 interior points of the bracket
in one vectorised call and keeps the first sign change, down to a
relative width of 1e-9.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .ikdist import DomainError
from .mixture import (
    FiniteMixture,
    mixture_cdf,
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
    "difference_curve",
    "write_curve_csv",
]

_TOL = 1e-12
_UNDERFLOW = 1e-300
_SKIP_FRACTION = 0.10
_REFINE_RELWIDTH = 1e-9
_REFINE_BATCH = 64
_SLOPE_OFFSET = 1e-6

ORDER_KINDS = ("st", "rh", "lr", "r_rh")


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
        if self.spacing == "logarithmic":
            return np.geomspace(self.x_min, self.x_max, self.points)
        return np.linspace(self.x_min, self.x_max, self.points)

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


@dataclass(frozen=True)
class OrderVerdict:
    kind: str
    status: str  # holds_on_grid | violated | inconclusive
    witness: Witness | None = None
    refined_crossing: float | None = None
    reason: str | None = None
    skipped_points: int = 0
    nonfinite_points: int = 0
    grid: Grid = field(default=DEFAULT_GRID)

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


def _refine_crossing(fn, lo: float, hi: float) -> float | None:
    """Root of a sign change of fn inside [lo, hi], or None.

    fn is vectorised: it maps an array of x to an array of values.  The
    endpoints are evaluated in one call; None when either is non-finite
    or they do not straddle zero.  Each round then evaluates
    _REFINE_BATCH equally spaced interior points in one call and keeps
    the first sign change, until the bracket is no wider than 1e-9 * hi.
    A round with any non-finite value gives None, so no root is ever
    decided on NaN.
    """
    flo, fhi = fn(np.array([lo, hi]))
    if not (math.isfinite(flo) and math.isfinite(fhi)):
        return None
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    positive = flo > 0
    if (fhi > 0) == positive:
        return None
    width = _REFINE_RELWIDTH * hi
    while hi - lo > width:
        xs = np.linspace(lo, hi, _REFINE_BATCH + 2)[1:-1]
        vals = fn(xs)
        if not np.all(np.isfinite(vals)):
            return None
        changed = (vals == 0.0) | ((vals > 0) != positive)
        if not np.any(changed):
            lo = float(xs[-1])
            continue
        j = int(np.argmax(changed))
        if vals[j] == 0.0:
            return float(xs[j])
        if j > 0:
            lo = float(xs[j - 1])
        hi = float(xs[j])
    return 0.5 * (lo + hi)


def _unusable(kind: str, grid: Grid, skip: np.ndarray,
              nonfinite: np.ndarray) -> OrderVerdict | None:
    """Inconclusive verdict when more than 10% of the grid is unusable.
    Passing this gate leaves at least two usable points on any grid."""
    n_skip = int(np.count_nonzero(skip))
    n_nonfinite = int(np.count_nonzero(nonfinite))
    if n_skip + n_nonfinite <= _SKIP_FRACTION * grid.points:
        return None
    causes = []
    if n_skip:
        causes.append(f"{n_skip} of {grid.points} grid points underflowed float64")
    if n_nonfinite:
        causes.append(f"{n_nonfinite} of {grid.points} grid points were non-finite (NaN or inf)")
    return OrderVerdict(kind=kind, status="inconclusive", reason="; ".join(causes),
                        skipped_points=n_skip, nonfinite_points=n_nonfinite, grid=grid)


def _check_ratio_monotone(
    kind: str,
    grid: Grid,
    num: np.ndarray,
    den: np.ndarray,
    ratio_fn,
    *,
    nondecreasing: bool,
) -> OrderVerdict:
    """Common body of the lr / r-rh checks and the rh ratio criterion."""
    xs = grid.xs()
    nonfinite = ~(np.isfinite(num) & np.isfinite(den))
    skip = ~nonfinite & ((num < _UNDERFLOW) | (den < _UNDERFLOW))
    bad = _unusable(kind, grid, skip, nonfinite)
    if bad is not None:
        return bad
    n_skip = int(np.count_nonzero(skip))
    n_nonfinite = int(np.count_nonzero(nonfinite))
    idx = np.nonzero(~(skip | nonfinite))[0]
    r = num[idx] / den[idx]
    diffs = np.diff(r)
    tau = _TOL * (1.0 + np.abs(r[:-1]))
    viol = diffs < -tau if nondecreasing else diffs > tau
    if not np.any(viol):
        return OrderVerdict(kind=kind, status="holds_on_grid", skipped_points=n_skip,
                            nonfinite_points=n_nonfinite, grid=grid)
    k = int(np.argmax(viol))
    x_lo, x_hi = float(xs[idx[k]]), float(xs[idx[k + 1]])
    witness = Witness(x=x_hi, lhs=float(r[k]), rhs=float(r[k + 1]))

    def slope(x: np.ndarray) -> np.ndarray:
        # both offsets in one ratio_fn call: one evaluation per mixture per round
        r = ratio_fn(np.concatenate((x * (1.0 + _SLOPE_OFFSET), x * (1.0 - _SLOPE_OFFSET))))
        return r[:x.size] - r[x.size:]

    refined = _refine_crossing(slope, x_lo, x_hi)
    direction = "nondecreasing" if nondecreasing else "nonincreasing"
    return OrderVerdict(
        kind=kind,
        status="violated",
        witness=witness,
        refined_crossing=refined,
        reason=f"ratio fails to be {direction} on the step ending at x={x_hi!r}",
        skipped_points=n_skip,
        nonfinite_points=n_nonfinite,
        grid=grid,
    )


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
    bad = _unusable("st", grid, skip, nonfinite)
    if bad is not None:
        return bad
    n_skip = int(np.count_nonzero(skip))
    n_nonfinite = int(np.count_nonzero(nonfinite))
    usable = ~(skip | nonfinite)
    tau = _TOL * (1.0 + np.maximum(np.abs(s1), np.abs(s2)))
    viol = usable & (s1 > s2 + tau)
    if not np.any(viol):
        return OrderVerdict(kind="st", status="holds_on_grid", skipped_points=n_skip,
                            nonfinite_points=n_nonfinite, grid=grid)
    k = int(np.argmax(viol))
    witness = Witness(x=float(xs[k]), lhs=float(s1[k]), rhs=float(s2[k]))
    refined = None
    if k > 0 and usable[k - 1]:
        d_prev = s1[k - 1] - s2[k - 1]
        if d_prev < 0.0:
            refined = _refine_crossing(
                lambda x: mixture_sf(x, m1) - mixture_sf(x, m2),
                float(xs[k - 1]), float(xs[k]),
            )
    return OrderVerdict(
        kind="st",
        status="violated",
        witness=witness,
        refined_crossing=refined,
        reason=f"sf(m1) exceeds sf(m2) at x={witness.x!r}",
        skipped_points=n_skip,
        nonfinite_points=n_nonfinite,
        grid=grid,
    )


def check_rh(m1: FiniteMixture, m2: FiniteMixture, grid: Grid = DEFAULT_GRID) -> OrderVerdict:
    """m1 <= m2 in the reversed hazard order.

    Two equivalent formulations are evaluated independently: the cdf ratio
    cdf(m2)/cdf(m1) must be nondecreasing, and the reversed hazards must
    satisfy rh(m1) <= rh(m2) pointwise.  Agreement is required; a split
    decision signals numerical trouble and yields inconclusive.
    """
    xs = grid.xs()
    F1 = mixture_cdf(xs, m1)
    F2 = mixture_cdf(xs, m2)
    nonfinite = ~(np.isfinite(F1) & np.isfinite(F2))
    skip = ~nonfinite & ((F1 < _UNDERFLOW) | (F2 < _UNDERFLOW))
    bad = _unusable("rh", grid, skip, nonfinite)
    if bad is not None:
        return bad
    # reversed hazards only where both cdfs are usable; a point where
    # either of them is non-finite is unusable for both criteria
    idx = np.nonzero(~(skip | nonfinite))[0]
    r1 = mixture_reversed_hazard(xs[idx], m1)
    r2 = mixture_reversed_hazard(xs[idx], m2)
    finite = np.isfinite(r1) & np.isfinite(r2)
    if not np.all(finite):
        nonfinite[idx[~finite]] = True
        bad = _unusable("rh", grid, skip, nonfinite)
        if bad is not None:
            return bad
        idx, r1, r2 = idx[finite], r1[finite], r2[finite]
    n_skip = int(np.count_nonzero(skip))
    n_nonfinite = int(np.count_nonzero(nonfinite))

    ratio = F2[idx] / F1[idx]
    diffs = np.diff(ratio)
    tau_r = _TOL * (1.0 + np.abs(ratio[:-1]))
    ratio_violated = bool(np.any(diffs < -tau_r))

    xv = xs[idx]
    tau_p = _TOL * (1.0 + np.maximum(np.abs(r1), np.abs(r2)))
    pt_viol = r1 > r2 + tau_p
    pt_violated = bool(np.any(pt_viol))

    if ratio_violated != pt_violated:
        which = "cdf-ratio monotonicity" if ratio_violated else "pointwise reversed hazards"
        return OrderVerdict(
            kind="rh",
            status="inconclusive",
            reason=f"the two rh criteria disagree (only {which} flagged a violation)",
            skipped_points=n_skip,
            nonfinite_points=n_nonfinite,
            grid=grid,
        )
    if not pt_violated:
        return OrderVerdict(kind="rh", status="holds_on_grid", skipped_points=n_skip,
                            nonfinite_points=n_nonfinite, grid=grid)
    k = int(np.argmax(pt_viol))
    witness = Witness(x=float(xv[k]), lhs=float(r1[k]), rhs=float(r2[k]))
    refined = None
    if k > 0:
        d_prev = r1[k - 1] - r2[k - 1]
        if d_prev < 0.0:
            refined = _refine_crossing(
                lambda x: mixture_reversed_hazard(x, m1) - mixture_reversed_hazard(x, m2),
                float(xv[k - 1]), float(xv[k]),
            )
    return OrderVerdict(
        kind="rh",
        status="violated",
        witness=witness,
        refined_crossing=refined,
        reason=f"rh(m1) exceeds rh(m2) at x={witness.x!r}, confirmed by the cdf ratio",
        skipped_points=n_skip,
        nonfinite_points=n_nonfinite,
        grid=grid,
    )


def check_lr(m1: FiniteMixture, m2: FiniteMixture, grid: Grid = DEFAULT_GRID) -> OrderVerdict:
    """m1 <= m2 in the likelihood ratio order: pdf(m2)/pdf(m1) nondecreasing."""
    xs = grid.xs()
    f1 = mixture_pdf(xs, m1)
    f2 = mixture_pdf(xs, m2)
    return _check_ratio_monotone(
        "lr", grid, f2, f1,
        lambda x: mixture_pdf(x, m2) / mixture_pdf(x, m1),
        nondecreasing=True,
    )


def check_r_rh(m1: FiniteMixture, m2: FiniteMixture, grid: Grid = DEFAULT_GRID) -> OrderVerdict:
    """m1 <= m2 in the reversed-hazard-ratio sense: rh(m1)/rh(m2) nonincreasing."""
    xs = grid.xs()
    r1 = mixture_reversed_hazard(xs, m1)
    r2 = mixture_reversed_hazard(xs, m2)
    return _check_ratio_monotone(
        "r_rh", grid, r1, r2,
        lambda x: mixture_reversed_hazard(x, m1) / mixture_reversed_hazard(x, m2),
        nondecreasing=False,
    )


_CHECKS = {"st": check_st, "rh": check_rh, "lr": check_lr, "r_rh": check_r_rh}


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

CURVE_KINDS = ("sf", "cdf_ratio", "pdf_ratio", "rh_ratio")


def difference_curve(m1: FiniteMixture, m2: FiniteMixture, grid: Grid,
                     which: str) -> list[tuple[float, float, bool]]:
    """Tabulate the comparison curve between two mixtures.

    which = 'sf' gives sf(m1) - sf(m2); the ratio variants give the m1/m2
    quotient of the named function.  Rows are (x, value, defined) in
    ascending x; a row is undefined when its denominator underflows or
    its value is not finite.
    """
    xs = grid.xs()
    if which == "sf":
        vals = mixture_sf(xs, m1) - mixture_sf(xs, m2)
        defined = np.ones_like(vals, dtype=bool)
    elif which == "cdf_ratio":
        num, den = mixture_cdf(xs, m1), mixture_cdf(xs, m2)
        defined = den >= _UNDERFLOW
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(defined, num / np.where(defined, den, 1.0), np.nan)
    elif which == "pdf_ratio":
        num, den = mixture_pdf(xs, m1), mixture_pdf(xs, m2)
        defined = den >= _UNDERFLOW
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(defined, num / np.where(defined, den, 1.0), np.nan)
    elif which == "rh_ratio":
        num = mixture_reversed_hazard(xs, m1)
        den = mixture_reversed_hazard(xs, m2)
        defined = den >= _UNDERFLOW
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(defined, num / np.where(defined, den, 1.0), np.nan)
    else:
        raise DomainError(f"unknown curve kind {which!r}; expected one of {CURVE_KINDS}")
    defined &= np.isfinite(vals)
    return [(float(x), float(v), bool(d)) for x, v, d in zip(xs, vals, defined)]


def write_curve_csv(rows: list[tuple[float, float, bool]], path) -> None:
    """CSV with header x,value,defined; 17 significant digits throughout."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "value", "defined"])
        for x, v, d in rows:
            writer.writerow([format(x, ".17g"), format(v, ".17g"), "true" if d else "false"])
