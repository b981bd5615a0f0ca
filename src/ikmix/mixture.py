"""Finite mixtures of inverted-Kumaraswamy components.

All four evaluators (cdf, sf, pdf, reversed hazard) run through one
blocked kernel.  It validates x and takes log1p(x) once, then walks the
components in blocks of at most 8192 values: each block computes log u
once for its rows, broadcasting a column of alphas against log1p(x), and
derives every requested quantity from it with the same formulas as the
single-component functions in ikdist.  The weighted rows are added in
component order with Neumaier compensation, so results are
deterministic, the rounding error stays independent of the number of
components, and every value is bit for bit the sum of the single-
component evaluations.

The batched bracket search (_refine_crossing) behind mixture_quantile
and the order checks' crossings lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ikdist import DomainError, IKParams, _as_x, _cdf, _log_u, _pdf, _sf, ik_quantile

__all__ = [
    "EVALUATORS",
    "FiniteMixture",
    "mixture_cdf",
    "mixture_sf",
    "mixture_pdf",
    "mixture_reversed_hazard",
    "mixture_quantile",
    "neumaier_sum",
]

_RAW_WEIGHT_TOL = 1e-6
# largest (components x points) block the kernel evaluates at once: 64 KiB
_BLOCK_VALUES = 8192
# interior points the bracket search evaluates per round
_REFINE_BATCH = 64


def neumaier_sum(terms):
    """Compensated sum of a sequence of equally shaped arrays (or floats),
    accumulated strictly in the given order."""
    it = iter(terms)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("nothing to sum") from None
    s = np.asarray(first, dtype=float).copy()
    c = np.zeros_like(s)
    for term in it:
        t = np.asarray(term, dtype=float)
        total = s + t
        c = c + np.where(np.abs(s) >= np.abs(t), (s - total) + t, (t - total) + s)
        s = total
    out = s + c
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class FiniteMixture:
    """Weighted finite mixture.  Weights are validated against a raw-sum
    tolerance of 1e-6 and then renormalized to sum to 1 exactly (in the
    floating-point sense), so downstream code never sees drift."""

    weights: tuple[float, ...]
    components: tuple[IKParams, ...] = field(default=())

    def __post_init__(self) -> None:
        weights = tuple(float(w) for w in self.weights)
        components = tuple(self.components)
        if len(weights) == 0:
            raise DomainError("mixture needs at least one component")
        if len(weights) != len(components):
            raise DomainError(
                f"{len(weights)} weights vs {len(components)} components"
            )
        for w in weights:
            if not math.isfinite(w) or w <= 0:
                raise DomainError(f"weights must be positive and finite, got {w!r}")
        for comp in components:
            if not isinstance(comp, IKParams):
                raise DomainError(f"components must be IKParams, got {comp!r}")
        total = neumaier_sum(weights)
        if abs(total - 1.0) > _RAW_WEIGHT_TOL:
            raise DomainError(f"raw weights sum to {total!r}, beyond 1e-6 of 1")
        object.__setattr__(self, "weights", tuple(w / total for w in weights))
        object.__setattr__(self, "components", components)

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def alphas(self) -> tuple[float, ...]:
        return tuple(c.alpha for c in self.components)

    @property
    def betas(self) -> tuple[float, ...]:
        return tuple(c.beta for c in self.components)

    @classmethod
    def build(cls, weights, alpha, beta) -> "FiniteMixture":
        """Mixture of IK(alpha_i, beta_i) components with the given weights.
        A scalar alpha or beta broadcasts across all components; a vector
        must have one entry per weight."""
        weights = tuple(weights)
        n = len(weights)
        alphas = _per_component("alpha", alpha, n)
        betas = _per_component("beta", beta, n)
        if len(alphas) != n or len(betas) != n:
            raise DomainError(f"{n} weights vs {len(alphas)} alphas and {len(betas)} betas")
        return cls(weights, tuple(IKParams(a, b) for a, b in zip(alphas, betas)))

    # JSON round trip: {"weights": [...], "alpha": [...] | scalar,
    # "beta": [...] | scalar}, read through build.

    @classmethod
    def from_dict(cls, obj: dict) -> "FiniteMixture":
        try:
            weights = list(obj["weights"])
            alpha = obj["alpha"]
            beta = obj["beta"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"mixture dict needs weights/alpha/beta: {exc}") from exc
        return cls.build(weights, alpha, beta)

    def to_dict(self) -> dict:
        return {
            "weights": list(self.weights),
            "alpha": list(self.alphas),
            "beta": list(self.betas),
        }


def _per_component(name: str, value, n: int) -> tuple:
    """A scalar repeated n times, or the entries of an iterable."""
    if np.isscalar(value):
        return (value,) * n
    try:
        return tuple(value)
    except TypeError:
        raise DomainError(f"{name} must be a real number or a list of them, "
                          f"got {value!r}") from None


# ---------------------------------------------------------------------------
# evaluators (component order is the summation order, always)
# ---------------------------------------------------------------------------


class _RowSum:
    """Neumaier sum of non-negative rows, added in order.

    For s, t >= 0, |s| >= |t| exactly when max(s, t) == s, so the
    compensation term of neumaier_sum is (max(s, t) - total) + min(s, t);
    where s == t both of its branches give the same value, sign of zero
    included.  The buffers are preallocated, so adding a row allocates
    nothing.
    """

    def __init__(self, first: np.ndarray) -> None:
        self.s = first.copy()
        self.total = np.empty_like(self.s)
        self.hi = np.empty_like(self.s)
        self.lo = np.empty_like(self.s)
        self.c = np.zeros_like(self.s)

    def add(self, t: np.ndarray) -> None:
        s, total, hi, lo = self.s, self.total, self.hi, self.lo
        np.add(s, t, out=total)
        np.maximum(s, t, out=hi)
        np.minimum(s, t, out=lo)
        np.subtract(hi, total, out=hi)
        np.add(hi, lo, out=hi)
        np.add(self.c, hi, out=self.c)
        self.s, self.total = total, s

    def result(self) -> np.ndarray:
        return self.s + self.c


def _evaluate(x, m: FiniteMixture, names: tuple[str, ...]) -> tuple:
    """One value of m per name in names (a subset of cdf, sf, pdf, rh) at x.

    x is validated and log1p(x) taken once; log u is computed once per
    block of components and shared by every name.  A pdf point where a
    component term is infinite (x = 0 with beta < 1) is infinite; its
    terms are summed as 0 so the compensation stays finite.  rh is
    pdf/cdf and needs x > 0.
    """
    if "rh" in names and np.any(np.atleast_1d(np.asarray(x, dtype=float)) <= 0.0):
        raise DomainError("reversed hazard requires x > 0")
    xs, scalar = _as_x(x)
    L = np.log1p(xs.ravel())
    want_cdf = "cdf" in names or "rh" in names
    want_pdf = "pdf" in names or "rh" in names
    weights = np.array(m.weights)[:, None]
    alphas = np.array(m.alphas)[:, None]
    betas = np.array(m.betas)[:, None]
    if want_pdf:
        log_ab = np.array([math.log(a) + math.log(b)
                           for a, b in zip(m.alphas, m.betas)])[:, None]
        inf_mask = np.zeros(L.shape, dtype=bool)
    rows = max(1, _BLOCK_VALUES // L.size)
    sums: dict[str, _RowSum] = {}
    for start in range(0, m.n, rows):
        block = slice(start, start + rows)
        a, b, w = alphas[block], betas[block], weights[block]
        log_u = _log_u(L, a)
        terms = {}
        if want_cdf:
            terms["cdf"] = w * _cdf(b, log_u)
        if "sf" in names:
            terms["sf"] = w * _sf(b, log_u)
        if want_pdf:
            pdf = w * _pdf(log_ab[block], a, b, L, log_u)
            inf = np.isinf(pdf)
            if inf.any():
                inf_mask |= inf.any(axis=0)
                pdf[inf] = 0.0
            terms["pdf"] = pdf
        for name, block_rows in terms.items():
            rows_left = iter(block_rows)
            if name not in sums:
                sums[name] = _RowSum(next(rows_left))
            for row in rows_left:
                sums[name].add(row)
    out = {name: acc.result() for name, acc in sums.items()}
    if want_pdf and inf_mask.any():
        out["pdf"] = np.where(inf_mask, np.inf, out["pdf"])
    if "rh" in names:
        out["rh"] = out["pdf"] / out["cdf"]
    return tuple(float(out[name][0]) if scalar else out[name].reshape(xs.shape)
                 for name in names)


def mixture_cdf(x, m: FiniteMixture):
    return _evaluate(x, m, ("cdf",))[0]


def mixture_sf(x, m: FiniteMixture):
    return _evaluate(x, m, ("sf",))[0]


def mixture_pdf(x, m: FiniteMixture):
    """Mixture density.  At x = 0 any component with beta < 1 diverges, and
    the mixture inherits the boundary infinity."""
    return _evaluate(x, m, ("pdf",))[0]


def mixture_reversed_hazard(x, m: FiniteMixture):
    """pdf/cdf of the mixture, defined on x > 0."""
    return _evaluate(x, m, ("rh",))[0]


# the one name -> evaluator table; it holds the public functions themselves,
# so code that replaces one of them by name reaches the table too
EVALUATORS = {"cdf": mixture_cdf, "sf": mixture_sf, "pdf": mixture_pdf,
              "rh": mixture_reversed_hazard}


def mixture_quantile(u: float, m: FiniteMixture) -> float:
    """Invert the mixture cdf with the batched bracket search.

    The component quantiles bracket the answer: at max_i Q_i(u) every
    component cdf is already >= u, so the mixture cdf is too, and the
    min gives the matching lower bound.  The root of cdf - u is searched
    in y = log1p(x), down to a width of 5e-13 in y, which is a width of
    5e-13 * (1 + x) <= 1e-12 * max(1, x) in x at the answer.  When
    rounding leaves both ends of the bracket on one side of u, the end
    nearer the root is the answer: lo if cdf(lo) >= u, else hi.
    """
    u = float(u)
    if not (0.0 < u < 1.0):
        raise DomainError(f"quantile level must lie in (0, 1), got {u!r}")
    qs = [float(ik_quantile(u, c)) for c in m.components]
    lo, hi = min(qs), max(qs)
    if hi <= lo:
        return lo
    y = _refine_crossing(lambda y: mixture_cdf(np.expm1(y), m) - u,
                         math.log1p(lo), math.log1p(hi), 5e-13)
    if y is None:
        return lo if mixture_cdf(lo, m) >= u else hi
    return math.expm1(y)


def _refine_crossing(fn, lo: float, hi: float, width: float | None = None) -> float | None:
    """Root of a sign change of fn inside [lo, hi], or None.

    fn is vectorised: it maps an array of x to an array of values.  The
    endpoints are evaluated in one call; None when either is non-finite
    or they do not straddle zero.  Each round then evaluates
    _REFINE_BATCH equally spaced interior points in one call and keeps
    the first sign change, until the bracket is no wider than width
    (by default 1e-9 * hi, the relative width of the order checks'
    crossings).  A round with any non-finite value gives None, so no
    root is ever decided on NaN.
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
    if width is None:
        width = 1e-9 * hi
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
