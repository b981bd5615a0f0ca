"""Finite mixtures of inverted-Kumaraswamy components.

The cdf, pdf and reversed hazard (rh) run through one blocked kernel,
_evaluate, which returns logs.  It validates x and takes log1p(x) once,
then walks the components in blocks of at most 8192 values per mixture
(_stacked): each block computes log u once for its rows and derives
every requested component log from it with the formulas of ikdist.  The
kernel and the sf take a FiniteMixture, its (weights, alphas, betas)
array, or a stack of such arrays, giving one row per mixture, each
bit-identical to that mixture alone; the caller sizes the stack:
ordercheck.check_orders stacks pairs within 8192 values per side, and
ordercheck._pair stacks the two sides of one pair.  The terms are
summed by a max-shifted log-sum-exp (Blanchard, Higham and Higham, IMA
J. Numer. Anal. 2021), so a mixture whose values lie far below or above
float64 still has a finite log.  The public evaluators take a
FiniteMixture and are exp of those logs; the reversed hazard is
exp(log pdf - log cdf), never 0/0.  The sf terms lie in [0, 1] and come
linear from expm1, so mixture_sf adds them as they are, by a compensated
sum in component order.  _renormalised divides the raw weights of a
FiniteMixture and of a scan's draws alike; the batched bracket search
(_refine_crossing) behind mixture_quantile and the crossings lives here.

Each kernel call makes one workspace, three arrays of one block, which
every block's values are written into in place, and computes the column
constants once: alpha + 1, beta - 1, log alpha + log beta, the slope's
(beta - 1) alpha and which betas are not 1.  Four exact
identities let the block body take fewer numpy passes than the plain
formulas while rounding every value as they do:
  - _log_u works on -y = (-alpha) * L, which is bitwise -(alpha * L);
  - the pdf adds (beta - 1) log u under a mask of the beta != 1 rows
    instead of choosing by np.where, so the beta = 1 rows keep their
    value as it is;
  - the merge of two shifted sums scales each side by exp(its shift -
    the larger shift): exactly 1.0 on one side (x * 1.0 = x) and
    exp(-|d|) on the other, since fl(a - b) = -fl(b - a);
  - the sf's compensated sum takes each rounding error by branch-free
    TwoSum, which gives the exact error of fl(s + t) as Neumaier's
    |s| >= |t| branch does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ikdist import (DomainError, IKParams, _as_x, _log_cdf, _log_pdf, _log_u, _positive, _sf,
                     ik_quantile)

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
# largest (components x points) block of one mixture the kernel evaluates
# at once, 64 KiB; check_orders stacks pairs within the same budget
_BLOCK_VALUES = 8192
# the largest float, the bound of a log-sum-exp shift
_LOG_MAX = float(np.finfo(float).max)
# interior points the bracket search evaluates per round
_REFINE_BATCH = 64


def neumaier_sum(terms):
    """Compensated sum of a sequence of equally shaped arrays (or floats),
    accumulated strictly in the given order: Neumaier's running sum plus
    the sum of the rounding errors of its additions.  Each error is taken
    branch-free by TwoSum (Knuth; Ogita, Rump and Oishi, SIAM J. Sci.
    Comput. 2005) into buffers made once; like Neumaier's |s| >= |t|
    branch it is the exact error of fl(s + t) when no step overflows, so
    the two give the same bits."""
    it = iter(terms)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("nothing to sum") from None
    s = np.array(first, dtype=float)
    c, total, t_part, err = (np.zeros(s.shape) for _ in range(4))
    for term in it:
        t = np.asarray(term, dtype=float)
        np.add(s, t, out=total)
        # TwoSum: err = (s - (total - t_part)) + (t - t_part), exactly
        # Neumaier's (s - total) + t or (t - total) + s for s + t
        np.subtract(total, s, out=t_part)  # the part of t that total holds
        np.subtract(s, np.subtract(total, t_part, out=err), out=err)
        c += np.add(err, np.subtract(t, t_part, out=t_part), out=err)
        s, total = total, s
    out = s + c
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class FiniteMixture:
    """Mixture of IK(alphas[i], betas[i]) components with weights[i], each a
    positive finite real number, stored as tuples of floats; a scalar alpha
    or beta broadcasts across the components.  The raw weights must sum to
    1 within 1e-6 and are then renormalized to sum to 1 exactly (in the
    floating-point sense), so downstream code never sees drift."""

    weights: tuple[float, ...]
    alphas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        try:
            weights = tuple(self.weights)
        except TypeError:
            raise DomainError(f"weights must be a list of real numbers, "
                              f"got {self.weights!r}") from None
        n = len(weights)
        if n == 0:
            raise DomainError("mixture needs at least one component")
        weights = tuple(_positive("weights", w) for w in weights)
        alphas = tuple(_positive("alpha", a) for a in _per_component("alpha", self.alphas, n))
        betas = tuple(_positive("beta", b) for b in _per_component("beta", self.betas, n))
        if len(alphas) != n or len(betas) != n:
            raise DomainError(f"{n} weights vs {len(alphas)} alphas and {len(betas)} betas")
        object.__setattr__(self, "weights", _renormalised(weights))
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "betas", betas)

    @property
    def n(self) -> int:
        return len(self.weights)

    # JSON round trip: {"weights": [...], "alpha": [...] | scalar,
    # "beta": [...] | scalar}

    @classmethod
    def from_dict(cls, obj: dict) -> "FiniteMixture":
        try:
            weights, alpha, beta = obj["weights"], obj["alpha"], obj["beta"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"mixture dict needs weights/alpha/beta: {exc}") from exc
        return cls(weights, alpha, beta)

    def to_dict(self) -> dict:
        return {"weights": list(self.weights), "alpha": list(self.alphas),
                "beta": list(self.betas)}


def _renormalised(weights) -> tuple[float, ...]:
    """One mixture's raw weights divided by their math.fsum, so that they
    sum to 1 exactly in the floating-point sense; DomainError when that
    sum lies beyond 1e-6 of 1 or overflows."""
    try:
        total = math.fsum(weights)
    except OverflowError:  # finite weights whose sum exceeds float range
        total = math.inf
    if abs(total - 1.0) > _RAW_WEIGHT_TOL:
        raise DomainError(f"raw weights sum to {total!r}, beyond 1e-6 of 1")
    return tuple(w / total for w in weights)


def _per_component(name: str, value, n: int) -> tuple:
    """A scalar or 0-d array repeated n times, or the entries of an iterable."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]
    if np.isscalar(value):
        return (value,) * n
    try:
        return tuple(value)
    except TypeError:
        raise DomainError(f"{name} must be a real number or a list of them, "
                          f"got {value!r}") from None


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------


def _params(m) -> np.ndarray:
    """The (weights, alphas, betas) array of m, a FiniteMixture, or m itself."""
    return np.array((m.weights, m.alphas, m.betas)) if isinstance(m, FiniteMixture) else m


def _stacked(x, m, kernel) -> tuple:
    """The rows of kernel(L, x, cols, cuts, work), where L is log1p(x) and
    kernel returns a sequence of (mixtures, points) arrays.  m is a
    FiniteMixture or its parameter array, (weights, alphas, betas) x
    components, giving results shaped like x (a float for a scalar x), or
    a stack of them, mixtures x 3 x components, giving one row per
    mixture.  cols holds the parameters as columns of shape (3,
    components, mixtures, 1); cuts slices the components into blocks of
    at most _BLOCK_VALUES // points (at least one), in component order;
    work is the call's workspace, three arrays shaped like the largest
    block's values, (components, mixtures, points): each row is
    bit-identical to that mixture's alone."""
    xs, scalar = _as_x(x)
    flat = xs.ravel()
    params = _params(m)
    one = params.ndim == 2
    cols = (params[None] if one else params).transpose(1, 2, 0)[..., None]
    rows = min(cols.shape[1], max(1, _BLOCK_VALUES // flat.size))
    cuts = [slice(c, c + rows) for c in range(0, cols.shape[1], rows)]
    out = kernel(np.log1p(flat), flat, cols, cuts, np.empty((3, rows, cols.shape[2], flat.size)))
    if not one:
        return tuple(v.reshape((len(params),) + np.shape(x)) for v in out)
    return tuple(float(v[0, 0]) if scalar else v[0].reshape(xs.shape) for v in out)


def _add_block(sums: dict, name: str, w: np.ndarray, log_terms: np.ndarray,
               slopes: np.ndarray | None = None) -> None:
    """Add one block of component logs to the running log-sum-exp of name,
    sums[name] = [shift, scaled sum(, scaled slope sum)], whose weighted
    sum is exp(shift) * scaled sum.  The components run along the first
    axis.  The block is shifted by its largest log, so its scaled terms
    w * exp(log - shift) are at most w; the running pair keeps the larger
    shift and scales the other side down by exp(-|difference|).  Shifts
    are clipped to the finite range, so a column of zeros (log -inf) never
    keeps its shift and an infinite term gives inf.  log_terms is
    overwritten."""
    shift = log_terms.max(axis=0)
    # np.clip's bounds as two in-place ufuncs, without its wrapper
    np.maximum(np.minimum(shift, _LOG_MAX, out=shift), -_LOG_MAX, out=shift)
    scaled = np.exp(np.subtract(log_terms, shift, out=log_terms), out=log_terms)
    scaled *= w
    block = [shift, scaled.sum(axis=0)]
    if slopes is not None:
        block.append(np.multiply(scaled, slopes, out=scaled).sum(axis=0))
    run = sums.setdefault(name, block)
    if run is block:
        return
    # each side scales by exp(its shift - the larger shift): exactly 1.0 on
    # the side that holds it, and on the other exp(-|d|) bit for bit, since
    # fl(a - b) = -fl(b - a)
    larger = np.maximum(run[0], shift)
    keep = np.exp(np.subtract(run[0], larger, out=run[0]), out=run[0])
    down = np.exp(np.subtract(shift, larger, out=shift), out=shift)
    for acc, part in zip(run[1:], block[1:]):
        acc *= keep
        acc += np.multiply(part, down, out=part)
    run[0] = larger


def _evaluate(x, m, names: tuple[str, ...], slope: bool = False) -> tuple:
    """The logs of the cdf, pdf or reversed hazard (rh) at x of m, one
    mixture or a stack of them (see _stacked), one per name in names,
    followed with slope=True by the slope d/dx log pdf.

    The cdf and pdf terms are summed by _add_block; log rh is log pdf -
    log cdf.  The slope is the mean of the component slopes under the pdf
    sum's softmax weights: g_i = ((beta_i-1) alpha_i / expm1(alpha_i L) -
    (alpha_i+1)) / (1+x) = -(alpha_i+1)/(1+x) + (beta_i-1) alpha_i
    (1+x)^(-alpha_i-1) / u_i.
    """
    want_cdf = "cdf" in names or "rh" in names
    want_pdf = slope or "pdf" in names or "rh" in names

    def kernel(L, flat, cols, cuts, work):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if want_pdf:
                # the pdf's and the slope's columns, once for all blocks
                _, a, b = cols
                b1 = b - 1.0
                pdf_cols = np.array((a + 1.0, b1, np.log(a) + np.log(b), b1 * a))
                not_one = b1 != 0.0
                one_x = 1.0 + flat
            sums: dict[str, list] = {}
            for cut in cuts:
                w, a, b = cols[:, cut]
                log_u, f, g = work[:, :len(w)]
                _log_u(L, a, out=log_u)
                if want_pdf:
                    a1, b1, log_ab, g1 = pdf_cols[:, cut]
                    _log_pdf(log_ab, a1, b1, not_one[cut], L, log_u, out=f, work=g)
                    if slope:
                        np.expm1(np.multiply(a, L, out=g), out=g)
                        np.divide(np.subtract(np.divide(g1, g, out=g), a1, out=g), one_x, out=g)
                    _add_block(sums, "pdf", w, f, g if slope else None)
                if want_cdf:
                    _add_block(sums, "cdf", w, _log_cdf(b, log_u, out=log_u))
            logs = {name: acc[0] + np.log(acc[1]) for name, acc in sums.items()}
            if "rh" in names:
                logs["rh"] = logs["pdf"] - logs["cdf"]
            out = [logs[name] for name in names]
            if slope:
                out.append(sums["pdf"][2] / sums["pdf"][1])
        return out

    return _stacked(x, m, kernel)


def _exp(log_values):
    with np.errstate(over="ignore"):
        out = np.exp(log_values)
    return float(out) if np.ndim(out) == 0 else out


def mixture_cdf(x, m: FiniteMixture):
    return _exp(_evaluate(x, m, ("cdf",))[0])


def mixture_sf(x, m: FiniteMixture):
    """Mixture survival function: the weighted component sfs, added row by
    row in component order by neumaier_sum."""
    return _survival(x, m)


def _survival(x, m):
    """mixture_sf of m, one mixture or a stack of them (see _stacked)."""
    def rows(L, cols, cuts, work):
        for cut in cuts:
            w, a, b = cols[:, cut]
            terms = _sf(b, _log_u(L, a, out=work[0, :len(w)]), out=work[0, :len(w)])
            # neumaier_sum takes each row before the next block overwrites it
            yield from np.multiply(terms, w, out=terms)

    return _stacked(x, m, lambda L, flat, cols, cuts, work: [
        neumaier_sum(rows(L, cols, cuts, work))])[0]


def mixture_pdf(x, m: FiniteMixture):
    """Mixture density.  At x = 0 any component with beta < 1 diverges, and
    the mixture inherits the boundary infinity."""
    return _exp(_evaluate(x, m, ("pdf",))[0])


def mixture_reversed_hazard(x, m: FiniteMixture):
    """pdf/cdf of the mixture, defined on x > 0."""
    if np.any(np.asarray(x, dtype=float) <= 0.0):
        raise DomainError("reversed hazard requires x > 0")
    return _exp(_evaluate(x, m, ("rh",))[0])


# the one name -> evaluator table; it holds the public functions themselves,
# so code that replaces one of them by name reaches the table too
EVALUATORS = {"cdf": mixture_cdf, "sf": mixture_sf, "pdf": mixture_pdf,
              "rh": mixture_reversed_hazard}


def mixture_quantile(u: float, m: FiniteMixture) -> float:
    """Invert the mixture cdf with the batched bracket search.

    The component quantiles bracket the answer: at max_i Q_i(u) every
    component cdf is already >= u, so the mixture cdf is too, and the
    min gives the matching lower bound.  The root of log cdf - log u is
    searched in y = log x down to a width of 5e-13, a relative width of
    5e-13 in x at any scale.  When rounding leaves both ends of the
    bracket on one side of u, the answer is lo if cdf(lo) >= u, else hi.
    """
    u = float(u)
    if not (0.0 < u < 1.0):
        raise DomainError(f"quantile level must lie in (0, 1), got {u!r}")
    qs = [float(ik_quantile(u, IKParams(a, b))) for a, b in zip(m.alphas, m.betas)]
    lo, hi = min(qs), max(qs)
    if hi <= lo:
        return lo
    # lo is 0 where u^(1/beta) rounds to 0; the search starts at 5e-324 then,
    # where log cdf may be -inf (alpha * x underflows): clipped, it reads as
    # below u, so the bracket's low end stays finite
    y = _refine_crossing(
        lambda y: np.maximum(_evaluate(np.exp(y), m, ("cdf",))[0], -_LOG_MAX) - math.log(u),
        math.log(max(lo, 5e-324)), math.log(hi), 5e-13)
    if y is None:
        return lo if mixture_cdf(lo, m) >= u else hi
    return math.exp(y)


def _refine_crossing(fn, lo: float, hi: float, width: float | None = None) -> float | None:
    """Root of a sign change of fn inside [lo, hi], or None.

    fn is vectorised: it maps an array of x to an array of values.  The
    endpoints are evaluated in one call; None when either is non-finite
    or they do not straddle zero.  Each round then evaluates
    _REFINE_BATCH equally spaced interior points in one call and keeps
    the first sign change, until the bracket is no wider than width
    (by default 1e-9 * hi, the relative width of the order checks'
    crossings).  A round with any non-finite value gives None, so no
    root is ever decided on NaN; an inf - inf that makes one is no error.
    """
    with np.errstate(invalid="ignore"):
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
        with np.errstate(invalid="ignore"):
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
