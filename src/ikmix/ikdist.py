"""Inverted-Kumaraswamy distribution on x > 0.

With shape parameters alpha, beta > 0 and t(x) = (1+x)^(-alpha),
u(x) = 1 - t(x), the distribution is

    cdf(x) = u(x)^beta
    pdf(x) = alpha * beta * (1+x)^(-(alpha+1)) * u(x)^(beta-1)
    sf(x)  = 1 - u(x)^beta
    reversed hazard(x) = pdf/cdf = alpha * beta * (1+x)^(-(alpha+1)) / u(x)

The beta power cancels exactly in the reversed hazard, and the quantile
inverts the cdf in closed form.  Everything here is evaluated through
log1p/expm1 so that the extremes (x near 0, x very large, beta large)
neither underflow silently nor lose the leading digits:

    u(x)      = -expm1(-alpha * log1p(x))
    log u(x)  = log(-expm1(.)) or log1p(-exp(.)), whichever keeps digits
    cdf(x)    = exp(beta * log u(x))
    sf(x)     = -expm1(beta * log u(x))

All evaluators accept a float or an array of x values and return a
matching float or array.  Invalid x (negative, NaN, infinite, bools or
text) raises DomainError rather than propagating NaNs.  Each evaluator,
and the quantile, computes in one numpy scope that ignores every
floating-point error, so a caller's np.errstate changes neither a result
nor a warning.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "IKParams",
    "ik_cdf",
    "ik_pdf",
    "ik_sf",
    "ik_reversed_hazard",
    "ik_quantile",
]


class DomainError(ValueError):
    """An argument lies outside the supported domain."""


@dataclass(frozen=True)
class IKParams:
    """Shape-parameter pair; both entries must be positive finite reals
    (numpy scalars included, bools not), stored as floats."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _positive("alpha", self.alpha))
        object.__setattr__(self, "beta", _positive("beta", self.beta))


def _positive(name: str, v) -> float:
    """v as a float if it is a positive finite real (not a bool), else DomainError."""
    if type(v) is float and 0.0 < v < math.inf:
        return v
    if not isinstance(v, numbers.Real) or isinstance(v, bool):
        raise DomainError(f"{name} must be a real number, got {v!r}")
    try:
        f = float(v)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f) or f <= 0:
        raise DomainError(f"{name} must be positive and finite, got {v!r}")
    return f


def _count(name: str, v, least: int, most: float = math.inf) -> int:
    """v as an int if it is an integer (not a bool) from least to most, else DomainError."""
    if not isinstance(v, numbers.Integral) or isinstance(v, bool) or not least <= v <= most:
        bound = "" if most == math.inf else f" and <= {most}"
        raise DomainError(f"{name} must be an integer >= {least}{bound}, got {v!r}")
    return int(v)


def _known_keys(what: str, obj: dict, keys) -> None:
    """DomainError naming the keys of obj that are not in keys, if any."""
    extra = set(obj) - set(keys)
    if extra:
        raise DomainError(f"{what} has unknown keys {sorted(extra, key=str)}; "
                          f"expected only {', '.join(keys)}")


def _read_json(what: str, path):
    """The JSON value in the UTF-8 file at path, else DomainError naming the
    file as a `what` file: unreadable, or not UTF-8 or not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {what} file {path!r}: {exc}") from exc
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise DomainError(f"{what} file {path!r} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _as_x(x, not_positive: str = ""):
    """Validate x, real numbers (not bools or text), finite and >= 0, and
    return (array, was_scalar); given a not_positive message, x must also
    be > 0, and that message is the DomainError otherwise."""
    raw = np.asarray(x)
    if raw.dtype.kind in "bSU":
        raise DomainError(f"x must be real numbers, got "
                          f"{'bools' if raw.dtype.kind == 'b' else 'text'}")
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):  # objects that are not numbers
        raise DomainError(f"x must be real numbers, got {x!r}") from None
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr)
    if flat.size == 0:
        raise DomainError("empty x array")
    if not np.all(np.isfinite(flat)):
        raise DomainError("x must be finite")
    if not_positive and np.any(flat <= 0.0):
        raise DomainError(not_positive)
    if np.any(flat < 0.0):
        raise DomainError("x must be >= 0")
    return arr if not scalar else arr.reshape(1), scalar


def _ret(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


_LOG2 = math.log(2.0)


def _log_u(L: np.ndarray, alpha, out: np.ndarray | None = None) -> np.ndarray:
    """log u(x) for u = 1 - (1+x)^(-alpha), from L = log1p(x); -inf
    exactly at x = 0.  alpha may be a column of shape (k, 1), giving one
    row per alpha; out, shaped like alpha * L, receives the result.

    Split at t = 1/2: for t = (1+x)^(-alpha) close to 1 the expm1 form
    log(-expm1(-y)) keeps the leading digits of the tiny u, while for t
    close to 0 the log1p form log1p(-exp(-y)) keeps the tiny log u.
    Each branch is relative-accurate on its half, which the other is not,
    and each is evaluated only on its own half.
    """
    # -y = (-alpha) * L is bitwise -(alpha * L): negation is exact
    out = np.multiply(-alpha, L, out=out)
    large = out < -_LOG2
    small = ~large
    np.expm1(out, out=out, where=small)
    np.exp(out, out=out, where=large)
    np.negative(out, out=out)
    np.log(out, out=out, where=small)
    np.log1p(out, out=out, where=large)
    return out


# The formulas below take log u from _log_u and broadcast like it, so the
# mixture kernel shares them with the single-component evaluators; out,
# when given, receives the result.  _log_u and they run inside their
# caller's numpy scope, which ignores every floating-point error: log u is
# -inf at x = 0, and the exps under- and overflow at the extremes.


def _log_cdf(beta, log_u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.multiply(beta, log_u, out=out)


def _sf(beta, log_u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.negative(np.expm1(np.multiply(beta, log_u, out=out), out=out), out=out)


def _log_pdf(log_ab, alpha1, beta1, not_one, L: np.ndarray, log_u: np.ndarray,
             out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """log density from log_ab = log(alpha) + log(beta), alpha1 = alpha + 1,
    beta1 = beta - 1, L = log1p(x) and log u; work, shaped like out, takes
    (beta-1) * log u.  At x = 0 that is the log of the boundary value, +inf
    for beta < 1 and -inf for beta > 1; where not_one is False (beta = 1)
    it is left out (0 * -inf)."""
    logf = np.subtract(log_ab, np.multiply(alpha1, L, out=out), out=out)
    # masked, not np.where: the beta = 1 rows keep log_ab - alpha1 * L as it is
    return np.add(logf, np.multiply(beta1, log_u, out=work), out=logf, where=not_one)


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------


def ik_cdf(x, params: IKParams):
    """Distribution function; exactly 0.0 at x = 0 and increasing to 1."""
    xs, scalar = _as_x(x)
    with np.errstate(all="ignore"):
        out = np.exp(_log_cdf(params.beta, _log_u(np.log1p(xs), params.alpha)))
    return _ret(out, scalar)


def ik_sf(x, params: IKParams):
    """Survival function 1 - cdf, computed as -expm1(beta * log u).

    The expm1 route keeps full precision in the far right tail where the
    cdf is within an ulp of 1.
    """
    xs, scalar = _as_x(x)
    with np.errstate(all="ignore"):
        out = _sf(params.beta, _log_u(np.log1p(xs), params.alpha))
    return _ret(out, scalar)


def ik_pdf(x, params: IKParams):
    """Density on x >= 0.

    The x = 0 boundary depends on beta: the density vanishes for beta > 1,
    equals alpha*beta for beta = 1, and diverges for beta < 1.  The
    divergent case returns float('inf') deliberately; callers that cannot
    tolerate a boundary infinity should not evaluate at 0.
    """
    xs, scalar = _as_x(x)
    a, b = params.alpha, params.beta
    with np.errstate(all="ignore"):
        L = np.log1p(xs)
        out = np.exp(_log_pdf(math.log(a) + math.log(b), a + 1.0, b - 1.0, b != 1.0, L,
                              _log_u(L, a)))
    return _ret(out, scalar)


def ik_reversed_hazard(x, params: IKParams):
    """pdf/cdf on x > 0; the beta power cancels so only 1/u remains."""
    xs, scalar = _as_x(x, "x must be > 0")
    a, b = params.alpha, params.beta
    with np.errstate(all="ignore"):
        L = np.log1p(xs)
        u = -np.expm1(-a * L)
        out = a * b * np.exp(-(a + 1.0) * L) / u
    return _ret(out, scalar)


def ik_quantile(u, params: IKParams):
    """Inverse cdf on probabilities strictly inside (0, 1).

    x = (1 - u^(1/beta))^(-1/alpha) - 1, arranged so that the log of the
    inner w = 1 - u^(1/beta) is _log_u's: log(-expm1(.)) while u^(1/beta)
    >= 1/2 (sharp for u near 1 or large beta) and log1p(-exp(.)) below
    (sharp for tiny quantiles, which would otherwise round w to 1 and x to
    -0.0), and the outer -1 is an expm1 (sharp for x near 0).
    """
    arr = np.asarray(u, dtype=float)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr)
    if flat.size == 0:
        raise DomainError("empty probability array")
    if not np.all(np.isfinite(flat)) or np.any(flat <= 0.0) or np.any(flat >= 1.0):
        raise DomainError("quantile argument must lie strictly in (0, 1)")
    us = arr.reshape(1) if scalar else arr
    with np.errstate(all="ignore"):
        # log w for w = 1 - u^(1/beta) = 1 - exp(-y), with _log_u's split at
        # 1/2; x overflows to inf where w^(-1/alpha) does
        log_w = _log_u(-np.log(us) / params.beta, 1.0)
        out = np.expm1(-log_w / params.alpha)
    return _ret(out, scalar)
