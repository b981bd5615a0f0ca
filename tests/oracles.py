"""Closed-form sign expressions behind the order conclusions, plus
finite-difference cross-checks.

Each xi function below is the numerator of the derivative of a comparison
ratio between two mixtures, stripped of its positive denominator, so its
sign carries the whole story:

  xi_311  ~ d/dx [ cdf_1(x) / cdf_2(x) ]   (scale cdf_2^2)
  xi_312_prime ~ d/dx [ pdf_1(x) / pdf_2(x) ]   (scale pdf_2^2)
  xi_310  ~ d/dx [ rh_1(x) / rh_2(x) ]     (scale (cdf_1 * pdf_2)^2)

delta1 and delta2 are the two-component pointwise dominance expressions
for the weight/shape shift conditions; the first should stay >= 0, the
second <= 0, on oppositely ordered parameter pairs.

Every function here is written against scalar math on purpose: these are
the reference implementations the vectorized mixture code is tested
against, so they must not share its code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ikmix.ikdist import DomainError
from ikmix.mixture import (
    FiniteMixture,
    mixture_cdf,
    mixture_pdf,
    mixture_reversed_hazard,
    neumaier_sum,
)

__all__ = [
    "SignReport",
    "delta1",
    "delta2",
    "xi_310",
    "xi_310_via_power_sums",
    "xi_311",
    "xi_312_prime",
    "k1",
    "fd_central",
    "sweep_delta1",
    "sweep_delta2",
    "sweep_xi_310",
    "sweep_xi_311",
    "sweep_xi_312",
]

_FD_H = float(np.finfo(float).eps) ** (1.0 / 3.0)
_SIGN_FLOOR = 1e-8
_ZERO_TOL = 1e-12


def _check_x(x: float) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"x must be positive and finite, got {x!r}")
    return x


def _vec(v, name: str, length: int | None = None) -> list[float]:
    out = [float(t) for t in v]
    if length is not None and len(out) != length:
        raise DomainError(f"{name} must have length {length}")
    if not out or any(not math.isfinite(t) or t <= 0 for t in out):
        raise DomainError(f"{name} must be positive and finite")
    return out


def _u(x: float, a: float) -> float:
    return -math.expm1(-a * math.log1p(x))


def _t(x: float, a: float) -> float:
    return math.exp(-a * math.log1p(x))


# ---------------------------------------------------------------------------
# pointwise dominance expressions (two components)
# ---------------------------------------------------------------------------


def delta1(p, alpha, beta: float, x: float) -> float:
    """Weight/alpha dominance expression; nonnegative whenever (p, alpha)
    is oppositely ordered and 0 < beta < 1."""
    x = _check_x(x)
    p = _vec(p, "p", 2)
    alpha = _vec(alpha, "alpha", 2)
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must lie in (0, 1), got {beta!r}")
    L = math.log1p(x)
    t1, t2 = _t(x, alpha[0]), _t(x, alpha[1])
    u1, u2 = 1.0 - t1, 1.0 - t2
    first = (p[0] - p[1]) * ((1.0 - u1 ** beta) - (1.0 - u2 ** beta))
    second = (beta * L * (alpha[0] - alpha[1])
              * (p[1] * t2 * u2 ** (beta - 1.0) - p[0] * t1 * u1 ** (beta - 1.0)))
    return first + second


def delta2(p, beta, alpha: float, x: float) -> float:
    """Weight/beta dominance expression; nonpositive whenever (p, beta)
    is oppositely ordered."""
    x = _check_x(x)
    p = _vec(p, "p", 2)
    beta = _vec(beta, "beta", 2)
    alpha = float(alpha)
    if alpha <= 0 or not math.isfinite(alpha):
        raise DomainError(f"alpha must be positive, got {alpha!r}")
    u = _u(x, alpha)
    log_u = math.log1p(-_t(x, alpha))
    first = (p[0] - p[1]) * ((1.0 - u ** beta[0]) - (1.0 - u ** beta[1]))
    second = ((beta[0] - beta[1]) * log_u
              * (p[1] * u ** beta[1] - p[0] * u ** beta[0]))
    return first + second


# ---------------------------------------------------------------------------
# ratio-derivative numerators
# ---------------------------------------------------------------------------


def xi_310(p, beta, p_star, beta_star, alpha: float, x: float) -> float:
    """Quadruple-sum numerator of d/dx [rh_1/rh_2] for two common-alpha
    mixtures indexed by (p, beta) and (p*, beta*)."""
    x = _check_x(x)
    p = _vec(p, "p")
    beta = _vec(beta, "beta", len(p))
    p_star = _vec(p_star, "p_star")
    beta_star = _vec(beta_star, "beta_star", len(p_star))
    a = float(alpha)
    L = math.log1p(x)
    u = -math.expm1(-a * L)
    w = math.exp(-a * L) / u
    scale = a * a * math.exp(-(2.0 * a + 3.0) * L)
    terms = []
    for i, (pi, bi) in enumerate(zip(p, beta)):
        for j, (pj, bj) in enumerate(zip(p, beta)):
            for k, (pk, bk) in enumerate(zip(p_star, beta_star)):
                for l, (pl, bl) in enumerate(zip(p_star, beta_star)):
                    delta = ((a * (bi - 1.0) * w - (a + 1.0))
                             - (a * (bk - 1.0) * w - (a + 1.0))
                             + a * bl * w - a * bj * w)
                    terms.append(pi * pj * pk * pl * bi * bk * scale
                                 * u ** (bi + bj + bk + bl - 2.0) * delta)
    return neumaier_sum(terms)


def xi_310_via_power_sums(p, beta, p_star, beta_star, alpha: float, x: float) -> float:
    """Independent factored route to the same quantity.

    With the weighted power sums  a_r = sum_i p_i beta_i^r u^{beta_i}  and
    b_r likewise for the starred mixture, the quadruple sum collapses to

        (c/u)^3 * [ b0 b1 (a0 a2 - a1^2) - a0 a1 (b0 b2 - b1^2) ],

    c = alpha (1+x)^(-alpha-1).  Used as a second code path in tests.
    """
    x = _check_x(x)
    p = _vec(p, "p")
    beta = _vec(beta, "beta", len(p))
    p_star = _vec(p_star, "p_star")
    beta_star = _vec(beta_star, "beta_star", len(p_star))
    a = float(alpha)
    L = math.log1p(x)
    u = -math.expm1(-a * L)
    c = a * math.exp(-(a + 1.0) * L)
    pw = [neumaier_sum([pi * bi ** r * u ** bi for pi, bi in zip(p, beta)])
          for r in range(3)]
    pws = [neumaier_sum([pi * bi ** r * u ** bi for pi, bi in zip(p_star, beta_star)])
           for r in range(3)]
    core = (pws[0] * pws[1] * (pw[0] * pw[2] - pw[1] ** 2)
            - pw[0] * pw[1] * (pws[0] * pws[2] - pws[1] ** 2))
    return (c / u) ** 3 * core


def xi_311(p, alpha, beta, p_star, alpha_star, beta_star, x: float) -> float:
    """Double-sum numerator of d/dx [cdf_1/cdf_2] for two fully
    heterogeneous mixtures."""
    x = _check_x(x)
    p = _vec(p, "p")
    alpha = _vec(alpha, "alpha", len(p))
    beta = _vec(beta, "beta", len(p))
    p_star = _vec(p_star, "p_star")
    alpha_star = _vec(alpha_star, "alpha_star", len(p_star))
    beta_star = _vec(beta_star, "beta_star", len(p_star))
    L = math.log1p(x)
    terms = []
    for pi, ai, bi in zip(p, alpha, beta):
        ui = -math.expm1(-ai * L)
        for pj, aj, bj in zip(p_star, alpha_star, beta_star):
            uj = -math.expm1(-aj * L)
            terms.append(pi * pj * ui ** (bi - 1.0) * uj ** (bj - 1.0)
                         * (ai * bi * math.exp(-(ai + 1.0) * L) * uj
                            - aj * bj * math.exp(-(aj + 1.0) * L) * ui))
    return neumaier_sum(terms)


def xi_312_prime(p, alpha, beta, p_star, alpha_star, beta_star, x: float) -> float:
    """Double-sum numerator of d/dx [pdf_1/pdf_2]."""
    x = _check_x(x)
    p = _vec(p, "p")
    alpha = _vec(alpha, "alpha", len(p))
    beta = _vec(beta, "beta", len(p))
    p_star = _vec(p_star, "p_star")
    alpha_star = _vec(alpha_star, "alpha_star", len(p_star))
    beta_star = _vec(beta_star, "beta_star", len(p_star))
    L = math.log1p(x)

    def bracket(a: float, b: float) -> float:
        u = -math.expm1(-a * L)
        return (a * (b - 1.0) * math.exp(-2.0 * (a + 1.0) * L) * u ** (b - 2.0)
                - (a + 1.0) * math.exp(-(a + 2.0) * L) * u ** (b - 1.0))

    terms = []
    for pi, ai, bi in zip(p, alpha, beta):
        ui = -math.expm1(-ai * L)
        dens_i = math.exp(-(ai + 1.0) * L) * ui ** (bi - 1.0)
        for pj, aj, bj in zip(p_star, alpha_star, beta_star):
            uj = -math.expm1(-aj * L)
            dens_j = math.exp(-(aj + 1.0) * L) * uj ** (bj - 1.0)
            terms.append(pi * pj * ai * bi * aj * bj
                         * (dens_j * bracket(ai, bi) - dens_i * bracket(aj, bj)))
    return neumaier_sum(terms)


# ---------------------------------------------------------------------------
# the ce3.2 survival-difference curve, as its own code path
# ---------------------------------------------------------------------------

_K1_WEIGHTS = (0.2, 0.6, 0.2)
_K1_WEIGHTS_SHIFTED = (0.2, 0.5, 0.3)
_K1_BETAS = (5.2, 15.8, 5.6)
_K1_ALPHA = 1.0


def k1(x: float) -> float:
    """sf(shifted-weight mixture) - sf(original mixture) for the ce3.2
    catalog parameters, evaluated directly from the closed form rather
    than through the mixture evaluators."""
    x = _check_x(x)
    log_u = math.log1p(-_t(x, _K1_ALPHA))
    terms = [(ws - w) * -math.expm1(b * log_u)
             for w, ws, b in zip(_K1_WEIGHTS, _K1_WEIGHTS_SHIFTED, _K1_BETAS)]
    return neumaier_sum(terms)


# ---------------------------------------------------------------------------
# finite-difference confrontation
# ---------------------------------------------------------------------------


def fd_central(f, x: float) -> float:
    """Two-sided difference quotient with a curvature-balanced step."""
    h = x * _FD_H
    return (f(x + h) - f(x - h)) / (2.0 * h)


@dataclass(frozen=True)
class SignReport:
    """Sweep summary for one sign expression.

    sign_constant is true when the sampled values never straddle zero
    beyond 1e-12.  fd_agreement is the worst relative discrepancy against
    the finite-difference reconstruction of the same derivative, taken
    only over points where both magnitudes clear 1e-8; it is None when no
    point qualifies or no companion derivative exists.  fd_sign_mismatches
    counts qualifying points whose signs disagree outright.
    """

    function_id: str
    points: tuple[float, ...]
    min_value: float
    max_value: float
    sign_constant: bool
    fd_agreement: float | None
    fd_sign_mismatches: int = 0

    def to_dict(self) -> dict:
        return {
            "function_id": self.function_id,
            "points": list(self.points),
            "min_value": self.min_value,
            "max_value": self.max_value,
            "sign_constant": self.sign_constant,
            "fd_agreement": self.fd_agreement,
            "fd_sign_mismatches": self.fd_sign_mismatches,
        }


def _summarize(function_id: str, xs, values, derivs=None, fd_values=None) -> SignReport:
    lo, hi = min(values), max(values)
    sign_constant = lo >= -_ZERO_TOL or hi <= _ZERO_TOL
    agreement = None
    mismatches = 0
    if derivs is not None:
        worst = None
        for d, g in zip(derivs, fd_values):
            if abs(d) > _SIGN_FLOOR and abs(g) > _SIGN_FLOOR:
                if (d > 0) != (g > 0):
                    mismatches += 1
                rel = abs(d - g) / max(abs(d), abs(g))
                worst = rel if worst is None else max(worst, rel)
        agreement = worst
    return SignReport(function_id, tuple(float(x) for x in xs), float(lo), float(hi),
                      bool(sign_constant), agreement, mismatches)


def sweep_delta1(p, alpha, beta: float, xs) -> SignReport:
    values = [delta1(p, alpha, beta, x) for x in xs]
    return _summarize("delta1", xs, values)


def sweep_delta2(p, beta, alpha: float, xs) -> SignReport:
    values = [delta2(p, beta, alpha, x) for x in xs]
    return _summarize("delta2", xs, values)


def sweep_xi_310(p, beta, p_star, beta_star, alpha: float, xs) -> SignReport:
    m1 = FiniteMixture(p, alpha, beta)
    m2 = FiniteMixture(p_star, alpha, beta_star)
    values, derivs, fds = [], [], []
    for x in xs:
        v = xi_310(p, beta, p_star, beta_star, alpha, x)
        values.append(v)
        scale = (mixture_cdf(x, m1) * mixture_pdf(x, m2)) ** 2
        derivs.append(v / scale)
        fds.append(fd_central(
            lambda y: mixture_reversed_hazard(y, m1) / mixture_reversed_hazard(y, m2), x))
    return _summarize("xi_310", xs, values, derivs, fds)


def _sweep_ratio(function_id: str, xi, evaluator, p, alpha, beta,
                 p_star, alpha_star, beta_star, xs) -> SignReport:
    """xi against d/dx [f(m1)/f(m2)] = xi / f(m2)^2 for the mixture
    function f = evaluator, and that derivative against its finite
    difference."""
    m1 = FiniteMixture(p, alpha, beta)
    m2 = FiniteMixture(p_star, alpha_star, beta_star)
    values, derivs, fds = [], [], []
    for x in xs:
        v = xi(p, alpha, beta, p_star, alpha_star, beta_star, x)
        values.append(v)
        derivs.append(v / evaluator(x, m2) ** 2)
        fds.append(fd_central(lambda y: evaluator(y, m1) / evaluator(y, m2), x))
    return _summarize(function_id, xs, values, derivs, fds)


def sweep_xi_311(p, alpha, beta, p_star, alpha_star, beta_star, xs) -> SignReport:
    return _sweep_ratio("xi_311", xi_311, mixture_cdf,
                        p, alpha, beta, p_star, alpha_star, beta_star, xs)


def sweep_xi_312(p, alpha, beta, p_star, alpha_star, beta_star, xs) -> SignReport:
    return _sweep_ratio("xi_312_prime", xi_312_prime, mixture_pdf,
                        p, alpha, beta, p_star, alpha_star, beta_star, xs)
