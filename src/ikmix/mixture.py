"""Finite mixtures of inverted-Kumaraswamy components.

Mixture evaluations sum the weighted component values in component order
with Neumaier compensation, so results are deterministic and the rounding
error stays independent of the number of components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ikdist import DomainError, IKParams, ik_cdf, ik_pdf, ik_quantile, ik_sf

__all__ = [
    "FiniteMixture",
    "mixture_cdf",
    "mixture_sf",
    "mixture_pdf",
    "mixture_reversed_hazard",
    "mixture_quantile",
    "neumaier_sum",
]

_RAW_WEIGHT_TOL = 1e-6


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
        alphas = (alpha,) * n if np.isscalar(alpha) else tuple(alpha)
        betas = (beta,) * n if np.isscalar(beta) else tuple(beta)
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


# ---------------------------------------------------------------------------
# evaluators (component order is the summation order, always)
# ---------------------------------------------------------------------------


def mixture_cdf(x, m: FiniteMixture):
    return neumaier_sum(w * ik_cdf(x, c) for w, c in zip(m.weights, m.components))


def mixture_sf(x, m: FiniteMixture):
    return neumaier_sum(w * ik_sf(x, c) for w, c in zip(m.weights, m.components))


def mixture_pdf(x, m: FiniteMixture):
    """Mixture density.  At x = 0 any component with beta < 1 diverges, and
    the mixture inherits the boundary infinity."""
    terms = [w * ik_pdf(x, c) for w, c in zip(m.weights, m.components)]
    if any(np.any(np.isinf(t)) for t in terms):
        inf_mask = np.zeros_like(np.asarray(terms[0], dtype=float), dtype=bool)
        for t in terms:
            inf_mask |= np.isinf(np.asarray(t, dtype=float))
        finite_terms = [np.where(inf_mask, 0.0, t) for t in terms]
        out = np.where(inf_mask, np.inf, neumaier_sum(finite_terms))
        return float(out) if out.ndim == 0 else out
    return neumaier_sum(terms)


def mixture_reversed_hazard(x, m: FiniteMixture):
    """pdf/cdf of the mixture, defined on x > 0."""
    xs = np.asarray(x, dtype=float)
    if np.any(np.atleast_1d(xs) <= 0.0):
        raise DomainError("reversed hazard requires x > 0")
    num = mixture_pdf(x, m)
    den = mixture_cdf(x, m)
    out = np.asarray(num, dtype=float) / np.asarray(den, dtype=float)
    return float(out) if out.ndim == 0 else out


def mixture_quantile(u: float, m: FiniteMixture) -> float:
    """Invert the mixture cdf by bisection.

    The component quantiles bracket the answer: at max_i Q_i(u) every
    component cdf is already >= u, so the mixture cdf is too, and the
    min gives the matching lower bound.  Bisect to relative width 1e-12.
    """
    u = float(u)
    if not (0.0 < u < 1.0):
        raise DomainError(f"quantile level must lie in (0, 1), got {u!r}")
    qs = [float(ik_quantile(u, c)) for c in m.components]
    lo, hi = min(qs), max(qs)
    if hi <= lo:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mixture_cdf(mid, m) < u:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)
