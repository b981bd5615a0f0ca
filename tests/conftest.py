from __future__ import annotations

import mpmath as mp
import numpy as np
import pytest

from ikmix import FiniteMixture, FixtureCatalog, IKParams
from ikmix.scan import draw_sample


@pytest.fixture(scope="session")
def catalog() -> FixtureCatalog:
    return FixtureCatalog()


def draw_rows(config) -> list[dict]:
    """The draws of a scan config from its seed, one dict of floats and
    tuples of floats per draw, as a checker takes them."""
    draws = draw_sample(config, np.random.Generator(np.random.Philox(config.seed)))
    return [{name: tuple(v[i].tolist()) if v.ndim == 2 else v[i].item()
             for name, v in draws.items()} for i in range(config.samples)]


def random_params(rng: np.random.Generator,
                  alpha_range=(0.3, 4.0), beta_range=(0.3, 4.0)) -> IKParams:
    return IKParams(rng.uniform(*alpha_range), rng.uniform(*beta_range))


def random_mixture(rng: np.random.Generator, n: int | None = None,
                   alpha_range=(0.3, 4.0), beta_range=(0.3, 4.0)) -> FiniteMixture:
    if n is None:
        n = int(rng.integers(2, 4))
    raw = rng.uniform(0.05, 1.0, size=n)
    weights = tuple(raw / raw.sum())
    comps = [random_params(rng, alpha_range, beta_range) for _ in range(n)]
    return FiniteMixture(weights, [c.alpha for c in comps], [c.beta for c in comps])


def random_script_l2(rng: np.random.Generator, row2_range=(0.3, 4.0)):
    """A random member of the oppositely-ordered 2x2 class: weights
    ascending, second row descending."""
    w = float(rng.uniform(0.05, 0.45))
    lo = float(rng.uniform(*row2_range))
    hi = float(rng.uniform(lo, row2_range[1]))
    return (w, 1.0 - w), (hi, lo)


def mp_mixture(x, m: FiniteMixture, dps: int = 50) -> dict:
    """cdf, sf, pdf, reversed hazard and the slope d/dx log pdf of m at x in
    mpmath at dps digits, summed term by term from the closed forms; the
    reference shares no code with ikmix."""
    with mp.workdps(dps):
        x = mp.mpf(float(x))
        F = S = f = fp = mp.mpf(0)
        for w, a, b in zip(m.weights, m.alphas, m.betas):
            w, a, b = mp.mpf(w), mp.mpf(a), mp.mpf(b)
            # log u in the form that keeps its digits: from u = -expm1(-y)
            # while u is small, from t = exp(-y) = 1 - u once u nears 1
            y = a * mp.log1p(x)
            log_u = mp.log(-mp.expm1(-y)) if y < 1 else mp.log1p(-mp.exp(-y))
            if x == 0:
                fi = a * b if b == 1 else (mp.inf if b < 1 else mp.mpf(0))
            else:
                fi = a * b * mp.exp((-a - 1) * mp.log1p(x) + (b - 1) * log_u)
            F += w * mp.exp(b * log_u) if x > 0 else 0
            S += w * -mp.expm1(b * log_u) if x > 0 else w
            f += w * fi
            if x > 0:
                q = a / mp.expm1(y) / (1 + x)  # alpha (1+x)^(-alpha-1) / u
                fp += w * fi * (-(a + 1) / (1 + x) + (b - 1) * q)
        out = {"cdf": F, "sf": S, "pdf": f}
        if x > 0:
            out["rh"] = f / F
            out["slope"] = fp / f
        return out
