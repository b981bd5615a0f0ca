"""Distribution-level checks: frozen spot values, boundary behaviour,
round trips, derivative consistency, and shape monotonicity."""

from __future__ import annotations

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from ikmix import (
    DomainError,
    IKParams,
    ik_cdf,
    ik_pdf,
    ik_quantile,
    ik_reversed_hazard,
    ik_sf,
)
from ikmix.ikdist import _count
from ikmix.mixture import (FiniteMixture, mixture_cdf, mixture_pdf, mixture_reversed_hazard,
                           mixture_sf)

rng = np.random.default_rng(42)

positive_shape = st.floats(min_value=0.05, max_value=8.0,
                           allow_nan=False, allow_infinity=False)
x_values = st.floats(min_value=1e-6, max_value=1e5,
                     allow_nan=False, allow_infinity=False)


class TestValidation:
    @pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (-1.0, 2.0), (1.0, 0.0),
                                            (2.0, -0.5), (float("nan"), 1.0),
                                            (float("inf"), 1.0)])
    def test_bad_shapes_rejected(self, alpha, beta):
        with pytest.raises(DomainError):
            IKParams(alpha, beta)

    def test_negative_x_rejected(self):
        with pytest.raises(DomainError):
            ik_cdf(-0.5, IKParams(1.0, 1.0))

    def test_rh_requires_positive_x(self):
        with pytest.raises(DomainError):
            ik_reversed_hazard(0.0, IKParams(1.0, 1.0))

    @pytest.mark.parametrize("x", [0.0, -1.0, [1.0, 0.0], np.array([2.0, -0.5])])
    def test_rh_error_names_the_positive_bound(self, x):
        with pytest.raises(DomainError, match=r"^x must be > 0$"):
            ik_reversed_hazard(x, IKParams(1.0, 1.0))

    def test_rh_takes_every_positive_x(self):
        # the only bound is x > 0: subnormal x are evaluated, and for
        # IK(1, 1) near 0, u = x and rh = 1/x, which overflows at 5e-324
        x = np.finfo(float).tiny / 2
        assert ik_reversed_hazard(x, IKParams(1.0, 1.0)) == pytest.approx(1.0 / x, rel=1e-15)
        with np.errstate(over="ignore"):
            assert ik_reversed_hazard(5e-324, IKParams(1.0, 1.0)) == np.inf

    @pytest.mark.parametrize("alpha, beta, want", [
        (np.int64(2), 1, (2.0, 1.0)), (1.0, np.float32(1.0), (1.0, 1.0)),
        (np.float32(0.5), np.int32(3), (0.5, 3.0)), (np.float64(0.25), 7, (0.25, 7.0))])
    def test_numpy_scalars_are_stored_as_floats(self, alpha, beta, want):
        p = IKParams(alpha, beta)
        assert (p.alpha, p.beta) == want
        assert type(p.alpha) is float and type(p.beta) is float

    @pytest.mark.parametrize("bad", [np.float64("nan"), np.float32("inf"), np.int64(0),
                                     np.float64(-1.0), True, np.bool_(True), "1.0",
                                     pytest.param(10**400, id="401-digit int"),
                                     pytest.param(-10**400, id="-(401-digit int)")])
    def test_bad_scalars_still_rejected(self, bad):
        with pytest.raises(DomainError):
            IKParams(bad, 1.0)
        with pytest.raises(DomainError):
            IKParams(1.0, bad)

    @pytest.mark.parametrize("v, least", [(2, 2), (0, 0), (np.int64(5), 1),
                                          pytest.param(10**400, 1, id="401-digit int")])
    def test_count_returns_an_int(self, v, least):
        got = _count("n", v, least)
        assert got == v and type(got) is int

    @pytest.mark.parametrize("v", [1, -1, 2.0, 2.7, "3", True, None, float("nan"), [3]])
    def test_count_rejects(self, v):
        with pytest.raises(DomainError, match=r"n must be an integer >= 2, got "):
            _count("n", v, 2)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.2, 1.5])
    def test_quantile_level_open_interval(self, u):
        with pytest.raises(DomainError):
            ik_quantile(u, IKParams(1.0, 1.0))

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), -float("inf"),
                                   [1.0, float("nan")], np.array([2.0, np.inf])])
    def test_x_must_be_finite(self, x):
        # checked before the sign, so -inf names finiteness, not x >= 0
        for evaluate in (ik_cdf, ik_sf):
            with pytest.raises(DomainError, match=r"^x must be finite$"):
                evaluate(x, IKParams(1.0, 1.0))
        with pytest.raises(DomainError, match=r"^x must be finite$"):
            mixture_cdf(x, FiniteMixture([1.0], [1.0], [1.0]))

    @pytest.mark.parametrize("evaluate", [
        ik_cdf, ik_sf, ik_pdf, ik_reversed_hazard,
        mixture_cdf, mixture_sf, mixture_pdf, mixture_reversed_hazard], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("x, got", [
        (True, "bools"), (np.array([True, False]), "bools"), (np.bool_(True), "bools"),
        ("1.5", "text"), ("a", "text"), ([1.0, "2"], "text"), (np.array(["0.5"]), "text"),
        (np.array([0.5, "x"], dtype=object), r"array\(\[0\.5, 'x'\]"), ({}, r"\{\}")],
        ids=["True", "bool_array", "np_bool", "number_text", "text", "mixed_list", "text_array",
             "object_array", "dict"])
    def test_bools_and_text_are_refused(self, evaluate, x, got):
        # as FiniteMixture, Grid and check_orders refuse them: a bool is not
        # read as 0 or 1, nor text as the number it spells
        shapes = (IKParams(1.0, 2.0) if evaluate.__name__.startswith("ik_")
                  else FiniteMixture([0.5, 0.5], [1.0, 2.0], [2.0, 3.0]))
        with pytest.raises(DomainError, match=f"^x must be real numbers, got {got}"):
            evaluate(x, shapes)

    def test_empty_x_rejected(self):
        with pytest.raises(DomainError, match=r"^empty x array$"):
            ik_cdf(np.array([]), IKParams(1.0, 1.0))
        with pytest.raises(DomainError, match=r"^empty x array$"):
            mixture_cdf(np.array([]), FiniteMixture([1.0], [1.0], [1.0]))

    def test_empty_probability_array_rejected(self):
        with pytest.raises(DomainError, match=r"^empty probability array$"):
            ik_quantile(np.array([]), IKParams(1.0, 1.0))


class TestFrozenValues:
    def test_pdf_closed_form(self):
        # exact rational 27/64 at x=1, alpha=2, beta=3
        np.testing.assert_allclose(ik_pdf(1.0, IKParams(2.0, 3.0)), 27.0 / 64.0,
                                   rtol=1e-15)

    def test_reversed_hazard_closed_form(self):
        # exact rational 5/12 at x=2, alpha=2, beta=5
        np.testing.assert_allclose(ik_reversed_hazard(2.0, IKParams(2.0, 5.0)),
                                   5.0 / 12.0, rtol=1e-14)

    def test_quantile_spot_value(self):
        np.testing.assert_allclose(ik_quantile(0.9, IKParams(3.0, 0.5)),
                                   0.73946408548949514, rtol=1e-13)

    def test_cdf_closed_form(self):
        # 1 - 3^(-1/2) at x=2, alpha=0.5, beta=1
        np.testing.assert_allclose(ik_cdf(2.0, IKParams(0.5, 1.0)),
                                   1.0 - 3.0 ** -0.5, rtol=1e-15)

    def test_simple_median(self):
        assert ik_cdf(1.0, IKParams(1.0, 1.0)) == pytest.approx(0.5, rel=1e-15)
        np.testing.assert_allclose(ik_quantile(0.75, IKParams(1.0, 1.0)), 3.0,
                                   rtol=1e-12)


class TestBoundary:
    def test_cdf_sf_at_zero(self):
        p = IKParams(1.7, 2.3)
        assert ik_cdf(0.0, p) == 0.0
        assert ik_sf(0.0, p) == 1.0

    def test_pdf_at_zero_trichotomy(self):
        assert ik_pdf(0.0, IKParams(2.0, 3.0)) == 0.0
        np.testing.assert_allclose(ik_pdf(0.0, IKParams(2.5, 1.0)), 2.5, rtol=1e-15)
        assert np.isinf(ik_pdf(0.0, IKParams(2.0, 0.4)))

    def test_far_tail(self):
        p = IKParams(2.0, 3.0)
        assert ik_cdf(1e12, p) == pytest.approx(1.0, abs=1e-10)
        assert ik_sf(1e12, p) > 0.0

    def test_array_round_trip_shapes(self):
        p = IKParams(1.2, 0.7)
        xs = np.array([0.0, 0.5, 2.0, 10.0])
        assert ik_cdf(xs, p).shape == xs.shape
        np.testing.assert_allclose(ik_cdf(xs, p) + ik_sf(xs, p), 1.0, atol=1e-15)


def _mp_quantile(u: float, alpha: float, beta: float) -> mp.mpf:
    """(1 - u^(1/beta))^(-1/alpha) - 1 in 40-digit mpmath."""
    with mp.workdps(40):
        t = mp.power(mp.mpf(u), 1 / mp.mpf(beta))
        return mp.expm1(-mp.log1p(-t) / alpha)


def _quantile_tolerance(u, alpha: float, beta: float):
    """Relative rounding the level's log carries into the quantile:
    |log u|/beta eps, over alpha through the outer expm1, with room."""
    return 8 * np.finfo(float).eps * (1.0 - np.log(u) / beta) / min(alpha, 1.0)


def _expm1_quantile(u, alpha, beta):
    """The quantile with log w taken as log(-expm1(.)) at every level."""
    return np.expm1(-np.log(-np.expm1(np.log(u) / beta)) / alpha)


class TestTinyQuantile:
    """Below u^(1/beta) = 1/2 the quantile takes log w = log1p(-u^(1/beta)),
    so w = 1 - u^(1/beta) no longer rounds to 1 and x to -0.0."""

    @pytest.mark.parametrize("u, alpha, beta", [(1e-6, 0.2, 0.3), (1e-40, 1.0, 2.0)])
    def test_reported_cases(self, u, alpha, beta):
        assert _expm1_quantile(u, alpha, beta) == 0.0  # -0.0 before
        x = ik_quantile(u, IKParams(alpha, beta))
        assert x > 0.0
        assert abs(x - _mp_quantile(u, alpha, beta)) <= _quantile_tolerance(u, alpha, beta) * x

    @pytest.mark.parametrize("alpha, beta", [(0.2, 0.3), (1.0, 2.0), (3.0, 0.5), (0.7, 5.0),
                                             (50.0, 0.1), (1.0, 1.0), (2.0, 40.0)])
    def test_sweep_both_sides_of_the_split(self, alpha, beta):
        # u^(1/beta) from 1e-300 to 0.999, densest around the split at 1/2
        t = np.concatenate([np.geomspace(1e-300, 1e-3, 120), np.geomspace(1e-3, 0.999, 600)])
        us = t ** beta
        us = us[(us > 0.0) & (us < 1.0)]
        got = ik_quantile(us, IKParams(alpha, beta))
        assert np.all(got > 0.0) and not np.any(np.signbit(got))
        split = np.log(us) / beta < -np.log(2.0)
        old = _expm1_quantile(us, alpha, beta)
        # at and above 1/2 the bytes are the expm1 form's
        assert got[~split].tobytes() == old[~split].tobytes()
        # below it, each value lies within the rounding of 40-digit mpmath,
        # and where the expm1 form kept a digit, the worst error is no worse
        worst_new = worst_old = 0.0
        for x, x_old, u in zip(got[split], old[split], us[split]):
            ref = _mp_quantile(u, alpha, beta)
            err = float(abs(x - ref) / ref)
            assert err <= _quantile_tolerance(u, alpha, beta)
            if x_old != 0.0:
                worst_new = max(worst_new, err)
                worst_old = max(worst_old, float(abs(x_old - ref) / ref))
        assert worst_new <= worst_old


class TestQuantileRoundTrip:
    # mirrors the acceptance gate: |F(Q(u)) - u| <= 1e-10 on the milligrid
    U_GRID = np.arange(1, 1000) / 1000.0

    def test_round_trip_on_grid_random_params(self):
        worst = 0.0
        for _ in range(100):
            p = IKParams(rng.uniform(0.3, 4.0), rng.uniform(0.3, 4.0))
            err = np.max(np.abs(ik_cdf(ik_quantile(self.U_GRID, p), p) - self.U_GRID))
            worst = max(worst, float(err))
        assert worst <= 1e-10, f"worst round-trip error {worst:.3e}"

    def test_round_trip_extreme_levels(self):
        p = IKParams(0.7, 4.0)
        for u in (1e-6, 0.5, 1.0 - 1e-6):
            assert abs(ik_cdf(ik_quantile(u, p), p) - u) <= 1e-10


class TestDerivativeConsistency:
    def test_fd_cdf_matches_pdf(self):
        eps_cbrt = np.finfo(float).eps ** (1.0 / 3.0)
        for _ in range(50):
            p = IKParams(rng.uniform(0.3, 4.0), rng.uniform(0.3, 4.0))
            x = float(rng.uniform(0.05, 20.0))
            h = x * eps_cbrt
            fd = (ik_cdf(x + h, p) - ik_cdf(x - h, p)) / (2.0 * h)
            np.testing.assert_allclose(fd, ik_pdf(x, p), rtol=1e-6)

    def test_pdf_normalizes_via_quantile_substitution(self):
        # integrate f over the support by substituting x = Q(v); the
        # Jacobian dQ/dv is rebuilt by finite differences so the check
        # genuinely crosses two code paths
        nodes, weights = leggauss(160)
        v = 0.5 * (nodes + 1.0)
        w = 0.5 * weights
        hv = 1e-6
        for params in (IKParams(1.0, 1.0), IKParams(2.0, 3.0), IKParams(0.7, 4.0),
                       IKParams(3.0, 0.5)):
            q = ik_quantile(v, params)
            dq = (ik_quantile(v + hv, params) - ik_quantile(v - hv, params)) / (2 * hv)
            integral = float(np.sum(w * ik_pdf(q, params) * dq))
            np.testing.assert_allclose(integral, 1.0, atol=1e-8)


class TestMonotonicity:
    @given(alpha=positive_shape, beta=positive_shape,
           x1=x_values, x2=x_values)
    @settings(max_examples=200, deadline=None)
    def test_cdf_nondecreasing_in_x(self, alpha, beta, x1, x2):
        p = IKParams(alpha, beta)
        lo, hi = sorted((x1, x2))
        assert ik_cdf(lo, p) <= ik_cdf(hi, p) + 1e-15

    @given(alpha=positive_shape, beta=positive_shape, x=x_values)
    @settings(max_examples=200, deadline=None)
    def test_cdf_in_unit_interval(self, alpha, beta, x):
        v = ik_cdf(x, IKParams(alpha, beta))
        assert 0.0 <= v <= 1.0

    @given(alpha=positive_shape, beta=positive_shape, x=x_values)
    @settings(max_examples=200, deadline=None)
    def test_rh_is_pdf_over_cdf(self, alpha, beta, x):
        p = IKParams(alpha, beta)
        cdf = ik_cdf(x, p)
        if cdf > 1e-290:
            np.testing.assert_allclose(ik_reversed_hazard(x, p),
                                       ik_pdf(x, p) / cdf, rtol=1e-12)

    @given(a1=positive_shape, a2=positive_shape, beta=positive_shape, x=x_values)
    @settings(max_examples=200, deadline=None)
    def test_sf_decreasing_in_alpha(self, a1, a2, beta, x):
        lo, hi = sorted((a1, a2))
        assert ik_sf(x, IKParams(hi, beta)) <= ik_sf(x, IKParams(lo, beta)) + 1e-15

    @given(b1=positive_shape, b2=positive_shape, alpha=positive_shape, x=x_values)
    @settings(max_examples=200, deadline=None)
    def test_sf_increasing_in_beta(self, b1, b2, alpha, x):
        lo, hi = sorted((b1, b2))
        assert ik_sf(x, IKParams(alpha, lo)) <= ik_sf(x, IKParams(alpha, hi)) + 1e-15


class TestShapeCurvature:
    """Second differences of the survival function along alpha.

    Convexity in alpha holds on beta <= 1 and genuinely breaks above it,
    so the property is asserted only on the unit interval and the break
    is pinned as an explicit counterexample.
    """

    H = 0.01

    @staticmethod
    def _second_diff(x: float, alpha: float, beta: float, h: float) -> float:
        return (ik_sf(x, IKParams(alpha + h, beta))
                - 2.0 * ik_sf(x, IKParams(alpha, beta))
                + ik_sf(x, IKParams(alpha - h, beta)))

    def test_frozen_second_differences(self):
        np.testing.assert_allclose(self._second_diff(1.0, 0.5, 0.3, self.H),
                                   6.4769301e-5, rtol=1e-6)
        np.testing.assert_allclose(self._second_diff(1.0, 0.5, 2.0, self.H),
                                   -2.8145553e-5, rtol=1e-6)

    @given(beta=st.floats(min_value=0.05, max_value=1.0),
           alpha=st.floats(min_value=0.2, max_value=3.0),
           x=st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=200, deadline=None)
    def test_convex_in_alpha_for_unit_beta(self, beta, alpha, x):
        assert self._second_diff(x, alpha, beta, self.H) >= -1e-12

    def test_concavity_counterexample_above_unit_beta(self):
        assert self._second_diff(1.0, 0.5, 2.0, self.H) < -1e-5

    @given(beta=st.floats(min_value=0.05, max_value=8.0),
           alpha=st.floats(min_value=0.2, max_value=3.0),
           x=st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=200, deadline=None)
    def test_sf_decreasing_along_alpha_grid(self, beta, alpha, x):
        # the monotone half of the shape lemma holds for every beta
        vals = [ik_sf(x, IKParams(a, beta))
                for a in np.linspace(alpha, alpha + 1.0, 9)]
        assert all(v2 <= v1 + 1e-15 for v1, v2 in zip(vals, vals[1:]))
