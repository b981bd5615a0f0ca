"""Tests for the scalar sign-expression oracles.

The frozen constants in this module were produced with mpmath at 30+
significant digits and are the reference values the float64 code paths
are held to.  Two independent routes exist for the reversed-hazard-ratio
numerator (quadruple sum vs factored power sums) and for the k1 curve
(closed form vs mixture evaluators); both pairs are confronted here.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from ikmix import DomainError
from ikmix.mixture import FiniteMixture, mixture_sf
from ikmix.ordercheck import DEFAULT_GRID

from conftest import random_script_l2
from oracles import (
    delta1,
    delta2,
    fd_central,
    k1,
    sweep_delta1,
    sweep_delta2,
    sweep_xi_310,
    sweep_xi_311,
    sweep_xi_312,
    xi_310,
    xi_310_via_power_sums,
    xi_311,
    xi_312_prime,
)

# ---------------------------------------------------------------------------
# frozen reference values (mpmath, 30 digits, rounded to 17)
# ---------------------------------------------------------------------------

# delta1 at p=(0.6,0.4), alpha=(1,9), beta=0.5
DELTA1_SPOTS = {
    0.05: 0.50222608256866994,
    1.0: 1.2325248046040348,
    50.0: 0.18883869090808795,
}

# delta2 at p=(0.2,0.8), beta=(6,2), alpha=0.6
DELTA2_SPOTS = {
    0.05: -0.0099428350592523552,
    1.0: -0.46657444566878535,
    50.0: -0.37792179126227585,
}

# xi_310 at the ex3.6 catalog parameters
XI310_SPOTS = {
    5e-4: 12.0445176494,
    1.5e-3: -2.18569112738,
    1e-2: -1.2672587558,
    1.0: -0.00136996125542,
    100.0: -6.67092633784e-19,
}

K1_SPOTS = {
    10.0: -0.036459207209764251,
    100.0: -0.0091282048742540959,
}

# catalog parameter sets the xi sweeps are exercised on
EX36 = dict(p=(0.1, 0.3, 0.6), beta=(0.1, 0.2, 0.3),
            p_star=(0.2, 0.3, 0.5), beta_star=(0.5, 1.0, 2.0), alpha=2.0)
EX37 = dict(p=(0.1, 0.7, 0.2), alpha=(5.0, 8.0, 6.0), beta=(2.0, 1.0, 1.0),
            p_star=(0.2, 0.5, 0.3), alpha_star=(3.0, 4.0, 2.0),
            beta_star=(5.0, 3.0, 6.0))
EX38 = dict(p=(0.2, 0.4, 0.4), alpha=(2.0, 4.0, 6.0), beta=(25.0, 13.0, 9.0),
            p_star=(0.3, 0.5, 0.2), alpha_star=(8.0, 10.0, 12.0),
            beta_star=(3.0, 4.0, 1.0))

WINDOW = np.geomspace(1e-2, 1e2, 50)


# ---------------------------------------------------------------------------
# domain validation
# ---------------------------------------------------------------------------


class TestDomain:
    def test_x_must_be_positive(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                delta1((0.6, 0.4), (1.0, 9.0), 0.5, bad)
            with pytest.raises(DomainError):
                k1(bad)

    def test_delta1_beta_window(self):
        for bad in (0.0, 1.0, 1.2, -0.5):
            with pytest.raises(DomainError):
                delta1((0.6, 0.4), (1.0, 9.0), bad, 1.0)

    def test_delta2_alpha_positive(self):
        with pytest.raises(DomainError):
            delta2((0.2, 0.8), (6.0, 2.0), -1.0, 1.0)

    def test_vector_lengths(self):
        with pytest.raises(DomainError):
            delta1((0.6, 0.3, 0.1), (1.0, 9.0, 2.0), 0.5, 1.0)
        with pytest.raises(DomainError):
            xi_310((0.5, 0.5), (1.0,), (0.5, 0.5), (1.0, 2.0), 1.0, 1.0)

    def test_entries_positive(self):
        with pytest.raises(DomainError):
            xi_311((0.5, -0.5), (1.0, 2.0), (1.0, 2.0),
                   (0.5, 0.5), (1.0, 2.0), (1.0, 2.0), 1.0)


# ---------------------------------------------------------------------------
# frozen spot values
# ---------------------------------------------------------------------------


class TestFrozenValues:
    def test_delta1_spots(self):
        for x, want in DELTA1_SPOTS.items():
            np.testing.assert_allclose(
                delta1((0.6, 0.4), (1.0, 9.0), 0.5, x), want, rtol=1e-12)

    def test_delta2_spots(self):
        for x, want in DELTA2_SPOTS.items():
            np.testing.assert_allclose(
                delta2((0.2, 0.8), (6.0, 2.0), 0.6, x), want, rtol=1e-12)

    def test_xi310_spots(self):
        for x, want in XI310_SPOTS.items():
            got = xi_310(EX36["p"], EX36["beta"], EX36["p_star"],
                         EX36["beta_star"], EX36["alpha"], x)
            np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_k1_spots(self):
        for x, want in K1_SPOTS.items():
            np.testing.assert_allclose(k1(x), want, rtol=1e-12)


# ---------------------------------------------------------------------------
# delta sign sweeps on randomly drawn oppositely ordered pairs
# ---------------------------------------------------------------------------


class TestDeltaSigns:
    XS = np.geomspace(1e-3, 1e3, 40)

    def test_delta1_nonnegative_on_opposite_orderings(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            weights, row2 = random_script_l2(rng)
            beta = float(rng.uniform(0.05, 0.95))
            report = sweep_delta1(weights, row2, beta, self.XS)
            assert report.min_value >= -1e-12
            assert report.fd_agreement is None

    def test_delta2_nonpositive_on_opposite_orderings(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            weights, row2 = random_script_l2(rng)
            alpha = float(rng.uniform(0.3, 4.0))
            report = sweep_delta2(weights, row2, alpha, self.XS)
            assert report.max_value <= 1e-12

    def test_delta1_violated_when_aligned(self):
        # same ordering in both rows breaks the dominance direction
        assert delta1((0.95, 0.05), (20.0, 0.2), 0.9, 0.0855) < -0.5


# ---------------------------------------------------------------------------
# xi sweeps on the catalog parameter sets
# ---------------------------------------------------------------------------


class TestXiSweeps:
    def test_xi311_negative_on_window(self):
        r = sweep_xi_311(EX37["p"], EX37["alpha"], EX37["beta"],
                         EX37["p_star"], EX37["alpha_star"],
                         EX37["beta_star"], WINDOW)
        assert r.sign_constant
        assert r.max_value <= 0.0
        np.testing.assert_allclose(r.max_value, -3.5218115e-6, rtol=1e-6)
        assert r.fd_sign_mismatches == 0
        assert r.fd_agreement is not None and r.fd_agreement < 1e-4

    def test_xi312_nonnegative_on_window(self):
        r = sweep_xi_312(EX38["p"], EX38["alpha"], EX38["beta"],
                         EX38["p_star"], EX38["alpha_star"],
                         EX38["beta_star"], WINDOW)
        assert r.sign_constant
        assert r.min_value >= 0.0
        np.testing.assert_allclose(r.min_value, 3.7917641e-24, rtol=1e-6)
        assert r.fd_sign_mismatches == 0
        assert r.fd_agreement is not None and r.fd_agreement < 1e-4

    def test_xi310_negative_on_window(self):
        r = sweep_xi_310(EX36["p"], EX36["beta"], EX36["p_star"],
                         EX36["beta_star"], EX36["alpha"], WINDOW)
        assert r.sign_constant
        assert r.max_value <= 0.0
        np.testing.assert_allclose(r.min_value, -1.2672587558, rtol=1e-9)
        assert r.fd_sign_mismatches == 0
        assert r.fd_agreement is not None and r.fd_agreement < 1e-4

    def test_xi310_changes_sign_on_wide_window(self):
        # the same parameters produce a positive excursion below x ~ 1e-3,
        # so the sign claim does not survive on the wider default range
        r = sweep_xi_310(EX36["p"], EX36["beta"], EX36["p_star"],
                         EX36["beta_star"], EX36["alpha"],
                         np.geomspace(1e-4, 1e4, 50))
        assert not r.sign_constant
        assert r.max_value > 300.0
        assert r.min_value < -2.0
        # analytic and finite-difference values track through the excursion
        assert r.fd_sign_mismatches == 0

    def test_report_roundtrip(self):
        r = sweep_delta1((0.4, 0.6), (3.0, 1.0), 0.5, (0.5, 1.0, 2.0))
        d = r.to_dict()
        assert d["function_id"] == "delta1"
        assert d["points"] == [0.5, 1.0, 2.0]
        assert d["sign_constant"] == r.sign_constant
        assert d["fd_sign_mismatches"] == 0


# ---------------------------------------------------------------------------
# independent code paths must agree
# ---------------------------------------------------------------------------


class TestTwoPaths:
    def test_xi310_quadruple_sum_vs_power_sums(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(2, 4))
            p = rng.uniform(0.05, 1.0, n)
            p = tuple(p / p.sum())
            ps = rng.uniform(0.05, 1.0, m)
            ps = tuple(ps / ps.sum())
            b = tuple(rng.uniform(0.3, 4.0, n))
            bs = tuple(rng.uniform(0.3, 4.0, m))
            a = float(rng.uniform(0.3, 4.0))
            x = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
            v1 = xi_310(p, b, ps, bs, a, x)
            v2 = xi_310_via_power_sums(p, b, ps, bs, a, x)
            assert abs(v1 - v2) <= 1e-8 * max(abs(v1), abs(v2)) + 1e-26

    def test_xi310_zero_for_identical_mixtures(self):
        p, b = (0.3, 0.7), (1.5, 2.5)
        for x in (0.1, 1.0, 10.0):
            v = xi_310(p, b, p, b, 2.0, x)
            assert abs(v) < 1e-18

    def test_k1_matches_mixture_evaluators(self):
        betas = (5.2, 15.8, 5.6)
        orig = FiniteMixture((0.2, 0.6, 0.2), 1.0, betas)
        shifted = FiniteMixture((0.2, 0.5, 0.3), 1.0, betas)
        for x in DEFAULT_GRID.xs()[::67]:
            direct = k1(float(x))
            via_mix = mixture_sf(float(x), shifted) - mixture_sf(float(x), orig)
            assert abs(direct - via_mix) <= 1e-15

    def test_xi312_antisymmetry(self):
        # swapping the two mixtures flips the sign of the numerator
        kw = dict(x=1.7)
        v = xi_312_prime(EX38["p"], EX38["alpha"], EX38["beta"],
                         EX38["p_star"], EX38["alpha_star"],
                         EX38["beta_star"], **kw)
        w = xi_312_prime(EX38["p_star"], EX38["alpha_star"], EX38["beta_star"],
                         EX38["p"], EX38["alpha"], EX38["beta"], **kw)
        np.testing.assert_allclose(v, -w, rtol=1e-12)


# ---------------------------------------------------------------------------
# k1 curve shape
# ---------------------------------------------------------------------------


class TestK1Curve:
    def test_never_positive_beyond_noise(self):
        values = np.array([k1(float(x)) for x in DEFAULT_GRID.xs()])
        big = values[np.abs(values) > 2e-12]
        assert big.size > 1000
        assert np.all(big < 0.0)

    def test_dip_depth(self):
        values = np.array([k1(float(x)) for x in DEFAULT_GRID.xs()])
        np.testing.assert_allclose(values.min(), -0.03652807089367341,
                                   rtol=1e-10)


# ---------------------------------------------------------------------------
# finite-difference helper
# ---------------------------------------------------------------------------


class TestFdCentral:
    def test_cubic(self):
        np.testing.assert_allclose(fd_central(lambda t: t ** 3, 2.0),
                                   12.0, rtol=1e-9)

    def test_exponential(self):
        np.testing.assert_allclose(fd_central(math.exp, 1.0),
                                   math.e, rtol=1e-9)
