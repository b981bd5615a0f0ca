"""Mixture construction, JSON round trip, frozen catalog values, and the
compensated-summation guarantees."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_mixture
from ikmix import (
    DomainError,
    FiniteMixture,
    IKParams,
    ik_cdf,
    ik_pdf,
    ik_quantile,
    ik_sf,
    mixture_cdf,
    mixture_pdf,
    mixture_quantile,
    mixture_reversed_hazard,
    mixture_sf,
    neumaier_sum,
)

rng = np.random.default_rng(42)


def _mix(weights, alphas, betas) -> FiniteMixture:
    return FiniteMixture(tuple(weights),
                         tuple(IKParams(a, b) for a, b in zip(alphas, betas)))


CE32_M = _mix((0.2, 0.6, 0.2), (1.0, 1.0, 1.0), (5.2, 15.8, 5.6))
CE32_MSTAR = _mix((0.2, 0.5, 0.3), (1.0, 1.0, 1.0), (5.2, 15.8, 5.6))


class TestConstruction:
    def test_weight_sum_tolerance(self):
        FiniteMixture((0.5, 0.5000001), (IKParams(1, 1), IKParams(2, 1)))
        with pytest.raises(DomainError):
            FiniteMixture((0.5, 0.51), (IKParams(1, 1), IKParams(2, 1)))

    def test_weights_positive(self):
        with pytest.raises(DomainError):
            FiniteMixture((1.2, -0.2), (IKParams(1, 1), IKParams(2, 1)))

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            FiniteMixture((0.5, 0.5), (IKParams(1, 1),))

    def test_renormalization_is_tight(self):
        m = FiniteMixture((0.30000004, 0.6999999), (IKParams(1, 1), IKParams(2, 1)))
        assert abs(sum(m.weights) - 1.0) <= 4e-16

    def test_from_dict_broadcast(self):
        m = FiniteMixture.from_dict({"weights": [0.25, 0.75], "alpha": 2.0,
                                     "beta": [0.5, 1.5]})
        assert m.alphas == (2.0, 2.0)
        assert m.betas == (0.5, 1.5)
        again = FiniteMixture.from_dict(m.to_dict())
        assert again == m

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(DomainError):
            FiniteMixture.from_dict({"weights": [1.0]})
        with pytest.raises(DomainError):
            FiniteMixture.from_dict({"weights": [0.5, 0.5], "alpha": [1.0],
                                     "beta": 1.0})

    def test_from_matrix_variants(self):
        ma = FiniteMixture.build((0.4, 0.6), (1.0, 9.0), 0.5)
        assert ma.alphas == (1.0, 9.0) and ma.betas == (0.5, 0.5)
        mb = FiniteMixture.build((0.4, 0.6), 0.5, (1.0, 9.0))
        assert mb.betas == (1.0, 9.0) and mb.alphas == (0.5, 0.5)
        with pytest.raises(DomainError, match="2 weights vs 3 alphas"):
            FiniteMixture.build((0.4, 0.6), (1.0, 9.0, 2.0), 0.5)
        with pytest.raises(DomainError, match="1 betas"):
            FiniteMixture.build((0.4, 0.6), 0.5, (1.0,))


class TestFrozenValues:
    """Catalog-parameter evaluations pinned against 40-digit references."""

    def test_shifted_weight_survival_pair(self):
        np.testing.assert_allclose(mixture_sf(10.0, CE32_M),
                                   0.62778820138814137, rtol=1e-12)
        np.testing.assert_allclose(mixture_sf(10.0, CE32_MSTAR),
                                   0.59132899417837712, rtol=1e-12)
        diff = mixture_sf(10.0, CE32_MSTAR) - mixture_sf(10.0, CE32_M)
        np.testing.assert_allclose(diff, -0.036459207209764251, rtol=1e-11)

    def test_two_parameter_families(self):
        m = _mix((0.1, 0.7, 0.2), (5.0, 8.0, 6.0), (2.0, 1.0, 1.0))
        mstar = _mix((0.2, 0.5, 0.3), (3.0, 4.0, 2.0), (5.0, 3.0, 6.0))
        np.testing.assert_allclose(mixture_cdf(5.0, m),
                                   0.99996957803318007, rtol=1e-12)
        np.testing.assert_allclose(mixture_cdf(5.0, mstar),
                                   0.94760279568855987, rtol=1e-12)

    def test_density_pair(self):
        m = _mix((0.2, 0.4, 0.4), (2.0, 4.0, 6.0), (25.0, 13.0, 9.0))
        mstar = _mix((0.3, 0.5, 0.2), (8.0, 10.0, 12.0), (3.0, 4.0, 1.0))
        np.testing.assert_allclose(mixture_pdf(2.0, m),
                                   0.1054377998470661, rtol=1e-12)
        np.testing.assert_allclose(mixture_pdf(2.0, mstar),
                                   0.00048008658909000593, rtol=1e-12)

    def test_reversed_hazard_pair(self):
        m = _mix((0.1, 0.3, 0.6), (2.0, 2.0, 2.0), (0.1, 0.2, 0.3))
        mstar = _mix((0.2, 0.3, 0.5), (2.0, 2.0, 2.0), (0.5, 1.0, 2.0))
        np.testing.assert_allclose(mixture_reversed_hazard(1.0, m),
                                   0.082897678703302862, rtol=1e-12)
        np.testing.assert_allclose(mixture_reversed_hazard(1.0, mstar),
                                   0.42882527736036457, rtol=1e-12)


class TestEvaluators:
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_cdf_sf_complement(self, seed):
        r = np.random.default_rng(seed)
        m = random_mixture(r)
        xs = np.geomspace(1e-4, 1e4, 25)
        np.testing.assert_allclose(mixture_cdf(xs, m) + mixture_sf(xs, m), 1.0,
                                   atol=1e-14)

    def test_identical_components_collapse(self):
        p = IKParams(1.7, 0.9)
        m = FiniteMixture((0.2, 0.5, 0.3), (p, p, p))
        xs = np.geomspace(1e-3, 1e3, 40)
        np.testing.assert_allclose(mixture_cdf(xs, m), ik_cdf(xs, p), rtol=1e-15)
        np.testing.assert_allclose(mixture_sf(xs, m), ik_sf(xs, p), rtol=1e-15)
        np.testing.assert_allclose(mixture_pdf(xs, m), ik_pdf(xs, p), rtol=1e-15)

    def test_sf_weakly_decreasing(self):
        m = random_mixture(np.random.default_rng(7))
        xs = np.geomspace(1e-4, 1e4, 200)
        sf = mixture_sf(xs, m)
        assert np.all(np.diff(sf) <= 1e-15)

    def test_boundary_infinity_propagates(self):
        m = _mix((0.5, 0.5), (1.0, 1.0), (0.5, 3.0))
        assert np.isinf(mixture_pdf(0.0, m))
        vals = mixture_pdf(np.array([0.0, 1.0]), m)
        assert np.isinf(vals[0]) and np.isfinite(vals[1])

    def test_rh_positive_x_only(self):
        m = _mix((1.0,), (1.0,), (1.0,))
        with pytest.raises(DomainError):
            mixture_reversed_hazard(0.0, m)

    def test_fd_cdf_matches_pdf(self):
        m = random_mixture(np.random.default_rng(11), n=3)
        h0 = np.finfo(float).eps ** (1.0 / 3.0)
        for x in (0.05, 0.7, 3.0, 40.0):
            h = x * h0
            fd = (mixture_cdf(x + h, m) - mixture_cdf(x - h, m)) / (2 * h)
            np.testing.assert_allclose(fd, mixture_pdf(x, m), rtol=1e-6)


class TestQuantile:
    def test_single_component_matches_closed_form(self):
        m = _mix((1.0,), (1.3,), (2.4,))
        for u in (0.05, 0.35, 0.9):
            np.testing.assert_allclose(mixture_quantile(u, m),
                                       ik_quantile(u, IKParams(1.3, 2.4)),
                                       rtol=1e-9)

    def test_round_trip(self):
        m = _mix((0.3, 0.7), (2.0, 0.6), (0.8, 3.0))
        for u in (0.01, 0.2, 0.5, 0.8, 0.99):
            assert abs(mixture_cdf(mixture_quantile(u, m), m) - u) <= 1e-10

    def test_level_domain(self):
        m = _mix((1.0,), (1.0,), (1.0,))
        for u in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(DomainError):
                mixture_quantile(u, m)


class TestNeumaierSum:
    def test_classic_cancellation(self):
        assert neumaier_sum([1.0, 1e100, 1.0, -1e100]) == 2.0

    def test_array_terms(self):
        total = neumaier_sum([np.array([1.0, 1e100]), np.array([1.0, -1e100]),
                              np.array([1.0, 1.0])])
        np.testing.assert_array_equal(total, np.array([3.0, 1.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            neumaier_sum([])

    def test_order_is_fixed(self):
        # same multiset, different order: compensated results may differ in
        # the last ulp, which is exactly why the evaluation order is pinned
        terms = [0.1, 0.2, 0.3, -0.4, 1e-17]
        assert neumaier_sum(terms) == neumaier_sum(list(terms))
