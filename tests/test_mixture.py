"""Mixture construction, JSON round trip, frozen catalog values, the
compensated-summation guarantees, and the blocked kernel's bit identity
with a per-component reference."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_mixture
from ikmix import ikdist, mixture
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

    @pytest.mark.parametrize("bad", [None, object()])
    def test_non_iterable_parameter_is_a_domain_error(self, bad):
        with pytest.raises(DomainError, match="alpha must be a real number"):
            FiniteMixture.build((1.0,), bad, 1.0)
        with pytest.raises(DomainError, match="beta must be a real number"):
            FiniteMixture.from_dict({"weights": [1.0], "alpha": 1.0, "beta": bad})


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

    # the third mixture's component quantiles run from 0.02 to 1.6e7 at
    # u = 0.9, where the answer is 45
    WIDE = ((0.2, 0.3, 0.5), (0.1, 1.0, 30.0), (0.5, 2.0, 50.0))

    @pytest.mark.parametrize("weights, alphas, betas", [
        ((0.5, 0.5), (1.0, 1.0), (1.0, 2.0)),
        ((0.3, 0.7), (0.5, 4.0), (0.7, 9.0)),
        WIDE])
    def test_against_mpmath_inversion(self, weights, alphas, betas):
        m = _mix(weights, alphas, betas)
        for u in (0.01, 0.3, 0.5, 0.9):
            with mp.workdps(40):
                level = mp.mpf(u)
                terms = [(mp.mpf(w), mp.mpf(a), mp.mpf(b))
                         for w, a, b in zip(weights, alphas, betas)]
                qs = [(1 - level ** (1 / b)) ** (-1 / a) - 1 for _, a, b in terms]
                root = float(mp.findroot(
                    lambda x: mp.fsum(w * (1 - (1 + x) ** -a) ** b for w, a, b in terms) - level,
                    (min(qs), max(qs)), solver="anderson"))
            assert abs(mixture_quantile(u, m) - root) <= 1e-12 * max(1.0, root), u

    @pytest.mark.parametrize("weights, alphas, betas", [
        ((1e-17, 1.0), (30.0, 1.0), (50.0, 2.0)),
        ((1.0, 1e-17), (1.0, 0.3), (2.0, 0.5))])
    def test_bracket_within_rounding(self, monkeypatch, weights, alphas, betas):
        # a component of weight 1e-17 stretches the bracket to its own
        # quantile, while the answer is the IK(1, 2) quantile at the other
        # end; rounding can leave cdf - u of one sign at both ends, and
        # the quantile must then return the end nearer the root
        unbracketed = []
        search = mixture._refine_crossing

        def spy(*args):
            root = search(*args)
            if root is None:
                unbracketed.append(args[1:3])
            return root

        monkeypatch.setattr(mixture, "_refine_crossing", spy)
        m = _mix(weights, alphas, betas)
        for u in np.linspace(0.01, 0.99, 100):
            want = ik_quantile(float(u), IKParams(1.0, 2.0))
            assert abs(mixture_quantile(float(u), m) - want) <= 1e-12 * max(1.0, want), u
        assert unbracketed

    def test_few_vectorised_cdf_calls(self, monkeypatch):
        sizes = []
        cdf = mixture.mixture_cdf
        monkeypatch.setattr(mixture, "mixture_cdf",
                            lambda x, m: sizes.append(np.size(x)) or cdf(x, m))
        mixture_quantile(0.9, _mix(*self.WIDE))
        assert len(sizes) <= 10
        assert max(sizes) == 64


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


# ---------------------------------------------------------------------------
# the blocked kernel against the per-component evaluators it replaced
# ---------------------------------------------------------------------------


def _ref_cdf(x, m):
    return neumaier_sum(w * ik_cdf(x, c) for w, c in zip(m.weights, m.components))


def _ref_sf(x, m):
    return neumaier_sum(w * ik_sf(x, c) for w, c in zip(m.weights, m.components))


def _ref_pdf(x, m):
    terms = [w * ik_pdf(x, c) for w, c in zip(m.weights, m.components)]
    if any(np.any(np.isinf(t)) for t in terms):
        inf_mask = np.zeros_like(np.asarray(terms[0], dtype=float), dtype=bool)
        for t in terms:
            inf_mask |= np.isinf(np.asarray(t, dtype=float))
        finite_terms = [np.where(inf_mask, 0.0, t) for t in terms]
        out = np.where(inf_mask, np.inf, neumaier_sum(finite_terms))
        return float(out) if out.ndim == 0 else out
    return neumaier_sum(terms)


def _ref_rh(x, m):
    xs = np.asarray(x, dtype=float)
    if np.any(np.atleast_1d(xs) <= 0.0):
        raise DomainError("reversed hazard requires x > 0")
    out = np.asarray(_ref_pdf(x, m), dtype=float) / np.asarray(_ref_cdf(x, m), dtype=float)
    return float(out) if out.ndim == 0 else out


EVALUATORS = [(mixture_cdf, _ref_cdf), (mixture_sf, _ref_sf),
              (mixture_pdf, _ref_pdf), (mixture_reversed_hazard, _ref_rh)]


def test_evaluator_table_holds_the_public_functions():
    # code that replaces an evaluator by name reaches the table only when
    # it holds the module's functions themselves
    assert mixture.EVALUATORS == {"cdf": mixture.mixture_cdf, "sf": mixture.mixture_sf,
                                  "pdf": mixture.mixture_pdf,
                                  "rh": mixture.mixture_reversed_hazard}


def _assert_bit_identical(got, want):
    assert type(got) is type(want)
    got_a, want_a = np.asarray(got), np.asarray(want)
    assert got_a.dtype == want_a.dtype and got_a.shape == want_a.shape
    np.testing.assert_array_equal(np.signbit(got_a), np.signbit(want_a))
    assert got_a.tobytes() == want_a.tobytes()


def _spread_mixture(rng, n):
    raw = rng.uniform(0.05, 1.0, size=n)
    alphas = 10.0 ** rng.uniform(-1.5, 2.0, size=n)
    betas = 10.0 ** rng.uniform(-1.5, 2.5, size=n)
    betas[::4] = 1.0
    return FiniteMixture.build(tuple(raw / raw.sum()), tuple(alphas), tuple(betas))


class TestKernelBitIdentity:
    @pytest.mark.parametrize("points", [500, 2000])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 50, 70])
    def test_grid(self, n, points):
        # 2000 points give 4 rows per block, 500 give 16: components span
        # several blocks, and n is not always a multiple of the block
        m = _spread_mixture(np.random.default_rng(1000 * n + points), n)
        xs = np.geomspace(1e-4, 1e4, points)
        for fn, ref in EVALUATORS:
            _assert_bit_identical(fn(xs, m), ref(xs, m))

    @pytest.mark.parametrize("n", [1, 3, 70])
    def test_scalar_x(self, n):
        m = _spread_mixture(np.random.default_rng(n), n)
        for x in (1e-300, 1e-4, 0.37, 1.0, 250.0, 1e300):
            for fn, ref in EVALUATORS:
                _assert_bit_identical(fn(x, m), ref(x, m))

    @pytest.mark.parametrize("beta", [0.4, 1.0, 3.0])
    def test_zero_boundary(self, beta):
        m = FiniteMixture.build((0.2, 0.5, 0.3), (0.7, 2.0, 5.0), (1.5, beta, 2.5))
        xs = np.array([0.0, 1e-300, 1e-3, 1.0, 1e300])
        for fn, ref in EVALUATORS[:3]:
            _assert_bit_identical(fn(xs, m), ref(xs, m))
            _assert_bit_identical(fn(0.0, m), ref(0.0, m))
        assert np.isinf(mixture_pdf(0.0, m)) == (beta < 1.0)
        with pytest.raises(DomainError, match="x > 0"):
            mixture_reversed_hazard(xs, m)

    def test_extreme_x(self):
        m = _spread_mixture(np.random.default_rng(5), 9)
        xs = np.array([1e-300, 1e-200, 1e200, 1e300])
        for fn, ref in EVALUATORS:
            _assert_bit_identical(fn(xs, m), ref(xs, m))
            _assert_bit_identical(fn(xs[:1], m), ref(xs[:1], m))

    def test_shape_is_kept(self):
        m = _spread_mixture(np.random.default_rng(6), 4)
        xs = np.geomspace(1e-3, 1e3, 12).reshape(3, 4)
        for fn, ref in EVALUATORS:
            _assert_bit_identical(fn(xs, m), ref(xs, m))

    def test_one_pass_gives_every_name(self):
        m = _spread_mixture(np.random.default_rng(8), 11)
        xs = np.geomspace(1e-4, 1e4, 300)
        got = mixture._evaluate(xs, m, ("cdf", "sf", "pdf", "rh"))
        for value, (_, ref) in zip(got, EVALUATORS):
            _assert_bit_identical(value, ref(xs, m))

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=700))
    @settings(max_examples=60, deadline=None)
    def test_random_mixtures(self, seed, n, points):
        r = np.random.default_rng(seed)
        m = _spread_mixture(r, n)
        xs = np.sort(10.0 ** r.uniform(-6.0, 6.0, size=points))
        with np.errstate(all="ignore"):
            for fn, ref in EVALUATORS:
                _assert_bit_identical(fn(xs, m), ref(xs, m))


    @pytest.mark.parametrize("points", [1, 700, 2000, 9000])
    def test_rows_are_added_in_component_order(self, monkeypatch, points):
        # a compensated sum of positive terms rarely depends on their order,
        # so the order is checked on the rows themselves
        added = []

        class Recording(mixture._RowSum):
            def __init__(self, first):
                added.append(first.copy())
                super().__init__(first)

            def add(self, t):
                added.append(t.copy())
                super().add(t)

        monkeypatch.setattr(mixture, "_RowSum", Recording)
        m = _spread_mixture(np.random.default_rng(points), 13)
        xs = np.geomspace(1e-3, 1e3, points)
        mixture_sf(xs, m)
        want = [w * ik_sf(xs, c) for w, c in zip(m.weights, m.components)]
        assert [r.tobytes() for r in added] == [r.tobytes() for r in want]


def _two_branch_log_u(L, alpha):
    """log u with both branches evaluated everywhere and one picked by
    np.where, as before each branch ran only on its own half."""
    y = alpha * L
    with np.errstate(divide="ignore"):
        small_u = np.log(-np.expm1(-y))
        large_u = np.log1p(-np.exp(-y))
    return np.where(y > math.log(2.0), large_u, small_u)


class TestLogU:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_two_branch_form(self, seed):
        # unsorted x, so the two halves interleave in short runs
        r = np.random.default_rng(seed)
        x = np.concatenate([[0.0, 5e-324, 1e-300, 1e300],
                            10.0 ** r.uniform(-300.0, 300.0, size=3000),
                            r.uniform(0.0, 3.0, size=3000)])
        L = np.log1p(x)
        alphas = 10.0 ** r.uniform(-3.0, 3.0, size=(5, 1))
        got = ikdist._log_u(L, alphas)
        assert got.tobytes() == _two_branch_log_u(L, alphas).tobytes()
        for k in range(alphas.shape[0]):
            assert ikdist._log_u(L, float(alphas[k, 0])).tobytes() == got[k].tobytes()


class TestRowSum:
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_neumaier_sum(self, seed):
        r = np.random.default_rng(seed)
        rows, width = int(r.integers(1, 12)), 400
        terms = 10.0 ** r.uniform(-300.0, 300.0, size=(rows, width))
        tiny = np.finfo(float).tiny
        special = np.array([0.0, -0.0, tiny / 2.0, tiny / 2 ** 40, 5e-324, tiny, 1.0])
        pick = r.random(size=terms.shape) < 0.3
        terms[pick] = r.choice(special, size=int(pick.sum()))
        acc = mixture._RowSum(terms[0])
        for row in terms[1:]:
            acc.add(row)
        got, want = acc.result(), neumaier_sum(list(terms))
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        assert got.tobytes() == want.tobytes()

    def test_signed_zero_rows(self):
        for rows in ([[-0.0, 0.0, -0.0]], [[-0.0, -0.0, 0.0], [-0.0, 0.0, 0.0]],
                     [[0.0, -0.0, -0.0], [-0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]]):
            terms = [np.array(row) for row in rows]
            acc = mixture._RowSum(terms[0])
            for row in terms[1:]:
                acc.add(row)
            assert acc.result().tobytes() == neumaier_sum(terms).tobytes()
