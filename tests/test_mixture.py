"""Mixture construction, JSON round trip, frozen catalog values, the
compensated weight sum, and the log-sum-exp kernel's accuracy against
50-digit mpmath and a per-component reference."""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mp_mixture, random_mixture
from ikmix import ikdist, mixture, ordercheck
from ikmix import (
    DomainError,
    FiniteMixture,
    IKParams,
    ParamMatrix2xN,
    check_theorem_3_11,
    ik_cdf,
    ik_pdf,
    ik_quantile,
    ik_reversed_hazard,
    ik_sf,
    in_script_l,
    mixture_cdf,
    mixture_pdf,
    mixture_quantile,
    mixture_reversed_hazard,
    mixture_sf,
    neumaier_sum,
)
from ikmix.scan import ScanConfig, run_scan

rng = np.random.default_rng(42)

T310_GAP_PROBE = (Path(__file__).resolve().parents[1]
                  / "scripts" / "scan_configs" / "t310_gap_probe.json")


CE32_M = FiniteMixture((0.2, 0.6, 0.2), (1.0, 1.0, 1.0), (5.2, 15.8, 5.6))
CE32_MSTAR = FiniteMixture((0.2, 0.5, 0.3), (1.0, 1.0, 1.0), (5.2, 15.8, 5.6))


class TestConstruction:
    def test_weight_sum_tolerance(self):
        FiniteMixture((0.5, 0.5000001), (1, 2), 1)
        with pytest.raises(DomainError):
            FiniteMixture((0.5, 0.51), (1, 2), 1)

    def test_weights_positive(self):
        with pytest.raises(DomainError):
            FiniteMixture((1.2, -0.2), (1, 2), 1)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            FiniteMixture((0.5, 0.5), (1,), (1,))

    def test_renormalization_is_tight(self):
        m = FiniteMixture((0.30000004, 0.6999999), (1, 2), 1)
        assert abs(sum(m.weights) - 1.0) <= 4e-16

    def test_weights_are_divided_by_their_fsum(self):
        r = np.random.default_rng(17)
        for n in range(1, 8):
            for _ in range(100):
                raw = r.dirichlet(np.ones(n)) * (1.0 + r.uniform(-5e-7, 5e-7))
                weights = tuple(raw.tolist())
                m = FiniteMixture(weights, 1, 1)
                assert m.weights == tuple(w / math.fsum(weights) for w in weights)

    def test_two_weights_total_as_the_compensated_sum(self):
        # for two terms the compensated sum is s + e, where e is the exact
        # rounding error of s = a + b, so it rounds back to s: fsum's value
        r = np.random.default_rng(18)
        for a, shift in zip(r.uniform(1e-6, 1.0, 2000), r.uniform(-5e-7, 5e-7, 2000)):
            pair = (float(a), float(1.0 - a + shift))
            assert math.fsum(pair).hex() == neumaier_sum(pair).hex()
            m = FiniteMixture(pair, (1, 2), 1)
            assert m.weights == tuple(w / neumaier_sum(pair) for w in pair)

    @pytest.mark.parametrize("alpha, beta, alphas, betas", [
        (np.array([1, 2]), 1.0, (1.0, 2.0), (1.0, 1.0)),
        (np.array(2.0), 1.0, (2.0, 2.0), (1.0, 1.0)),
        (0.5, np.array(3), (0.5, 0.5), (3.0, 3.0)),
        (np.float32(0.5), np.array([np.int64(1), np.int64(4)]), (0.5, 0.5), (1.0, 4.0))])
    def test_build_takes_numpy_values(self, alpha, beta, alphas, betas):
        m = FiniteMixture([0.5, 0.5], alpha, beta)
        assert (m.alphas, m.betas) == (alphas, betas)
        assert all(type(v) is float for v in m.alphas + m.betas)

    @pytest.mark.parametrize("bad", [np.array(np.nan), np.array(np.inf), np.array(0.0),
                                     np.array([1.0, -1.0]), np.array(True), np.array("1")])
    def test_build_rejects_bad_numpy_values(self, bad):
        with pytest.raises(DomainError):
            FiniteMixture([0.5, 0.5], bad, 1.0)

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
        ma = FiniteMixture((0.4, 0.6), (1.0, 9.0), 0.5)
        assert ma.alphas == (1.0, 9.0) and ma.betas == (0.5, 0.5)
        mb = FiniteMixture((0.4, 0.6), 0.5, (1.0, 9.0))
        assert mb.betas == (1.0, 9.0) and mb.alphas == (0.5, 0.5)
        with pytest.raises(DomainError, match="2 weights vs 3 alphas"):
            FiniteMixture((0.4, 0.6), (1.0, 9.0, 2.0), 0.5)
        with pytest.raises(DomainError, match="1 betas"):
            FiniteMixture((0.4, 0.6), 0.5, (1.0,))

    @pytest.mark.parametrize("bad", [None, object()])
    def test_non_iterable_parameter_is_a_domain_error(self, bad):
        with pytest.raises(DomainError, match="alpha must be a real number"):
            FiniteMixture((1.0,), bad, 1.0)
        with pytest.raises(DomainError, match="beta must be a real number"):
            FiniteMixture.from_dict({"weights": [1.0], "alpha": 1.0, "beta": bad})


    @pytest.mark.parametrize("weights, alpha, message", [
        pytest.param((10**400,), 1.0, "weights must be positive and finite",
                     id="401-digit weight"),
        pytest.param((1.0,), (10**400,), "alpha must be positive and finite",
                     id="401-digit alpha"),
        ((None, 1.0), 1.0, "weights must be a real number"),
        (("0.5", "0.5"), 1.0, "weights must be a real number"),
        ((True,), 1.0, "weights must be a real number"),
        (None, 1.0, "weights must be a list of real numbers"),
        (1.0, 1.0, "weights must be a list of real numbers"),
        pytest.param((1e308, 1e308), 1.0, "raw weights sum to inf", id="sum overflows")])
    def test_weights_are_checked_as_strictly_as_shapes(self, weights, alpha, message):
        with pytest.raises(DomainError, match=message):
            FiniteMixture(weights, alpha, 1.0)


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
        m = FiniteMixture((0.1, 0.7, 0.2), (5.0, 8.0, 6.0), (2.0, 1.0, 1.0))
        mstar = FiniteMixture((0.2, 0.5, 0.3), (3.0, 4.0, 2.0), (5.0, 3.0, 6.0))
        np.testing.assert_allclose(mixture_cdf(5.0, m),
                                   0.99996957803318007, rtol=1e-12)
        np.testing.assert_allclose(mixture_cdf(5.0, mstar),
                                   0.94760279568855987, rtol=1e-12)

    def test_density_pair(self):
        m = FiniteMixture((0.2, 0.4, 0.4), (2.0, 4.0, 6.0), (25.0, 13.0, 9.0))
        mstar = FiniteMixture((0.3, 0.5, 0.2), (8.0, 10.0, 12.0), (3.0, 4.0, 1.0))
        np.testing.assert_allclose(mixture_pdf(2.0, m),
                                   0.1054377998470661, rtol=1e-12)
        np.testing.assert_allclose(mixture_pdf(2.0, mstar),
                                   0.00048008658909000593, rtol=1e-12)

    def test_reversed_hazard_pair(self):
        m = FiniteMixture((0.1, 0.3, 0.6), (2.0, 2.0, 2.0), (0.1, 0.2, 0.3))
        mstar = FiniteMixture((0.2, 0.3, 0.5), (2.0, 2.0, 2.0), (0.5, 1.0, 2.0))
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
        m = FiniteMixture((0.2, 0.5, 0.3), p.alpha, p.beta)
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
        m = FiniteMixture((0.5, 0.5), (1.0, 1.0), (0.5, 3.0))
        assert np.isinf(mixture_pdf(0.0, m))
        vals = mixture_pdf(np.array([0.0, 1.0]), m)
        assert np.isinf(vals[0]) and np.isfinite(vals[1])

    def test_rh_positive_x_only(self):
        m = FiniteMixture((1.0,), (1.0,), (1.0,))
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
        m = FiniteMixture((1.0,), (1.3,), (2.4,))
        for u in (0.05, 0.35, 0.9):
            np.testing.assert_allclose(mixture_quantile(u, m),
                                       ik_quantile(u, IKParams(1.3, 2.4)),
                                       rtol=1e-9)

    def test_round_trip(self):
        m = FiniteMixture((0.3, 0.7), (2.0, 0.6), (0.8, 3.0))
        for u in (0.01, 0.2, 0.5, 0.8, 0.99):
            assert abs(mixture_cdf(mixture_quantile(u, m), m) - u) <= 1e-10

    def test_level_domain(self):
        m = FiniteMixture((1.0,), (1.0,), (1.0,))
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
        m = FiniteMixture(weights, alphas, betas)
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
        m = FiniteMixture(weights, alphas, betas)
        for u in np.linspace(0.01, 0.99, 100):
            want = ik_quantile(float(u), IKParams(1.0, 2.0))
            assert abs(mixture_quantile(float(u), m) - want) <= 1e-12 * max(1.0, want), u
        assert unbracketed

    def test_tiny_quantile_keeps_its_digits(self):
        # the answer lies far below 1e-12, where a width absolute in x
        # would leave no correct digit; the root is 50-digit mpmath's
        m = FiniteMixture((0.9, 0.1), (150.0, 0.2), (400.0, 0.3))
        got = mixture_quantile(1e-6, m)
        assert abs(got - 1.0772173450159419e-16) <= 1e-12 * 1.0772173450159419e-16
        assert mixture_cdf(got, m) == pytest.approx(1e-6, rel=1e-11)

    @pytest.mark.parametrize("weights, alphas, betas, root", [
        ((0.5, 0.5), (0.2, 0.3), (0.3, 400.0), 5.0396841995794835e-19),
        ((0.7, 0.3), (0.1, 0.4), (0.25, 0.5), 4.1649108790579238e-23),
        ((1.5e-6, 1 - 1.5e-6), (0.2, 0.3), (0.01, 400.0), 1.2298272132899069e-17),
    ])
    def test_tiny_quantile_with_small_alphas(self, weights, alphas, betas, root):
        # every alpha lies below 0.5, so alpha * 5e-324 underflows and log
        # cdf is -inf there.  The smallest component quantile brackets the
        # root from below: tiny for the first two mixtures (it rounded to
        # -0.0 before ik_quantile took log w from log1p), and 0 for the
        # third, whose u^(1/beta) underflows, so that the search starts at
        # 5e-324; the roots are 50-digit mpmath's
        m = FiniteMixture(weights, alphas, betas)
        lo = min(ik_quantile(1e-6, IKParams(a, b)) for a, b in zip(m.alphas, m.betas))
        assert 0.0 <= lo <= root and math.copysign(1.0, lo) == 1.0
        assert (lo == 0.0) == (root > 1e-18)
        assert abs(mixture_quantile(1e-6, m) - root) <= 1e-12 * root

    def test_overflowing_component_quantile(self):
        # alpha = 1e-10 puts the first component's quantile at 0.5 beyond
        # the largest float, so the bracket ends at that float.  With 0.9
        # on IK(2, 0.4) the cdf there is 0.9 and the root is 40-digit
        # mpmath's; with 0.4 the cdf there is 0.4, below u, and the answer
        # is inf, as the lone component's.  Neither warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ik_quantile(0.5, IKParams(1e-10, 3.0)) == math.inf
            got = mixture_quantile(0.5, FiniteMixture((0.1, 0.9), (1e-10, 2.0), (3.0, 0.4)))
            beyond = mixture_quantile(0.5, FiniteMixture((0.6, 0.4), (1e-10, 2.0), (3.0, 0.4)))
        assert abs(got - 0.13964139436412884) <= 1e-12 * 0.13964139436412884
        assert beyond == math.inf

    def test_few_vectorised_cdf_calls(self, monkeypatch):
        # the search evaluates the log cdf through the kernel
        sizes = []
        evaluate = mixture._evaluate
        monkeypatch.setattr(mixture, "_evaluate",
                            lambda x, m, names: sizes.append(np.size(x)) or evaluate(x, m, names))
        mixture_quantile(0.9, FiniteMixture(*self.WIDE))
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

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_branchy_reference(self, data):
        # every column of a random stack of terms, and each column alone as
        # floats, against the textbook loop, bit for bit: cancelling pairs,
        # equal magnitudes, signed zeros, subnormals and +-1e300 (no sum of
        # 12 such terms overflows)
        special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                   -2.2250738585072014e-308, 1.0, -1.0, 1e300, -1e300])
        value = st.one_of(special, st.floats(-1e300, 1e300), st.floats(-1.0, 1.0))
        rows = data.draw(st.integers(1, 12))
        columns = []
        for _ in range(data.draw(st.integers(1, 4))):
            col = data.draw(st.lists(value, min_size=rows, max_size=rows))
            flips = data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
            # a negated earlier term cancels it exactly
            columns.append([-col[i - 1] if flip and i else v
                            for i, (v, flip) in enumerate(zip(col, flips))])
        terms = [np.array(row) for row in zip(*columns)]
        want = [_neumaier_reference(col).hex() for col in columns]
        assert [v.hex() for v in neumaier_sum(terms).tolist()] == want
        assert [neumaier_sum(col).hex() for col in columns] == want


def _neumaier_reference(terms: list[float]) -> float:
    """Neumaier's compensated sum one float at a time, with the textbook
    branch on |s| >= |t|; it shares no code with neumaier_sum."""
    s, c = terms[0], 0.0
    for t in terms[1:]:
        total = s + t
        if abs(s) >= abs(t):
            c += (s - total) + t
        else:
            c += (t - total) + s
        s = total
    return s + c


# ---------------------------------------------------------------------------
# the log-sum-exp kernel against 50-digit mpmath and a per-component reference
# ---------------------------------------------------------------------------


# compensated sums of the single-component evaluators, on x > 0


def _ref_cdf(x, m):
    return neumaier_sum(w * ik_cdf(x, IKParams(a, b))
                        for w, a, b in zip(m.weights, m.alphas, m.betas))


def _ref_sf(x, m):
    # summed point by point by the branchy reference, not by neumaier_sum
    terms = [np.ravel(w * ik_sf(x, IKParams(a, b))).tolist()
             for w, a, b in zip(m.weights, m.alphas, m.betas)]
    out = np.array([_neumaier_reference(col) for col in zip(*terms)]).reshape(np.shape(x))
    return float(out) if out.ndim == 0 else out


def _ref_pdf(x, m):
    return neumaier_sum(w * ik_pdf(x, IKParams(a, b))
                        for w, a, b in zip(m.weights, m.alphas, m.betas))


def _ref_rh(x, m):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.asarray(_ref_pdf(x, m)) / np.asarray(_ref_cdf(x, m))


EVALUATORS = [(mixture_cdf, _ref_cdf), (mixture_sf, _ref_sf),
              (mixture_pdf, _ref_pdf), (mixture_reversed_hazard, _ref_rh)]


def test_evaluator_table_holds_the_public_functions():
    # code that replaces an evaluator by name reaches the table only when
    # it holds the module's functions themselves
    assert mixture.EVALUATORS == {"cdf": mixture.mixture_cdf, "sf": mixture.mixture_sf,
                                  "pdf": mixture.mixture_pdf,
                                  "rh": mixture.mixture_reversed_hazard}


def _assert_close(got, want, floor=1e-300):
    """got within 1e-13 relative of the reference want wherever want
    exceeds floor, plus 4 eps per unit of |log want|: both sides round
    values of that log, and exp turns its rounding into relative error.
    Elsewhere got may only be as small."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    big = want > floor
    rtol = 1e-13 + 4.0 * np.finfo(float).eps * np.abs(np.log(want[big]))
    assert np.all(np.abs(got[big] - want[big]) <= rtol * want[big])
    assert np.all(got[~big] <= 2 * floor)


def _spread_mixture(rng, n):
    raw = rng.uniform(0.05, 1.0, size=n)
    alphas = 10.0 ** rng.uniform(-1.5, 2.0, size=n)
    betas = 10.0 ** rng.uniform(-1.5, 2.5, size=n)
    betas[::4] = 1.0
    return FiniteMixture(tuple(raw / raw.sum()), tuple(alphas), tuple(betas))


def _shapes_mixture(rng, n):
    """n components whose betas run through < 1, = 1 and > 1 in turn."""
    raw = rng.uniform(0.05, 1.0, size=n)
    alphas = 10.0 ** rng.uniform(-0.3, 0.7, size=n)
    betas = np.resize([0.4, 1.0, 3.0], n) * rng.uniform(0.8, 1.2, size=n)
    betas[1::3] = 1.0
    return FiniteMixture(tuple(raw / raw.sum()), tuple(alphas), tuple(betas))


MP_POINTS = (0.0, 1e-300, 1e-4, 1.0, 1e4, 1e300)


class TestKernelAccuracy:
    @pytest.mark.parametrize("n", [1, 2, 3, 50, 70])
    def test_against_mpmath(self, n):
        # the one-component case has beta < 1; larger ones hold all three shapes
        m = _shapes_mixture(np.random.default_rng(n), n)
        xs = np.array(MP_POINTS)
        got = {name: fn(xs[1:] if name == "rh" else xs, m)
               for name, fn in mixture.EVALUATORS.items()}
        for k, x in enumerate(MP_POINTS):
            want = mp_mixture(x, m)
            for name, values in got.items():
                if name == "rh" and x == 0.0:
                    continue
                value = values[k - 1] if name == "rh" else values[k]
                ref = float(want[name])
                if ref > 1e-300 and math.isfinite(ref):
                    assert abs(value - ref) <= 1e-13 * ref, (name, x, value, ref)
                else:
                    assert value == ref or value <= 2e-300, (name, x, value, ref)

    @pytest.mark.parametrize("points", [500, 2000])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 50, 70])
    def test_grid(self, n, points):
        # 2000 points give 4 rows per block, 500 give 16: components span
        # several blocks, and n is not always a multiple of the block
        m = _spread_mixture(np.random.default_rng(1000 * n + points), n)
        xs = np.geomspace(1e-4, 1e4, points)
        for fn, ref in EVALUATORS:
            _assert_close(fn(xs, m), ref(xs, m))

    @pytest.mark.parametrize("n", [1, 3, 70])
    def test_scalar_x(self, n):
        m = _spread_mixture(np.random.default_rng(n), n)
        xs = np.array([1e-300, 1e-4, 0.37, 1.0, 250.0, 1e300])
        for fn, ref in EVALUATORS:
            values = fn(xs, m)
            for x, value in zip(xs, values):
                got = fn(float(x), m)
                assert type(got) is float
                assert got == pytest.approx(value, rel=1e-15, abs=0.0)
            _assert_close(values, ref(xs, m))

    @pytest.mark.parametrize("beta", [0.4, 1.0, 3.0])
    def test_zero_boundary(self, beta):
        m = FiniteMixture((0.2, 0.5, 0.3), (0.7, 2.0, 5.0), (1.5, beta, 2.5))
        assert mixture_cdf(0.0, m) == 0.0
        assert mixture_sf(0.0, m) == 1.0
        want_pdf = {0.4: math.inf, 1.0: 0.5 * 2.0 * 1.0, 3.0: 0.0}[beta]
        assert mixture_pdf(0.0, m) == pytest.approx(want_pdf, rel=1e-15)
        xs = np.array([0.0, 1e-300, 1e-3, 1.0, 1e300])
        np.testing.assert_array_equal(mixture_pdf(xs, m)[:1], [want_pdf])
        for fn, ref in EVALUATORS[:3]:
            _assert_close(fn(xs, m)[1:], ref(xs[1:], m))
        with pytest.raises(DomainError, match="x > 0"):
            mixture_reversed_hazard(xs, m)

    def test_extreme_x(self):
        m = _spread_mixture(np.random.default_rng(5), 9)
        xs = np.array([1e-300, 1e-200, 1e200, 1e300])
        for name, fn in mixture.EVALUATORS.items():
            values = fn(xs, m)
            for x, value in zip(xs, values):
                ref = float(mp_mixture(x, m)[name])
                if ref > 1e-300 and math.isfinite(ref):
                    assert value == pytest.approx(ref, rel=1e-13, abs=0.0), (name, x)
                else:
                    assert value == ref or value <= 2e-300, (name, x)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=700))
    @settings(max_examples=60, deadline=None)
    def test_random_mixtures(self, seed, n, points):
        r = np.random.default_rng(seed)
        m = _spread_mixture(r, n)
        xs = np.sort(10.0 ** r.uniform(-6.0, 6.0, size=points))
        for fn, ref in EVALUATORS:
            _assert_close(fn(xs, m), ref(xs, m))

    @pytest.mark.parametrize("points", [1, 700, 2000, 9000])
    def test_block_split(self, monkeypatch, points):
        # one component per block runs the running shift through every
        # rescale rule; the logs agree with the default blocks' to the
        # rounding of a log of their size; the sf, added row by row in
        # component order, does not depend on the blocks at all
        m = _spread_mixture(np.random.default_rng(points), 13)
        xs = np.geomspace(1e-3, 1e3, points)
        names = ("cdf", "pdf", "rh")
        blocked = mixture._evaluate(xs, m, names, slope=True)
        sf = mixture_sf(xs, m)
        monkeypatch.setattr(mixture, "_BLOCK_VALUES", 1)
        for got, want in zip(mixture._evaluate(xs, m, names, slope=True), blocked):
            assert np.all(np.abs(got - want) <= 1e-15 * (1.0 + np.abs(want)))
        assert mixture_sf(xs, m).tobytes() == sf.tobytes()

    @pytest.mark.parametrize("x", [1e-4, 0.3, 20.0])
    def test_r_rh_slope_against_mpmath_diff(self, x):
        # d/dx log rh = f'/f - rh, per mixture and as the r_rh slope of the
        # README's minimal T3.10 pair, against mpmath's numerical derivative
        m1 = FiniteMixture((0.5, 0.5), (1.0, 1.0), (1.0, 2.0))
        m2 = FiniteMixture((0.9, 0.1), (1.0, 1.0), (1.0, 2.0))
        def log_rh(t, m):
            terms = [(w, a, b, -mp.expm1(-a * mp.log1p(t)))
                     for w, a, b in zip(m.weights, m.alphas, m.betas)]
            F = mp.fsum(w * u ** b for w, _, b, u in terms)
            f = mp.fsum(w * a * b * (1 + t) ** (-a - 1) * u ** (b - 1) for w, a, b, u in terms)
            return mp.log(f / F)

        slopes = []
        for m in (m1, m2):
            with mp.workdps(40):
                want = mp.diff(lambda t: log_rh(t, m), mp.mpf(x))
            got = ordercheck._rh_slope(np.array([x]), m)[0]
            assert got == pytest.approx(float(want), rel=1e-13, abs=0.0)
            slopes.append((got, want))
        (g1, w1), (g2, w2) = slopes
        assert g1 - g2 == pytest.approx(float(w1 - w2), rel=1e-13, abs=1e-13 * abs(float(w1)))

    def test_slope_against_mpmath(self):
        m = _shapes_mixture(np.random.default_rng(12), 6)
        xs = np.array([1e-4, 0.3, 1.0, 20.0, 1e3])
        slopes = mixture._evaluate(xs, m, (), slope=True)[0]
        for x, got in zip(xs, slopes):
            want = float(mp_mixture(x, m)["slope"])
            assert got == pytest.approx(want, rel=1e-13, abs=0.0), x


class TestKernelBitIdentity:
    """What the kernel gives bit for bit: a reshaped x, one pass for
    several names against single passes, and the sf, which is summed
    linearly in component order."""

    def test_shape_is_kept(self):
        m = _spread_mixture(np.random.default_rng(6), 4)
        xs = np.geomspace(1e-3, 1e3, 12)
        for fn, _ in EVALUATORS:
            got = fn(xs.reshape(3, 4), m)
            assert got.shape == (3, 4)
            assert got.tobytes() == fn(xs, m).tobytes()

    def test_one_pass_gives_every_name(self):
        # each name's sum is independent of the others, so one pass for
        # all of them gives the single passes' logs bit for bit
        m = _spread_mixture(np.random.default_rng(8), 11)
        xs = np.geomspace(1e-4, 1e4, 300)
        names = ("cdf", "pdf", "rh")
        logs = mixture._evaluate(xs, m, names, slope=True)
        singles = [mixture._evaluate(xs, m, (name,))[0] for name in names]
        singles.append(mixture._evaluate(xs, m, (), slope=True)[0])
        for got, want in zip(logs, singles):
            assert got.tobytes() == want.tobytes()
        for name, log_value in zip(names, logs):
            assert mixture.EVALUATORS[name](xs, m).tobytes() == np.exp(log_value).tobytes()

    @pytest.mark.parametrize("n", [1, 3, 50, 70])
    def test_sf_is_the_compensated_sum_of_ik_sf(self, n):
        # the sf terms lie in [0, 1], so they are added as they are, in
        # component order; x = 0 and 1e300 give the terms w_i and 0
        m = _spread_mixture(np.random.default_rng(40 + n), n)
        xs = np.concatenate([[0.0, 1e-300], np.geomspace(1e-4, 1e4, 2000), [1e300]])
        assert mixture_sf(xs, m).tobytes() == _ref_sf(xs, m).tobytes()



class TestKernelStacks:
    """The kernel and the sf on a stack of parameter arrays, mixtures x 3 x
    components: one row per mixture, each bit-identical to that mixture
    alone, with the components cut as for each mixture alone."""

    NAMES = ("cdf", "pdf", "rh")

    @pytest.mark.parametrize("block_values", [None, 1])
    @pytest.mark.parametrize("n, points, rows", [(70, 2000, 1), (70, 2000, 2), (70, 2000, 5),
                                                 (2, 500, 17), (3, 77, 40)])
    def test_rows_are_bit_identical(self, monkeypatch, n, points, rows, block_values):
        # 70 x 2000 cuts every mixture into blocks of 4 components; 2 x 500
        # and 3 x 77 keep each mixture in one block, which holds all 17 and
        # 40 rows; _BLOCK_VALUES = 1 gives one component of every mixture
        # per block
        if block_values is not None:
            monkeypatch.setattr(mixture, "_BLOCK_VALUES", block_values)
        r = np.random.default_rng(1000 * n + rows)
        ms = tuple(_spread_mixture(r, n) for _ in range(rows))
        params = np.array([(m.weights, m.alphas, m.betas) for m in ms])
        assert params.shape == (rows, 3, n)
        xs = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, points - 1)])
        stacked = mixture._evaluate(xs, params, self.NAMES, slope=True)
        assert all(v.shape == (rows, points) for v in stacked)
        singles = [mixture._evaluate(xs, params, (name,))[0] for name in self.NAMES]
        sf = mixture._survival(xs, params)
        for i, m in enumerate(ms):
            alone = mixture._evaluate(xs, m, self.NAMES, slope=True)
            for got, want, row in zip(stacked, alone,
                                      mixture._evaluate(xs, params[i], self.NAMES, slope=True)):
                assert got[i].tobytes() == want.tobytes() == row.tobytes()
            for got, want in zip(singles, alone):
                assert got[i].tobytes() == want.tobytes()
            assert sf[i].tobytes() == mixture_sf(xs, m).tobytes() == _ref_sf(xs, m).tobytes()
            assert mixture._survival(xs, params[i]).tobytes() == sf[i].tobytes()

    def test_shapes(self):
        ms = tuple(_spread_mixture(np.random.default_rng(k), 3) for k in range(4))
        params = np.array([(m.weights, m.alphas, m.betas) for m in ms])
        xs = np.geomspace(1e-3, 1e3, 12)
        assert mixture._evaluate(xs.reshape(3, 4), params, ("cdf",))[0].shape == (4, 3, 4)
        assert mixture._survival(xs.reshape(3, 4), params).shape == (4, 3, 4)
        assert mixture._survival(xs.reshape(3, 4), params[0]).shape == (3, 4)
        scalar = mixture._evaluate(0.5, params, ("pdf",))[0]
        assert scalar.shape == (4,)
        assert scalar.tolist() == [mixture._evaluate(0.5, m, ("pdf",))[0] for m in ms]
        assert [mixture._evaluate(0.5, row, ("pdf",))[0] for row in params] == scalar.tolist()
        assert isinstance(mixture._survival(0.5, params[0]), float)

    def test_component_counts_must_match(self):
        # a stack holds one component count per side: weights of 2
        # components with alphas and betas of 3 are refused before the
        # kernel sees them
        r = np.random.default_rng(3)
        two, three = _spread_mixture(r, 2), _spread_mixture(r, 3)
        ragged = (np.array([two.weights]), np.array([three.alphas]), np.array([three.betas]))
        fine = tuple(np.array([v]) for v in (three.weights, three.alphas, three.betas))
        for lhs, rhs in ((ragged, fine), (fine, ragged)):
            with pytest.raises(DomainError, match="one component count"):
                ordercheck.check_orders("st", lhs, rhs)

    def test_scan_blocks_stay_bounded(self, monkeypatch):
        # every block passes through log u once: count its values over a
        # 400-draw T3.10 scan (2 components, 500 points), whose chunks of
        # 32 draws put 32 mixtures into each block
        sizes = []
        log_u = mixture._log_u
        monkeypatch.setattr(mixture, "_log_u",
                            lambda L, a, out=None: sizes.append(L.size * np.size(a))
                            or log_u(L, a, out=out))
        report = run_scan(ScanConfig.from_file(T310_GAP_PROBE))
        assert report.config.samples == 400
        assert max(sizes) <= ordercheck._STACK_VALUES
        assert max(sizes) == 32 * 2 * 500

    @pytest.mark.parametrize("slope", [False, True])
    @pytest.mark.parametrize("n", [3, 70])
    def test_logs_are_built_in_the_sums(self, monkeypatch, n, slope):
        # the kernel takes each log in its scaled sum's array; against the
        # log step written out, shift + log(sum), pdf - cdf and the slope
        # sum over the pdf sum, on the sums _add_block leaves, for 32
        # mixtures in one block (3 components) or five (70 on 500 points)
        final = {}
        add_block = mixture._add_block

        def spy(*args, **kwargs):
            run = add_block(*args, **kwargs)
            # the running sums stack cdf before pdf along their first axis
            final.update({name: [run[0][i].copy(), run[1][i].copy(), *(v.copy() for v in run[2:])]
                          for i, name in enumerate(("cdf", "pdf"))})
            return run

        monkeypatch.setattr(mixture, "_add_block", spy)
        r = np.random.default_rng(n + slope)
        params = np.array([(m.weights, m.alphas, m.betas)
                           for m in (_spread_mixture(r, n) for _ in range(32))])
        params[0, 1] = 1e-20  # log u of -inf below x = 5e-304
        xs = np.concatenate([[0.0, 5e-324, 1e-300], np.geomspace(1e-4, 1e4, 495),
                             [1e150, 1e300]])
        got = mixture._evaluate(xs, params, self.NAMES, slope=slope)
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = {name: acc[0] + np.log(acc[1]) for name, acc in final.items()}
            want = [logs["cdf"], logs["pdf"], logs["pdf"] - logs["cdf"]]
            if slope:
                want.append(final["pdf"][2] / final["pdf"][1])
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == (32, 500) and g.tobytes() == w.tobytes()
        assert not np.all(np.isfinite(got[0])) and np.any(np.isfinite(got[0]))

    @pytest.mark.parametrize("names, slope", [
        (("cdf",), False), (("pdf",), False), (("rh",), False), (("pdf", "cdf"), False),
        (("cdf", "pdf", "rh"), False), ((), True), (("cdf",), True), (("cdf", "pdf", "rh"), True)])
    @pytest.mark.parametrize("n, points, rows", [(70, 2000, 1), (70, 2000, 5), (3, 500, 32),
                                                 (13, 1, 1)])
    def test_one_add_block_per_block(self, monkeypatch, names, slope, n, points, rows):
        # whatever the names, each block (one log u) is summed by one
        # _add_block call, on the log cdf and the log pdf it needs stacked
        calls, blocks = [], []
        add_block, log_u = mixture._add_block, mixture._log_u

        def spy(run, w, logs, slopes=None):
            calls.append(logs.shape[0])
            return add_block(run, w, logs, slopes)

        monkeypatch.setattr(mixture, "_add_block", spy)
        monkeypatch.setattr(mixture, "_log_u",
                            lambda L, a, out=None: blocks.append(1) or log_u(L, a, out=out))
        r = np.random.default_rng(n * points + rows)
        params = np.array([(m.weights, m.alphas, m.betas)
                           for m in (_spread_mixture(r, n) for _ in range(rows))])
        got = mixture._evaluate(np.geomspace(1e-3, 1e3, points), params, names, slope=slope)
        assert len(got) == len(names) + slope
        per_block = min(n, max(1, mixture._BLOCK_VALUES // points))
        cdf = "cdf" in names or "rh" in names
        pdf = slope or "pdf" in names or "rh" in names
        assert calls == [cdf + pdf] * len(blocks) == [cdf + pdf] * -(-n // per_block)


WIDE_GRID = ordercheck.Grid.from_spec("1e-100:1e100:3000:log")
SCAN_CONFIGS = sorted(T310_GAP_PROBE.parent.glob("*.json"))


def _recording_log_u(monkeypatch, seen, fail=False):
    """Replace mixture._log_u by one that records numpy's buffer size and
    error settings at each block, and raises RuntimeError when fail."""
    log_u = mixture._log_u

    def spy(L, a, out=None):
        seen.append((np.getbufsize(), np.geterr()))
        if fail:
            raise RuntimeError("log u failed")
        return log_u(L, a, out=out)

    monkeypatch.setattr(mixture, "_log_u", spy)


def _settings():
    return np.getbufsize(), np.geterr()


class TestKernelScope:
    """The one numpy scope of mixture._stacked: a ufunc buffer no longer
    than one row of points, every floating-point error ignored, and the
    caller's settings back as they were once the call returns or raises."""

    @pytest.mark.parametrize("points, size", [(None, 16), (15, 16), (64, 64), (500, 496),
                                              (2000, 2000), (10_000, 8192)])
    def test_buffer_is_no_longer_than_a_row(self, monkeypatch, points, size):
        seen = []
        _recording_log_u(monkeypatch, seen)
        m = _spread_mixture(np.random.default_rng(5), 3)
        x = 0.5 if points is None else np.geomspace(1e-3, 1e3, points)
        # the caller's own settings, restored by its scope after the test
        with np.errstate(divide="raise", under="warn"):
            np.setbufsize(4096)
            caller = _settings()
            mixture._evaluate(x, m, ("cdf", "pdf", "rh"), slope=True)
            assert _settings() == caller
            mixture._survival(x, m)
            assert _settings() == caller
        ignore = dict.fromkeys(("divide", "over", "under", "invalid"), "ignore")
        assert len(seen) >= 2 and all(block == (size, ignore) for block in seen)
        assert points is None or points < 16 or size <= points

    def test_settings_are_restored_when_the_kernel_raises(self, monkeypatch):
        seen = []
        _recording_log_u(monkeypatch, seen, fail=True)
        m = _spread_mixture(np.random.default_rng(6), 3)
        with np.errstate(over="raise"):
            np.setbufsize(1024)
            caller = _settings()
            for fn in (lambda x: mixture._evaluate(x, m, ("cdf",)),
                       lambda x: mixture._survival(x, m)):
                with pytest.raises(RuntimeError, match="log u failed"):
                    fn(np.geomspace(1e-3, 1e3, 64))
                assert _settings() == caller
        assert [size for size, _ in seen] == [64, 64]

    @pytest.mark.parametrize("points", [1, 15, 16, 17, 64, 500, 2000, 8193])
    @pytest.mark.parametrize("rows, n", [(None, 11), (2, 70), (21, 3)])
    def test_bits_do_not_depend_on_the_buffer(self, monkeypatch, points, rows, n):
        # the short buffer only changes how numpy walks a broadcast, so
        # every row keeps the bits it has on numpy's default buffer
        r = np.random.default_rng(points + n)
        if rows is None:
            m = _spread_mixture(r, n)
        else:
            m = np.array([(s.weights, s.alphas, s.betas)
                          for s in (_spread_mixture(r, n) for _ in range(rows))])
        xs = np.geomspace(1e-8, 1e8, points)
        if points > 2:
            xs[[0, -1]] = 0.0, 1e300

        def values():
            return [*mixture._evaluate(xs, m, TestKernelStacks.NAMES, slope=True),
                    mixture._survival(xs, m)]

        short = values()
        seen = []
        _recording_log_u(monkeypatch, seen)
        monkeypatch.setattr(np, "setbufsize", lambda size: None)
        default = values()
        assert {size for size, _ in seen} == {8192}
        for got, want in zip(short, default):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("grid", [ordercheck.DEFAULT_GRID, WIDE_GRID],
                             ids=["default", "wide"])
    def test_raising_errstate_changes_nothing(self, catalog, grid):
        # underflow is expected in the shifted log-sum-exp and in exp of a
        # log ratio, so a caller's all="raise" neither raises nor changes
        # a bit of the checks, curves, evaluators, fixtures or scans
        xs = grid.xs()
        _unchanged_when_raising(lambda: [r.to_dict() for r in catalog.run_all(grid)])
        for fid in catalog.ids():
            po = catalog.checker_report(fid).orientation
            for kind in ordercheck.ORDER_KINDS:
                _unchanged_when_raising(
                    lambda: ordercheck.check_order(kind, po.lhs, po.rhs, grid).to_dict())
            for kind in ordercheck.CURVE_KINDS:
                _unchanged_when_raising(lambda: [
                    v.tobytes() for v in ordercheck.difference_curve(po.lhs, po.rhs, grid, kind)])
            for fn in mixture.EVALUATORS.values():
                _unchanged_when_raising(lambda: fn(xs, po.lhs).tobytes())
        assert len(SCAN_CONFIGS) == 4
        for path in SCAN_CONFIGS:
            _unchanged_when_raising(lambda: run_scan(ScanConfig.from_file(path)).to_dict())

    def test_raising_errstate_with_overflowing_products(self):
        # alpha*beta products and script-L's d1*d2 overflow to inf where
        # the answer does not depend on their size
        _unchanged_when_raising(lambda: check_theorem_3_11(
            [0.5, 0.5], [1e200, 2e200], [1e200, 1e200], [0.5, 0.5], [1, 2], [1, 2]).to_dict())
        huge = {"p": (0.05, 1.0), "alpha": (1e200, 2e200), "beta": (1e200, 2e200),
                "p_star": (0.05, 1.0), "alpha_star": (1.5, 3.9), "beta_star": (2.5, 6.0)}
        config = ScanConfig("T3.11", 20, 3, huge, grid=ordercheck.Grid(1e-3, 1e3, 200))
        _unchanged_when_raising(lambda: run_scan(config).to_dict())
        _unchanged_when_raising(
            lambda: in_script_l(ParamMatrix2xN((1e200, 2e200), (1e200, 3e200))))


class TestEvaluatorScope:
    """The single-component evaluators, ik_quantile and mixture_quantile
    each compute in one numpy scope that ignores every floating-point
    error, so a caller's all="raise" changes no result."""

    XS = np.array([0.0, 5e-324, 1e-300, 1e-12, 1.0, 1e12, 1e300])
    LEVELS = np.array([1e-300, 1e-12, 0.5, 1.0 - 1e-16])

    @pytest.mark.parametrize("params", [
        IKParams(1.0, 2.0), IKParams(1e-10, 3.0), IKParams(300.0, 0.4), IKParams(1.0, 1.0),
        IKParams(1e300, 1e-300), IKParams(1e-300, 1e300)], ids=repr)
    def test_evaluators_and_quantile(self, params):
        # x = 0 takes log 0; 1e-300 and 1e300 under- and overflow the exps
        for fn, xs in ((ik_cdf, self.XS), (ik_sf, self.XS), (ik_pdf, self.XS),
                       (ik_reversed_hazard, self.XS[1:]), (ik_quantile, self.LEVELS)):
            _unchanged_when_raising(lambda: fn(xs, params).tobytes())
            for x in xs.tolist():
                _unchanged_when_raising(lambda: fn(x, params))

    @pytest.mark.parametrize("weights, alphas, betas", [
        ((0.5, 0.5), (1.0, 2.0), (3.0, 0.4)), ((0.1, 0.9), (1e-10, 2.0), (3.0, 0.4)),
        ((0.6, 0.4), (1e-10, 2.0), (3.0, 0.4)), ((0.5, 0.5), (0.2, 0.3), (0.3, 400.0))])
    def test_mixture_quantile(self, weights, alphas, betas):
        m = FiniteMixture(weights, alphas, betas)
        for u in self.LEVELS.tolist():
            _unchanged_when_raising(lambda: mixture_quantile(u, m))


def _unchanged_when_raising(call):
    want = call()
    with np.errstate(all="raise"):
        got = call()
    assert repr(got) == repr(want)


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
        # log u runs in its caller's scope, which must ignore log(0) at x = 0
        with np.errstate(divide="ignore"):
            got = ikdist._log_u(L, alphas)
            singles = [ikdist._log_u(L, float(alpha)) for alpha in alphas[:, 0]]
        assert got.tobytes() == _two_branch_log_u(L, alphas).tobytes()
        for k, single in enumerate(singles):
            assert single.tobytes() == got[k].tobytes()


class TestLogSumExp:
    """_add_block's running (shift, scaled sum) pair against mpmath."""

    @staticmethod
    def _run(blocks, slopes=False):
        run = None
        for w, logs, g in blocks:
            run = mixture._add_block(run, w, logs[None].copy(), g if slopes else None)
        # the one quantity's [shift, scaled sum(, scaled slope sum)]
        sums = [run[0][0], run[1][0], *run[2:]]
        with np.errstate(divide="ignore"):
            return sums[0] + np.log(sums[1]), sums

    @pytest.mark.parametrize("seed", range(8))
    def test_against_mpmath(self, seed):
        # logs from -800 to +700, with a block far above and one far below
        # the others, so the running pair is rescaled in both directions
        r = np.random.default_rng(seed)
        width = 40
        blocks = []
        for b in range(int(r.integers(2, 7))):
            rows = int(r.integers(1, 5))
            logs = r.uniform(-800.0, 700.0, size=(rows, width))
            logs[:, : width // 4] += 600.0 * (b % 2) - 300.0
            pick = r.random(size=logs.shape) < 0.2
            logs[pick] = -np.inf
            blocks.append((r.uniform(1e-3, 1.0, size=(rows, 1)), logs,
                           r.normal(size=(rows, width))))
        got, sums = self._run(blocks, slopes=True)
        slope = sums[2] / sums[1]
        for j in range(width):
            terms = [(mp.mpf(float(w[i, 0])), logs[i, j], g[i, j])
                     for w, logs, g in blocks for i in range(logs.shape[0])
                     if np.isfinite(logs[i, j])]
            if not terms:
                assert got[j] == -np.inf
                continue
            with mp.workdps(50):
                total = mp.fsum(w * mp.exp(mp.mpf(float(l))) for w, l, _ in terms)
                want = mp.log(total)
                want_slope = mp.fsum(w * mp.exp(mp.mpf(float(l))) * mp.mpf(float(g))
                                     for w, l, g in terms) / total
            assert abs(got[j] - float(want)) <= 1e-15 * max(1.0, abs(float(want))), j
            assert abs(slope[j] - float(want_slope)) <= 1e-12 * max(
                1.0, max(abs(float(g)) for _, _, g in terms)), j

    def test_infinite_logs(self):
        w = np.ones((1, 3))
        neg, pos = np.full((1, 3), -np.inf), np.full((1, 3), np.inf)
        finite = np.array([[-900.0, 0.0, 650.0]])
        assert np.all(self._run([(w, neg, None)])[0] == -np.inf)
        # a block of zeros first, then finite terms: the running pair takes
        # the later shift, however far below zero it lies
        got = self._run([(w, neg, None), (w, finite, None), (w, neg, None)])[0]
        np.testing.assert_allclose(got, finite[0], rtol=1e-15)
        # an infinite term makes the sum infinite, before or after finite ones
        assert np.all(self._run([(w, finite, None), (w, pos, None)])[0] == np.inf)
        assert np.all(self._run([(w, pos, None), (w, finite, None)])[0] == np.inf)

    @pytest.mark.parametrize("seed", range(12))
    def test_stacked_sums_match_per_name_sums(self, seed):
        # one call on the quantities stacked along the first axis gives, row
        # by row, the bits of one call per quantity (_per_name_add_block,
        # the running sums as a dict by name), the slope sum the last
        # quantity's; blocks far above and below the others rescale the
        # running sums both ways, and -inf columns and +inf terms are mixed in
        r = np.random.default_rng(seed)
        q, slope = 1 + seed % 2, seed % 3 != 0
        mixtures, points = int(r.integers(1, 5)), int(r.integers(1, 40))
        run, sums = None, {}
        for _ in range(int(r.integers(1, 8))):
            k = int(r.integers(1, 6))
            logs = r.uniform(-800.0, 700.0, size=(q, k, mixtures, points))
            logs += r.choice([-900.0, 0.0, 900.0])
            logs[:, :, r.random(size=(mixtures, points)) < 0.2] = -np.inf
            logs[r.random(size=logs.shape) < 0.1] = -np.inf
            logs[r.random(size=logs.shape) < 0.02] = np.inf
            w = r.uniform(1e-3, 1.0, size=(k, mixtures, 1))
            g = r.normal(size=(k, mixtures, points)) * 10.0 ** r.uniform(-3, 3)
            # in the kernel's scope: inf - the largest float overflows, 0 * inf
            with np.errstate(all="ignore"):
                run = mixture._add_block(run, w, logs.copy(), g.copy() if slope else None)
                for i in range(q):
                    _per_name_add_block(sums, i, w, logs[i].copy(),
                                        g.copy() if slope and i == q - 1 else None)
        assert len(run) == 2 + slope
        for i in range(q):
            assert run[0][i].tobytes() == sums[i][0].tobytes()
            assert run[1][i].tobytes() == sums[i][1].tobytes()
        if slope:
            assert run[2].tobytes() == sums[q - 1][2].tobytes()


def _per_name_add_block(sums, name, w, log_terms, slopes=None):
    """The running log-sum-exp kept as one entry per quantity name, sums[name]
    = [shift, scaled sum(, scaled slope sum)], with the components along
    the first axis of log_terms: the reference that _add_block's stacked
    quantities must match bit for bit."""
    shift = log_terms.max(axis=0)
    np.maximum(np.minimum(shift, mixture._LOG_MAX, out=shift), -mixture._LOG_MAX, out=shift)
    scaled = np.exp(np.subtract(log_terms, shift, out=log_terms), out=log_terms)
    scaled *= w
    block = [shift, scaled.sum(axis=0)]
    if slopes is not None:
        block.append(np.multiply(scaled, slopes, out=scaled).sum(axis=0))
    run = sums.setdefault(name, block)
    if run is block:
        return
    larger = np.maximum(run[0], shift)
    keep = np.exp(np.subtract(run[0], larger, out=run[0]), out=run[0])
    down = np.exp(np.subtract(shift, larger, out=shift), out=shift)
    for acc, part in zip(run[1:], block[1:]):
        acc *= keep
        acc += np.multiply(part, down, out=part)
    run[0] = larger
