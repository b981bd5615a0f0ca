"""Grid machinery, the four order checks, witness refinement against
independently bracketed sign changes, the batched crossing search against
a scalar bisection oracle, and curve extraction."""

from __future__ import annotations

import csv
import math
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from ikmix import ordercheck
from ikmix import (
    DEFAULT_GRID,
    ORDER_KINDS,
    DomainError,
    FiniteMixture,
    Grid,
    IKParams,
    check_lr,
    check_order,
    check_r_rh,
    check_rh,
    check_st,
    difference_curve,
    write_curve_csv,
)
from ikmix.theorems import (
    check_theorem_3_1,
    check_theorem_3_3,
    check_theorem_3_4_or_3_5,
    check_theorem_3_7_to_3_9,
    check_theorem_3_10,
    check_theorem_3_12,
)
from ikmix.mixture import mixture_pdf, mixture_reversed_hazard, mixture_sf
from ikmix.scan import ScanConfig, draw_sample

T310_GAP_PROBE = (Path(__file__).resolve().parents[1]
                  / "scripts" / "scan_configs" / "t310_gap_probe.json")


def _mix(weights, alphas, betas) -> FiniteMixture:
    return FiniteMixture(tuple(weights),
                         tuple(IKParams(a, b) for a, b in zip(alphas, betas)))


def _orientation_verdict(catalog, fid, grid=DEFAULT_GRID):
    fx = catalog.load(fid)
    checker = {
        "T3.1": check_theorem_3_1,
        "T3.3": check_theorem_3_3,
    }[fx["theorem"]]
    rep = checker(**fx["checker"])
    po = rep.orientation
    return check_order(po.kind, po.lhs, po.rhs, grid)


class TestGrid:
    def test_default(self):
        assert DEFAULT_GRID == Grid(1e-4, 1e4, 2000, "logarithmic")
        xs = DEFAULT_GRID.xs()
        assert xs.shape == (2000,)
        np.testing.assert_allclose(xs[0], 1e-4, rtol=1e-15)
        np.testing.assert_allclose(xs[-1], 1e4, rtol=1e-12)

    def test_from_spec(self):
        assert Grid.from_spec("1e-4:1e4:2000:log") == DEFAULT_GRID
        assert Grid.from_spec("0.5:2:10:linear") == Grid(0.5, 2.0, 10, "linear")
        assert Grid.from_spec("0.5:2:10:lin").spacing == "linear"

    @pytest.mark.parametrize("spec", ["1:2:3", "0:1:10:log", "2:1:10:log",
                                      "1:2:1:log", "1:2:10:cubic", "a:b:c:log"])
    def test_bad_specs(self, spec):
        with pytest.raises(DomainError):
            Grid.from_spec(spec)

    def test_linear_spacing(self):
        g = Grid(1.0, 3.0, 5, "linear")
        np.testing.assert_allclose(g.xs(), [1.0, 1.5, 2.0, 2.5, 3.0])


class TestStOrder:
    def test_beta_shift_dominates(self):
        lo = _mix((1.0,), (2.0,), (1.0,))
        hi = _mix((1.0,), (2.0,), (3.0,))
        assert check_st(lo, hi).status == "holds_on_grid"
        v = check_st(hi, lo)
        assert v.status == "violated"
        assert v.witness is not None and v.witness.lhs > v.witness.rhs

    def test_identical_mixtures_hold(self):
        m = _mix((0.4, 0.6), (1.0, 2.0), (0.5, 1.5))
        assert check_st(m, m).status == "holds_on_grid"

    def test_determinism(self):
        m1 = _mix((0.4, 0.6), (1.0, 2.0), (0.5, 1.5))
        m2 = _mix((0.6, 0.4), (1.0, 2.0), (0.5, 1.5))
        a = check_st(m1, m2).to_dict()
        b = check_st(m1, m2).to_dict()
        assert a == b

    def test_grid_doubling_keeps_holds(self, catalog):
        coarse = _orientation_verdict(catalog, "ex3.1")
        fine = _orientation_verdict(catalog, "ex3.1", Grid(1e-4, 1e4, 4000))
        assert coarse.status == fine.status == "holds_on_grid"


class TestWitnessRefinement:
    """Refined crossings must land inside sign-change brackets that were
    located by an independent high-precision bisection."""

    def test_weight_shift_crossing(self, catalog):
        v = _orientation_verdict(catalog, "ce3.1")
        assert v.status == "violated"
        assert 0.67542 < v.refined_crossing < 0.707333

    def test_alpha_shift_crossing(self, catalog):
        v = _orientation_verdict(catalog, "ce3.3")
        assert v.status == "violated"
        assert 0.128165 < v.refined_crossing < 0.134221

    def test_matrix_chain_crossing(self, catalog):
        fx = catalog.load("ce3.4")
        from ikmix import ParamMatrix2xN, TTransform
        rep = check_theorem_3_4_or_3_5(
            ParamMatrix2xN.from_dict(fx["checker"]["p_mat"]),
            ParamMatrix2xN.from_dict(fx["checker"]["q_mat"]),
            [TTransform.from_dict(t) for t in fx["checker"]["ts"]],
            fx["checker"]["beta"])
        po = rep.orientation
        v = check_order(po.kind, po.lhs, po.rhs)
        assert v.status == "violated"
        # the violation emerges from a flat-zero stretch, so there is no
        # upward crossing to refine; the bracketed sign change is where
        # the difference drops back below zero afterwards
        assert v.refined_crossing is None
        assert v.witness.x < 3.55941
        rows = difference_curve(po.lhs, po.rhs, DEFAULT_GRID, "sf")
        downward = [x for (x, val, _), (x2, val2, _) in zip(rows, rows[1:])
                    if val > 0.0 > val2 for x in (0.5 * (x + x2),)]
        assert len(downward) == 1
        assert 3.55941 < downward[0] < 3.72759

    def test_common_alpha_chain_crossing(self, catalog):
        fx = catalog.load("ce3.5")
        from ikmix import ParamMatrix2xN, TTransform
        rep = check_theorem_3_7_to_3_9(
            ParamMatrix2xN.from_dict(fx["checker"]["p_mat"]),
            ParamMatrix2xN.from_dict(fx["checker"]["q_mat"]),
            [TTransform.from_dict(t) for t in fx["checker"]["ts"]],
            fx["checker"]["alpha"], fx["checker"].get("variant", "3.7"))
        po = rep.orientation
        v = check_order(po.kind, po.lhs, po.rhs)
        assert v.status == "violated"
        assert 29.7635 < v.refined_crossing < 31.1698

    def test_density_ratio_dip(self, catalog):
        fx = catalog.load("ce3.7")
        rep = check_theorem_3_12(**fx["checker"])
        po = rep.orientation
        v = check_order(po.kind, po.lhs, po.rhs)
        assert v.status == "violated"
        # slope of the ratio turns negative where the dip begins
        assert 0.3 < v.refined_crossing < 0.95


def _scalar_bisect(fn, lo: float, hi: float) -> float | None:
    """The scalar bisection the batched search replaced, kept as the
    reference: one evaluation of a scalar fn per step, to relative width
    1e-9, None when the endpoints do not straddle zero."""
    flo, fhi = fn(lo), fn(hi)
    if not (math.isfinite(flo) and math.isfinite(fhi)):
        return None
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        return None
    while (hi - lo) > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return 0.5 * (lo + hi)


def _oracle_refine(fn, lo, hi):
    return _scalar_bisect(lambda x: float(fn(np.array([x]))[0]), lo, hi)


def _ratio_fn(kind, m1, m2):
    """The ratio whose central-difference slope lr and r_rh refine."""
    if kind == "lr":
        return lambda x: mixture_pdf(x, m2) / mixture_pdf(x, m1)
    return lambda x: mixture_reversed_hazard(x, m1) / mixture_reversed_hazard(x, m2)


def _slope_root_resolution(kind, m1, m2, lo, hi) -> float:
    """How far apart two float64 roots of the lr / r_rh slope in [lo, hi]
    can lie.  Each ratio value carries up to 8 ulp of rounding (component
    powers and logs, compensated sums, quotients), so the slope, a
    difference of two of them, is uncertain by 16 eps |ratio|; the root
    is uncertain by that over the slope's rate of change, and two roots
    inside that band differ by at most twice as much."""
    ratio = _ratio_fn(kind, m1, m2)
    ends = np.array([lo, hi])
    slope = ratio(ends * (1.0 + 1e-6)) - ratio(ends * (1.0 - 1e-6))
    noise = 16.0 * np.finfo(float).eps * float(np.max(np.abs(ratio(ends))))
    return 2.0 * noise * (hi - lo) / abs(float(slope[1] - slope[0]))


@pytest.fixture(scope="module")
def oracle_cases(catalog):
    """Every fixture orientation on the default grid and 200 seeded draws
    from the t310_gap_probe ranges on its grid, each checked under all
    four kinds with the batched search and with the scalar oracle."""
    pairs = []
    for fid in catalog.ids():
        po = catalog.checker_report(fid).orientation
        pairs.append((fid, po.kind, po.lhs, po.rhs, DEFAULT_GRID))
    config = ScanConfig.from_file(T310_GAP_PROBE)
    rng = np.random.Generator(np.random.Philox(config.seed))
    for i in range(200):
        q = draw_sample(config, rng)
        po = check_theorem_3_10(q["beta"], q["beta_star"], q["alpha"],
                                q["p"], q["p_star"]).orientation
        pairs.append((f"draw {i}", po.kind, po.lhs, po.rhs, config.grid))
    cases = []
    for label, own_kind, m1, m2, grid in pairs:
        for kind in ORDER_KINDS:
            # ce3.4 has 0/0 reversed hazards; the warnings are recorded so
            # that the test can require the verdict to count those points
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                new = check_order(kind, m1, m2, grid)
                with pytest.MonkeyPatch.context() as mpatch:
                    mpatch.setattr(ordercheck, "_refine_crossing", _oracle_refine)
                    old = check_order(kind, m1, m2, grid)
            cases.append((label, own_kind, kind, m1, m2, grid, new, old, bool(caught)))
    return cases


def _counted(fn):
    def wrapper(x):
        wrapper.calls += 1
        return fn(x)
    wrapper.calls = 0
    return wrapper


def _budget(lo, hi) -> int:
    return 1 + math.ceil(math.log((hi - lo) / (1e-9 * hi)) / math.log(65))


class TestBatchedRefinement:
    def test_verdicts_match_scalar_bisection(self, oracle_cases):
        refined = 0
        for label, _, kind, _, _, _, new, old, warned in oracle_cases:
            a, b = new.to_dict(), old.to_dict()
            a.pop("refined_crossing"), b.pop("refined_crossing")
            assert a == b, (label, kind)
            assert (new.refined_crossing is None) == (old.refined_crossing is None), (label, kind)
            # a NaN or inf produced on the grid is counted, never silent
            assert warned == (new.nonfinite_points > 0), (label, kind)
            refined += new.refined_crossing is not None
        assert len(oracle_cases) == 4 * 215
        assert refined > 50

    def test_crossings_agree_with_scalar_bisection(self, oracle_cases):
        for label, own_kind, kind, m1, m2, grid, new, old, _ in oracle_cases:
            if new.refined_crossing is None:
                continue
            tol = 1e-9 * abs(old.refined_crossing)
            fixture_own_kind = kind == own_kind and not label.startswith("draw")
            if kind in ("lr", "r_rh") and not fixture_own_kind:
                # a ratio's slope is noise-limited near its root
                xs = grid.xs()
                k = int(np.searchsorted(xs, new.witness.x))
                tol += _slope_root_resolution(kind, m1, m2, float(xs[k - 1]), float(xs[k]))
            assert abs(new.refined_crossing - old.refined_crossing) <= tol, (label, kind)

    def test_lr_crossings_against_mpmath(self, oracle_cases):
        def mp_pdf(x, m):
            return mp.fsum(
                mp.mpf(w) * c.alpha * c.beta * (1 + x) ** (-(c.alpha + 1))
                * (1 - (1 + x) ** (-c.alpha)) ** (c.beta - 1)
                for w, c in zip(m.weights, m.components))

        checked = 0
        for label, own_kind, kind, m1, m2, grid, new, _, _ in oracle_cases:
            if kind != "lr" or new.refined_crossing is None:
                continue
            if not (label.startswith("draw") or (label == "ce3.7" and own_kind == "lr")):
                continue
            xs = grid.xs()
            k = int(np.searchsorted(xs, new.witness.x))
            with mp.workdps(40):
                root = mp.findroot(
                    lambda x: mp.diff(lambda t: mp_pdf(t, m2) / mp_pdf(t, m1), x),
                    (mp.mpf(float(xs[k - 1])), mp.mpf(float(xs[k]))), solver="anderson")
            assert abs(new.refined_crossing - float(root)) <= 1e-6 * float(root), label
            checked += 1
        assert checked >= 6

    def test_no_straddle_costs_one_call(self):
        fn = _counted(lambda x: x - 5.0)
        assert ordercheck._refine_crossing(fn, 1.0, 2.0) is None
        assert fn.calls == 1

    @pytest.mark.parametrize("lo, hi, root", [
        (1.0, 1.0092, 1.0041), (0.1, 10.0, 3.3), (2e-4, 2.2e-4, 2.13e-4)])
    def test_refined_call_budget(self, lo, hi, root):
        fn = _counted(lambda x: x - root)
        got = ordercheck._refine_crossing(fn, lo, hi)
        assert abs(got - root) <= 1e-9 * hi
        assert fn.calls <= _budget(lo, hi)

    def test_mixture_call_budget(self, catalog):
        po = catalog.checker_report("ce3.1").orientation
        v = check_order(po.kind, po.lhs, po.rhs)
        xs = DEFAULT_GRID.xs()
        k = int(np.searchsorted(xs, v.witness.x))
        lo, hi = float(xs[k - 1]), float(xs[k])
        fn = _counted(lambda x: mixture_sf(x, po.lhs) - mixture_sf(x, po.rhs))
        assert ordercheck._refine_crossing(fn, lo, hi) == v.refined_crossing
        assert 1 < fn.calls <= _budget(lo, hi)

    def test_nonfinite_round_returns_none(self):
        fn = _counted(lambda x: np.where((x > 1.0) & (x < 2.0), np.nan, x - 1.5))
        assert ordercheck._refine_crossing(fn, 1.0, 2.0) is None
        assert fn.calls == 2


class TestRatioChecks:
    def test_lr_direction(self):
        # density ratio of (a, b2)/(a, b1) is monotone in the b2 > b1 sense
        m1 = _mix((1.0,), (2.0,), (1.0,))
        m2 = _mix((1.0,), (2.0,), (3.0,))
        assert check_lr(m1, m2).status == "holds_on_grid"
        assert check_lr(m2, m1).status == "violated"

    def test_r_rh_direction(self):
        # reversed hazards: rh1/rh2 nonincreasing wants m2 ageing slower
        m1 = _mix((1.0,), (2.0,), (1.0,))
        m2 = _mix((1.0,), (2.0,), (3.0,))
        assert check_r_rh(m2, m1).status == "holds_on_grid"

    def test_rh_direction(self):
        m1 = _mix((1.0,), (2.0,), (1.0,))
        m2 = _mix((1.0,), (2.0,), (3.0,))
        assert check_rh(m1, m2).status == "holds_on_grid"
        assert check_rh(m2, m1).status == "violated"

    def test_underflow_fraction_goes_inconclusive(self):
        m = _mix((1.0,), (50.0,), (140.0,))
        v = check_lr(m, m, Grid(1e-4, 3e-4, 100))
        assert v.status == "inconclusive"
        assert v.skipped_points > 10
        assert "underflow" in v.reason

    def test_nonfinite_points_go_inconclusive(self):
        # the reversed hazards are 0/0 or x/0 at 740 of the 2000 grid
        # points; NaN compares False against the underflow gate and in
        # np.diff, so without the non-finite gate this reads "violated"
        m1 = _mix((0.5, 0.5), (1.0, 1.0), (400.0, 300.0))
        m2 = _mix((0.3, 0.7), (1.0, 1.0), (400.0, 300.0))
        with pytest.warns(RuntimeWarning):
            v = check_r_rh(m1, m2)
        assert v.status == "inconclusive"
        assert v.skipped_points == 0
        assert v.nonfinite_points == 740
        assert "non-finite" in v.reason and "underflow" not in v.reason
        assert v.to_dict()["nonfinite_points"] == 740

    def test_unknown_kind_rejected(self):
        m = _mix((1.0,), (1.0,), (1.0,))
        with pytest.raises(DomainError):
            check_order("hazard", m, m)


class TestCurves:
    def test_self_difference_is_zero(self):
        m = _mix((0.4, 0.6), (1.0, 2.0), (0.5, 1.5))
        rows = difference_curve(m, m, Grid(1e-2, 1e2, 50), "sf")
        assert all(v == 0.0 for _, v, _ in rows)
        assert all(d for _, _, d in rows)

    def test_rows_ascend(self):
        m1 = _mix((1.0,), (1.0,), (1.0,))
        m2 = _mix((1.0,), (2.0,), (1.0,))
        rows = difference_curve(m1, m2, Grid(1e-2, 1e2, 50), "cdf_ratio")
        xs = [r[0] for r in rows]
        assert xs == sorted(xs)

    def test_undefined_rows_flagged(self):
        m1 = _mix((1.0,), (1.0,), (1.0,))
        deep = _mix((1.0,), (50.0,), (140.0,))
        rows = difference_curve(m1, deep, Grid(1e-4, 3e-4, 20), "pdf_ratio")
        assert any(not d for _, _, d in rows)

    def test_nonfinite_rows_undefined(self):
        m1 = _mix((0.5, 0.5), (1.0, 1.0), (400.0, 300.0))
        m2 = _mix((0.3, 0.7), (1.0, 1.0), (1.0, 2.0))
        with pytest.warns(RuntimeWarning):
            rows = difference_curve(m1, m2, DEFAULT_GRID, "rh_ratio")
        assert all(d == math.isfinite(v) for _, v, d in rows)
        assert sum(not d for _, _, d in rows) == 740

    def test_unknown_kind(self):
        m = _mix((1.0,), (1.0,), (1.0,))
        with pytest.raises(DomainError):
            difference_curve(m, m, Grid(1.0, 2.0, 5), "hazard_ratio")

    def test_csv_format_and_determinism(self, tmp_path):
        m1 = _mix((0.4, 0.6), (1.0, 2.0), (0.5, 1.5))
        m2 = _mix((0.6, 0.4), (1.0, 2.0), (0.5, 1.5))
        rows = difference_curve(m1, m2, Grid(1e-2, 1e2, 25), "sf")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_curve_csv(rows, p1)
        write_curve_csv(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()
        with open(p1) as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["x", "value", "defined"]
        assert len(parsed) == 26
        assert parsed[1][2] in ("true", "false")
        # 17 significant digits survive the string round trip
        assert float(parsed[3][0]) == rows[2][0]
        assert float(parsed[3][1]) == rows[2][1]
