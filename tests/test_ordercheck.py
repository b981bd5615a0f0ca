"""Grid machinery, the four order checks, witness refinement against
independently bracketed sign changes, the batched crossing search against
a scalar bisection oracle, and curve extraction."""

from __future__ import annotations

import copy
import csv
import dataclasses
import functools
import json
import math
import pickle
import re
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import draw_rows, mp_mixture, random_mixture
from ikmix import mixture, ordercheck
from ikmix import (
    CURVE_FOR_KIND,
    CURVE_KINDS,
    DEFAULT_GRID,
    ORDER_KINDS,
    Curve,
    DomainError,
    FiniteMixture,
    Grid,
    check_order,
    check_orders,
    difference_curve,
    write_curve_csv,
)
from ikmix.theorems import (
    CHECKERS,
    SCAN_LAYOUTS,
    check_theorem_3_1,
    check_theorem_3_3,
    check_theorem_3_4_or_3_5,
    check_theorem_3_7_to_3_9,
    check_theorem_3_10,
    check_theorem_3_12,
)
from ikmix.fixtures import run_fixture
from ikmix.mixture import mixture_cdf, mixture_pdf, mixture_reversed_hazard, mixture_sf
from ikmix.scan import ScanConfig, run_scan

T310_GAP_PROBE = (Path(__file__).resolve().parents[1]
                  / "scripts" / "scan_configs" / "t310_gap_probe.json")


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

    @pytest.mark.parametrize("points", [2.7, 2000.0, np.float64(500.0), "2000", True, 1, -3])
    def test_points_must_be_an_integer(self, points):
        with pytest.raises(DomainError, match="grid points must be an integer"):
            Grid(1e-4, 1e4, points)

    @pytest.mark.parametrize("bound", ["1e-4", True, None, [1e-4],
                                       pytest.param(10**400, id="401-digit int")])
    def test_bounds_must_be_positive_reals(self, bound):
        with pytest.raises(DomainError, match="grid x_min"):
            Grid(bound, 1e4)
        with pytest.raises(DomainError, match="grid x_max"):
            Grid(1e-4, bound)

    def test_bounds_are_stored_as_floats(self):
        g = Grid(1, 10, 5)
        assert type(g.x_min) is float and type(g.x_max) is float
        assert g.to_dict() == {"x_min": 1.0, "x_max": 10.0, "points": 5,
                               "spacing": "logarithmic"}
        assert g == Grid(1.0, 10.0, 5)

    def test_numpy_int_points(self):
        g = Grid(1e-4, 1e4, np.int64(2000))
        assert g == DEFAULT_GRID and type(g.points) is int

    def test_linear_spacing(self):
        g = Grid(1.0, 3.0, 5, "linear")
        np.testing.assert_allclose(g.xs(), [1.0, 1.5, 2.0, 2.5, 3.0])

    @pytest.mark.parametrize("args, fresh", [
        ((1e-4, 1e4, 2000, "logarithmic"), lambda: np.geomspace(1e-4, 1e4, 2000)),
        ((1e-4, 1e3, 500, "logarithmic"), lambda: np.geomspace(1e-4, 1e3, 500)),
        ((0.5, 2.0, 7, "linear"), lambda: np.linspace(0.5, 2.0, 7))])
    def test_points_are_computed_once_and_read_only(self, args, fresh):
        g = Grid(*args)
        xs = g.xs()
        assert g.xs() is xs
        assert xs.tobytes() == fresh().tobytes()
        assert not xs.flags.writeable
        with pytest.raises(ValueError):
            xs[0] = 1.0
        # the cached array is no field: a grid that has computed its
        # points still equals, hashes and prints as one that has not
        untouched = Grid(*args)
        assert g == untouched and hash(g) == hash(untouched)
        assert repr(g) == repr(untouched) and g.to_dict() == untouched.to_dict()
        assert [f.name for f in dataclasses.fields(Grid)] == ["x_min", "x_max", "points",
                                                              "spacing"]

    @pytest.mark.parametrize("duplicate", [lambda g: pickle.loads(pickle.dumps(g)),
                                           copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_copies_keep_the_points_read_only(self, duplicate):
        # a copy of a grid that has computed its points computes them again:
        # a pickled array would come back writeable, and a write to it would
        # change every later check on that copy
        g = Grid(1e-2, 1e2, 50)
        xs = g.xs()
        other = duplicate(g)
        assert other == g and hash(other) == hash(g)
        assert not other.xs().flags.writeable
        assert other.xs().tobytes() == xs.tobytes()
        with pytest.raises(ValueError):
            other.xs()[0] = 1.0


class TestStOrder:
    def test_beta_shift_dominates(self):
        lo = FiniteMixture((1.0,), (2.0,), (1.0,))
        hi = FiniteMixture((1.0,), (2.0,), (3.0,))
        assert check_order("st", lo, hi).status == "holds_on_grid"
        v = check_order("st", hi, lo)
        assert v.status == "violated"
        assert v.witness is not None and v.witness.lhs > v.witness.rhs

    def test_identical_mixtures_hold(self):
        m = FiniteMixture((0.4, 0.6), (1.0, 2.0), (0.5, 1.5))
        assert check_order("st", m, m).status == "holds_on_grid"

    def test_determinism(self):
        m1 = FiniteMixture((0.4, 0.6), (1.0, 2.0), (0.5, 1.5))
        m2 = FiniteMixture((0.6, 0.4), (1.0, 2.0), (0.5, 1.5))
        a = check_order("st", m1, m2).to_dict()
        b = check_order("st", m1, m2).to_dict()
        assert a == b

    def test_skips_only_where_both_sides_underflow(self):
        # sf of IK(150, 1) underflows beyond x ~ 100, sf of IK(20, 1) never
        # does on the default grid, and sf of IK(140, 1) underflows too
        steep = FiniteMixture((1.0,), (150.0,), (1.0,))
        mild = FiniteMixture((1.0,), (20.0,), (1.0,))
        v = check_order("st", steep, mild)
        assert (v.status, v.skipped_points) == ("holds_on_grid", 0)
        both = check_order("st", steep, FiniteMixture((1.0,), (140.0,), (1.0,)))
        assert both.status == "inconclusive"
        assert both.skipped_points == 465
        assert both.reason == "465 of 2000 grid points underflowed float64"

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
        curve = difference_curve(po.lhs, po.rhs, DEFAULT_GRID, "sf")
        xs, vals = curve.x, curve.value
        downward = (0.5 * (xs[:-1] + xs[1:]))[(vals[:-1] > 0.0) & (0.0 > vals[1:])]
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


def _slope_terms(kind, m1, m2, x):
    """The analytic slope of log(ratio) that lr and r_rh refine, and the sum
    of the magnitudes of its terms: the mixtures' d/dx log pdf and, for
    r_rh, their reversed hazards."""
    parts = []
    for m in (m1, m2):
        log_rh, g = mixture._evaluate(x, m, ("rh",), slope=True)
        parts.append((g, np.exp(log_rh)))
    (g1, rh1), (g2, rh2) = parts
    if kind == "lr":
        return g2 - g1, np.abs(g1) + np.abs(g2)
    return (g1 - rh1) - (g2 - rh2), np.abs(g1) + rh1 + np.abs(g2) + rh2


def _slope_root_resolution(kind, m1, m2, lo, hi) -> float:
    """How far apart two float64 roots of the lr / r_rh slope in [lo, hi]
    can lie.  Each term of the slope carries up to 8 ulp of rounding, so
    the slope is uncertain by 16 eps times the sum of its terms' sizes;
    the root is uncertain by that over the slope's change across the
    step, and two roots inside that band differ by at most twice as much."""
    slope, size = _slope_terms(kind, m1, m2, np.array([lo, hi]))
    noise = 16.0 * np.finfo(float).eps * float(np.max(size))
    return 2.0 * noise * (hi - lo) / abs(float(slope[1] - slope[0]))


@functools.lru_cache(maxsize=None)
def _mp_at(x: float, m: FiniteMixture) -> dict:
    return mp_mixture(x, m, 40)


def _mp_status(kind, m1, m2, grid, verdict) -> str:
    """The status 40-digit mpmath gives m1 <= m2 on the grid: violated when
    some point (st, rh) or step (lr, r_rh) breaks the order by more than
    1e-9 relative, holds when nothing breaks it by more than 1e-13.  A
    violated verdict's witness must itself be a break in mpmath."""
    fn = {"st": "sf", "rh": "rh", "lr": "pdf", "r_rh": "rh"}[kind]
    xs = grid.xs()
    v1 = [_mp_at(float(x), m1)[fn] for x in xs]
    v2 = [_mp_at(float(x), m2)[fn] for x in xs]
    if kind in ("st", "rh"):
        breaks = [(a - b) / max(a, b) for a, b in zip(v1, v2)]
    else:
        r = [b / a for a, b in zip(v1, v2)] if kind == "lr" else [a / b for a, b in zip(v1, v2)]
        sign = 1 if kind == "lr" else -1
        breaks = [0] + [sign * (r[k] - r[k + 1]) / abs(r[k]) for k in range(len(r) - 1)]
    if verdict.status == "violated":
        assert breaks[int(np.searchsorted(xs, verdict.witness.x))] > 0
    worst = max(breaks)
    assert worst > 1e-9 or worst < 1e-13, worst
    return "violated" if worst > 1e-9 else "holds_on_grid"


def _mp_slope_root(kind, m1, m2, grid, witness_x):
    """The 40-digit root of the lr or r_rh slope inside the grid step ending
    at witness_x, by bisection to 1e-13, and the slope's change across the
    step over the size of its terms."""
    def slope(x):
        a, b = mp_mixture(x, m1, 40), mp_mixture(x, m2, 40)
        if kind == "lr":
            return b["slope"] - a["slope"], abs(a["slope"]) + abs(b["slope"])
        return ((a["slope"] - a["rh"]) - (b["slope"] - b["rh"]),
                abs(a["slope"]) + a["rh"] + abs(b["slope"]) + b["rh"])

    xs = grid.xs()
    k = int(np.searchsorted(xs, witness_x))
    lo, hi = float(xs[k - 1]), float(xs[k])
    (s_lo, size), (s_hi, _) = slope(lo), slope(hi)
    assert s_lo * s_hi < 0
    with mp.workdps(40):
        a, b = mp.mpf(lo), mp.mpf(hi)
        while b - a > mp.mpf(10) ** -13 * b:
            c = (a + b) / 2
            if (slope(c)[0] > 0) == (s_lo > 0):
                a = c
            else:
                b = c
        return float((a + b) / 2), float(abs(s_hi - s_lo) / size)


@pytest.fixture(scope="module")
def oracle_cases(catalog):
    """Every fixture orientation on the default grid and 200 seeded draws
    from the t310_gap_probe ranges on its grid, each checked under all
    four kinds with the batched search and with the scalar oracle."""
    pairs = []
    for fid in catalog.ids():
        po = catalog.checker_report(fid).orientation
        pairs.append((fid, po.kind, po.lhs, po.rhs, DEFAULT_GRID))
    config = dataclasses.replace(ScanConfig.from_file(T310_GAP_PROBE), samples=200)
    for i, q in enumerate(draw_rows(config)):
        po = check_theorem_3_10(q["beta"], q["beta_star"], q["alpha"],
                                q["p"], q["p_star"]).orientation
        pairs.append((f"draw {i}", po.kind, po.lhs, po.rhs, config.grid))
    cases = []
    for label, own_kind, m1, m2, grid in pairs:
        for kind in ORDER_KINDS:
            # ce3.4 has 0/0 reversed hazards; the warnings are recorded so
            # that the test can require the verdict to count those points.
            # Crossings are computed on first read, so both are read inside
            # the blocks: their warnings are recorded too, and old's search
            # runs while the oracle is patched in.
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                new = check_order(kind, m1, m2, grid)
                _ = new.refined_crossing
                with pytest.MonkeyPatch.context() as mpatch:
                    mpatch.setattr(ordercheck, "_refine_crossing", _oracle_refine)
                    old = check_order(kind, m1, m2, grid)
                    _ = old.refined_crossing
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
        checked = 0
        for label, own_kind, kind, m1, m2, grid, new, _, _ in oracle_cases:
            if kind != "lr" or new.refined_crossing is None:
                continue
            if not (label.startswith("draw") or (label == "ce3.7" and own_kind == "lr")):
                continue
            root, _ = _mp_slope_root(kind, m1, m2, grid, new.witness.x)
            assert abs(new.refined_crossing - root) <= 1e-9 * root, label
            checked += 1
        assert checked >= 6

    def test_r_rh_crossings_against_mpmath(self, oracle_cases):
        # within 1e-9 of the 40-digit root wherever the slope changes by
        # more than 1e-8 of its terms across the step; on a flatter step
        # float64 rounding of the slope bounds the root, as on T3.10 draw
        # 138, where the slope changes by 2e-9 of its terms
        checked = flat = 0
        for label, _, kind, m1, m2, grid, new, _, _ in oracle_cases:
            if kind != "r_rh" or new.refined_crossing is None:
                continue
            root, steepness = _mp_slope_root(kind, m1, m2, grid, new.witness.x)
            error = abs(new.refined_crossing - root) / root
            if steepness > 1e-8:
                assert error <= 1e-9, label
                checked += 1
            else:
                assert error <= 1e-7, label
                flat += 1
        assert checked >= 5 and flat <= 1

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
        m1 = FiniteMixture((1.0,), (2.0,), (1.0,))
        m2 = FiniteMixture((1.0,), (2.0,), (3.0,))
        assert check_order("lr", m1, m2).status == "holds_on_grid"
        assert check_order("lr", m2, m1).status == "violated"

    def test_r_rh_direction(self):
        # reversed hazards: rh1/rh2 nonincreasing wants m2 ageing slower
        m1 = FiniteMixture((1.0,), (2.0,), (1.0,))
        m2 = FiniteMixture((1.0,), (2.0,), (3.0,))
        assert check_order("r_rh", m2, m1).status == "holds_on_grid"

    def test_rh_direction(self):
        m1 = FiniteMixture((1.0,), (2.0,), (1.0,))
        m2 = FiniteMixture((1.0,), (2.0,), (3.0,))
        assert check_order("rh", m1, m2).status == "holds_on_grid"
        assert check_order("rh", m2, m1).status == "violated"

    def test_deep_tail_decided_against_mpmath(self):
        # the cdfs and pdfs lie near exp(-740) on this grid, below float64;
        # their logs decide every order, as 40-digit mpmath does
        deep = FiniteMixture((0.5, 0.5), (50.0, 50.0), (140.0, 160.0))
        deeper = FiniteMixture((0.3, 0.7), (50.0, 50.0), (140.0, 160.0))
        grid = Grid(1e-4, 3e-4, 100)
        assert mixture_pdf(1e-4, deep) < 1e-300
        for kind in ORDER_KINDS:
            for m1, m2 in ((deep, deeper), (deeper, deep)):
                v = check_order(kind, m1, m2, grid)
                assert v.skipped_points == v.nonfinite_points == 0
                assert v.status == _mp_status(kind, m1, m2, grid, v), (kind, m1, m2)
        assert check_order("lr", deep, deep, grid).status == "holds_on_grid"

    def test_found_pair_is_decided_without_warnings(self):
        # the linear reversed hazards of this pair are 0/0 at 740 of the
        # 2000 grid points; their logs are finite everywhere
        m1 = FiniteMixture((0.5, 0.5), (1.0, 1.0), (400.0, 300.0))
        m2 = FiniteMixture((0.3, 0.7), (1.0, 1.0), (400.0, 300.0))
        for a, b in ((m1, m2), (m2, m1)):
            v, caught = _with_warnings(check_order, "r_rh", a, b)
            assert caught == []
            assert v.status != "inconclusive" and v.nonfinite_points == 0
            assert v.status == _mp_status("r_rh", a, b, DEFAULT_GRID, v)
        assert check_order("r_rh", m1, m2).status == "violated"

    def test_nonfinite_points_go_inconclusive(self):
        # alpha * x underflows to 0 below x = 4.9e-304, so u, the cdf and
        # the pdf of IK(1e-20, 2) are exactly 0 there and their logs -inf
        m1 = FiniteMixture((1.0,), (1e-20,), (2.0,))
        m2 = FiniteMixture((1.0,), (1.0,), (2.0,))
        grid = Grid(1e-310, 1e-300, 100)
        zeros = int(np.count_nonzero(1e-20 * grid.xs() == 0.0))
        assert zeros > 10
        for kind in ("rh", "lr", "r_rh"):
            v, caught = _with_warnings(check_order, kind, m1, m2, grid)
            assert caught == []
            assert v.status == "inconclusive"
            assert v.skipped_points == 0
            assert v.nonfinite_points == zeros
            assert "non-finite" in v.reason and "underflow" not in v.reason
            assert v.to_dict()["nonfinite_points"] == zeros

    def test_unknown_kind_rejected(self):
        m = FiniteMixture((1.0,), (1.0,), (1.0,))
        with pytest.raises(DomainError):
            check_order("hazard", m, m)


# The usable-point gate and the pointwise tail of the rh check, copied here so
# that the reference shares no decision code with the checks it is
# compared against.


def _reference_unusable(kind, grid, nonfinite):
    """Inconclusive verdict when more than 10% of the grid is unusable.
    Passing this gate leaves at least two usable points on any grid."""
    n_nonfinite = int(np.count_nonzero(nonfinite))
    if n_nonfinite <= ordercheck._SKIP_FRACTION * grid.points:
        return None
    return ordercheck.OrderVerdict(
        kind=kind, status="inconclusive",
        reason=f"{n_nonfinite} of {grid.points} grid points were non-finite (NaN or inf)",
        nonfinite_points=n_nonfinite, grid=grid)


def _reference_check_rh(m1, m2, grid=DEFAULT_GRID):
    """check_rh from separate kernel passes for each log cdf and log pdf,
    with the decisions written out here: the log cdf ratio must not fall
    and log rh(m1) must not exceed log rh(m2), each beyond 1e-12 times
    (1 + the largest |log| at the point)."""
    xs = grid.xs()
    F1, f1 = mixture._evaluate(xs, m1, ("cdf",))[0], mixture._evaluate(xs, m1, ("pdf",))[0]
    F2, f2 = mixture._evaluate(xs, m2, ("cdf",))[0], mixture._evaluate(xs, m2, ("pdf",))[0]
    with np.errstate(invalid="ignore"):
        h1, h2 = f1 - F1, f2 - F2
    nonfinite = ~(np.isfinite(h1) & np.isfinite(h2))
    bad = _reference_unusable("rh", grid, nonfinite)
    if bad is not None:
        return bad
    idx = np.nonzero(~nonfinite)[0]
    n_nonfinite = int(np.count_nonzero(nonfinite))
    size = np.max(np.abs([F1[idx], f1[idx], F2[idx], f2[idx]]), axis=0)
    tau = 1e-12 * (1.0 + size)
    ratio_violated = bool(np.any(np.diff(F2[idx] - F1[idx]) < -tau[:-1]))
    h1, h2 = h1[idx], h2[idx]
    pt_viol = h1 > h2 + tau
    if ratio_violated != bool(np.any(pt_viol)):
        which = "cdf-ratio monotonicity" if ratio_violated else "pointwise reversed hazards"
        return ordercheck.OrderVerdict(
            kind="rh", status="inconclusive",
            reason=f"the two rh criteria disagree (only {which} flagged a violation)",
            nonfinite_points=n_nonfinite, grid=grid)
    if not np.any(pt_viol):
        return ordercheck.OrderVerdict(kind="rh", status="holds_on_grid",
                                       nonfinite_points=n_nonfinite, grid=grid)
    k = int(np.argmax(pt_viol))
    x = float(xs[idx[k]])
    with np.errstate(over="ignore"):
        witness = ordercheck.Witness(x=x, lhs=float(np.exp(h1[k])), rhs=float(np.exp(h2[k])))
    refined = None
    if k > 0 and h1[k - 1] - h2[k - 1] < 0.0:
        refined = ordercheck._refine_crossing(
            lambda x: mixture._evaluate(x, m1, ("rh",))[0] - mixture._evaluate(x, m2, ("rh",))[0],
            float(xs[idx[k - 1]]), x)
    return ordercheck.OrderVerdict(
        kind="rh", status="violated", witness=witness, refined_crossing=refined,
        reason=f"rh(m1) exceeds rh(m2) at x={x!r}, confirmed by the cdf ratio",
        nonfinite_points=n_nonfinite, grid=grid)


def _with_warnings(fn, *args):
    """fn's verdict and the warnings raised by the check and by reading
    its crossing, which is computed on first read."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        out = fn(*args)
        _ = out.refined_crossing
    return out, sorted({str(w.message) for w in caught})


class TestRhOnePass:
    """The rh check takes log cdf and log pdf from one kernel pass per mixture;
    its verdicts equal the reference's, which makes a pass for each."""

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, Grid(1e-4, 3e-4, 200)])
    def test_fixture_orientations(self, catalog, grid):
        for fid in catalog.ids():
            po = catalog.checker_report(fid).orientation
            for m1, m2 in ((po.lhs, po.rhs), (po.rhs, po.lhs)):
                got = _with_warnings(check_order, "rh", m1, m2, grid)
                want = _with_warnings(_reference_check_rh, m1, m2, grid)
                assert got[0].to_dict() == want[0].to_dict(), (fid, grid)
                assert got[1] == want[1] == [], fid

    def test_nonfinite_pair(self):
        # the pair whose linear reversed hazards are 0/0 at 740 points
        m1 = FiniteMixture((0.5, 0.5), (1.0, 1.0), (400.0, 300.0))
        m2 = FiniteMixture((0.3, 0.7), (1.0, 1.0), (400.0, 300.0))
        for a, b in ((m1, m2), (m2, m1)):
            got, got_warned = _with_warnings(check_order, "rh", a, b)
            want, want_warned = _with_warnings(_reference_check_rh, a, b)
            assert got.to_dict() == want.to_dict()
            assert got_warned == want_warned == []
            assert got.nonfinite_points == 0

    @pytest.mark.parametrize("grid, overflowing", [(Grid(1.5e-306, 1e-303, 200), 7),
                                                   (Grid(1.2e-306, 1e-305, 200), 43)])
    def test_overflowing_reversed_hazards(self, grid, overflowing):
        # with alpha = 1e306 the beta = 1000 component's pdf/cdf overflows
        # float64 near x = 1e-306; its log does not, and rh(m1) = 1000 rh(m2)
        # exactly, so m1 <= m2 fails at the first point and m2 <= m1 holds
        m1 = FiniteMixture((1.0,), (1e306,), (1000.0,))
        m2 = FiniteMixture((1.0,), (1e306,), (1.0,))
        assert np.sum(mixture_reversed_hazard(grid.xs(), m1) == math.inf) == overflowing
        for a, b, status in ((m1, m2, "violated"), (m2, m1, "holds_on_grid")):
            got, got_warned = _with_warnings(check_order, "rh", a, b, grid)
            want, _ = _with_warnings(_reference_check_rh, a, b, grid)
            assert got.to_dict() == want.to_dict()
            assert got_warned == []
            assert got.nonfinite_points == 0
            assert got.status == status
        v = check_order("rh", m1, m2, grid)
        assert v.witness.x == grid.x_min
        assert v.witness.lhs == math.inf
        assert float(mp_mixture(grid.x_min, m1)["rh"]) == math.inf
        assert v.witness.rhs == pytest.approx(float(mp_mixture(grid.x_min, m2)["rh"]), rel=1e-13)


def _with_curve_warnings(m1, m2, grid, which):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        curve = difference_curve(m1, m2, grid, which)
    return curve, [str(w.message) for w in caught]


def _curve(rows) -> Curve:
    """The columns of (x, value, defined) rows."""
    x, value, defined = zip(*rows) if rows else ((), (), ())
    return Curve(np.array(x, float), np.array(value, float), np.array(defined, bool))


def _reference_curve_csv(curve, path):
    """The curve CSV written through the csv module's default dialect,
    one format(v, ".17g") per value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "value", "defined"])
        for x, v, d in zip(*(column.tolist() for column in curve)):
            writer.writerow([format(x, ".17g"), format(v, ".17g"), "true" if d else "false"])


def _assert_csv_matches_reference(curve, tmp_path, name="curve"):
    got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}_ref.csv"
    write_curve_csv(curve, got)
    _reference_curve_csv(curve, want)
    assert got.read_bytes() == want.read_bytes(), name


_SPECIAL = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
            1.7976931348623157e308, -1.7976931348623157e308, 1.0 / 3.0, 1e-4, 1.0]


def _near_tie(digits: int, exponent: int, step: int) -> float:
    """The float nearest the 17-digit rounding tie (digits + 0.5) *
    10**(exponent - 16), moved step ulps."""
    tie = float(f"{digits}5e{exponent - 17}")
    return float(np.nextafter(tie, math.copysign(math.inf, step))) if step else tie


# float64 bit patterns (subnormals, NaNs and infinities among them), the
# special values, powers of ten over the whole range, and values within an
# ulp of a 17-digit tie, where the vectorised formatter must defer
_FLOAT64S = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.array(bits, np.uint64).view(float))),
    st.sampled_from(_SPECIAL),
    st.integers(-320, 308).map(lambda k: float(f"1e{k}")),
    st.builds(_near_tie, st.integers(10**16, 10**17 - 1), st.integers(-307, 307),
              st.integers(-1, 1)),
    # exact ties: |v| * 10**q = m * 5**q / 2 for an odd m below 2**53
    st.integers(1, 23).flatmap(lambda q: st.integers(
        2 * 10**16 // 5**q + 1, min(2 * 10**17 // 5**q, 2**53) - 1).map(
            lambda m: (m | 1) * 2.0 ** -(q + 1))),
)


def _significant_bits(v: float) -> int:
    """The bits from the first to the last set one of |v|'s significand."""
    n = abs(Fraction(v)).numerator
    return (n // (n & -n)).bit_length() if n else 0


def _is_tie(v: float) -> bool:
    """Whether N = |v| * 10**(16 - E), E the exponent of v's text, ends in
    exactly one half: a tie that format(v, ".17g") rounds half to even."""
    exponent = int(format(v, ".16e").partition("e")[2])
    return (Fraction(abs(v)) * Fraction(10) ** (16 - exponent)).denominator == 2


def _near_ties() -> list[float]:
    """Float64s v = M * 2**-(j + q) whose N = M * 5**q / 2**j lies 1 to 3
    units of 2**-j from a tie, for q = 16 - E from 23 to 26, where 10**q
    is inexact and the product carries its error: M * 5**q = 2**(j - 1) +
    off modulo 2**j, M of 53 bits and N of 17 digits."""
    found = set()
    for q in range(23, 27):
        for j in range(40, 60):
            inverse = pow(5**q, -1, 2**j)
            for off in (-3, -2, -1, 1, 2, 3):
                r = (2 ** (j - 1) + off) * inverse % 2**j
                for m in range(r + (2**52 - r + 2**j - 1) // 2**j * 2**j, 2**53, 2**j):
                    if 10**16 <= Fraction(m * 5**q, 2**j) < 10**17:
                        found.add(math.ldexp(m, -j - q))
    return sorted(found)


def _text_cell(text: str) -> tuple:
    """Where the %.17g text of a nonzero float puts its digits: the
    notation, the decimal exponent E of the leading digit, the place of
    the last significant digit after it, and the exponent's digit count
    (0 in fixed notation)."""
    mantissa, _, exponent = text.lstrip("-").partition("e")
    digits = mantissa.replace(".", "")
    significant = digits.strip("0")
    if exponent:
        return "sci", int(exponent), len(significant) - 1, len(exponent) - 1
    leading_zeros = len(digits) - len(digits.lstrip("0"))
    whole = mantissa.find(".") if "." in mantissa else len(mantissa)
    return "fixed", whole - 1 - leading_zeros, len(significant) - 1, 0


def _cell_values(exponent: int, last: int) -> list[float]:
    """Up to 8 floats whose %.17g text has its leading digit at
    10**exponent and its last significant digit `last` places after it:
    the floats nearest D * 10**(exponent - last), for (last + 1)-digit
    integers D from 10**last up that end in a nonzero digit, and their
    neighbours."""
    found = []
    for digits in range(10**last + (last > 0), min(10**(last + 1), 10**last + 10**4)):
        if digits % 10 == 0:
            continue
        v = float(f"{digits}e{exponent - last}")
        for w in (v, np.nextafter(v, -math.inf), np.nextafter(v, math.inf)):
            w = float(w)
            if _text_cell(format(w, ".17g"))[1:3] == (exponent, last) and w not in found:
                found.append(w)
        if len(found) >= 8:
            break
    assert found, (exponent, last)
    return found


class TestCurves:
    def test_csv_bytes_match_the_csv_module(self, tmp_path):
        rows = [(x, v, d) for x in _SPECIAL for v in _SPECIAL for d in (True, False)]
        for name, case in (("empty", []), ("special", rows)):
            _assert_csv_matches_reference(_curve(case), tmp_path, name)
        assert (tmp_path / "empty.csv").read_bytes() == b"x,value,defined\r\n"

    def test_csv_bytes_match_the_reference_on_any_float64(self, tmp_path, monkeypatch):
        exact = ordercheck._g17_exact
        deferred, values = [], []
        monkeypatch.setattr(ordercheck, "_g17_exact", lambda v: deferred.append(v) or exact(v))

        @given(st.lists(st.tuples(_FLOAT64S, _FLOAT64S, st.booleans()), max_size=40))
        @settings(derandomize=True, max_examples=300, deadline=None, database=None)
        def check(rows):
            values.extend(v for _, v, _ in rows)
            _assert_csv_matches_reference(_curve(rows), tmp_path)

        check()
        # both paths ran: some values went through format(v, ".17g"), and
        # more values were written than that
        assert 0 < len(deferred) < len(values)
        assert any(math.isnan(v) for v in deferred)

    def test_the_product_decides_every_finite_value_but_exact_ties(self, tmp_path, monkeypatch):
        # lognormal values over 100 decades, subnormals, and exact ties:
        # every finite value the product leaves to format(v, ".17g") has an
        # N = |v| * 10**(16 - E) that ends in exactly one half
        rng = np.random.default_rng(28)
        subnormals = np.array(rng.integers(1, 2**52, 1500, dtype=np.uint64)).view(float)
        ties = [(m | 1) * 2.0 ** -(q + 1) for q in range(1, 25)
                for m in rng.integers(2 * 10**16 // 5**q + 1, min(2 * 10**17 // 5**q, 2**53), 4)]
        values = np.concatenate([rng.lognormal(0.0, 50.0, 3000), subnormals, ties, _SPECIAL])
        values = np.concatenate([values, -values])
        exact = ordercheck._g17_exact
        deferred = []
        monkeypatch.setattr(ordercheck, "_g17_exact", lambda v: deferred.append(v) or exact(v))
        _assert_csv_matches_reference(Curve(values, values[::-1], np.isfinite(values)), tmp_path)
        # each value is written twice, as an x and as a value
        finite = [v for v in values.tolist() if math.isfinite(v)] * 2
        assert sorted(v for v in deferred if math.isfinite(v)) == sorted(filter(_is_tie, finite))
        assert sum(map(_is_tie, finite)) >= 4 * len(ties)
        # the 4 NaNs and infinities of _SPECIAL, negated too, each written twice
        assert sum(not math.isfinite(v) for v in deferred) == 4 * 2 * 2

    def test_the_product_is_within_its_error_bound(self):
        # N = |v| * 10**(16 - E) as P + T, E the exponent of v's text, P an
        # integer, and T within 5e-15 of N - P: over lognormal values, random
        # bit patterns, subnormals and each power of ten with its neighbours
        rng = np.random.default_rng(2806)
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        bits = np.array(rng.integers(0, 0x7FF0 << 48, 3000, dtype=np.uint64)).view(float)
        values = np.concatenate([
            rng.lognormal(0.0, 50.0, 3000), bits, powers, np.nextafter(powers, 0.0),
            np.nextafter(powers, math.inf), [5e-324, 2.2250738585072009e-308, 1.7976931348623157e308]])
        e, whole, rest = ordercheck._g17_product(values)
        bound = Fraction(5, 10**15)
        for v, k, p, t in zip(values.tolist(), e.tolist(), whole.tolist(), rest.tolist()):
            exponent = k + ordercheck._E_MIN
            assert exponent == int(format(v, ".16e").partition("e")[2]), v
            n = Fraction(v) * Fraction(10) ** (16 - exponent)
            assert p == int(p) and abs(Fraction(p) + Fraction(t) - n) <= bound, v
        e, whole, rest = ordercheck._g17_product(np.zeros(2))
        assert e.tolist() == [-ordercheck._E_MIN] * 2 and not whole.any() and not rest.any()

    def test_powers_of_ten_and_their_neighbours_match_the_reference(self, tmp_path, monkeypatch):
        # the nearest float64 to 10**k lies on either side of it, and that
        # below 1e153 prints as 1e+153, with the higher exponent: every one
        # of them and its neighbours, from 1e-320 to 1e308, is decided but
        # for exact ties (the float64 below 1e15, 999999999999999.875)
        powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
        values = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, math.inf)])
        exact = ordercheck._g17_exact
        deferred = []
        monkeypatch.setattr(ordercheck, "_g17_exact", lambda v: deferred.append(v) or exact(v))
        _assert_csv_matches_reference(Curve(values, -values, np.ones(values.size, bool)), tmp_path)
        assert format(1e153, ".17g") == "1e+153" and 1e153 < 10**153
        assert sorted(deferred) == [-999999999999999.875, 999999999999999.875]
        assert all(map(_is_tie, deferred))

    def test_values_a_hair_from_a_tie_round_as_format_does(self, tmp_path):
        # where 10**q is inexact, T carries the table's error, and for an N
        # within 5e-15 of a tie it can land on 0.5 (it does for some of
        # these): such values must still print as format(v, ".17g") does
        values = np.array(_near_ties())
        assert len(values) >= 40
        _assert_csv_matches_reference(Curve(values, -values, np.ones(values.size, bool)), tmp_path)

    def test_powers_of_ten_are_correctly_rounded(self):
        # the error bound of the product takes each scaled 10**q as hi + lo,
        # hi correctly rounded, and within 2**-106 * 10**q of it, hi split
        # into halves of at most 26 bits, and a power of two that keeps
        # every product's factors normal
        first, bound, scale, high, low, rest = ordercheck._g17_tables()
        tiny = np.finfo(np.float64).smallest_normal
        for e, (two_s, bh, bl, lo) in enumerate(zip(*(c.tolist() for c in (scale, high, low, rest)))):
            power = Fraction(10) ** (16 - e - ordercheck._E_MIN) / Fraction(two_s)
            hi = bh + bl
            assert Fraction(hi) == Fraction(bh) + Fraction(bl)
            toward = math.nextafter(hi, math.inf if power > hi else -math.inf)
            assert abs(Fraction(hi) - power) <= abs(Fraction(toward) - Fraction(hi)) / 2, e
            assert abs(Fraction(hi) + Fraction(lo) - power) <= power / 2**106, e
            assert all(_significant_bits(half) <= 26 for half in (bh, bl)), e
            assert two_s == 2.0 ** round(math.log2(two_s)) and tiny <= two_s < math.inf
            # |v| * 2**s, about N / hi, is normal and splits without overflow
            assert tiny < 1e16 / hi and 1e17 / hi < 1e300, e
        # each binade's exponent and the least float64 of the next one, as
        # format(v, ".17g") prints them
        for k, (e, least) in enumerate(zip(first.tolist(), bound.tolist())):
            exponent = e + ordercheck._E_MIN
            below = math.ldexp(1.0, k + ordercheck._K_MIN - 1)
            assert int(format(below, ".16e").partition("e")[2]) == exponent, k
            if least < math.inf:
                assert int(format(least, ".16e").partition("e")[2]) == exponent + 1, k
                assert int(format(math.nextafter(least, 0.0), ".16e").partition("e")[2]) == exponent

    def test_split_halves_hold_26_bits_and_sum_exactly(self):
        # Dekker's product is exact only for Veltkamp halves of 26 bits
        rng = np.random.default_rng(27)
        values = np.concatenate([rng.lognormal(0.0, 30.0, 2000), [1.0, 2.0**53 - 1, 1e16, 1e17]])
        high, low = ordercheck._split(values)
        for v, h, lo in zip(values.tolist(), high.tolist(), low.tolist()):
            assert Fraction(h) + Fraction(lo) == Fraction(v)
            assert _significant_bits(h) <= 26 and _significant_bits(lo) <= 26, v

    def test_catalog_curves_match_the_reference(self, catalog, tmp_path):
        for fid in catalog.ids():
            po = catalog.checker_report(fid).orientation
            for which in CURVE_KINDS:
                curve = difference_curve(po.lhs, po.rhs, DEFAULT_GRID, which)
                _assert_csv_matches_reference(curve, tmp_path, f"{fid}_{which}")

    def test_x_column_cache_keeps_signed_zeros_apart(self, tmp_path):
        # 0.0 == -0.0, so a cache keyed on the floats would print one as
        # the other on consecutive calls
        for i, x in enumerate((0.0, -0.0, 0.0, 1e-4)):
            _assert_csv_matches_reference(_curve([(x, 1.0, True), (1.0, -0.0, False)]),
                                          tmp_path, str(i))

    def test_every_layout_cell_matches_the_reference(self, tmp_path, monkeypatch):
        # every fixed-notation cell (leading digit at 10**-4 to 10**16, last
        # significant digit 0 to 16 places after it), scientific notation
        # with 2- and 3-digit exponents of either sign, with and without a
        # point, both signs and +-0, each reached by a value the product
        # decides, not by format(v, ".17g")
        fixed = [(exponent, last) for exponent in range(-4, 17) for last in range(17)]
        sci = [(-324, 16), (-100, 0), (-100, 1), (-99, 0), (-99, 16), (-5, 1), (17, 0),
               (17, 16), (99, 1), (100, 0), (308, 16)]
        values = np.array([0.0] + [v for cell in fixed + sci for v in _cell_values(*cell)])
        values = np.concatenate([values, -values])
        exact = ordercheck._g17_exact
        deferred = []
        monkeypatch.setattr(ordercheck, "_g17_exact", lambda v: deferred.append(v) or exact(v))
        _assert_csv_matches_reference(Curve(values, values[::-1], np.isfinite(values)), tmp_path)
        decided = [format(v, ".17g") for v in values.tolist() if v not in deferred]
        cells = {_text_cell(text) for text in decided if text.lstrip("-") != "0"}
        assert {cell[1:3] for cell in cells if cell[0] == "fixed"} == set(fixed)
        assert {(cell[1] < 0, cell[2] > 0, cell[3]) for cell in cells if cell[0] == "sci"} == {
            (negative, dotted, size) for negative in (True, False) for dotted in (True, False)
            for size in (2, 3)}
        assert {text[0] == "-" for text in decided} == {True, False}
        assert {"0", "-0"} <= set(decided)

    @pytest.mark.parametrize("name, columns", [
        ("int64 x", (np.array([1, 2, 3]), np.array([0.5, -0.0, np.nan]),
                     np.array([True, True, False]))),
        ("float32 x", (np.array([0.1, 2.5, 1e-30], np.float32), np.array([1.0, 2.0, 3.0]),
                       np.array([True, False, True]))),
        ("lists", ([1e-4, 1.0, 7], [0.25, float("inf"), -3], [1, 0, 1])),
    ])
    def test_columns_of_other_types_are_read_as_float64_and_bool(self, tmp_path, name,
                                                                   columns):
        # an int64 x column was read as the float64 bits of its integers,
        # a float32 one raised, and lists had no tobytes
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_curve_csv(Curve(*columns), got)
        _reference_curve_csv(Curve(*(np.asarray(c, t) for c, t in zip(columns,
                                                                      (float, float, bool)))),
                             want)
        assert got.read_bytes() == want.read_bytes(), name

    @pytest.mark.parametrize("columns", [
        (np.ones(3), np.ones(2), np.ones(3, bool)),
        (np.ones(3), np.ones(3), np.ones(4, bool)),
        (np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3), bool)),
        (1.0, 2.0, True),
    ])
    def test_columns_of_other_shapes_are_refused(self, tmp_path, columns):
        with pytest.raises(DomainError, match="curve columns must be 1-D and of one length"):
            write_curve_csv(Curve(*columns), tmp_path / "curve.csv")
        assert not (tmp_path / "curve.csv").exists()

    def test_catalog_curves_format_each_column_once(self, catalog, tmp_path, monkeypatch):
        # the 15 catalog curves on DEFAULT_GRID, written in a row, format
        # one x column and 15 value columns: the x text is cached
        curves = [difference_curve(po.lhs, po.rhs, DEFAULT_GRID, CURVE_FOR_KIND[po.kind])
                  for po in (catalog.checker_report(fid).orientation for fid in catalog.ids())]
        g17, calls = ordercheck._g17, []
        monkeypatch.setattr(ordercheck, "_g17", lambda *a, **k: calls.append(1) or g17(*a, **k))
        ordercheck._x_text.cache_clear()
        for i, curve in enumerate(curves):
            write_curve_csv(curve, tmp_path / f"{i}.csv")
        assert len(curves) == 15
        assert len(calls) == 16

    def test_one_write_stays_within_its_memory_budget(self, catalog, tmp_path):
        # one 2,000-point write after a warm-up: 573 KiB traced with a
        # 97-row text matrix, about 420 KiB with the 60-row one
        po = catalog.checker_report("ex3.1").orientation
        curve = difference_curve(po.lhs, po.rhs, DEFAULT_GRID, "sf")
        write_curve_csv(curve, tmp_path / "warm.csv")
        tracemalloc.start()
        try:
            write_curve_csv(curve, tmp_path / "curve.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 520 * 1024, peak

    def test_columns_hold_float64_float64_and_bool(self):
        m1 = FiniteMixture((1.0,), (1.0,), (1.0,))
        deep = FiniteMixture((1.0,), (50.0,), (140.0,))
        for which in ("sf", "pdf_ratio"):
            curve = difference_curve(m1, deep, Grid(1e-4, 3e-4, 20), which)
            assert [c.dtype for c in curve] == [np.float64, np.float64, np.bool_]
            assert {c.shape for c in curve} == {(20,)}
            assert not any(c.flags.writeable for c in curve)

    def test_self_difference_is_zero(self):
        m = FiniteMixture((0.4, 0.6), (1.0, 2.0), (0.5, 1.5))
        curve = difference_curve(m, m, Grid(1e-2, 1e2, 50), "sf")
        assert np.all(curve.value == 0.0)
        assert np.all(curve.defined)

    def test_rows_ascend(self):
        m1 = FiniteMixture((1.0,), (1.0,), (1.0,))
        m2 = FiniteMixture((1.0,), (2.0,), (1.0,))
        xs = difference_curve(m1, m2, Grid(1e-2, 1e2, 50), "cdf_ratio").x
        assert np.all(np.diff(xs) > 0.0)

    def test_undefined_rows_flagged(self):
        m1 = FiniteMixture((1.0,), (1.0,), (1.0,))
        deep = FiniteMixture((1.0,), (50.0,), (140.0,))
        curve = difference_curve(m1, deep, Grid(1e-4, 3e-4, 20), "pdf_ratio")
        assert not np.all(curve.defined)

    def test_nonfinite_rows_undefined(self):
        # the pdf of IK(1e-20, 2) is exactly 0 where alpha * x underflows,
        # so the pdf ratio is inf there
        m1 = FiniteMixture((1.0,), (1.0,), (2.0,))
        m2 = FiniteMixture((1.0,), (1e-20,), (2.0,))
        grid = Grid(1e-310, 1e-300, 100)
        curve, caught = _with_curve_warnings(m1, m2, grid, "pdf_ratio")
        assert caught == []
        assert np.array_equal(curve.defined, np.isfinite(curve.value))
        assert np.count_nonzero(~curve.defined) == np.count_nonzero(1e-20 * grid.xs() == 0.0)

    def test_found_pair_rows_are_defined(self):
        # the linear reversed hazards of m1 are 0/0 at 740 of these points
        m1 = FiniteMixture((0.5, 0.5), (1.0, 1.0), (400.0, 300.0))
        m2 = FiniteMixture((0.3, 0.7), (1.0, 1.0), (1.0, 2.0))
        curve, caught = _with_curve_warnings(m1, m2, DEFAULT_GRID, "rh_ratio")
        assert caught == []
        assert np.all(curve.defined)
        # log rh is log pdf - log cdf, where the logs reach -2200; each
        # rounds to eps times its size, which exp makes relative error
        for x, v in zip(curve.x[::199].tolist(), curve.value[::199].tolist()):
            want = mp_mixture(x, m1)["rh"] / mp_mixture(x, m2)["rh"]
            size = sum(abs(v) for v in mixture._evaluate(x, m1, ("cdf", "pdf")))
            rel = 1e-13 + 4.0 * np.finfo(float).eps * size
            assert v == pytest.approx(float(want), rel=rel), x

    def test_unknown_kind(self):
        m = FiniteMixture((1.0,), (1.0,), (1.0,))
        with pytest.raises(DomainError):
            difference_curve(m, m, Grid(1.0, 2.0, 5), "hazard_ratio")

    def test_csv_format_and_determinism(self, tmp_path):
        m1 = FiniteMixture((0.4, 0.6), (1.0, 2.0), (0.5, 1.5))
        m2 = FiniteMixture((0.6, 0.4), (1.0, 2.0), (0.5, 1.5))
        curve = difference_curve(m1, m2, Grid(1e-2, 1e2, 25), "sf")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_curve_csv(curve, p1)
        write_curve_csv(curve, p2)
        assert p1.read_bytes() == p2.read_bytes()
        with open(p1) as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["x", "value", "defined"]
        assert len(parsed) == 26
        assert parsed[1][2] in ("true", "false")
        # 17 significant digits survive the string round trip
        assert float(parsed[3][0]) == curve.x[2]
        assert float(parsed[3][1]) == curve.value[2]


# The bracket search as the checks ran it before crossings were computed
# on first read, kept as the eager reference: it shares no code with the
# library's search.


def _eager_refine(fn, lo: float, hi: float) -> float | None:
    flo, fhi = fn(np.array([lo, hi]))
    if not (math.isfinite(flo) and math.isfinite(fhi)):
        return None
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    positive = flo > 0
    if (fhi > 0) == positive:
        return None
    width = 1e-9 * hi
    while hi - lo > width:
        xs = np.linspace(lo, hi, 66)[1:-1]
        vals = fn(xs)
        if not np.all(np.isfinite(vals)):
            return None
        changed = (vals == 0.0) | ((vals > 0) != positive)
        if not np.any(changed):
            lo = float(xs[-1])
            continue
        j = int(np.argmax(changed))
        if vals[j] == 0.0:
            return float(xs[j])
        if j > 0:
            lo = float(xs[j - 1])
        hi = float(xs[j])
    return 0.5 * (lo + hi)


def _eager_crossing(kind, m1, m2, grid, witness_x):
    """(searched, crossing) of a violated verdict, computed at once: the
    bracket is the grid step from the previous usable point to the
    witness.  st and rh search v1 - v2 (sf, or log rh) when that point is
    strictly ordered (st also needs it to be the grid's previous point);
    lr and r_rh always search the analytic slope of their log ratio."""
    xs = grid.xs()
    k = int(np.searchsorted(xs, witness_x))
    with np.errstate(all="ignore"):
        if kind == "st":
            fn = mixture_sf
            v1, v2 = fn(xs, m1), fn(xs, m2)
            usable = np.isfinite(v1) & np.isfinite(v2) & ~((v1 < 1e-300) & (v2 < 1e-300))
        elif kind == "rh":
            def fn(x, m):
                return mixture._evaluate(x, m, ("rh",))[0]
            v1, v2 = fn(xs, m1), fn(xs, m2)
            usable = np.isfinite(v1) & np.isfinite(v2)
        else:
            name = "pdf" if kind == "lr" else "rh"
            usable = np.isfinite(mixture._evaluate(xs, m1, (name,))[0]
                                 - mixture._evaluate(xs, m2, (name,))[0])
    before = np.nonzero(usable[:k])[0]
    if before.size == 0:
        return False, None
    prev = int(before[-1])
    lo, hi = float(xs[prev]), float(xs[k])
    if kind in ("st", "rh"):
        if (kind == "st" and prev != k - 1) or not v1[prev] - v2[prev] < 0.0:
            return False, None
        return True, _eager_refine(lambda x: fn(x, m1) - fn(x, m2), lo, hi)

    def slope(x):
        terms = []
        for m in (m1, m2):
            log_rh, g = mixture._evaluate(x, m, ("rh",), slope=True)
            with np.errstate(over="ignore"):
                terms.append(g if kind == "lr" else g - np.exp(log_rh))
        return terms[1] - terms[0] if kind == "lr" else terms[0] - terms[1]

    return True, _eager_refine(slope, lo, hi)


def _counting_refiner(monkeypatch):
    """Patch the checks' bracket search with a wrapper that counts calls."""
    real = ordercheck._refine_crossing

    def counted(*args):
        counted.calls += 1
        return real(*args)

    counted.calls = 0
    monkeypatch.setattr(ordercheck, "_refine_crossing", counted)
    return counted


class TestLazyCrossing:
    """A violated verdict searches for its crossing on the first read."""

    def test_read_crossings_equal_the_eager_search(self, catalog, monkeypatch):
        pairs = []
        for fid in catalog.ids():
            po = catalog.checker_report(fid).orientation
            for grid in (DEFAULT_GRID, Grid(1e-4, 3e-4, 200)):
                pairs += [(po.lhs, po.rhs, grid), (po.rhs, po.lhs, grid)]
        config = dataclasses.replace(ScanConfig.from_file(T310_GAP_PROBE), samples=200)
        for q in draw_rows(config):
            po = check_theorem_3_10(q["beta"], q["beta_star"], q["alpha"],
                                    q["p"], q["p_star"]).orientation
            pairs.append((po.lhs, po.rhs, config.grid))
        refiner = _counting_refiner(monkeypatch)
        searched = refined = 0
        with warnings.catch_warnings():
            # ce3.4's 0/0 reversed hazards; warnings are compared elsewhere
            warnings.simplefilter("ignore", RuntimeWarning)
            cases = [(kind, m1, m2, grid, check_order(kind, m1, m2, grid))
                     for m1, m2, grid in pairs for kind in ORDER_KINDS]
            assert refiner.calls == 0
            for kind, m1, m2, grid, v in cases:
                want = (_eager_crossing(kind, m1, m2, grid, v.witness.x)
                        if v.status == "violated" else (False, None))
                # repr tells every float64 apart, so this is bit for bit
                assert repr(v.refined_crossing) == repr(want[1]), (kind, grid, m1, m2)
                searched += want[0]
                refined += want[1] is not None
        assert len(cases) == 4 * (4 * 15 + 200)
        assert refiner.calls == searched
        assert searched > 500 and refined > 100

    def test_scans_and_fixture_replays_never_search(self, catalog, monkeypatch):
        refiner = _counting_refiner(monkeypatch)
        report = run_scan(dataclasses.replace(ScanConfig.from_file(T310_GAP_PROBE),
                                              samples=50))
        assert report.alarm_count > 40
        assert sum(not r.passed for r in catalog.run_all()) == 2
        assert run_fixture(catalog.load("ce3.1")).passed
        assert refiner.calls == 0
        # the counter does see a search once a crossing is read
        po = catalog.checker_report("ce3.1").orientation
        v = check_order(po.kind, po.lhs, po.rhs)
        assert refiner.calls == 0
        assert v.refined_crossing is not None
        _ = v.refined_crossing
        assert refiner.calls == 1

    def test_search_is_bound_when_the_check_runs(self, catalog):
        po = catalog.checker_report("ce3.1").orientation
        with pytest.MonkeyPatch.context() as mpatch:
            mpatch.setattr(ordercheck, "_refine_crossing", lambda fn, lo, hi: 0.6875)
            patched = check_order(po.kind, po.lhs, po.rhs)
        assert patched.refined_crossing == 0.6875
        assert check_order(po.kind, po.lhs, po.rhs).refined_crossing != 0.6875

    def test_read_and_unread_verdicts_agree(self, catalog):
        po = catalog.checker_report("ce3.1").orientation

        def fresh():
            return check_order(po.kind, po.lhs, po.rhs)

        read = fresh()
        crossing = read.refined_crossing
        assert crossing is not None
        assert read == fresh() and fresh() == read
        assert hash(fresh()) == hash(read)
        assert repr(fresh()) == repr(read)
        assert fresh().to_dict() == read.to_dict()
        assert fresh().to_dict()["refined_crossing"] == crossing
        unread = fresh()
        copied = copy.copy(unread)
        assert copied.refined_crossing == crossing
        assert pickle.loads(pickle.dumps(fresh())) == read
        assert dataclasses.replace(fresh(), reason="r").refined_crossing == crossing
        assert dataclasses.replace(unread, reason="r").refined_crossing == crossing
        assert unread.refined_crossing == crossing
        with pytest.raises(dataclasses.FrozenInstanceError):
            read.refined_crossing = 0.5

    def test_eager_values_still_construct(self):
        v = ordercheck.OrderVerdict(kind="st", status="violated", refined_crossing=0.25)
        assert v.refined_crossing == 0.25
        assert v.to_dict()["refined_crossing"] == 0.25
        assert ordercheck.OrderVerdict(kind="st", status="holds_on_grid").refined_crossing is None
        assert v == ordercheck.OrderVerdict(kind="st", status="violated", refined_crossing=0.25)


def test_to_dict_keeps_the_literal_keys_and_order(catalog):
    # the dict literals these classes built before to_dict became
    # dataclasses.asdict, compared by value and by key order
    from ikmix.fixtures import CheckOutcome
    from ikmix.theorems import Hypothesis, VerificationOutcome

    def literal(obj):
        if isinstance(obj, Grid):
            return {"x_min": obj.x_min, "x_max": obj.x_max,
                    "points": obj.points, "spacing": obj.spacing}
        if isinstance(obj, ordercheck.Witness):
            return {"x": obj.x, "lhs": obj.lhs, "rhs": obj.rhs}
        if isinstance(obj, ordercheck.OrderVerdict):
            return {"kind": obj.kind, "status": obj.status,
                    "witness": literal(obj.witness) if obj.witness else None,
                    "refined_crossing": obj.refined_crossing, "reason": obj.reason,
                    "skipped_points": obj.skipped_points,
                    "nonfinite_points": obj.nonfinite_points, "grid": literal(obj.grid)}
        if isinstance(obj, Hypothesis):
            return {"name": obj.name, "held": obj.held, "detail": obj.detail}
        if isinstance(obj, CheckOutcome):
            return {"label": obj.label, "passed": obj.passed, "detail": obj.detail}
        return {"status": obj.status, "verdict": literal(obj.verdict) if obj.verdict else None}

    def items(d):
        return [(k, items(v) if isinstance(v, dict) else v) for k, v in d.items()]

    po = catalog.checker_report("ce3.1").orientation
    verdicts = [check_order(kind, a, b) for kind in ORDER_KINDS
                for a, b in ((po.lhs, po.rhs), (po.rhs, po.lhs))]
    verdicts += [check_order("st", po.lhs, po.lhs),
                 check_order("st", FiniteMixture((1.0,), (150.0,), (1.0,)),
                             FiniteMixture((1.0,), (140.0,), (1.0,)))]
    assert {v.status for v in verdicts} == {"violated", "holds_on_grid", "inconclusive"}
    objects = [DEFAULT_GRID, Grid(1.0, 2.0, 5, "linear"), verdicts[0].witness, *verdicts,
               Hypothesis("h", True, "d"), CheckOutcome("c", False, "d"),
               VerificationOutcome("consistent", verdicts[1]),
               VerificationOutcome("not_applicable")]
    for obj in objects:
        # unread and read crossings alike
        assert items(obj.to_dict()) == items(literal(obj)), obj


# ---------------------------------------------------------------------------
# stacked decisions
# ---------------------------------------------------------------------------


_ALONE = {kind: functools.partial(check_order, kind) for kind in ORDER_KINDS}


def _sides(pairs) -> tuple:
    """The lhs and rhs (weights, alphas, betas) arrays, pairs x components,
    of a list of mixture pairs, as check_orders takes them."""
    return tuple(tuple(np.array([getattr(m, field) for m in side])
                       for field in ("weights", "alphas", "betas"))
                 for side in zip(*pairs))


def _scan_claims(theorem: str, samples: int, seed: int) -> list:
    """The predicted orders of a seeded 2-component scan of theorem over
    wide ranges, so that hypotheses and orders both hold and fail."""
    ranges = {name: [0.05, 1.0] if kind == "weights" else [0.3, 3.0]
              for name, kind in SCAN_LAYOUTS[theorem]}
    config = ScanConfig(theorem, samples, seed, ranges)
    claims = []
    for q in draw_rows(config):
        po = CHECKERS[theorem](**q).orientation
        claims.append((po.kind, po.lhs, po.rhs))
    return claims


# pairs with unusable points: alpha = 1e-20 underflows alpha * x below
# x = 5e-304, so log u is -inf there (non-finite points); alphas of 100
# and more take both sfs below 1e-300 beyond x = 1e3 (skipped st points)
_UNUSABLE_PAIRS = (
    (FiniteMixture((0.5, 0.5), (1e-20, 1.0), (2.0, 3.0)),
     FiniteMixture((0.3, 0.7), (1e-20, 1.0), (2.5, 1.0))),
    (FiniteMixture((0.3, 0.7), (1e-20, 1.0), (2.5, 1.0)),
     FiniteMixture((0.5, 0.5), (1e-20, 1.0), (2.0, 3.0))),
    (FiniteMixture((0.5, 0.5), (1e-20, 1e-20), (2.0, 3.0)),
     FiniteMixture((0.5, 0.5), (1e-20, 1e-20), (3.0, 2.0))),
    (FiniteMixture((0.5, 0.5), (100.0, 120.0), (2.0, 3.0)),
     FiniteMixture((0.4, 0.6), (100.0, 110.0), (1.5, 3.0))),
    (FiniteMixture((0.4, 0.6), (100.0, 110.0), (1.5, 3.0)),
     FiniteMixture((0.5, 0.5), (100.0, 120.0), (2.0, 3.0))),
)


class TestStackedVerdicts:
    """check_orders decides stacks of pairs; every verdict must equal the
    one its pair gets alone, crossing included."""

    # on the first grid the non-finite pairs lose 5 points and the st
    # pairs with large alphas skip 2; on the second, the non-finite pairs
    # lose all but a third (inconclusive); on the third, st skips 26
    # points.  16, 163 and 40 pairs of 2-component mixtures fill a chunk.
    GRIDS = (Grid(1e-305, 3e3, 1000), Grid(1e-310, 1e-300, 100), Grid(1e-4, 3e3, 400))

    @staticmethod
    def _assert_alone(kind, pairs, verdicts, grid):
        assert len(verdicts) == len(pairs)
        for (m1, m2), v in zip(pairs, verdicts):
            # to_dict reads the crossing; json keeps NaN witnesses comparable
            alone = _ALONE[kind](m1, m2, grid)
            assert json.dumps(v.to_dict()) == json.dumps(alone.to_dict())
            assert v == check_order(kind, m1, m2, grid)

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("theorem", ["T3.1", "T3.2", "T3.3", "T3.10", "T3.11", "T3.12"])
    def test_scans_with_unusable_rows(self, theorem, grid):
        claims = _scan_claims(theorem, 16, seed=len(theorem) + int(grid.points))
        kind = claims[0][0]
        pairs = [claim[1:] for claim in claims]
        for k, pair in enumerate(_UNUSABLE_PAIRS):
            pairs.insert(3 * k + 1, pair)
        verdicts = check_orders(kind, *_sides(pairs), grid)
        self._assert_alone(kind, pairs, verdicts, grid)
        if grid is self.GRIDS[0]:
            unusable = [v.skipped_points + v.nonfinite_points for v in verdicts]
            assert any(unusable) and not all(unusable)

    def test_unusable_rows_are_counted(self):
        verdicts = [v for kind in ORDER_KINDS
                    for v in check_orders(kind, *_sides(_UNUSABLE_PAIRS), self.GRIDS[0])]
        assert {v.status for v in verdicts} >= {"violated", "holds_on_grid"}
        assert [v.nonfinite_points for v in verdicts[7::5]] == [5, 5, 5]
        assert [v.skipped_points for v in verdicts[3:5]] == [2, 2]
        assert verdicts[6].status == "inconclusive" and "disagree" in verdicts[6].reason
        skipped = check_orders("st", *_sides(_UNUSABLE_PAIRS), self.GRIDS[2])
        assert [v.skipped_points for v in skipped] == [0, 0, 0, 26, 26]
        gated = check_orders("rh", *_sides(_UNUSABLE_PAIRS[2:3]), self.GRIDS[1])[0]
        assert gated.status == "inconclusive" and gated.nonfinite_points > 10

    def test_mixed_kinds_and_counts_keep_their_order(self, monkeypatch):
        # the scans of four theorems, one stack per kind with an unusable
        # pair inside, then 3-component mixtures against 1-component ones,
        # 12 pairs; a budget of 8192 values per side makes chunks of 6
        # pairs (400 points, 3 components), which cut the stack twice
        monkeypatch.setattr(ordercheck, "_STACK_VALUES", 8192)
        for theorem in ("T3.12", "T3.1", "T3.11", "T3.10"):
            claims = _scan_claims(theorem, 5, seed=3)
            kind = claims[0][0]
            pairs = [claim[1:] for claim in claims]
            pairs.insert(2, _UNUSABLE_PAIRS[0])
            self._assert_alone(kind, pairs, check_orders(kind, *_sides(pairs), self.GRIDS[2]),
                               self.GRIDS[2])
        r = np.random.default_rng(3)
        pairs = [(FiniteMixture((0.2, 0.3, 0.5), (1.0, 2.0, 3.0), (1.0, 1.0, 1.0)),
                  FiniteMixture((1.0,), (2.0,), (1.0,)))]
        pairs += [(random_mixture(r, 3), random_mixture(r, 1)) for _ in range(11)]
        for kind in ORDER_KINDS:
            verdicts = check_orders(kind, *_sides(pairs), self.GRIDS[2])
            assert "violated" in {v.status for v in verdicts}
            self._assert_alone(kind, pairs, verdicts, self.GRIDS[2])

    def test_stack_of_one_and_none(self):
        (kind, *pair), = _scan_claims("T3.10", 1, seed=5)
        self._assert_alone(kind, [pair], check_orders(kind, *_sides([pair]), self.GRIDS[2]),
                           self.GRIDS[2])
        empty = tuple(np.empty((0, 2)) for _ in range(3))
        assert check_orders(kind, empty, empty, self.GRIDS[2]) == []
        with pytest.raises(DomainError, match="unknown order kind"):
            check_orders("hr", *_sides([pair]))
        with pytest.raises(DomainError, match="2 lhs mixtures vs 1 rhs mixtures"):
            check_orders(kind, _sides([pair, pair])[0], _sides([pair])[1])

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("where, value, text", [
        ((2, 0, 0), -1.0, "betas must be finite and > 0, got -1.0 in pair 0"),
        ((2, 1, 1), math.nan, "betas must be finite and > 0, got nan in pair 1"),
        ((1, 1, 0), math.inf, "alphas must be finite and > 0, got inf in pair 1"),
        ((0, 0, 1), 0.0, "weights must be finite and > 0, got 0.0 in pair 0"),
    ])
    def test_invalid_parameters_are_refused(self, side, where, value, text):
        # one bad entry in either side's (weights, alphas, betas) of a
        # two-pair stack is refused, naming the side, the array and the pair
        sides = [[np.array([[0.5, 0.5], [0.3, 0.7]]), np.ones((2, 2)), np.full((2, 2), 2.0)]
                 for _ in range(2)]
        array, pair, component = where
        sides[side][array][pair, component] = value
        with pytest.raises(DomainError, match=("lhs ", "rhs ")[side] + text):
            check_orders("st", *sides, Grid(1e-2, 1e2, 20))

    @pytest.mark.parametrize("side", [0, 1])
    def test_weights_that_do_not_sum_to_one_are_refused(self, side):
        # weights (2, 2) are the distribution of weights (0.5, 0.5), yet
        # st read violated against it; rows are refused beyond 1e-6 of 1,
        # as FiniteMixture refuses raw weights, and never renormalised
        ones = np.ones((1, 2))
        sides = [[np.array([[0.5, 0.5]]), ones, ones] for _ in range(2)]
        sides[side][0] = np.array([[2.0, 2.0]])
        with pytest.raises(DomainError, match=("lhs ", "rhs ")[side] + re.escape(
                "weights sum to 4.0 in pair 0, beyond 1e-6 of 1")):
            check_orders("st", *sides, Grid(1e-2, 1e2, 20))
        # within the tolerance the row is decided as given
        sides[side][0] = np.array([[0.5, 0.5 + 9e-7]])
        assert [v.kind for v in check_orders("st", *sides, Grid(1e-2, 1e2, 20))] == ["st"]

    @pytest.mark.parametrize("side", [0, 1])
    def test_weights_are_summed_as_finite_mixture_sums_them(self, side):
        # the row's math.fsum is 1.000001, within 1e-6 of 1, though a plain
        # np.sum gives 1.0000010000000001; FiniteMixture takes the row, so
        # check_orders must too, and beyond it refuse with side and pair
        row = [0.3586292589837843, 0.24473553206660278, 0.39663620894961293]
        assert np.sum(row) - 1.0 > 1e-6 >= math.fsum(row) - 1.0
        FiniteMixture(row, 1.0, 1.0)
        ones = np.ones((2, 3))
        sides = [[np.full((2, 3), 1.0 / 3.0), ones, ones] for _ in range(2)]
        sides[side][0] = np.array([row, row])
        assert [v.kind for v in check_orders("st", *sides, Grid(1e-2, 1e2, 20))] == ["st"] * 2
        sides[side][0][1, 0] += 1e-6
        with pytest.raises(DomainError, match=("lhs ", "rhs ")[side] + re.escape(
                f"weights sum to {math.fsum(sides[side][0][1])!r} in pair 1, beyond 1e-6 of 1")):
            check_orders("st", *sides, Grid(1e-2, 1e2, 20))

    def test_single_mixture_triples_are_refused(self):
        # a FiniteMixture's own 1-D (weights, alphas, betas) is one mixture,
        # not a stack of pairs
        triple = ([0.5, 0.5], [1.0, 2.0], [1.0, 3.0])
        grid = Grid(1e-2, 1e2, 20)
        with pytest.raises(DomainError, match=r"lhs needs .* components, got shape \(2,\)"):
            check_orders("st", triple, triple, grid)
        stack = tuple([v] for v in triple)
        with pytest.raises(DomainError, match=r"rhs needs .* components, got shape \(\)"):
            check_orders("st", stack, (0.5, 1.0, 1.0), grid)

    _GOOD = ([[0.5, 0.5]], [[1.0, 2.0]], [[1.0, 3.0]])

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("malformed, text", [
        (_GOOD[:2], re.escape("needs (weights, alphas, betas), got 2 arrays")),
        (([[0.5, 0.5], [1.0]],) + _GOOD[1:],
         re.escape("needs (weights, alphas, betas) arrays of numbers: ") + ".*inhomogeneous"),
        (_GOOD[:2] + ([["1.0", "x"]],),
         re.escape("needs (weights, alphas, betas) arrays of numbers: could not convert")),
        # numeric text and bools, which FiniteMixture refuses too
        (([["0.5", "0.5"]],) + _GOOD[1:], "weights must be real numbers, got text"),
        (([[True]], [[1.0]], [[1.0]]), "weights must be real numbers, got bools"),
    ], ids=["two arrays", "ragged", "non-numeric", "numeric text", "bools"])
    def test_malformed_sides_are_refused(self, side, malformed, text):
        # refused before the kernel, naming the side, not as numpy's
        # ValueError or the kernel's unpacking error
        sides = [self._GOOD, self._GOOD]
        sides[side] = malformed
        with pytest.raises(DomainError, match=("lhs ", "rhs ")[side] + text):
            check_orders("st", *sides, Grid(1e-2, 1e2, 20))

    @pytest.mark.parametrize("nondecreasing", [True, False])
    def test_step_test_matches_compacted_rows(self, nondecreasing):
        # the stacked step test against np.diff over each row's usable
        # points, on three stacks: rows with unusable points anywhere, ties
        # and NaNs; rows whose every point is usable; and such rows between
        # rows with unusable points at the ends and inside, with no usable
        # point and with one.  On the last two the scale puts the tolerance
        # near the ratio's 0.1 steps, so that one read at the step's right
        # end flips steps.  The ratio and the scale are left as they are.
        # Every point's left point (_left) is the last usable point before
        # it, or with across=False the point before it if usable
        r = np.random.default_rng(int(nondecreasing))
        ratio = np.round(np.cumsum(r.normal(size=(40, 30)), axis=1), 1)
        usable = r.random(size=ratio.shape) < 0.8
        usable[0], usable[1], usable[2, 1:] = True, False, False
        ratio[~usable & (r.random(size=ratio.shape) < 0.5)] = np.nan
        scale = np.abs(r.normal(size=ratio.shape)) * 1e10
        stacks = [(ratio, usable, scale)]
        for mixed in (False, True):
            ratio = np.round(np.cumsum(r.normal(size=(40, 30)), axis=1), 1)
            usable = np.ones(ratio.shape, dtype=bool)
            if mixed:
                usable[1::2] = r.random(size=(20, 30)) < 0.8
                usable[1, :3], usable[3, -3:], usable[5, 10:20] = False, False, False
                usable[7], usable[9], usable[9, 17] = False, False, True
                ratio[~usable] = np.nan
            stacks.append((ratio, usable, np.abs(r.normal(size=ratio.shape)) * 1e11))
        flips = 0
        for ratio, usable, scale in stacks:
            before = ratio.tobytes(), scale.tobytes()
            got = ordercheck._bad_steps(ratio, scale, usable, nondecreasing)
            assert (ratio.tobytes(), scale.tobytes()) == before
            for i in range(len(ratio)):
                idx = np.flatnonzero(usable[i])
                diffs = np.diff(ratio[i, idx])
                tau = 1e-12 * (1.0 + scale[i, idx[:-1]])
                want = np.zeros(ratio.shape[1], dtype=bool)
                want[idx[1:]] = diffs < -tau if nondecreasing else diffs > tau
                assert got[i].tolist() == want.tolist()
                right = 1e-12 * (1.0 + scale[i, idx[1:]])
                flips += np.count_nonzero(want[idx[1:]] != (diffs < -right if nondecreasing
                                                            else diffs > right))
            rows, ks = np.nonzero(np.ones(ratio.shape, dtype=bool))
            for across in (True, False):
                left = ordercheck._left(usable, rows, ks, across).tolist()
                want = []
                for i, k in zip(rows.tolist(), ks.tolist()):
                    before = np.flatnonzero(usable[i, :k])
                    last = int(before[-1]) if before.size else -1
                    want.append(last if across or last == k - 1 else -1)
                assert left == want
        assert flips > 0

    @pytest.mark.parametrize("count", [2, 4])
    def test_magnitude_is_the_max_of_the_stacked_abs(self, count):
        # the running max of |log| against the max over the stacked |logs|,
        # bit for bit, on logs that hold NaN (of either sign), +-inf and
        # +-0.0 at random points; the logs themselves are left as they are
        r = np.random.default_rng(count)
        logs = [r.normal(scale=1e3, size=(8, 60)) for _ in range(count)]
        for log in logs:
            spots = r.choice(log.size, size=24, replace=False)
            log.flat[spots] = np.tile([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0], 4)
        before = [log.tobytes() for log in logs]
        got = ordercheck._magnitude(*logs)
        want = np.max(np.abs(np.stack(logs)), axis=0)
        assert np.isnan(want).any() and np.isinf(want).any()
        assert got.tobytes() == want.tobytes()
        assert [log.tobytes() for log in logs] == before

    def test_magnitude_holds_two_arrays_at_most(self):
        # the scale of four (32, 500) logs, an r_rh chunk of a T3.10 scan,
        # takes the result and one |log| at a time: 250 KiB traced, where
        # the stacked copy and its abs took 1,000 KiB
        logs = [np.random.default_rng(k).normal(size=(32, 500)) for k in range(4)]
        tracemalloc.start()
        try:
            ordercheck._magnitude(*logs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * logs[0].nbytes + 4096, peak

    def test_scan_equals_a_draw_by_draw_loop(self):
        config = dataclasses.replace(ScanConfig.from_file(T310_GAP_PROBE), samples=60)
        statuses, witnesses = [], []
        for q in draw_rows(config):
            po = CHECKERS[config.theorem](**q).orientation
            v = check_order(po.kind, po.lhs, po.rhs, config.grid)
            statuses.append(v.status)
            witnesses.append(v.witness.to_dict() if v.witness else None)
        report = run_scan(config)
        alarms = {f.index: f.witness for f in report.soundness_alarms}
        assert len(alarms) == statuses.count("violated") > 50
        for index, witness in alarms.items():
            assert witness == witnesses[index]


# one grid that puts every sort of row in one stack: alpha = 1e-20 in every
# component leaves the first 11 of its points non-finite (gap rows),
# alpha = 1e-45 the first 28 (over the 10% limit); alphas of 20 take both
# sfs below 1e-300 on the last 17 points (st skip rows) and alphas of 700
# on the last 27 (over the limit)
_COLUMN_GRID = Grid(1e-320, 1e40, 240)
_COLUMN_PAIRS = (
    (FiniteMixture((0.5, 0.5), (1e-20, 1e-20), (2.0, 3.0)),
     FiniteMixture((0.3, 0.7), (1e-20, 1e-20), (2.5, 1.0))),
    (FiniteMixture((0.3, 0.7), (1e-20, 1e-20), (2.5, 1.0)),
     FiniteMixture((0.5, 0.5), (1e-20, 1e-20), (2.0, 3.0))),
    (FiniteMixture((0.36, 0.64), (1e-20, 1e-20), (1.25, 1.6)),
     FiniteMixture((0.73, 0.27), (1e-20, 1e-20), (0.85, 1.5))),
    (FiniteMixture((0.5, 0.5), (1e-45, 1e-45), (2.0, 3.0)),
     FiniteMixture((0.3, 0.7), (1e-45, 1e-45), (2.5, 1.0))),
    (FiniteMixture((0.5, 0.5), (20.0, 24.0), (2.0, 3.0)),
     FiniteMixture((0.4, 0.6), (20.0, 22.0), (1.5, 3.0))),
    (FiniteMixture((0.4, 0.6), (20.0, 22.0), (1.5, 3.0)),
     FiniteMixture((0.5, 0.5), (20.0, 24.0), (2.0, 3.0))),
    (FiniteMixture((0.5, 0.5), (700.0, 720.0), (2.0, 3.0)),
     FiniteMixture((0.4, 0.6), (700.0, 710.0), (1.5, 3.0))),
)


def _json_verdicts(verdicts) -> list[str]:
    # to_dict reads the crossing; json keeps NaN witnesses comparable
    return [json.dumps(v.to_dict()) for v in verdicts]


class TestColumnarVerdicts:
    """A chunk is decided as columns (_verdicts) and each OrderVerdict is
    built from them (_verdict): every verdict must equal the one its pair
    gets alone, whatever the chunk, the order of reading or the slice."""

    @staticmethod
    def _pairs() -> list:
        # 30 random pairs, one of them (index 29) an rh row whose two
        # criteria disagree, with the pairs above between them
        r = np.random.default_rng(5)
        pairs = [(random_mixture(r, 2), random_mixture(r, 2)) for _ in range(30)]
        for k, pair in enumerate(_COLUMN_PAIRS):
            pairs.insert(4 * k + 1, pair)
        return pairs

    @pytest.mark.parametrize("kind", ORDER_KINDS)
    def test_stacks_equal_each_pair_alone(self, monkeypatch, kind):
        # chunks of 10 pairs (4800 values per side on 240 points), so the
        # 37 pairs take four chunks
        monkeypatch.setattr(ordercheck, "_STACK_VALUES", 4800)
        pairs = self._pairs()
        assert len(ordercheck._decide(kind, *_sides(pairs), _COLUMN_GRID)) == 4
        verdicts = check_orders(kind, *_sides(pairs), _COLUMN_GRID)
        assert _json_verdicts(verdicts) == _json_verdicts(
            check_order(kind, m1, m2, _COLUMN_GRID) for m1, m2 in pairs)
        for (m1, m2), v in zip(pairs, verdicts):
            if v.status == "violated":
                # the step's left point and the bound pair, independently;
                # the reference's slope warns on inf - inf near x = 0
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    want = _eager_crossing(kind, m1, m2, _COLUMN_GRID, v.witness.x)[1]
                assert repr(v.refined_crossing) == repr(want), (kind, m1, m2)
        unusable = [v.status for v in verdicts if v.skipped_points + v.nonfinite_points]
        assert {"holds_on_grid", "inconclusive"} <= {v.status for v in verdicts}
        assert "violated" in unusable
        if kind == "rh":
            assert "disagree" in verdicts[29 + 7].reason

    def test_reads_out_of_order_and_by_slice(self, monkeypatch):
        monkeypatch.setattr(ordercheck, "_STACK_VALUES", 4800)
        sides = _sides(self._pairs())
        r = np.random.default_rng(2)
        for kind in ORDER_KINDS:
            want = _json_verdicts(check_orders(kind, *sides, _COLUMN_GRID))
            rows = [(c, i) for c in ordercheck._decide(kind, *sides, _COLUMN_GRID)
                    for i in range(len(c.status))]
            got = {}
            for n in r.permutation(len(rows)).tolist() * 2:
                got.setdefault(n, []).append(json.dumps(ordercheck._verdict(*rows[n]).to_dict()))
            assert [got[n] for n in range(len(rows))] == [[w, w] for w in want]
            # cut at other chunk boundaries
            for start, stop in ((3, 17), (9, 37), (36, 37)):
                sliced = check_orders(kind, *(tuple(a[start:stop] for a in side)
                                              for side in sides), _COLUMN_GRID)
                assert _json_verdicts(sliced) == want[start:stop]
            assert check_orders(kind, *sides, _COLUMN_GRID)[::-3] == \
                [ordercheck._verdict(*rows[n]) for n in range(len(rows))][::-3]

    def test_each_kind_s_step_and_left_point_rules(self):
        # bad marks steps for the two log-ratio tests and points for st and
        # rh; only st never takes a witness's left point from before an
        # unusable point.  A library check rarely meets that case (st's
        # unusable points lie at the grid's ends), so the rule is pinned here
        rules = {kind: (e.step, e.across) for kind, e in ordercheck._KINDS.items()}
        assert rules == {"st": (False, False), "rh": (False, True), "lr": (True, True),
                         "r_rh": (True, True)}

    @pytest.mark.parametrize("step", [True, False])
    def test_gaps_inside_rows_against_a_row_reference(self, monkeypatch, step):
        # synthetic stacks whose unusable points lie anywhere in a row,
        # which the library's checks do not produce: each row's status,
        # witness, reason and crossing against a reference that finds the
        # row's first bad point and its left point by a loop over the row
        # (a step test's left point is the last usable point before k, a
        # pointwise test's, as for st, is k - 1 if usable, else none).
        # The stacks come from the lr or st entry with its test, search,
        # value and template replaced, so its step and across rules are
        # the library's.  Each pair's search is sin(a * x) with a of its
        # row, so a crossing searched for the wrong row or from the wrong
        # point differs.
        r = np.random.default_rng(int(step))
        grid = Grid(1.0, 2.0, 40, "linear")
        xs = grid.xs()
        rows = 90
        # rising rows with a few falls (step) or reversals (pointwise)
        unusable = r.random(size=(rows, 40)) < np.linspace(0.0, 0.2, rows)[:, None]
        unusable[::3] = False  # rows whose every point is usable
        flips = r.random(size=(rows, 40)) < 0.05
        rising = np.round(np.cumsum(np.abs(r.normal(size=(rows, 40))) - 3.0 * flips, axis=1), 1)
        v1 = np.where(unusable, np.nan, rising)
        v2 = v1 if step else rising + np.where(flips, -0.5, 0.5)
        skip = unusable & (r.random(size=v1.shape) < 0.5)
        nonfinite = unusable & ~skip
        scale = np.zeros(v1.shape)
        if step:
            bad = ordercheck._bad_steps(v1, scale, ~unusable, nondecreasing=True)
        else:
            bad = ~unusable & ordercheck._exceeds(v1, v2, scale)
        m1s = np.arange(rows)[:, None, None] + np.zeros((rows, 3, 2))

        def search(m1, m2, x):
            return np.sin((100.0 + m1[0, 0]) * x)

        kind = "lr" if step else "st"
        monkeypatch.setitem(ordercheck._KINDS, kind, ordercheck._KINDS[kind]._replace(
            test=lambda *stacks: (skip, nonfinite, bad, v1, v2, {}), search=search,
            template="at {!r}", value=np.asarray))
        columns = ordercheck._verdicts(kind, grid, m1s, m1s)
        counts = {"violated": 0, "searched": 0, "after a gap": 0}
        for i in range(rows):
            v = ordercheck._verdict(columns, i)
            assert (v.skipped_points, v.nonfinite_points) == (skip[i].sum(), nonfinite[i].sum())
            if unusable[i].sum() > 4:
                assert v.status == "inconclusive" and "of 40 grid points" in v.reason
                continue
            ks = np.flatnonzero(bad[i]).tolist()
            if not ks:
                assert (v.status, v.witness, v.refined_crossing) == ("holds_on_grid", None, None)
                continue
            k = ks[0]
            usable_before = [j for j in range(k) if not unusable[i, j]]
            p = usable_before[-1] if usable_before else -1
            if not step and p != k - 1:
                p = -1
            assert v.status == "violated" and v.reason == f"at {float(xs[k])!r}"
            assert v.witness == ordercheck.Witness(float(xs[k]), float(v1[i, p if step else k]),
                                                   float(v2[i, k]))
            searched = step or (p >= 0 and v1[i, p] < v2[i, p])
            want = (mixture._refine_crossing(lambda x: np.sin((100.0 + i) * x),
                                             float(xs[p]), float(xs[k])) if searched else None)
            assert repr(v.refined_crossing) == repr(want)
            counts["violated"] += 1
            counts["searched"] += want is not None
            counts["after a gap"] += bool(unusable[i, :k].any())
        assert min(counts.values()) > 5, counts


def _counting_kernel(monkeypatch):
    """Patch the kernel's entry, mixture._stacked, with a wrapper that
    counts calls; every kernel call and sf call passes through it once."""
    real = mixture._stacked

    def counted(*args):
        counted.calls += 1
        return real(*args)

    counted.calls = 0
    monkeypatch.setattr(mixture, "_stacked", counted)
    return counted


class TestOneKernelCallPerPair:
    """A single pair whose sides share a component count is evaluated in
    one kernel call, on its two-row stack: in the checks, in each round of
    a crossing search and in difference_curve.  Stacks of several pairs
    and pairs of two component counts take one call per side."""

    GRID = Grid(1e-3, 1e3, 300)

    @staticmethod
    def _mixtures(n1, n2, seed=19):
        r = np.random.default_rng(seed)
        return random_mixture(r, n1), random_mixture(r, n2)

    @pytest.mark.parametrize("kind", ORDER_KINDS)
    def test_a_check_makes_one_call_when_the_counts_match(self, monkeypatch, kind):
        kernel = _counting_kernel(monkeypatch)
        for (n1, n2), calls in (((3, 3), 1), ((3, 2), 2), ((1, 4), 2)):
            kernel.calls = 0
            check_order(kind, *self._mixtures(n1, n2), self.GRID)
            assert kernel.calls == calls, (n1, n2)

    @pytest.mark.parametrize("which", CURVE_KINDS)
    def test_a_curve_makes_one_call_when_the_counts_match(self, monkeypatch, which):
        kernel = _counting_kernel(monkeypatch)
        difference_curve(*self._mixtures(3, 3), self.GRID, which)
        assert kernel.calls == 1
        difference_curve(*self._mixtures(2, 3), self.GRID, which)
        assert kernel.calls == 3

    # seeds of a 3-3 and a 3-2 component pair whose crossing is found
    @pytest.mark.parametrize("kind, seeds", [("st", (19, 19)), ("rh", (19, 19)),
                                             ("lr", (22, 21)), ("r_rh", (20, 21))])
    def test_each_search_round_makes_one_call(self, monkeypatch, kind, seeds):
        rounds = []
        search = ordercheck._refine_crossing

        def spy(fn, lo, hi, *rest):
            return search(lambda x: rounds.append(x.size) or fn(x), lo, hi, *rest)

        monkeypatch.setattr(ordercheck, "_refine_crossing", spy)
        for counts, seed in zip(((3, 3), (3, 2)), seeds):
            v = check_order(kind, *self._mixtures(*counts, seed), self.GRID)
            assert v.status == "violated"
            kernel = _counting_kernel(monkeypatch)
            rounds.clear()
            assert v.refined_crossing is not None
            # the two ends, then one call of 64 points per round
            assert rounds[0] == 2 and set(rounds[1:]) == {64} and len(rounds) > 2
            assert kernel.calls == len(rounds) * (1 if counts[0] == counts[1] else 2)

    def test_scans_keep_one_call_per_side(self, monkeypatch):
        # 400 draws of 2 components on 500 points: 13 chunks of up to 32
        # pairs
        kernel = _counting_kernel(monkeypatch)
        report = run_scan(ScanConfig.from_file(T310_GAP_PROBE))
        assert report.config.samples == 400
        assert kernel.calls == 2 * 13

    @pytest.mark.parametrize("block_values", [None, 300])
    def test_joined_pairs_match_the_per_side_stack(self, monkeypatch, block_values):
        # 100 random pairs of 2 to 70 components per run, under every kind:
        # the verdict of each pair alone (one call on its two-row stack)
        # against the one it gets beside its mirror in a two-pair stack,
        # which check_orders evaluates side by side; 70 components on 58
        # points still fit two pairs in a chunk.  A kernel budget of 300
        # values cuts the mixtures into blocks of 5 and 6 components.
        if block_values is not None:
            monkeypatch.setattr(mixture, "_BLOCK_VALUES", block_values)
        r = np.random.default_rng(19 if block_values is None else 20)
        grids = (Grid(1e-3, 1e3, 50), Grid(1e-4, 1e4, 58, "linear"))
        kernel = _counting_kernel(monkeypatch)
        statuses, crossings = set(), 0
        for t in range(100):
            n = int(r.integers(2, 71))
            m1 = random_mixture(r, n, alpha_range=(0.1, 10.0), beta_range=(0.1, 30.0))
            m2 = random_mixture(r, n, alpha_range=(0.1, 10.0), beta_range=(0.1, 30.0))
            grid = grids[t % 2]
            for kind in ORDER_KINDS:
                kernel.calls = 0
                stacked = check_orders(kind, *_sides([(m1, m2), (m2, m1)]), grid)
                assert kernel.calls == 2
                for (a, b), v in zip(((m1, m2), (m2, m1)), stacked):
                    alone = check_order(kind, a, b, grid)
                    # to_dict reads the crossing; json keeps NaN comparable
                    assert json.dumps(alone.to_dict()) == json.dumps(v.to_dict()), (kind, t)
                    statuses.add(alone.status)
                    crossings += alone.refined_crossing is not None
        assert statuses >= {"violated", "holds_on_grid"} and crossings > 100
