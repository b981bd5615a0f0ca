"""Tests for the seeded region scanner."""

from __future__ import annotations

import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import pytest

from conftest import draw_rows
from ikmix import DomainError, FiniteMixture, Grid, check_order
from ikmix.mixture import _renormalised_rows
from ikmix.theorems import CHECKERS, SCAN_LAYOUTS
from ikmix.scan import (
    CATEGORIES,
    SCANNABLE_THEOREMS,
    ScanConfig,
    draw_sample,
    run_scan,
)

import numpy as np

SCAN_CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "scan_configs"


def point(*vals):
    """Degenerate [lo, hi] pairs pinning every draw to one spot."""
    return [[v, v] for v in vals]


# the known false-positive spot for the reversed-hazard-ratio gap
# condition: both gaps equal 1, yet the ratio increases near the origin
ALARM_CONFIG = dict(
    theorem="T3.10",
    samples=3,
    seed=11,
    ranges={
        "beta": point(1.0, 2.0),
        "beta_star": point(1.0, 2.0),
        "alpha": [1.0, 1.0],
        "p": point(0.5, 0.5),
        "p_star": point(0.9, 0.1),
    },
)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


class TestScanConfig:
    def test_scannable_theorem_order(self):
        assert SCANNABLE_THEOREMS == ("T3.1", "T3.2", "T3.3",
                                      "T3.10", "T3.11", "T3.12")

    def test_unknown_theorem(self):
        with pytest.raises(DomainError, match="scan supports"):
            ScanConfig("T3.6", 10, 1, {})

    def test_samples_positive(self):
        with pytest.raises(DomainError, match="samples"):
            ScanConfig("T3.1", 0, 1, {"alpha": [1, 2], "beta": [1, 2],
                                      "p": [0.1, 1], "p_star": [0.1, 1]})

    def test_seed_is_mandatory_integer(self):
        ranges = {"alpha": [1, 2], "beta": [1, 2],
                  "p": [0.1, 1], "p_star": [0.1, 1]}
        for bad in (None, 1.5, "7", True, -1):
            with pytest.raises(DomainError, match="seed"):
                ScanConfig("T3.1", 10, bad, ranges)

    def test_missing_range_keys(self):
        with pytest.raises(DomainError, match="ranges missing"):
            ScanConfig("T3.1", 10, 1, {"alpha": [1, 2]})

    def test_extra_range_keys(self):
        with pytest.raises(DomainError, match="unknown parameters"):
            ScanConfig("T3.1", 10, 1,
                       {"alpha": [1, 2], "beta": [1, 2], "p": [0.1, 1],
                        "p_star": [0.1, 1], "gamma": [1, 2]})

    def test_range_must_be_ordered_positive(self):
        base = {"beta": [1, 2], "p": [0.1, 1], "p_star": [0.1, 1]}
        with pytest.raises(DomainError, match="0 < lo <= hi"):
            ScanConfig("T3.1", 10, 1, dict(base, alpha=[2, 1]))
        with pytest.raises(DomainError, match="0 < lo <= hi"):
            ScanConfig("T3.1", 10, 1, dict(base, alpha=[0.0, 1]))
        for bad in ([None, 2], ["1", 2], [True, 2], [1, 10**400], [[1, 2], [1, "2"]]):
            with pytest.raises(DomainError, match="0 < lo <= hi"):
                ScanConfig("T3.1", 10, 1, dict(base, alpha=bad))

    @pytest.mark.parametrize("field, least", [("samples", 1), ("n_components", 2)])
    def test_counts_must_be_integers(self, field, least):
        for bad in (2.7, 3.0, "3", True, None, least - 1):
            with pytest.raises(DomainError, match=f"{field} must be an integer >= {least}"):
                ScanConfig.from_dict(dict(ALARM_CONFIG, **{field: bad}))

    @pytest.mark.parametrize("config, match", [
        ([1], "scan config must be a JSON object"),
        (dict(ALARM_CONFIG, theorem=["T3.10"]), "theorem"),
        (dict(ALARM_CONFIG, theorem={"T3.10": 1}), "theorem"),
        (dict(ALARM_CONFIG, ranges=5), "ranges must be an object"),
        (dict(ALARM_CONFIG, ranges=None), "ranges must be an object"),
        (dict(ALARM_CONFIG, ranges=[]), "ranges must be an object")])
    def test_structural_errors_name_the_field(self, config, match):
        with pytest.raises(DomainError, match=match):
            ScanConfig.from_dict(config)

    def test_per_component_pair_count_must_match(self):
        base = {"beta": [1, 2], "p": [0.1, 1], "p_star": [0.1, 1]}
        with pytest.raises(DomainError, match="expected 2"):
            ScanConfig("T3.1", 10, 1,
                       dict(base, alpha=[[1, 2], [1, 2], [1, 2]]))

    def test_from_dict_missing_keys(self):
        with pytest.raises(DomainError, match="missing required keys"):
            ScanConfig.from_dict({"theorem": "T3.1", "samples": 5})

    def test_dict_roundtrip(self):
        cfg = ScanConfig.from_dict(ALARM_CONFIG)
        again = ScanConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_grid_spec_string_accepted(self):
        cfg = ScanConfig.from_dict(dict(ALARM_CONFIG, grid="1e-2:1e2:500:log"))
        assert cfg.grid == Grid(1e-2, 1e2, 500, "logarithmic")

    def test_grid_points_must_be_an_integer(self):
        grid = {"x_min": 1e-4, "x_max": 1e4, "points": 2.7}
        with pytest.raises(DomainError, match="grid points must be an integer"):
            ScanConfig.from_dict(dict(ALARM_CONFIG, grid=grid))
        cfg = ScanConfig.from_dict(dict(ALARM_CONFIG, grid=dict(grid, points=500)))
        assert cfg.grid.points == 500

    @pytest.mark.parametrize("bound", ["1e-4", None, True,
                                       pytest.param(10**400, id="401-digit int")])
    def test_grid_bounds_must_be_positive_reals(self, bound):
        grid = {"x_min": bound, "x_max": 1e4}
        with pytest.raises(DomainError, match="grid x_min"):
            ScanConfig.from_dict(dict(ALARM_CONFIG, grid=grid))

    @pytest.mark.parametrize("grid", [{"x_min": 1e-4, "x_max": 1e4, "point": 100},
                                      {"x_max": 1e4}, [1e-4, 1e4], 5])
    def test_bad_grid_names_the_expected_keys(self, grid):
        with pytest.raises(DomainError, match="x_min, x_max and optionally points, spacing"):
            ScanConfig.from_dict(dict(ALARM_CONFIG, grid=grid))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


class TestDrawSample:
    def test_weights_normalised_and_in_range(self):
        cfg = ScanConfig("T3.1", 50, 3,
                         {"alpha": [0.5, 2.0], "beta": [0.3, 0.9],
                          "p": [0.1, 1.0], "p_star": [0.1, 1.0]})
        s = draw_sample(cfg, np.random.Generator(np.random.Philox(3)))
        assert list(s) == ["alpha", "beta", "p", "p_star"]
        assert s["alpha"].shape == s["p"].shape == (50, 2) and s["beta"].shape == (50,)
        assert np.all(np.abs(s["p"].sum(axis=1) - 1.0) < 1e-12)
        assert np.all(np.abs(s["p_star"].sum(axis=1) - 1.0) < 1e-12)
        assert np.all((0.5 <= s["alpha"]) & (s["alpha"] <= 2.0))
        assert np.all((0.3 <= s["beta"]) & (s["beta"] <= 0.9))

    def test_point_mass_ranges_hit_exactly(self):
        cfg = ScanConfig.from_dict(ALARM_CONFIG)
        s = draw_sample(cfg, np.random.Generator(np.random.Philox(0)))
        assert s["beta"].tolist() == [[1.0, 2.0]] * 3
        assert s["p_star"].tolist() == [[0.9, 0.1]] * 3
        assert s["alpha"].tolist() == [1.0] * 3


# ---------------------------------------------------------------------------
# scan outcomes
# ---------------------------------------------------------------------------


class TestRunScan:
    def test_determinism(self):
        cfg = ScanConfig("T3.1", 40, 7,
                         {"alpha": [0.3, 3.0], "beta": [0.3, 3.0],
                          "p": [0.05, 1.0], "p_star": [0.05, 1.0]},
                         grid=Grid(1e-3, 1e3, 300))
        r1 = run_scan(cfg)
        r2 = run_scan(cfg)
        assert r1.to_dict() == r2.to_dict()
        r3 = run_scan(ScanConfig("T3.1", 40, 8, cfg.ranges, grid=cfg.grid))
        assert r3.to_dict() != r1.to_dict()

    @pytest.mark.parametrize("name", ["t310_gap_probe", "t311_separated_region"])
    def test_builds_no_mixture(self, monkeypatch, name):
        # a scan decides its draws as arrays: none becomes a FiniteMixture
        builds = []
        init = FiniteMixture.__init__
        monkeypatch.setattr(FiniteMixture, "__init__",
                            lambda self, *args: builds.append(args) or init(self, *args))
        config = ScanConfig.from_dict(
            dict(json.loads((SCAN_CONFIGS / f"{name}.json").read_text()), samples=64))
        assert sum(run_scan(config).counts.values()) == 64
        assert builds == []
        FiniteMixture((1.0,), 1.0, 1.0)  # the count sees a build
        assert len(builds) == 1

    def test_scan_memory_stays_bounded(self):
        # the traced peak of one 48-draw T3.10 scan (2 components, 500
        # points, chunks of 32 draws), after a first scan has filled the
        # caches: 1,778 KiB on x86-64 with numpy 2.4, 2,029 KiB if the
        # kernel's logs get their own arrays again, and 565 KiB with
        # chunks of 8 draws; a larger chunk fails here
        config = dataclasses.replace(ScanConfig.from_file(SCAN_CONFIGS / "t310_gap_probe.json"),
                                     samples=48)
        run_scan(config)
        tracemalloc.start()
        try:
            run_scan(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.85 * 2**20, f"traced peak {peak / 1024:.0f} KiB"

    def test_counts_cover_all_samples(self):
        cfg = ScanConfig("T3.2", 30, 5,
                         {"beta": [0.3, 3.0], "alpha": [0.3, 3.0],
                          "p": [0.05, 1.0], "p_star": [0.05, 1.0]},
                         grid=Grid(1e-3, 1e3, 300))
        report = run_scan(cfg)
        assert set(report.counts) == set(CATEGORIES)
        assert sum(report.counts.values()) == 30

    def test_point_mass_consistent(self, catalog):
        # the ex3.1 scenario satisfies every hypothesis and its order
        # holds, so all draws land in the consistent bucket
        ck = catalog.load("ex3.1")["checker"]
        cfg = ScanConfig("T3.1", 4, 1,
                         {"alpha": point(*ck["alpha"]),
                          "beta": [ck["beta"], ck["beta"]],
                          "p": point(*ck["p"]),
                          "p_star": point(*ck["p_star"])},
                         n_components=3,
                         grid=Grid(1e-3, 1e3, 400))
        report = run_scan(cfg)
        assert report.counts["consistent"] == 4
        assert report.alarm_count == 0

    def test_soundness_alarm_fires_on_known_gap(self):
        report = run_scan(ScanConfig.from_dict(ALARM_CONFIG))
        assert report.counts["soundness_alarm"] == 3
        assert report.alarm_count == 3
        finding = report.soundness_alarms[0]
        assert finding.category == "soundness_alarm"
        assert finding.params["beta"] == [1.0, 2.0] or \
            finding.params["beta"] == (1.0, 2.0)
        assert finding.witness is not None
        assert finding.witness["lhs"] < finding.witness["rhs"]

    def test_alarm_findings_serialise(self):
        report = run_scan(ScanConfig.from_dict(dict(ALARM_CONFIG, samples=1)))
        d = report.to_dict()
        assert d["counts"]["soundness_alarm"] == 1
        w = d["soundness_alarms"][0]["witness"]
        assert set(w) == {"x", "lhs", "rhs"}
        assert isinstance(d["soundness_alarms"][0]["params"]["p"], list)

    def test_failed_hypotheses_with_violation(self, catalog):
        # the ce3.6 scenario breaks the separation hypotheses and its
        # predicted order indeed fails on the grid
        ck = catalog.load("ce3.6")["checker"]
        cfg = ScanConfig("T3.11", 2, 9,
                         {"p": point(*ck["p"]),
                          "alpha": point(*ck["alpha"]),
                          "beta": point(*ck["beta"]),
                          "p_star": point(*ck["p_star"]),
                          "alpha_star": point(*ck["alpha_star"]),
                          "beta_star": point(*ck["beta_star"])},
                         n_components=3,
                         grid=Grid(1e-3, 1e3, 400))
        report = run_scan(cfg)
        assert report.counts["hypotheses_false_order_violated"] == 2
        assert report.alarm_count == 0

    def test_order_holding_without_hypotheses_is_reported(self):
        # identical mixtures on both sides trivially satisfy the order,
        # but aligned alpha and weights break the arrangement hypothesis
        cfg = ScanConfig("T3.1", 3, 2,
                         {"alpha": point(1.0, 2.0),
                          "beta": [0.5, 0.5],
                          "p": point(0.3, 0.7),
                          "p_star": point(0.3, 0.7)},
                         grid=Grid(1e-3, 1e3, 300))
        report = run_scan(cfg)
        assert report.counts["order_holds_without_hypotheses"] == 3
        assert len(report.holds_without_hypotheses) == 3
        assert report.holds_without_hypotheses[0].witness is None


@pytest.mark.parametrize("config, fid", [("ex31_point.json", "ex3.1"),
                                         ("ce36_point.json", "ce3.6")])
def test_point_config_encodes_its_fixture(catalog, config, fid):
    """The single-point scan configs hold the theorem and checker inputs
    of their fixture exactly: every range is [v, v] with v taken from the
    fixture, so a scan of them replays the fixture's checker report."""
    cfg = json.loads((SCAN_CONFIGS / config).read_text())
    fx = catalog.load(fid)
    assert cfg["theorem"] == fx["theorem"]
    assert set(cfg["ranges"]) == set(fx["checker"])
    for name, value in fx["checker"].items():
        if isinstance(value, list):
            assert cfg["ranges"][name] == point(*value), name
            assert cfg["n_components"] == len(value), name
        else:
            assert cfg["ranges"][name] == [value, value], name
    params = draw_rows(ScanConfig.from_dict(cfg))[0]
    assert CHECKERS[fx["theorem"]](**params).to_dict() == catalog.checker_report(fid).to_dict()


# ---------------------------------------------------------------------------
# the array draw against a per-coordinate loop, and the stacked scan
# against the public checkers
# ---------------------------------------------------------------------------


def _looped_draws(config):
    """The documented stream, one rng.uniform per coordinate whose range is
    not a point, draw-major in layout order; weights over their Python sum."""
    rng = np.random.Generator(np.random.Philox(config.seed))
    rows = []
    for _ in range(config.samples):
        row = {}
        for name, kind in SCAN_LAYOUTS[config.theorem]:
            vals = [rng.uniform(lo, hi) if hi > lo else lo for lo, hi in config.ranges[name]]
            total = sum(vals)
            row[name] = (vals[0] if kind == "scalar" else
                         [v / total for v in vals] if kind == "weights" else vals)
        rows.append(row)
    return rows


def _mixed_ranges(theorem, n):
    """Per-component ranges where every third coordinate is a point."""
    ranges = {}
    for name, kind in SCAN_LAYOUTS[theorem]:
        lo, hi = (0.05, 1.0) if kind == "weights" else (0.3, 3.0)
        pairs = [[lo + 0.1 * i, lo + 0.1 * i] if i % 3 == 1 else [lo, hi]
                 for i in range(1 if kind == "scalar" else n)]
        ranges[name] = pairs
    return ranges


@pytest.mark.parametrize("theorem", SCAN_LAYOUTS)
@pytest.mark.parametrize("n, mixed", [(2, False), (3, True), (9, False), (9, True)])
def test_array_draw_equals_a_per_coordinate_loop(theorem, n, mixed):
    # with 9 components numpy's pairwise sum along a row would round
    # differently from the left-to-right total
    ranges = (_mixed_ranges(theorem, n) if mixed else
              {name: [0.05, 1.0] if kind == "weights" else [0.3, 3.0]
               for name, kind in SCAN_LAYOUTS[theorem]})
    config = ScanConfig(theorem, 40, 1000 + n, ranges, n_components=n)
    draws = draw_sample(config, np.random.Generator(np.random.Philox(config.seed)))
    assert list(draws) == [name for name, _ in SCAN_LAYOUTS[theorem]]
    for i, want in enumerate(_looped_draws(config)):
        got = {name: v[i].tolist() for name, v in draws.items()}
        assert repr(got) == repr(want), i


def test_point_ranges_take_nothing_from_the_stream():
    config = ScanConfig.from_dict(ALARM_CONFIG)
    draws = draw_sample(config, np.random.Generator(np.random.Philox(config.seed)))
    assert repr([{k: v[i].tolist() for k, v in draws.items()} for i in range(3)]) == \
        repr(_looped_draws(config))


_CATEGORY_RANGES = {
    "T3.1": {"alpha": [0.3, 3.0], "beta": [0.3, 3.0], "p": [0.05, 1.0], "p_star": [0.05, 1.0]},
    "T3.2": {"beta": [0.3, 3.0], "alpha": [0.3, 3.0], "p": [0.05, 1.0], "p_star": [0.05, 1.0]},
    "T3.3": {"alpha": [0.3, 3.0], "alpha_star": [0.3, 3.0], "beta": [0.3, 1.5],
             "p": [0.05, 1.0]},
    "T3.10": {"beta": [0.5, 3.0], "beta_star": [0.5, 3.0], "alpha": [0.5, 2.0],
              "p": [0.05, 1.0], "p_star": [0.05, 1.0]},
    "T3.11": {"p": [0.05, 1.0], "alpha": [1.5, 6.0], "beta": [0.2, 2.0],
              "p_star": [0.05, 1.0], "alpha_star": [1.0, 3.0], "beta_star": [0.5, 6.0]},
    "T3.12": {"p": [0.05, 1.0], "alpha": [1.0, 3.0], "beta": [0.5, 6.0],
              "p_star": [0.05, 1.0], "alpha_star": [1.5, 6.0], "beta_star": [0.2, 2.0]},
}


@pytest.mark.parametrize("theorem", SCAN_LAYOUTS)
def test_scan_categories_equal_the_checker_row_by_row(theorem):
    config = ScanConfig(theorem, 64, sum(map(ord, theorem)), _CATEGORY_RANGES[theorem],
                        grid=Grid(1e-3, 1e3, 200))
    report = run_scan(config)
    want, witnesses = [], {}
    for i, params in enumerate(draw_rows(config)):
        rep = CHECKERS[theorem](**params)
        po = rep.orientation
        verdict = check_order(po.kind, po.lhs, po.rhs, config.grid)
        if verdict.status == "inconclusive":
            category = "undecided"
        elif rep.all_held:
            category = ("soundness_alarm" if verdict.status == "violated" else "consistent")
        else:
            category = ("hypotheses_false_order_violated" if verdict.status == "violated"
                        else "order_holds_without_hypotheses")
        want.append(category)
        witnesses[i] = (params, verdict.witness.to_dict() if verdict.witness else None)
    assert report.counts == {c: want.count(c) for c in CATEGORIES}
    for findings, category in ((report.soundness_alarms, "soundness_alarm"),
                               (report.holds_without_hypotheses,
                                "order_holds_without_hypotheses")):
        assert [f.index for f in findings] == [i for i, c in enumerate(want) if c == category]
        for f in findings:
            assert f.category == category
            assert repr(f.params) == repr(witnesses[f.index][0])
            assert f.witness == witnesses[f.index][1]
    # the ranges reach both sides of the hypotheses and of the order
    assert len(set(want)) >= 2


# ---------------------------------------------------------------------------
# the scan's weights, and whole reports against a draw-by-draw rebuild
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 5, 50])
@pytest.mark.parametrize("off", [0.0, 1e-7, 2e-6])
def test_renormalised_rows_equal_each_row_alone(n, off):
    # a scan divides each draw's weights by their math.fsum at once; each
    # row must get the bits, or the DomainError, that a FiniteMixture's
    # weights get alone; rows 7 and 20 are off by about off
    raw = np.random.default_rng(n).uniform(0.05, 1.0, size=(40, n))
    weights = raw / raw.sum(axis=1)[:, None]
    weights[7] *= 1.0 + off
    weights[20] *= 1.0 + 3.0 * off
    rows = weights.tolist()
    if off > 1e-6:
        with pytest.raises(DomainError) as alone:
            FiniteMixture(rows[7], 1.0, 1.0)
        with pytest.raises(DomainError, match=f"^{re.escape(str(alone.value))}$"):
            _renormalised_rows(weights)
        return
    got = _renormalised_rows(weights)
    assert [repr(tuple(row)) for row in got.tolist()] == [
        repr(FiniteMixture(r, 1.0, 1.0).weights) for r in rows] == [
        repr(tuple(w / math.fsum(r) for w in r)) for r in rows]


_CATEGORY_OF = {(True, "violated"): "soundness_alarm", (True, "holds_on_grid"): "consistent",
                (False, "violated"): "hypotheses_false_order_violated",
                (False, "holds_on_grid"): "order_holds_without_hypotheses"}


def _rebuilt_report(config) -> dict:
    """The report of config rebuilt draw by draw: each draw's checker
    builds its pair of FiniteMixtures and check_order decides the pair."""
    counts = dict.fromkeys(CATEGORIES, 0)
    findings = {"soundness_alarm": [], "order_holds_without_hypotheses": []}
    for index, params in enumerate(draw_rows(config)):
        report = CHECKERS[config.theorem](**params)
        po = report.orientation
        verdict = check_order(po.kind, po.lhs, po.rhs, config.grid)
        category = _CATEGORY_OF.get((report.all_held, verdict.status), "undecided")
        counts[category] += 1
        if category in findings:
            findings[category].append({
                "index": index,
                "params": {k: list(v) if isinstance(v, tuple) else v for k, v in params.items()},
                "category": category,
                "witness": verdict.witness.to_dict() if verdict.witness else None})
    return {"config": config.to_dict(), "counts": counts,
            "soundness_alarms": findings["soundness_alarm"],
            "holds_without_hypotheses": findings["order_holds_without_hypotheses"]}


# alphas from 1e-41 to 1e-39 leave the first 24 or 25 of these 240 points
# non-finite, so the draws with 25, over the 10% limit, are undecided
_UNDECIDED_CONFIG = ScanConfig(
    "T3.10", 24, 3, {"beta": [0.5, 3.0], "beta_star": [0.5, 3.0], "alpha": [1e-41, 1e-39],
                     "p": [0.05, 1.0], "p_star": [0.05, 1.0]}, grid=Grid(1e-320, 1e40, 240))


@pytest.mark.parametrize("config", [
    *sorted(p.stem for p in SCAN_CONFIGS.glob("*.json")), "undecided"])
def test_scan_equals_a_draw_by_draw_rebuild(config):
    config = (_UNDECIDED_CONFIG if config == "undecided"
              else ScanConfig.from_file(SCAN_CONFIGS / f"{config}.json"))
    want, got = _rebuilt_report(config), run_scan(config).to_dict()
    # finding by finding first, so that a failure names its draw quickly
    assert got["counts"] == want["counts"]
    for key in ("soundness_alarms", "holds_without_hypotheses"):
        assert [f["index"] for f in got[key]] == [f["index"] for f in want[key]]
        for found, rebuilt in zip(got[key], want[key]):
            assert json.dumps(found) == json.dumps(rebuilt)
    assert json.dumps(got) == json.dumps(want)
    if config is _UNDECIDED_CONFIG:
        assert min(want["counts"][c] for c in ("undecided", "soundness_alarm",
                                                "order_holds_without_hypotheses")) > 0
