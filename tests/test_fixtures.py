"""Tests for the shipped scenario catalog.

Two catalog entries are expected to fail their recorded expectations on
the default grid, and the tests below assert those failures precisely
rather than papering over them: ce3.2 pins spot values its own
parameters cannot produce, and ex3.6 records a holds_on_grid verdict
that the reversed-hazard ratio contradicts near the left grid edge.
"""

from __future__ import annotations

import mpmath as mp
import pytest

from conftest import mp_mixture
from ikmix import DomainError, FixtureCatalog, Grid, mixture_sf, run_fixture
from ikmix.theorems import check_theorem_3_10

EXPECTED_IDS = [
    "ex3.1", "ce3.1", "ex3.2", "ce3.2", "ex3.3", "ce3.3",
    "ex3.4", "ce3.4", "ex3.5", "ce3.5", "ex3.6",
    "ex3.7", "ce3.6", "ex3.8", "ce3.7",
]

KNOWN_FAILING = {
    "ce3.2": ["value:sfdiff@x=10", "value:sfdiff@x=100"],
    "ex3.6": ["verdict:r_rh"],
}


# ---------------------------------------------------------------------------
# catalog integrity
# ---------------------------------------------------------------------------


class TestCatalog:
    def test_ids_and_order(self, catalog):
        assert catalog.ids() == EXPECTED_IDS

    def test_load_returns_fixture_dict(self, catalog):
        fx = catalog.load("ex3.1")
        assert fx["id"] == "ex3.1"
        assert fx["theorem"] == "T3.1"
        assert "checker" in fx and "expected_hypotheses" in fx

    def test_unknown_id_raises(self, catalog):
        with pytest.raises(DomainError, match="unknown fixture"):
            catalog.load("ex9.9")
        with pytest.raises(DomainError):
            catalog.run("nope")

    def test_every_fixture_names_a_theorem(self, catalog):
        for fid in catalog.ids():
            assert catalog.load(fid)["theorem"].startswith("T3.")


# ---------------------------------------------------------------------------
# full replay on the default grid
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def results(catalog):
    return {r.fixture_id: r for r in catalog.run_all()}


class TestRunAll:
    def test_result_count_and_order(self, catalog, results):
        assert list(results) == EXPECTED_IDS

    def test_known_good_fixtures_pass(self, results):
        failed = sorted(fid for fid, r in results.items() if not r.passed)
        assert failed == sorted(KNOWN_FAILING)

    def test_ce32_fails_exactly_its_spot_values(self, results):
        r = results["ce3.2"]
        assert [c.label for c in r.failures()] == KNOWN_FAILING["ce3.2"]
        for c in r.checks:
            if not c.label.startswith("value:"):
                assert c.passed, c.label

    def test_ce32_failure_reports_actual_values(self, results):
        details = {c.label: c.detail for c in results["ce3.2"].failures()}
        assert "-0.0364592" in details["value:sfdiff@x=10"]
        assert "-0.0091282" in details["value:sfdiff@x=100"]

    def test_sfdiff_spot_values_are_the_difference_of_the_sfs(self, catalog, results):
        # the two sfs of a spot value come from one kernel call on the
        # pair's stack, with each side's bits: the reported float is the
        # difference of the two evaluated alone
        po = catalog.checker_report("ce3.2").orientation
        sides = {"lhs": po.lhs, "rhs": po.rhs}
        details = {c.label: c.detail for c in results["ce3.2"].checks}
        for ev in catalog.load("ce3.2")["expected_values"]:
            assert ev["quantity"] == "sfdiff"
            want = (mixture_sf(ev["x"], sides[ev["minuend"]])
                    - mixture_sf(ev["x"], sides[ev["subtrahend"]]))
            assert details[f"value:sfdiff@x={ev['x']:g}"].endswith(f"got {want!r}")

    def test_ex36_fails_exactly_the_verdict(self, results):
        r = results["ex3.6"]
        assert [c.label for c in r.failures()] == KNOWN_FAILING["ex3.6"]
        detail = r.failures()[0].detail
        assert "got violated" in detail
        assert "witness" in detail

    def test_counterexamples_report_witnesses(self, results):
        # fixtures whose expected verdict is a violation must carry a
        # witness through run_fixture's extra guard
        for fid in ("ce3.1", "ce3.3", "ce3.4", "ce3.5", "ce3.6", "ce3.7"):
            verdicts = [c for c in results[fid].checks
                        if c.label.startswith("verdict:")]
            assert len(verdicts) == 1
            assert verdicts[0].passed, verdicts[0].detail

    def test_transform_fixtures_check_products(self, results):
        for fid in ("ex3.4", "ce3.4", "ex3.5", "ce3.5"):
            labels = [c.label for c in results[fid].checks]
            assert f"t_transform:0:product" in labels
            assert f"t_transform:0:omega" in labels

    def test_ce34_records_failed_hypothesis(self, results):
        # the scenario's point is that the shape parameter leaves (0, 1];
        # the recorded expectation is False and the check passes
        checks = {c.label: c for c in results["ce3.4"].checks}
        assert checks["hypothesis:beta_in_unit_interval"].passed

    def test_result_to_dict(self, results):
        d = results["ex3.1"].to_dict()
        assert d["fixture_id"] == "ex3.1"
        assert d["passed"] is True
        assert all(set(c) == {"label", "passed", "detail"} for c in d["checks"])


# ---------------------------------------------------------------------------
# grid sensitivity
# ---------------------------------------------------------------------------


class TestGridOverride:
    def test_ex36_passes_on_trimmed_grid(self, catalog):
        # the contradicting ratio bump sits below x = 1e-3; starting the
        # grid at 1e-2 restores a clean holds_on_grid verdict
        r = catalog.run("ex3.6", Grid(1e-2, 1e4, 2000))
        assert r.passed

    def test_ce32_still_fails_on_trimmed_grid(self, catalog):
        # spot values do not depend on the grid at all
        r = catalog.run("ce3.2", Grid(1e-2, 1e4, 2000))
        assert [c.label for c in r.failures()] == KNOWN_FAILING["ce3.2"]


# ---------------------------------------------------------------------------
# run_fixture plumbing on doctored inputs
# ---------------------------------------------------------------------------


class TestRunFixturePlumbing:
    def test_wrong_expected_boolean_fails_that_check(self, catalog):
        fx = dict(catalog.load("ex3.1"))
        fx["expected_hypotheses"] = dict(fx["expected_hypotheses"])
        key = next(iter(fx["expected_hypotheses"]))
        fx["expected_hypotheses"][key] = not fx["expected_hypotheses"][key]
        r = run_fixture(fx)
        assert [c.label for c in r.failures()] == [f"hypothesis:{key}"]

    def test_unknown_expected_hypothesis_fails(self, catalog):
        fx = dict(catalog.load("ex3.1"))
        fx["expected_hypotheses"] = dict(fx["expected_hypotheses"],
                                         made_up_name=True)
        r = run_fixture(fx)
        assert any(c.label == "hypothesis:made_up_name" and not c.passed
                   for c in r.checks)

    def test_missing_expected_hypothesis_trips_coverage(self, catalog):
        fx = dict(catalog.load("ex3.1"))
        hyps = dict(fx["expected_hypotheses"])
        hyps.popitem()
        fx["expected_hypotheses"] = hyps
        r = run_fixture(fx)
        assert any(c.label == "hypothesis:coverage" and not c.passed
                   for c in r.checks)

    def test_unwired_theorem_raises(self, catalog):
        fx = dict(catalog.load("ex3.1"))
        fx["theorem"] = "T9.9"
        with pytest.raises(DomainError, match="no checker"):
            run_fixture(fx)


# ---------------------------------------------------------------------------
# README "Known discrepancies" 2 and 3, at 50 digits
# ---------------------------------------------------------------------------


def _mp_log_rh_ratio_slope(m1, m2, x):
    """d/dx log(rh(m1) / rh(m2)) at x in mpmath at 50 digits: for each
    side d/dx log rh = d/dx log pdf - rh."""
    a, b = mp_mixture(x, m1, 50), mp_mixture(x, m2, 50)
    with mp.workdps(50):
        return (a["slope"] - a["rh"]) - (b["slope"] - b["rh"])


def test_ex36_ratio_rises_below_the_window_and_turns_once():
    # the ratio rises at every quarter decade from x = 1e-12 to 5.6e-4
    # (1e-12, 1e-8 and 1e-6 among them, below the default window), and
    # falls at every quarter decade from 1e-3 to 1e4; its slope changes
    # sign once, at x = 9.41771409285e-4
    po = check_theorem_3_10(beta=(0.1, 0.2, 0.3), beta_star=(0.5, 1.0, 2.0), alpha=2.0,
                            p=(0.1, 0.3, 0.6), p_star=(0.2, 0.3, 0.5)).orientation
    assert po.kind == "r_rh"
    xs = [10.0 ** (k / 4) for k in range(-48, 17)]
    signs = [mp.sign(_mp_log_rh_ratio_slope(po.lhs, po.rhs, x)) for x in xs]
    assert signs == [1] * 36 + [-1] * 29 and xs[35] < 5.7e-4 and xs[36] == 1e-3
    assert _mp_log_rh_ratio_slope(po.lhs, po.rhs, 9.41771409284e-4) > 0
    assert _mp_log_rh_ratio_slope(po.lhs, po.rhs, 9.41771409286e-4) < 0


def test_t310_minimal_instance_ratio_rises_everywhere_sampled():
    # both gaps equal 1 and the hypothesis holds, yet the ratio rises at
    # every half decade from x = 1e-12 to 1e6, not only near the origin
    report = check_theorem_3_10(beta=(1.0, 2.0), beta_star=(1.0, 2.0), alpha=1.0,
                                p=(0.5, 0.5), p_star=(0.9, 0.1))
    po = report.orientation
    assert report.all_held and po.kind == "r_rh"
    slopes = [_mp_log_rh_ratio_slope(po.lhs, po.rhs, 10.0 ** (k / 2)) for k in range(-24, 13)]
    assert all(s > 0 for s in slopes)
