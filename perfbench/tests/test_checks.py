import copy

import numpy as np
import pytest

import checks

M1 = {"weights": [0.4, 0.6], "alpha": [0.6, 1.5], "beta": [0.7, 1.2]}
M2 = {"weights": [0.5, 0.5], "alpha": [3.0, 4.0], "beta": [3.0, 3.5]}
GRID = "1e-2:1e2:40:log"


def expected_catalog():
    known = checks.CATALOG_EXPECTED_FAILURES
    ids = list(known) + [f"fx{i}" for i in range(checks.CATALOG_SIZE - len(known))]
    return [[fid, fid not in known, known.get(fid, [])] for fid in ids]


def test_catalog_check_accepts_the_known_score_and_rejects_a_flip():
    rows = expected_catalog()
    assert checks.check_catalog(rows) == []
    flipped = copy.deepcopy(rows)
    ex36 = next(r for r in flipped if r[0] == "ex3.6")
    ex36[1], ex36[2] = True, []           # the known ex3.6 discrepancy turns green
    assert checks.check_catalog(flipped)
    broken = copy.deepcopy(rows)
    other = next(r for r in broken if r[1])
    other[1], other[2] = False, ["verdict:st"]
    assert checks.check_catalog(broken)


def mp_curve_csv(kind, xs):
    fn = checks.CURVE_FNS[kind]
    lines = ["x,value,defined"]
    for x in xs:
        a, b = checks.mp_mixture(x, M1)[fn], checks.mp_mixture(x, M2)[fn]
        v = float(a - b) if kind == "sf" else float(a / b)
        lines.append(f"{format(x, '.17g')},{format(v, '.17g')},true")
    return ("\r\n".join(lines) + "\r\n").encode()


@pytest.mark.parametrize("kind", sorted(checks.CURVE_FNS))
def test_curve_rows_agree_with_mpmath_and_an_altered_row_is_caught(kind):
    xs = list(np.geomspace(1e-2, 1e2, 6))
    data = mp_curve_csv(kind, xs)
    rng = np.random.default_rng(0)
    assert checks.check_curve_rows(data, kind, M1, M2, rng, sample=6) == []
    lines = data.decode().split("\r\n")
    x, value, defined = lines[3].split(",")
    lines[3] = ",".join([x, format(float(value) * (1 + 1e-6), ".17g"), defined])
    altered = "\r\n".join(lines).encode()
    assert checks.check_curve_rows(altered, kind, M1, M2, rng, sample=6)


def scan_report():
    counts = dict.fromkeys(checks.SCAN_CATEGORIES, 0)
    counts.update(soundness_alarm=1, consistent=2)
    alarm = {"index": 0, "params": {}, "category": "soundness_alarm",
             "witness": {"x": 1.0, "lhs": 1.0, "rhs": 2.0}}
    return {"counts": counts, "soundness_alarms": [alarm], "holds_without_hypotheses": []}


def test_scan_report_check_rejects_an_altered_count():
    report = scan_report()
    assert checks.check_scan_report(report, samples=3) == []
    report["counts"]["consistent"] += 1
    assert checks.check_scan_report(report, samples=3)
    report = scan_report()
    report["counts"]["soundness_alarm"], report["counts"]["consistent"] = 0, 3
    assert checks.check_scan_report(report, samples=3)


def program_verdict(kind):
    import ikmix

    m1, m2 = ikmix.FiniteMixture.from_dict(M1), ikmix.FiniteMixture.from_dict(M2)
    return ikmix.check_order(kind, m1, m2, ikmix.Grid.from_spec(GRID)).to_dict()


@pytest.mark.parametrize("kind", ["st", "rh", "lr", "r_rh"])
def test_witness_confirmed_and_a_flipped_verdict_rejected(kind):
    verdict = program_verdict(kind)
    assert verdict["status"] == "violated"
    assert checks.check_verdict(verdict) == []
    assert checks.confirm_witness(kind, M1, M2, verdict["witness"], GRID) == []

    swapped = dict(verdict["witness"], lhs=verdict["witness"]["rhs"],
                   rhs=verdict["witness"]["lhs"])
    assert checks.confirm_witness(kind, M1, M2, swapped, GRID)
    flipped = dict(verdict, status="holds_on_grid")
    assert checks.check_verdict(flipped)


@pytest.mark.parametrize("kind", ["st", "rh", "lr", "r_rh"])
def test_a_violated_verdict_turned_into_a_clean_hold_is_rejected(kind):
    verdict = program_verdict(kind)
    assert checks.check_verdict(verdict, "violated") == []
    flipped = dict(verdict, status="holds_on_grid", witness=None)
    assert checks.check_verdict(flipped) == []          # self-consistent on its face
    assert checks.check_verdict(flipped, "violated")     # but not what the stratum gives
    assert checks.confirm_holds(kind, M1, M2, GRID)      # and mpmath finds the break


def test_an_order_that_holds_is_confirmed():
    # M2 has the smaller tail exponents on both sides of the T3.12 region,
    # so M2 <= M1 in lr, hence in rh and st
    low = {"weights": [0.5, 0.5], "alpha": [2.5, 3.0], "beta": [0.3, 0.4]}
    high = {"weights": [0.3, 0.7], "alpha": [1.2, 1.8], "beta": [2.5, 3.0]}
    for kind in ("st", "rh", "lr"):
        assert checks.confirm_holds(kind, low, high, GRID) == [], kind


SCAN_CONFIG = {
    "theorem": "T3.10", "n_components": 2, "grid": "1e-4:1e3:60:log",
    "ranges": {"beta": [[0.8, 1.2], [1.6, 2.4]], "beta_star": [[0.8, 1.2], [2.6, 3.4]],
               "alpha": [0.8, 1.2], "p": [0.05, 1.0], "p_star": [0.05, 1.0]},
}


def program_scan(samples=6, seed=11):
    import ikmix

    config = ikmix.ScanConfig.from_dict(dict(SCAN_CONFIG, seed=seed, samples=samples))
    return ikmix.run_scan(config).to_dict(), checks.replay_draws(SCAN_CONFIG, seed, samples)


def test_replayed_draws_and_categories_match_the_program():
    report, draws = program_scan()
    assert report["counts"]["soundness_alarm"] >= 2
    for f in report["soundness_alarms"] + report["holds_without_hypotheses"]:
        assert checks._same_params(f["params"], draws[f["index"]])
    problems, holds = checks.check_scan_categories("T3.10", report, draws)
    assert problems == []
    for i in holds:
        kind, m1, m2 = checks.scan_orientation("T3.10", draws[i])
        assert checks.confirm_holds(kind, m1, m2, SCAN_CONFIG["grid"]) == []


def test_an_alarm_turned_consistent_is_caught_in_mpmath():
    report, draws = program_scan()
    flipped = copy.deepcopy(report)
    alarm = flipped["soundness_alarms"].pop(0)
    flipped["counts"]["soundness_alarm"] -= 1
    flipped["counts"]["consistent"] += 1
    assert checks.check_scan_report(flipped, len(draws)) == []
    problems, holds = checks.check_scan_categories("T3.10", flipped, draws)
    assert problems == [] and alarm["index"] in holds
    kind, m1, m2 = checks.scan_orientation("T3.10", draws[alarm["index"]])
    assert checks.confirm_holds(kind, m1, m2, SCAN_CONFIG["grid"])


def test_a_finding_in_the_wrong_hypothesis_bucket_is_caught():
    report, draws = program_scan()
    moved = copy.deepcopy(report)
    alarm = moved["soundness_alarms"].pop(0)
    moved["holds_without_hypotheses"].append(
        dict(alarm, category="order_holds_without_hypotheses", witness=None))
    moved["counts"]["soundness_alarm"] -= 1
    moved["counts"]["order_holds_without_hypotheses"] += 1
    assert checks.check_scan_report(moved, len(draws)) == []
    problems, _ = checks.check_scan_categories("T3.10", moved, draws)
    assert problems
    report["soundness_alarms"][0]["params"]["alpha"] *= 1.01
    problems, _ = checks.check_scan_categories("T3.10", report, draws)
    assert problems
