"""Acceptance gate: one test per shipped criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible in
failure reports and with ``-s``) and then asserts.  Three criteria are
expected to fail on this codebase, and the failures are deliberate:

* criterion 1 pins spot values of the ce3.2 survival difference that the
  recorded parameters cannot produce (the true curve is negative at both
  points; the pinned values have the wrong magnitude and, at x=10, the
  wrong sign);
* criterion 3 requires all 15 catalog fixtures to pass, but ce3.2
  embeds the same impossible spot values and ex3.6 records a
  holds_on_grid verdict that the reversed-hazard ratio contradicts near
  the left edge of the default grid;
* criterion 5 requires zero contradictions for the gap-separated
  reversed-hazard condition (T3.10 bucket), and that condition is
  refuted by direct search: equal-gap draws regularly satisfy the
  hypothesis while the grid check finds the ratio moving the wrong way.

Weakening tolerances or special-casing those inputs would hide real
defects, so the criteria are left red and the messages carry the
diagnostics.
"""

from __future__ import annotations

import time

import numpy as np

from ikmix import (
    FiniteMixture,
    Grid,
    IKParams,
    ParamMatrix2xN,
    TTransform,
    apply_t_transform,
    check_order,
    ik_cdf,
    ik_pdf,
    ik_quantile,
    infer_t_transform_2x2,
)
from ikmix.majorization import weak_submajorizes, weak_supermajorizes
from ikmix.theorems import (
    check_theorem_3_1,
    check_theorem_3_2,
    check_theorem_3_3,
    check_theorem_3_10,
    check_theorem_3_11,
    check_theorem_3_12,
)

from conftest import random_params, random_script_l2
from oracles import (
    k1,
    sweep_delta1,
    sweep_delta2,
    sweep_xi_310,
    sweep_xi_311,
    sweep_xi_312,
)

ACCEPT_GRID = Grid(1e-3, 1e3, 400)


def _report(n: int, ok: bool, msg: str = "") -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'}"
    if msg:
        line += f" -- {msg}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: pinned survival-difference spot values, evaluated fast
# ---------------------------------------------------------------------------


def test_criterion_1_k1_spot_values():
    pinned = {10.0: 0.00262105, 100.0: -0.00408561}
    got = {x: k1(x) for x in pinned}

    start = time.perf_counter()
    for _ in range(100):
        k1(10.0)
    per_call = (time.perf_counter() - start) / 100.0

    offsets = {x: abs(got[x] - want) for x, want in pinned.items()}
    ok = all(off <= 5e-8 for off in offsets.values()) and per_call < 1e-3
    _report(1, ok,
            f"pinned {pinned}, computed {got}, per-call {per_call * 1e6:.1f}us; "
            "the computed values are confirmed by an independent 30-digit "
            "evaluation (-0.036459207209764251 and -0.0091282048742540959), "
            "so the pinned numbers are unreachable from the recorded "
            "parameters")


# ---------------------------------------------------------------------------
# criterion 2: the four recorded T-transform products and their omegas
# ---------------------------------------------------------------------------


def test_criterion_2_transform_products(catalog):
    expected_omegas = {"ex3.4": 0.3, "ex3.5": 0.1, "ce3.4": 0.4, "ce3.5": 0.4}
    problems = []
    for fid, want_omega in expected_omegas.items():
        tt = catalog.load(fid)["t_transforms"][0]
        src = ParamMatrix2xN.from_dict(tt["from"])
        want = ParamMatrix2xN.from_dict(tt["product"])
        got = apply_t_transform(src, TTransform(tt["omega"], tuple(tt["pair"])))
        worst = max(abs(a - b) for a, b in
                    zip(got.row1 + got.row2, want.row1 + want.row2))
        if worst > 1e-12:
            problems.append(f"{fid}: product off by {worst:.2e}")
        inferred = infer_t_transform_2x2(src, want)
        if inferred is None or abs(inferred.omega - want_omega) > 1e-12:
            problems.append(f"{fid}: omega {inferred} != {want_omega}")
    _report(2, not problems, "; ".join(problems) or
            "4 products entrywise <=1e-12, omegas recovered to 1e-12")


# ---------------------------------------------------------------------------
# criterion 3: full catalog replay on the default grid
# ---------------------------------------------------------------------------


def test_criterion_3_reproduce_all(catalog):
    start = time.perf_counter()
    results = catalog.run_all()
    elapsed = time.perf_counter() - start
    failing = {r.fixture_id: [c.label for c in r.failures()]
               for r in results if not r.passed}
    ok = not failing and elapsed < 10.0
    _report(3, ok,
            f"{len(results) - len(failing)}/{len(results)} fixtures pass "
            f"in {elapsed:.2f}s; failing: {failing or 'none'}")


# ---------------------------------------------------------------------------
# criterion 4: recorded hypothesis booleans for the separation scenarios
# ---------------------------------------------------------------------------


def test_criterion_4_separation_booleans(catalog):
    checkers = {"ex3.7": check_theorem_3_11, "ce3.6": check_theorem_3_11,
                "ex3.8": check_theorem_3_12, "ce3.7": check_theorem_3_12}
    problems = []
    for fid, checker in checkers.items():
        fx = catalog.load(fid)
        ck = fx["checker"]
        report = checker(ck["p"], ck["alpha"], ck["beta"],
                         ck["p_star"], ck["alpha_star"], ck["beta_star"])
        got = {h.name: h.held for h in report.hypotheses}
        want = fx["expected_hypotheses"]
        if got != want:
            problems.append(f"{fid}: {got} != {want}")
    _report(4, not problems, "; ".join(problems) or
            "hypothesis booleans agree exactly for all four scenarios")


# ---------------------------------------------------------------------------
# criterion 5: no contradictions on hypothesis-satisfying random draws
# ---------------------------------------------------------------------------


def _draw_ascending_weights(rng, n):
    w = np.sort(rng.uniform(0.05, 1.0, n))
    return tuple(w / w.sum())


def _sample_t31(rng):
    n = int(rng.integers(2, 4))
    alpha = tuple(np.sort(rng.uniform(0.3, 4.0, n))[::-1])
    while True:
        p = _draw_ascending_weights(rng, n)
        p_star = _draw_ascending_weights(rng, n)
        if weak_submajorizes(p, p_star):
            return check_theorem_3_1(alpha, float(rng.uniform(0.3, 4.0)),
                                     p, p_star)


def _sample_t32(rng):
    n = int(rng.integers(2, 4))
    beta = tuple(np.sort(rng.uniform(0.3, 4.0, n))[::-1])
    while True:
        p = _draw_ascending_weights(rng, n)
        p_star = _draw_ascending_weights(rng, n)
        if weak_supermajorizes(p, p_star):
            return check_theorem_3_2(beta, float(rng.uniform(0.3, 4.0)),
                                     p, p_star)


def _sample_t33(rng):
    n = int(rng.integers(2, 4))
    while True:
        alpha = tuple(np.sort(rng.uniform(0.3, 4.0, n))[::-1])
        alpha_star = tuple(np.sort(rng.uniform(0.3, 4.0, n))[::-1])
        if weak_supermajorizes(alpha, alpha_star):
            p = _draw_ascending_weights(rng, n)
            return check_theorem_3_3(alpha, alpha_star,
                                     float(rng.uniform(0.05, 0.95)), p)


def _sample_t310(rng):
    # equal upper bound on both gaps keeps the hypothesis satisfiable by
    # construction: gap(beta) <= gap(beta_star)
    base = float(rng.uniform(0.5, 2.0))
    gap_star = float(rng.uniform(0.5, 2.0))
    gap = float(rng.uniform(0.0, gap_star))
    beta_star = (base, base + gap_star)
    lo = float(rng.uniform(0.5, 2.0))
    beta = (lo, lo + gap)
    p = _draw_ascending_weights(rng, 2)
    p_star = _draw_ascending_weights(rng, 2)
    return check_theorem_3_10(beta, beta_star, float(rng.uniform(0.5, 2.0)),
                              p, p_star)


def _sample_t311(rng):
    n = 2
    while True:
        p = _draw_ascending_weights(rng, n)
        p_star = _draw_ascending_weights(rng, n)
        alpha = tuple(rng.uniform(1.5, 2.0, n))
        beta = tuple(rng.uniform(0.2, 0.5, n))
        alpha_star = tuple(rng.uniform(0.3, 1.4, n))
        beta_star = tuple(rng.uniform(3.0, 6.0, n))
        report = check_theorem_3_11(p, alpha, beta, p_star, alpha_star,
                                    beta_star)
        if report.all_held:
            return report


def _sample_t312(rng):
    n = 2
    while True:
        p = _draw_ascending_weights(rng, n)
        p_star = _draw_ascending_weights(rng, n)
        alpha = tuple(rng.uniform(0.3, 1.4, n))
        beta = tuple(rng.uniform(4.0, 8.0, n))
        alpha_star = tuple(rng.uniform(1.5, 2.0, n))
        beta_star = tuple(rng.uniform(0.2, 0.5, n))
        report = check_theorem_3_12(p, alpha, beta, p_star, alpha_star,
                                    beta_star)
        if report.all_held:
            return report


def test_criterion_5_no_contradictions_under_hypotheses():
    samplers = {"T3.1": _sample_t31, "T3.2": _sample_t32, "T3.3": _sample_t33,
                "T3.10": _sample_t310, "T3.11": _sample_t311,
                "T3.12": _sample_t312}
    contradictions: dict[str, list[str]] = {}
    for tid, sampler in samplers.items():
        rng = np.random.default_rng(42)
        bad = []
        drawn = 0
        attempts = 0
        while drawn < 200:
            attempts += 1
            assert attempts < 20000, f"{tid}: sampler starved"
            report = sampler(rng)
            if not report.all_held:
                continue
            drawn += 1
            po = report.orientation
            verdict = check_order(po.kind, po.lhs, po.rhs, ACCEPT_GRID)
            if verdict.status == "violated":
                w = verdict.witness
                detail = (f"draw {drawn}: witness x={w.x:.6g} "
                          f"lhs={w.lhs:.10g} rhs={w.rhs:.10g}")
                if not bad:
                    detail += (f" for lhs {po.lhs.to_dict()} "
                               f"vs rhs {po.rhs.to_dict()}")
                bad.append(detail)
        if bad:
            contradictions[tid] = bad
    msg_parts = []
    for tid, bad in contradictions.items():
        msg_parts.append(f"{tid}: {len(bad)}/200 contradictions "
                         f"(first: {bad[0]})")
    _report(5, not contradictions, "; ".join(msg_parts) or
            "6 conditions x 200 hypothesis-satisfying draws, 0 contradictions")


# ---------------------------------------------------------------------------
# criterion 6: order implication chain on fully random pairs
# ---------------------------------------------------------------------------


def test_criterion_6_implication_chain():
    rng = np.random.default_rng(42)
    broken = []
    for i in range(500):
        n = int(rng.integers(2, 4))
        mixtures = []
        for _ in range(2):
            w = rng.uniform(0.05, 1.0, n)
            w = w / w.sum()
            comps = [random_params(rng) for _ in range(n)]
            mixtures.append(FiniteMixture(tuple(w), [c.alpha for c in comps],
                                          [c.beta for c in comps]))
        m1, m2 = mixtures
        verdicts = {kind: check_order(kind, m1, m2, ACCEPT_GRID)
                    for kind in ("lr", "rh", "st")}
        if verdicts["lr"].status == "holds_on_grid":
            for weaker in ("rh", "st"):
                if verdicts[weaker].status == "violated":
                    broken.append(f"pair {i}: lr holds but {weaker} violated")
        if (verdicts["rh"].status == "holds_on_grid"
                and verdicts["st"].status == "violated"):
            broken.append(f"pair {i}: rh holds but st violated")
    _report(6, not broken, "; ".join(broken[:3]) or
            "500 random pairs, implication chain never contradicted")


# ---------------------------------------------------------------------------
# criterion 7: analytic sign expressions vs finite differences
# ---------------------------------------------------------------------------


def test_criterion_7_sign_expressions(catalog):
    problems = []
    window = np.geomspace(1e-2, 1e2, 50)

    ck36 = catalog.load("ex3.6")["checker"]
    ck37 = catalog.load("ex3.7")["checker"]
    ck38 = catalog.load("ex3.8")["checker"]
    sweeps = {
        "xi_310": sweep_xi_310(ck36["p"], ck36["beta"], ck36["p_star"],
                               ck36["beta_star"], ck36["alpha"], window),
        "xi_311": sweep_xi_311(ck37["p"], ck37["alpha"], ck37["beta"],
                               ck37["p_star"], ck37["alpha_star"],
                               ck37["beta_star"], window),
        "xi_312": sweep_xi_312(ck38["p"], ck38["alpha"], ck38["beta"],
                               ck38["p_star"], ck38["alpha_star"],
                               ck38["beta_star"], window),
    }
    for name, rep in sweeps.items():
        if rep.fd_sign_mismatches:
            problems.append(f"{name}: {rep.fd_sign_mismatches} sign mismatches")
        if rep.fd_agreement is None:
            problems.append(f"{name}: no qualifying comparison points")

    rng = np.random.default_rng(42)
    xs = np.geomspace(1e-3, 1e3, 40)
    worst1 = 0.0
    worst2 = 0.0
    for _ in range(100):
        weights, row2 = random_script_l2(rng)
        r1 = sweep_delta1(weights, row2, float(rng.uniform(0.05, 0.95)), xs)
        worst1 = min(worst1, r1.min_value)
        r2 = sweep_delta2(weights, row2, float(rng.uniform(0.3, 4.0)), xs)
        worst2 = max(worst2, r2.max_value)
    if worst1 < -1e-12:
        problems.append(f"delta1 dipped to {worst1:.3e}")
    if worst2 > 1e-12:
        problems.append(f"delta2 rose to {worst2:.3e}")

    _report(7, not problems, "; ".join(problems) or
            f"3 sweeps sign-consistent with finite differences; 100 random "
            f"two-component sweeps: delta1 >= {worst1:.1e}, "
            f"delta2 <= {worst2:.1e}")


# ---------------------------------------------------------------------------
# criterion 8: quantile/cdf/pdf self-consistency
# ---------------------------------------------------------------------------


def test_criterion_8_distribution_consistency():
    problems = []
    rng = np.random.default_rng(42)
    levels = np.arange(1, 1000) / 1000.0

    worst_rt = 0.0
    for _ in range(100):
        params = random_params(rng)
        back = ik_cdf(ik_quantile(levels, params), params)
        worst_rt = max(worst_rt, float(np.max(np.abs(back - levels))))
    if worst_rt > 1e-10:
        problems.append(f"roundtrip error {worst_rt:.3e} > 1e-10")

    nodes, gl_weights = np.polynomial.legendre.leggauss(160)
    v = 0.5 * (nodes + 1.0)
    jac = 0.5 * gl_weights
    worst_norm = 0.0
    for a, b in [(0.5, 0.5), (2.0, 3.0), (0.7, 4.0), (3.0, 0.5), (1.0, 1.0)]:
        params = IKParams(a, b)
        xs = ik_quantile(v, params)
        dq = (ik_quantile(np.clip(v + 1e-7, 0, 1 - 1e-12), params)
              - ik_quantile(np.clip(v - 1e-7, 1e-12, 1), params)) / 2e-7
        mass = float(np.sum(ik_pdf(xs, params) * dq * jac))
        worst_norm = max(worst_norm, abs(mass - 1.0))
    if worst_norm > 1e-8:
        problems.append(f"pdf normalisation off by {worst_norm:.3e}")

    worst_fd = 0.0
    for _ in range(50):
        params = random_params(rng)
        x = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
        h = x * float(np.finfo(float).eps) ** 0.2
        stencil = (-ik_cdf(x + 2 * h, params) + 8 * ik_cdf(x + h, params)
                   - 8 * ik_cdf(x - h, params) + ik_cdf(x - 2 * h, params))
        fd = float(stencil) / (12.0 * h)
        dens = float(ik_pdf(x, params))
        worst_fd = max(worst_fd, abs(fd - dens) / max(dens, 1e-300))
    if worst_fd > 1e-6:
        problems.append(f"cdf/pdf finite-difference mismatch {worst_fd:.3e}")

    _report(8, not problems, "; ".join(problems) or
            f"roundtrip <= {worst_rt:.1e}, normalisation <= {worst_norm:.1e}, "
            f"fd mismatch <= {worst_fd:.1e}")
