"""Sufficient-condition checkers: hypothesis booleans on catalog inputs,
orientation construction, grid confrontation, and the staged chain."""

from __future__ import annotations

import inspect
import re
from functools import partial

import numpy as np
import pytest

from conftest import random_script_l2
from ikmix import (
    CHECKERS,
    SCAN_LAYOUTS,
    DomainError,
    Grid,
    ParamMatrix2xN,
    THEOREM_IDS,
    TTransform,
    apply_t_transform,
    check_corollary_3_1,
    check_corollary_3_2,
    check_corollary_3_3,
    check_theorem_3_1,
    check_theorem_3_2,
    check_theorem_3_3,
    check_theorem_3_4_or_3_5,
    check_theorem_3_6,
    check_theorem_3_7_to_3_9,
    check_theorem_3_10,
    check_theorem_3_11,
    check_theorem_3_12,
    mixture_sf,
    verify_prediction,
)
from ikmix import theorems

rng = np.random.default_rng(42)

FAST = Grid(1e-4, 1e4, 400)


class TestReportShape:
    def test_theorem_id_registry(self):
        assert len(THEOREM_IDS) == 15
        assert THEOREM_IDS[0] == "T3.1" and "C3.3" in THEOREM_IDS

    def test_orientation_always_present_prediction_gated(self):
        rep = check_theorem_3_1((0.5, 0.4, 0.3), 1.0, (0.2, 0.2, 0.6),
                                (0.3, 0.3, 0.4))
        assert rep.all_held
        assert rep.predicted_order is rep.orientation
        bad = check_theorem_3_1((0.5, 0.4, 0.3), 1.0, (0.6, 0.2, 0.2),
                                (0.3, 0.3, 0.4))
        assert not bad.all_held
        assert bad.predicted_order is None
        assert bad.orientation is not None

    def test_hypothesis_lookup_and_serialization(self):
        rep = check_theorem_3_1((0.5, 0.4, 0.3), 1.0, (0.2, 0.2, 0.6),
                                (0.3, 0.3, 0.4))
        assert rep.hypothesis("alpha_p_in_script_l").held
        with pytest.raises(KeyError):
            rep.hypothesis("nonsense")
        d = rep.to_dict()
        assert d["theorem_id"] == "T3.1" and d["all_held"] is True
        assert d["predicted_order"]["kind"] == "st"

    def test_orientation_mixtures_are_the_advertised_ones(self):
        alpha, beta = (0.5, 0.4, 0.3), 1.0
        p, p_star = (0.2, 0.2, 0.6), (0.3, 0.3, 0.4)
        rep = check_theorem_3_1(alpha, beta, p, p_star)
        assert rep.orientation.lhs.weights == p_star
        assert rep.orientation.rhs.weights == p
        assert rep.orientation.lhs.alphas == alpha
        assert set(rep.orientation.lhs.betas) == {beta}


def _chained(pm, ts):
    for t in ts:
        pm = apply_t_transform(pm, t)
    return pm


_PM2 = ParamMatrix2xN((0.6, 0.4), (1.0, 9.0))
_ONE = (TTransform(0.3, (1, 2)),)
_TWO = (TTransform(0.3, (1, 2)), TTransform(0.3, (1, 2)))
_PM3 = ParamMatrix2xN((0.5, 0.2, 0.3), (1.0, 3.0, 2.0))
_STAGED = (TTransform(0.9, (1, 2)), TTransform(0.7, (2, 3)))
_SEPARATION = dict(p=(0.3, 0.7), alpha=(3.0, 4.0), beta=(1.0, 2.0),
                   p_star=(0.6, 0.4), alpha_star=(1.0, 2.0), beta_star=(5.0, 6.0))

# minimal valid inputs per id: two transforms for T3.5, a staged chain
# on three columns for T3.6 and T3.9
MINIMAL_INPUTS = {
    "T3.1": dict(alpha=(2.0, 1.0), beta=1.0, p=(0.3, 0.7), p_star=(0.4, 0.6)),
    "T3.2": dict(beta=(2.0, 1.0), alpha=1.0, p=(0.3, 0.7), p_star=(0.4, 0.6)),
    "T3.3": dict(alpha=(2.0, 1.0), alpha_star=(1.5, 0.8), beta=0.5, p=(0.3, 0.7)),
    "T3.4": dict(p_mat=_PM2, q_mat=_chained(_PM2, _ONE), ts=_ONE, beta=0.5),
    "T3.5": dict(p_mat=_PM2, q_mat=_chained(_PM2, _TWO), ts=_TWO, beta=0.5),
    "T3.6": dict(p_mat=_PM3, ts=_STAGED, beta=0.5),
    "T3.7": dict(p_mat=_PM2, q_mat=_chained(_PM2, _ONE), ts=_ONE, alpha=0.5),
    "T3.8": dict(p_mat=_PM2, q_mat=_chained(_PM2, _TWO), ts=_TWO, alpha=0.5),
    "T3.9": dict(p_mat=_PM3, q_mat=_chained(_PM3, _STAGED), ts=_STAGED, alpha=0.5),
    "T3.10": dict(beta=(0.1, 0.2), beta_star=(0.5, 1.0), alpha=2.0,
                  p=(0.4, 0.6), p_star=(0.5, 0.5)),
    "T3.11": _SEPARATION,
    "T3.12": _SEPARATION,
    "C3.1": dict(alpha=(2.0, 1.0), beta=1.0, p=(0.3, 0.7), p_star=(0.4, 0.6)),
    "C3.2": dict(p_mat=_PM2, q_mat=_chained(_PM2, _TWO), ts=_TWO, beta=0.5),
    "C3.3": dict(p_mat=_PM2, q_mat=_chained(_PM2, _TWO), ts=_TWO, alpha=0.5),
}


CHAIN_IDS = ("T3.4", "T3.5", "T3.6", "T3.7", "T3.8", "T3.9", "C3.2", "C3.3")


class TestRegistry:
    def test_ids_are_the_registry_keys(self):
        assert THEOREM_IDS == tuple(CHECKERS) == tuple(MINIMAL_INPUTS)

    @pytest.mark.parametrize("tid", THEOREM_IDS)
    def test_checker_reports_its_own_id(self, tid):
        assert CHECKERS[tid](**MINIMAL_INPUTS[tid]).theorem_id == tid

    def test_entries_are_the_public_checkers(self):
        # plain module-level functions, so that wrapping a checker by name
        # also wraps its registry entry; only the 3.8/3.9 variants are
        # partials of the 3.7 checker
        for tid, fn in CHECKERS.items():
            if isinstance(fn, partial):
                assert fn.func is theorems.check_theorem_3_7_to_3_9, tid
                assert fn.keywords == {"variant": tid[1:]}
            else:
                assert getattr(theorems, fn.__name__) is fn, tid

    @pytest.mark.parametrize("tid", sorted(SCAN_LAYOUTS))
    def test_scan_layout_is_the_argument_order(self, tid):
        names = [name for name, _ in SCAN_LAYOUTS[tid]]
        assert names == list(inspect.signature(CHECKERS[tid]).parameters)

    def test_every_id_has_one_condition(self):
        assert set(theorems._CONDITIONS) == set(CHECKERS)

    @pytest.mark.parametrize("tid", CHAIN_IDS)
    def test_empty_chain_rejected(self, tid):
        full = dict(p_mat=_PM2, q_mat=_PM2, ts=[], beta=0.5, alpha=0.5)
        params = inspect.signature(CHECKERS[tid]).parameters
        with pytest.raises(DomainError, match="at least one transform"):
            CHECKERS[tid](**{k: v for k, v in full.items() if k in params})


class TestWeightShiftCheckers:
    def test_catalog_positive_case(self, catalog):
        fx = catalog.load("ex3.1")
        rep = check_theorem_3_1(**fx["checker"])
        assert {h.name: h.held for h in rep.hypotheses} == fx["expected_hypotheses"]
        assert verify_prediction(rep, FAST).status == "consistent"

    def test_catalog_counterexample(self, catalog):
        fx = catalog.load("ce3.1")
        rep = check_theorem_3_1(**fx["checker"])
        assert {h.name: h.held for h in rep.hypotheses} == fx["expected_hypotheses"]
        assert verify_prediction(rep, FAST).status == "not_applicable"

    def test_corollary_tightens_theorem(self):
        # plain majorization implies the weak form, so every corollary-held
        # instance is also theorem-held
        args = ((0.5, 0.4, 0.3), 1.0, (0.2, 0.2, 0.6), (0.3, 0.3, 0.4))
        cor = check_corollary_3_1(*args)
        thm = check_theorem_3_1(*args)
        assert cor.all_held and thm.all_held
        assert cor.theorem_id == "C3.1"

    @pytest.mark.parametrize("alpha, message", [
        ((), "3 weights vs 0 alphas"),
        (((0.5, 0.4),), "alpha must be a real number"),
        ((0.5, float("nan"), 0.3), "alpha must be positive and finite"),
        ((0.5, 0.0, 0.3), "alpha must be positive"),
    ])
    def test_vector_inputs_are_validated(self, alpha, message):
        with pytest.raises(DomainError, match=message):
            check_theorem_3_1(alpha, 1.0, (0.2, 0.2, 0.6), (0.3, 0.3, 0.4))

    @pytest.mark.parametrize("checker", [check_theorem_3_1, check_corollary_3_1,
                                         check_theorem_3_2])
    @pytest.mark.parametrize("p", [(0.5, 0.5), (1.0,)])
    def test_weight_vectors_of_unequal_length_are_rejected(self, checker, p):
        # a scalar shared shape lets each mixture take its own length
        with pytest.raises(DomainError, match=f"length mismatch: {len(p)} vs 3"):
            checker(1.0, 1.0, p, (0.2, 0.3, 0.5))

    def test_common_alpha_variant(self, catalog):
        fx = catalog.load("ex3.2")
        rep = check_theorem_3_2(**fx["checker"])
        assert rep.all_held
        assert rep.orientation.kind == "st"
        # original-weight mixture sits on the small side for this family
        assert rep.orientation.lhs.weights == tuple(fx["checker"]["p"])
        assert verify_prediction(rep, FAST).status == "consistent"


class TestAlphaShiftChecker:
    def test_catalog_pair(self, catalog):
        ok = catalog.load("ex3.3")
        rep = check_theorem_3_3(**ok["checker"])
        assert {h.name: h.held for h in rep.hypotheses} == ok["expected_hypotheses"]
        bad = catalog.load("ce3.3")
        rep_bad = check_theorem_3_3(**bad["checker"])
        assert {h.name: h.held for h in rep_bad.hypotheses} == bad["expected_hypotheses"]
        assert not rep_bad.all_held

    def test_beta_gate(self):
        rep = check_theorem_3_3((2.0, 1.0), (1.5, 0.8), 1.2, (0.3, 0.7))
        assert not rep.hypothesis("beta_in_unit_interval").held


class TestMatrixChainCheckers:
    def test_single_vs_chain_id(self):
        pm = ParamMatrix2xN((0.6, 0.4), (1.0, 9.0))
        q1 = ParamMatrix2xN((0.46, 0.54), (6.6, 3.4))
        one = check_theorem_3_4_or_3_5(pm, q1, [TTransform(0.3, (1, 2))], 0.5)
        assert one.theorem_id == "T3.4"
        two = check_theorem_3_4_or_3_5(
            pm, ParamMatrix2xN((0.516, 0.484), (4.36, 5.64)),
            [TTransform(0.3, (1, 2)), TTransform(0.3, (1, 2))], 0.5)
        assert two.theorem_id == "T3.5"
        assert two.hypothesis("chain_reproduces_q").held

    def test_wrong_chain_detected(self):
        pm = ParamMatrix2xN((0.6, 0.4), (1.0, 9.0))
        q = ParamMatrix2xN((0.46, 0.54), (6.6, 3.4))
        rep = check_theorem_3_4_or_3_5(pm, q, [TTransform(0.4, (1, 2))], 0.5)
        assert not rep.hypothesis("chain_reproduces_q").held

    def test_variant_ids_and_staging(self):
        pm = ParamMatrix2xN((0.2, 0.8), (6.0, 2.0))
        q = ParamMatrix2xN((0.74, 0.26), (2.4, 5.6))
        ts = [TTransform(0.1, (1, 2))]
        for variant in ("3.7", "3.8"):
            rep = check_theorem_3_7_to_3_9(pm, q, ts, 0.5, variant)
            assert rep.theorem_id == f"T{variant}"
            assert not any(h.name.startswith("stage_") for h in rep.hypotheses)
        with pytest.raises(DomainError):
            check_theorem_3_7_to_3_9(pm, q, ts, 0.5, "3.10")

    def test_staged_variant_patrols_intermediates(self):
        pm = ParamMatrix2xN((0.5, 0.2, 0.3), (1.0, 3.0, 2.0))
        good = (TTransform(0.9, (1, 2)), TTransform(0.7, (2, 3)))
        q_good = pm
        for t in good:
            from ikmix import apply_t_transform
            q_good = apply_t_transform(q_good, t)
        rep = check_theorem_3_7_to_3_9(pm, q_good, good, 0.5, "3.9")
        assert rep.hypothesis("stage_1_in_script_l").held
        bad = (TTransform(0.4, (1, 2)), TTransform(0.7, (2, 3)))
        q_bad = pm
        for t in bad:
            from ikmix import apply_t_transform
            q_bad = apply_t_transform(q_bad, t)
        rep_bad = check_theorem_3_7_to_3_9(pm, q_bad, bad, 0.5, "3.9")
        assert not rep_bad.hypothesis("stage_1_in_script_l").held
        assert rep_bad.hypothesis("chain_reproduces_q").held

    def test_staged_chain_checker(self):
        pm = ParamMatrix2xN((0.5, 0.2, 0.3), (1.0, 3.0, 2.0))
        rep = check_theorem_3_6(pm, (TTransform(0.9, (1, 2)),
                                     TTransform(0.7, (2, 3))), 0.5)
        assert rep.theorem_id == "T3.6"
        assert rep.all_held
        rep_bad = check_theorem_3_6(pm, (TTransform(0.4, (1, 2)),
                                         TTransform(0.7, (2, 3))), 0.5)
        assert rep_bad.hypothesis("stage_0_in_script_l").held
        assert not rep_bad.hypothesis("stage_1_in_script_l").held
        with pytest.raises(DomainError):
            check_theorem_3_6(pm, (), 0.5)

    def test_common_pair_corollaries(self):
        pm = ParamMatrix2xN((0.6, 0.4), (1.0, 9.0))
        ts = [TTransform(0.8, (1, 2)), TTransform(0.75, (1, 2))]
        from ikmix import apply_t_transform
        q = apply_t_transform(apply_t_transform(pm, ts[0]), ts[1])
        rep = check_corollary_3_2(pm, q, ts, 0.5)
        assert rep.theorem_id == "C3.2"
        assert rep.hypothesis("common_pair_chain").held
        assert rep.all_held
        mixed = [TTransform(0.8, (1, 2)), TTransform(0.75, (2, 1))]
        assert check_corollary_3_2(pm, q, mixed, 0.5).hypothesis(
            "common_pair_chain").held  # unordered pair, same columns
        pm3 = ParamMatrix2xN((0.5, 0.2, 0.3), (3.0, 2.0, 1.0))
        t3 = [TTransform(0.9, (1, 2)), TTransform(0.9, (2, 3))]
        q3 = apply_t_transform(apply_t_transform(pm3, t3[0]), t3[1])
        assert not check_corollary_3_3(pm3, q3, t3, 0.5).hypothesis(
            "common_pair_chain").held

    @pytest.mark.parametrize("beta", ["0.5", None, True, float("nan")])
    @pytest.mark.parametrize("checker", ["T3.4", "T3.6", "C3.2"])
    def test_bad_shared_beta_is_a_domain_error(self, checker, beta):
        pm = ParamMatrix2xN((0.6, 0.4), (1.0, 9.0))
        ts = [TTransform(0.3, (1, 2))]
        q = apply_t_transform(pm, ts[0])
        call = {"T3.4": lambda: check_theorem_3_4_or_3_5(pm, q, ts, beta),
                "T3.6": lambda: check_theorem_3_6(pm, ts, beta),
                "C3.2": lambda: check_corollary_3_2(pm, q, ts, beta)}[checker]
        with pytest.raises(DomainError, match="beta must be "):
            call()

    @pytest.mark.parametrize("tid", CHAIN_IDS)
    def test_the_pair_is_built_before_deciding(self, tid):
        # a bad shared shape and an out-of-range pair: the mixtures are
        # built first, so the shared shape's error wins in both families;
        # T3.6 works out its q from the chain before it builds the pair
        params = inspect.signature(CHECKERS[tid]).parameters
        args = dict(p_mat=_PM2, q_mat=_PM2, ts=[TTransform(0.5, (1, 3))], beta=0.0, alpha=0.0)
        shared = "beta" if "beta" in params else "alpha"
        message = "pair (1, 3) out of range" if tid == "T3.6" else f"{shared} must be positive"
        with pytest.raises(DomainError, match=re.escape(message)):
            CHECKERS[tid](**{k: v for k, v in args.items() if k in params})


def _vector_draws(tid: str, k: int, r) -> dict:
    """k draws of a vector condition's arguments, half of them with the
    weights ascending and the shape vectors descending; C3.1 takes T3.1's
    arguments."""
    draws = {}
    for name, kind in SCAN_LAYOUTS["T3.1" if tid == "C3.1" else tid]:
        if kind == "scalar":
            draws[name] = r.uniform(0.2, 3.0, k)
            continue
        v = r.uniform(0.05, 1.0, (k, 3)) if kind == "weights" else r.uniform(0.2, 4.0, (k, 3))
        v[::2] = np.sort(v[::2], axis=1)[:, ::-1 if kind == "vector" else 1]
        draws[name] = v / v.sum(axis=1, keepdims=True) if kind == "weights" else v
    if tid == "T3.10":  # tightly clustered betas in half the draws
        draws["beta"][::2] = 1.0 + 0.01 * draws["beta"][::2]
    return draws


def _chain_draws(tid: str, ts, k: int, r) -> tuple[dict, list]:
    """k draws of a chain condition's rows and the checker arguments of
    each: p oppositely ordered in half of them, q the chain's image in two
    of three (in all for T3.6, whose q is the chain's result) and another
    matrix otherwise, a shared shape inside or outside (0, 1)."""
    cond = theorems._CONDITIONS[tid]
    shape = "alpha" if "q_alpha" in cond.lhs + cond.rhs else "beta"
    w = r.uniform(0.05, 1.0, (k, 3))
    s = r.uniform(0.2, 4.0, (k, 3))
    w[::2], s[::2] = np.sort(w[::2], axis=1), np.sort(s[::2], axis=1)[:, ::-1]
    w /= w.sum(axis=1, keepdims=True)
    shared = r.uniform(0.2, 3.0, k)
    p_mats = [ParamMatrix2xN(tuple(w[i].tolist()), tuple(s[i].tolist())) for i in range(k)]
    q_mats = [_chained(pm, ts) if i % 3 or tid == "T3.6" else p_mats[(i + 1) % k]
              for i, pm in enumerate(p_mats)]
    draws = {"p": w, shape: s, "q": np.array([q.row1 for q in q_mats]),
             f"q_{shape}": np.array([q.row2 for q in q_mats]),
             "alpha" if shape == "beta" else "beta": shared}
    params = inspect.signature(CHECKERS[tid]).parameters
    full = [dict(p_mat=pm, q_mat=q, ts=ts, alpha=float(x), beta=float(x))
            for pm, q, x in zip(p_mats, q_mats, shared)]
    return draws, [{name: v for name, v in one.items() if name in params} for one in full]


_SHARED_CHAINS = {"T3.4": _ONE, "C3.2": _TWO, "C3.3": _TWO}
_THREE_STEPS = (TTransform(0.9, (1, 2)), TTransform(0.7, (2, 3)), TTransform(0.0, (3, 1)))


def _stack_case(tid: str, k: int) -> tuple:
    """The chain (empty for a vector id), k seeded draws of tid's arguments
    and the checker arguments of each draw."""
    r = np.random.default_rng(int(tid[1:].replace(".", "")) * 7 + (tid[0] == "C"))
    if tid in CHAIN_IDS:
        chain = (_SHARED_CHAINS.get(tid, _THREE_STEPS),)
        return (chain, *_chain_draws(tid, chain[0], k, r))
    draws = _vector_draws(tid, k, r)
    return (), draws, [{name: v[i].item() if v.ndim == 1 else tuple(v[i].tolist())
                        for name, v in draws.items()} for i in range(k)]


class TestCheckStack:
    @pytest.mark.parametrize("tid", THEOREM_IDS)
    def test_a_stack_decides_as_each_draw_alone(self, tid):
        # k seeded draws at once against each draw's own report, row by
        # row: every hypothesis and the shapes of both predicted mixtures;
        # the chain ids share one chain
        chain, draws, args = _stack_case(tid, 12)
        kind, lhs, rhs, held = theorems.check_stack(tid, draws, *chain)
        for i, one in enumerate(args):
            report = CHECKERS[tid](**one)
            assert [bool(h[i]) for h in held] == [h.held for h in report.hypotheses], i
            assert kind == report.orientation.kind
            for side, m in ((lhs, report.orientation.lhs), (rhs, report.orientation.rhs)):
                assert (tuple(side[1][i].tolist()), tuple(side[2][i].tolist())) == (
                    m.alphas, m.betas)
        assert any(h.any() and not h.all() for h in held)  # the rows differ

    @pytest.mark.parametrize("tid", CHAIN_IDS)
    def test_a_chain_condition_needs_its_chain(self, tid):
        draws, _ = _chain_draws(tid, _ONE, 2, np.random.default_rng(0))
        with pytest.raises(TypeError):
            theorems.check_stack(tid, draws)


# the one hypothesis whose answer changes when its inputs are scaled: a
# shared beta must lie in (0, 1) (T3.3, T3.4, T3.5, T3.6 and C3.2)
NOT_HOMOGENEOUS = {"beta_in_unit_interval"}


class TestScaleFree:
    @pytest.mark.parametrize("tid", THEOREM_IDS)
    def test_hypotheses_ignore_a_power_of_two(self, tid):
        # every input of 60 draws scaled by 2^k, as check_stack takes them
        # unvalidated: each homogeneous hypothesis answers as at k = 0
        chain, draws, args = _stack_case(tid, 60)
        names = [h.name for h in CHECKERS[tid](**args[0]).hypotheses]
        assert set(names) - NOT_HOMOGENEOUS

        def answers(scale):
            held = theorems.check_stack(tid, {n: v * scale for n, v in draws.items()}, *chain)[3]
            return [h.tolist() for name, h in zip(names, held) if name not in NOT_HOMOGENEOUS]

        want = answers(1.0)
        assert [k for k in range(-60, 61) if answers(2.0 ** k) != want] == []
        assert any(any(h) and not all(h) for h in want)


class TestTwoParameterCheckers:
    def test_gap_condition_arithmetic(self):
        rep = check_theorem_3_10((0.1, 0.2, 0.3), (0.5, 1.0, 2.0), 2.0,
                                 (0.1, 0.3, 0.6), (0.2, 0.3, 0.5))
        # max gap 0.2 vs min gap 0.5
        assert rep.hypothesis("beta_gap_dominated_by_beta_star_gap").held
        rep_bad = check_theorem_3_10((0.5, 1.0, 2.0), (0.1, 0.2, 0.3), 2.0,
                                     (0.1, 0.3, 0.6), (0.2, 0.3, 0.5))
        assert not rep_bad.all_held

    def test_gap_extremes_equal_the_pairwise_gaps(self):
        # max - min and the smallest neighbour difference of the sorted
        # vector against the extremes of every rounded pairwise |gap|
        r = np.random.default_rng(310)
        for _ in range(2000):
            n = int(r.integers(2, 8))
            v = 10.0 ** r.uniform(-3.0, 3.0, size=n)
            v[: int(r.integers(0, 2))] = v[-1]  # ties too
            gaps = np.abs(v[:, None] - v[None, :])[np.triu_indices(n, k=1)]
            got = theorems._gap_extremes(tuple(v.tolist()))
            assert got == (float(gaps.max()), float(gaps.min()))
        with pytest.raises(DomainError, match="at least two components"):
            check_theorem_3_10((1.0,), (1.0,), 1.0, (1.0,), (1.0,))

    def test_separation_conditions(self, catalog):
        for fid, checker in (("ex3.7", check_theorem_3_11),
                             ("ce3.6", check_theorem_3_11),
                             ("ex3.8", check_theorem_3_12),
                             ("ce3.7", check_theorem_3_12)):
            fx = catalog.load(fid)
            rep = checker(**fx["checker"])
            got = {h.name: h.held for h in rep.hypotheses}
            assert got == fx["expected_hypotheses"], fid

    def test_overflowing_products_are_decided_in_units(self):
        # max alpha*beta = 6e400 exceeds min alpha*beta* = 1e400, though
        # both are inf in float64: in units of 2^666, for the alphas as
        # for the betas, they are finite.  T3.12 is the mirror.
        # Swapped, the hypothesis holds.  In a stack, the draws whose
        # products overflow decide as they do alone, beside a finite draw
        big, small = ([3e200, 3e200], [2e200, 2e200]), ([1e200, 1e200], [1e200, 1e200])
        for checker, name, lhs, rhs in (
                (check_theorem_3_11, "alpha_beta_products_below_starred", big, small),
                (check_theorem_3_12, "alpha_beta_products_above_starred", small, big)):
            assert not checker([0.5, 0.5], *lhs, [0.5, 0.5], *rhs).hypothesis(name).held
            assert checker([0.5, 0.5], *rhs, [0.5, 0.5], *lhs).hypothesis(name).held
        finite = ([3.0, 4.0], [1.0, 2.0])
        sides = [(big, small), (small, big), (finite, finite), (big, finite), (finite, big)]
        draws = {"p": np.full((5, 2), 0.5), "p_star": np.full((5, 2), 0.5)}
        for i, key in enumerate(("alpha", "beta", "alpha_star", "beta_star")):
            draws[key] = np.array([side[i // 2][i % 2] for side in sides])
        held = theorems.check_stack("T3.11", draws)[3][1]
        assert held.tolist() == [
            check_theorem_3_11([0.5, 0.5], *lhs, [0.5, 0.5], *rhs).hypotheses[1].held
            for lhs, rhs in sides] == [False, True, False, False, True]

    def test_overflowing_products_show_the_extremes_they_were_decided_on(self):
        big, small = ([3e200, 3e200], [2e200, 2e200]), ([1e200, 1e200], [1e200, 1e200])
        # 6e400 and 1e400 in units of 2^1332
        six, one = 3e200 * 2.0 ** -666 * (2e200 * 2.0 ** -666), (1e200 * 2.0 ** -666) ** 2
        for lhs, rhs, held, first, second in ((big, small, False, six, one),
                                              (small, big, True, one, six)):
            h = check_theorem_3_11([0.5, 0.5], *lhs, [0.5, 0.5], *rhs).hypotheses[1]
            assert (h.held, h.detail) == (held, f"max(alpha*beta) = {first!r} vs "
                                                f"min(alpha**beta*) = {second!r}, in units of 2**1332")
            h = check_theorem_3_12([0.5, 0.5], *rhs, [0.5, 0.5], *lhs).hypotheses[1]
            assert (h.held, h.detail) == (held, f"min(alpha*beta) = {second!r} vs "
                                                f"max(alpha**beta*) = {first!r}, in units of 2**1332")
        # a finite draw's detail names no units
        h = check_theorem_3_11([0.5, 0.5], [3.0, 4.0], [1.0, 2.0], [0.5, 0.5], [1.0, 2.0],
                               [9.0, 9.5]).hypotheses[1]
        assert h.detail == "max(alpha*beta) = 8.0 vs min(alpha**beta*) = 9.0"

    def test_predicted_kinds(self, catalog):
        kinds = {"ex3.6": ("T3.10", "r_rh"), "ex3.7": ("T3.11", "rh"),
                 "ex3.8": ("T3.12", "lr")}
        checkers = {"T3.10": check_theorem_3_10, "T3.11": check_theorem_3_11,
                    "T3.12": check_theorem_3_12}
        for fid, (tid, kind) in kinds.items():
            fx = catalog.load(fid)
            rep = checkers[tid](**fx["checker"])
            assert rep.theorem_id == tid
            assert rep.orientation.kind == kind


class TestVerifyPrediction:
    def test_consistent(self, catalog):
        fx = catalog.load("ex3.2")
        out = verify_prediction(check_theorem_3_2(**fx["checker"]), FAST)
        assert out.status == "consistent"
        assert out.verdict.status == "holds_on_grid"

    def test_not_applicable_skips_grid(self, catalog):
        fx = catalog.load("ce3.2")
        out = verify_prediction(check_theorem_3_2(**fx["checker"]), FAST)
        assert out.status == "not_applicable"
        assert out.verdict is None

    def test_contradiction_is_reported_not_masked(self):
        # equal-beta instance satisfying the gap condition whose
        # reversed-hazard ratio nevertheless increases: the checker must
        # surface the conflict as a contradiction
        rep = check_theorem_3_10((1.0, 2.0), (1.0, 2.0), 1.0,
                                 (0.5, 0.5), (0.9, 0.1))
        assert rep.all_held
        out = verify_prediction(rep, FAST)
        assert out.status == "contradiction"
        assert out.verdict.witness is not None

    def test_to_dict(self):
        rep = check_theorem_3_10((1.0, 2.0), (1.0, 2.0), 1.0,
                                 (0.5, 0.5), (0.9, 0.1))
        d = verify_prediction(rep, FAST).to_dict()
        assert d["status"] == "contradiction"
        assert d["verdict"]["kind"] == "r_rh"


class TestSchurStyleSweep:
    def test_weight_shift_monotonicity_on_random_instances(self):
        # whenever the T3.1 hypotheses hold by construction, the survival
        # function must respect the weight majorization pointwise
        done = 0
        while done < 50:
            (w_lo, w_hi), (a_hi, a_lo) = random_script_l2(rng)
            p = (w_lo, w_hi)
            shift = rng.uniform(0.0, w_hi - 0.5) if w_hi > 0.5 else 0.0
            p_star = (w_lo + shift, w_hi - shift)
            rep = check_theorem_3_1((a_hi, a_lo), float(rng.uniform(0.3, 3.0)),
                                    p, p_star)
            if not rep.all_held:
                continue
            done += 1
            po = rep.orientation
            for x in (0.01, 0.5, 3.0, 70.0):
                assert mixture_sf(x, po.lhs) <= mixture_sf(x, po.rhs) + 1e-12
