"""Sufficient-condition checkers for ordering finite IK mixtures.

Each checker evaluates the hypotheses of one sufficient condition from the
catalog (T3.1 through T3.12 plus the corollaries C3.1, C3.2, C3.3) on
concrete parameters and reports them one by one.  The checkers never
decide an order themselves; when every hypothesis holds they expose the
predicted order in the normal form lhs <= rhs for the named order kind,
and verify_prediction hands that claim to the grid engine.

All fifteen conditions are stated once, in _CONDITIONS, as numpy
expressions along the last axis of (weights, alpha, beta) arrays with a
leading draw axis, so check_stack decides a stack of scan draws in one
call.  The eight T-transform chain conditions (T3.4-T3.9, C3.2, C3.3)
read the (weights, shape) rows of their matrices p and q from those
arrays and take the chain, which every draw shares, as a required
argument.  Every checker is the stack of one: it builds the mixtures of
its predicted order first, so FiniteMixture validates each value once (a
scalar shape broadcasts), then decides on the values read back from them
and formats the details from that one row.

_CONDITIONS is the one place where ids meet code: an id's entry also
names its public checker and, if the id can be region-scanned, its draw
layout; CHECKERS, THEOREM_IDS and SCAN_LAYOUTS are views of it, in its
order.  Call a checker through CHECKERS or its module-level name, never
through the entry, so that a tracer swapping module functions sees it.

Hypothesis comparisons between real numbers follow majorization's one
scale-free rule: the compared values are divided by one power of two
(_units), and ties within _SLACK of those units count as satisfied.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .ikdist import DomainError
from .majorization import (
    _SLACK,
    ParamMatrix2xN,
    TTransform,
    _chain_holds,
    _opposite,
    _rows,
    _t_chain,
    _units,
    majorizes,
    weak_submajorizes,
    weak_supermajorizes,
)
from .mixture import FiniteMixture
from .ordercheck import DEFAULT_GRID, Grid, OrderVerdict, check_order

__all__ = [
    "Hypothesis",
    "PredictedOrder",
    "ConditionReport",
    "VerificationOutcome",
    "CHECKERS",
    "SCAN_LAYOUTS",
    "THEOREM_IDS",
    "check_stack",
    "check_theorem_3_1",
    "check_theorem_3_2",
    "check_theorem_3_3",
    "check_theorem_3_4_or_3_5",
    "check_theorem_3_6",
    "check_theorem_3_7_to_3_9",
    "check_theorem_3_10",
    "check_theorem_3_11",
    "check_theorem_3_12",
    "check_corollary_3_1",
    "check_corollary_3_2",
    "check_corollary_3_3",
    "verify_prediction",
]

@dataclass(frozen=True)
class Hypothesis:
    name: str
    held: bool
    detail: str

    to_dict = asdict


@dataclass(frozen=True)
class PredictedOrder:
    """Normal form: lhs <= rhs in the named order."""

    kind: str
    lhs: FiniteMixture
    rhs: FiniteMixture
    lhs_label: str
    rhs_label: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "lhs_label": self.lhs_label,
            "rhs_label": self.rhs_label,
            "lhs": self.lhs.to_dict(),
            "rhs": self.rhs.to_dict(),
        }


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a hypothesis check.

    `orientation` always records which order the condition would conclude;
    `predicted_order` exposes it only when every hypothesis held, which is
    the honest public claim.
    """

    theorem_id: str
    hypotheses: tuple[Hypothesis, ...]
    orientation: PredictedOrder

    @property
    def all_held(self) -> bool:
        return all(h.held for h in self.hypotheses)

    @property
    def predicted_order(self) -> PredictedOrder | None:
        return self.orientation if self.all_held else None

    def hypothesis(self, name: str) -> Hypothesis:
        for h in self.hypotheses:
            if h.name == name:
                return h
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "hypotheses": [h.to_dict() for h in self.hypotheses],
            "all_held": self.all_held,
            "predicted_order": self.predicted_order.to_dict() if self.all_held else None,
        }


@dataclass(frozen=True)
class VerificationOutcome:
    """Grid confrontation of a predicted order.

    status: consistent | contradiction | not_applicable | undecided.
    undecided covers an inconclusive grid verdict; it is neither support
    nor refutation.
    """

    status: str
    verdict: OrderVerdict | None = None

    to_dict = asdict


def verify_prediction(report: ConditionReport, grid: Grid = DEFAULT_GRID) -> VerificationOutcome:
    if not report.all_held:
        return VerificationOutcome(status="not_applicable")
    po = report.predicted_order
    verdict = check_order(po.kind, po.lhs, po.rhs, grid)
    status = {
        "holds_on_grid": "consistent",
        "violated": "contradiction",
        "inconclusive": "undecided",
    }[verdict.status]
    return VerificationOutcome(status=status, verdict=verdict)


# ---------------------------------------------------------------------------
# conditions stated over stacks of draws
# ---------------------------------------------------------------------------


def _hypothesis(name: str, held, texts, *values) -> Hypothesis:
    """Draw 0 of a stacked hypothesis (name, held, texts, *values): held has
    one bool per draw, and texts is the detail template, or the pair (if
    held, if not), which the values of one draw fill in."""
    ok = bool(held[0])
    text = texts if isinstance(texts, str) else texts[not ok]
    return Hypothesis(name, ok, text.format(*(float(v[0]) for v in values)))


def _script_l(name: str, subject: str, row1, row2) -> tuple:
    return (name, _opposite(row1, row2),
            (f"{subject} oppositely ordered", f"{subject} not oppositely ordered"))


def _beta_unit(beta) -> tuple:
    """Every beta along the last axis lies in (0, 1); the detail shows the
    first, the one shared beta of the conditions that use this."""
    return ("beta_in_unit_interval", np.all((0.0 < beta) & (beta < 1.0), axis=-1),
            "beta = {0!r}", beta[..., 0])


def _gap_extremes(v) -> tuple:
    """The largest and the smallest pairwise |gap| of each vector along the
    last axis of v: max - min, and the smallest difference of neighbours
    once it is sorted.  Rounding is monotone, so these are the extremes of
    the rounded pairwise gaps."""
    s = np.sort(v, axis=-1)
    if s.shape[-1] < 2:
        raise DomainError("gap hypothesis needs at least two components")
    return s[..., -1] - s[..., 0], np.diff(s, axis=-1).min(axis=-1)


# lhs and rhs name the arguments that give the (weights, alpha, beta) of the
# predicted smaller and larger mixture; hypotheses maps the two sides'
# arrays (draws x components, weights as given), and for a chain condition
# the chain of T-transforms, to stacked hypotheses; checker is the public
# function that reports the id, and layout its scan draw layout, None for
# an id that cannot be scanned
_Condition = namedtuple("_Condition", "kind lhs rhs labels hypotheses checker layout",
                        defaults=(None,))


def _report(theorem_id: str, *chain, **args) -> ConditionReport:
    """The condition on a stack of one draw, with every argument validated
    by the mixture it belongs to; a chain condition takes its chain of
    T-transforms first."""
    cond = _CONDITIONS[theorem_id]
    pair = [FiniteMixture(*(args[name] for name in names)) for names in (cond.lhs, cond.rhs)]
    sides = [(np.array([[float(w) for w in args[names[0]]]]), np.array([m.alphas]),
              np.array([m.betas])) for names, m in zip((cond.lhs, cond.rhs), pair)]
    hyps = cond.hypotheses(*sides, *chain)
    return ConditionReport(theorem_id, tuple(_hypothesis(*h) for h in hyps),
                           PredictedOrder(cond.kind, *pair, *cond.labels))


def check_stack(theorem_id: str, draws: dict, *chain) -> tuple:
    """The condition theorem_id on draws, one array per argument with a
    leading draw axis, unvalidated, and for a chain condition the one chain
    of T-transforms that every draw shares.  Returns the order kind, the lhs
    and rhs (weights, alpha, beta) arrays, draws x components, and one bool
    array per hypothesis in the checker's order."""
    cond = _CONDITIONS[theorem_id]
    sides = tuple(tuple(np.broadcast_to(draws[name].reshape(len(draws[name]), -1),
                                        draws[names[0]].shape) for name in names)
                  for names in (cond.lhs, cond.rhs))
    return (cond.kind, *sides, tuple(h[1] for h in cond.hypotheses(*sides, *chain)))


# ---------------------------------------------------------------------------
# weight-vector conditions (common beta / common alpha)
# ---------------------------------------------------------------------------


def _weight_shift_common_beta(name: str, predicate, held_detail: str, failed_detail: str):
    """Both weight vectors oppositely ordered to alpha, plus the weight
    relation predicate(p, p*)."""
    def hypotheses(lhs, rhs):
        (p_star, alpha, _), (p, _, _) = lhs, rhs
        held = predicate(p, p_star)  # first: it rejects p and p* of unequal lengths
        return (_script_l("alpha_p_in_script_l", "(p, alpha) rows are", p, alpha),
                _script_l("alpha_p_star_in_script_l", "(p*, alpha) rows are", p_star, alpha),
                (name, held, (held_detail, failed_detail)))
    return hypotheses


def _t3_2(lhs, rhs) -> tuple:
    (p, _, beta), (p_star, _, _) = lhs, rhs
    held = weak_supermajorizes(p, p_star)  # first, as in T3.1
    return (_script_l("beta_p_in_script_l", "(p, beta) rows are", p, beta),
            _script_l("beta_p_star_in_script_l", "(p*, beta) rows are", p_star, beta),
            ("p_star_weakly_supermajorized_by_p", held,
             ("ascending prefix sums of p stay below those of p*",
              "some ascending prefix sum of p exceeds p*'s")))


def _t3_3(lhs, rhs) -> tuple:
    (p, alpha_star, beta), (_, alpha, _) = lhs, rhs
    return (_beta_unit(beta),
            _script_l("alpha_p_in_script_l", "(p, alpha) rows are", p, alpha),
            _script_l("alpha_star_p_in_script_l", "(p, alpha*) rows are", p, alpha_star),
            ("alpha_star_weakly_supermajorized_by_alpha", weak_supermajorizes(alpha, alpha_star),
             ("ascending prefix sums of alpha stay below those of alpha*",
              "some ascending prefix sum of alpha exceeds alpha*'s")))


def check_theorem_3_1(alpha, beta: float, p, p_star) -> ConditionReport:
    """Weight shift under a common beta; concludes mixture(p*) <= mixture(p)
    in the usual stochastic order.  A scalar alpha broadcasts."""
    return _report("T3.1", alpha=alpha, beta=beta, p=p, p_star=p_star)


def check_corollary_3_1(alpha, beta: float, p, p_star) -> ConditionReport:
    """Plain-majorization variant of T3.1 (same conclusion).  A scalar alpha
    broadcasts."""
    return _report("C3.1", alpha=alpha, beta=beta, p=p, p_star=p_star)


def check_theorem_3_2(beta, alpha: float, p, p_star) -> ConditionReport:
    """Weight shift under a common alpha; concludes mixture(p) <= mixture(p*)
    in the usual stochastic order.  A scalar beta broadcasts."""
    return _report("T3.2", beta=beta, alpha=alpha, p=p, p_star=p_star)


def check_theorem_3_3(alpha, alpha_star, beta: float, p) -> ConditionReport:
    """Shape shift in the alpha vector under fixed weights and a shared
    beta inside (0,1); concludes mixture(alpha*) <= mixture(alpha).  A
    scalar alpha or alpha* broadcasts."""
    return _report("T3.3", alpha=alpha, alpha_star=alpha_star, beta=beta, p=p)


# ---------------------------------------------------------------------------
# T-transform chain conditions on 2xN matrices
# ---------------------------------------------------------------------------


def _chain(ts) -> tuple[TTransform, ...]:
    ts = tuple(ts)
    if not ts:
        raise DomainError("a T-transform chain needs at least one transform")
    return ts


_P_LABEL = "mixture built from the source matrix p"


def _chain_condition(shape: str, checker, *parts,
                     q_label="mixture built from the transformed matrix q"):
    """Chain majorization of the (weights, shape) matrix p onto q under the
    other shape, which both share, reported by checker; concludes the usual
    stochastic order.  Under a shared beta, which must lie in (0, 1), q's
    mixture is the smaller one, under a shared alpha p's.  Each of parts
    maps the (draws, 2, N) rows of p and q, the chain and the shape to a
    list of stacked hypotheses.  A chain id has no scan layout."""
    def hypotheses(lhs, rhs, ts):
        if shape == "alpha":
            (q, q_shape, beta), (p, p_shape, _) = lhs, rhs
        else:
            (p, _, p_shape), (q, _, q_shape) = lhs, rhs
        p, q = np.stack([p, p_shape], axis=1), np.stack([q, q_shape], axis=1)
        first = [_beta_unit(beta)] if shape == "alpha" else []
        return first + [h for part in parts for h in part(p, q, ts, shape)]
    if shape == "alpha":
        return _Condition("st", ("q", "q_alpha", "beta"), _PLAIN, (q_label, _P_LABEL),
                          hypotheses, checker)
    return _Condition("st", _PLAIN, ("q", "alpha", "q_beta"), (_P_LABEL, q_label), hypotheses,
                      checker)


def _p_in_script_l(p, q, ts, shape: str) -> list:
    return [_script_l("p_mat_in_script_l", f"rows of (p, {shape}) are", p[:, 0], p[:, 1])]


def _common_pair(p, q, ts, shape: str) -> list:
    pairs = sorted({tuple(sorted(t.pair)) for t in ts})
    return [("common_pair_chain", np.full(len(p), len(pairs) == 1),
             f"transforms act on column pairs {pairs}")]


def _reproduces(p, q, ts, shape: str) -> list:
    texts = [f"{len(ts)} transform(s) {verb}reproduce q from p" for verb in ("", "do not ")]
    return [("chain_reproduces_q", _chain_holds(p, q, ts), texts)]


def _stages(where: str, first: int):
    """stage_i_in_script_l for each matrix p.T_1...T_i that the chain passes
    before its last transform, from i = first on, described as the matrix
    `where` (before or after) transform i + 1 - first."""
    def part(p, q, ts, shape: str) -> list:
        stages = _t_chain(p, ts[:-1])[first:]
        return [_script_l(f"stage_{i}_in_script_l", f"matrix {where} transform {i + 1 - first} is",
                          s[:, 0], s[:, 1]) for i, s in enumerate(stages, first)]
    return part


def check_theorem_3_4_or_3_5(p_mat: ParamMatrix2xN, q_mat: ParamMatrix2xN,
                             ts, beta: float) -> ConditionReport:
    """(weights, alpha) matrix chained onto q by T-transforms with shared
    beta in (0,1); concludes mixture(q) <= mixture(p) in the usual order.
    One transform reports as T3.4, a longer chain as T3.5."""
    ts = _chain(ts)
    return _report("T3.4" if len(ts) == 1 else "T3.5", ts, p=p_mat.row1, alpha=p_mat.row2,
                   q=q_mat.row1, q_alpha=q_mat.row2, beta=beta)


def check_theorem_3_6(p_mat: ParamMatrix2xN, ts, beta: float) -> ConditionReport:
    """Staged variant: the chain may leave the oppositely-ordered class only
    at its final step.  q is the chain result itself, so the hypotheses are
    the stagewise memberships."""
    ts = _chain(ts)
    q, q_alpha = _t_chain(_rows(p_mat), ts)[-1].tolist()
    return _report("T3.6", ts, p=p_mat.row1, alpha=p_mat.row2, q=q, q_alpha=q_alpha, beta=beta)


def check_corollary_3_2(p_mat: ParamMatrix2xN, q_mat: ParamMatrix2xN,
                        ts, beta: float) -> ConditionReport:
    """Chain of T-transforms acting on one fixed column pair (their product
    is again a single T-transform); otherwise as T3.5."""
    return _report("C3.2", _chain(ts), p=p_mat.row1, alpha=p_mat.row2,
                   q=q_mat.row1, q_alpha=q_mat.row2, beta=beta)


def check_theorem_3_7_to_3_9(p_mat: ParamMatrix2xN, q_mat: ParamMatrix2xN,
                             ts, alpha: float, variant: str = "3.7") -> ConditionReport:
    """(weights, beta) matrix chained onto q under a common alpha; concludes
    mixture(p) <= mixture(q) in the usual order.  variant selects the
    reporting id: 3.7 single transform, 3.8 chain, 3.9 staged chain with
    intermediate memberships."""
    if variant not in ("3.7", "3.8", "3.9"):
        raise DomainError(f"variant must be 3.7, 3.8 or 3.9, got {variant!r}")
    return _report(f"T{variant}", _chain(ts), p=p_mat.row1, beta=p_mat.row2,
                   q=q_mat.row1, q_beta=q_mat.row2, alpha=alpha)


def check_corollary_3_3(p_mat: ParamMatrix2xN, q_mat: ParamMatrix2xN,
                        ts, alpha: float) -> ConditionReport:
    """Common-pair chain on a (weights, beta) matrix; otherwise as T3.8."""
    return _report("C3.3", _chain(ts), p=p_mat.row1, beta=p_mat.row2,
                   q=q_mat.row1, q_beta=q_mat.row2, alpha=alpha)


# ---------------------------------------------------------------------------
# spread and separation conditions
# ---------------------------------------------------------------------------


def _t3_10(lhs, rhs) -> tuple:
    max_gap, min_gap_star = _gap_extremes(lhs[2])[0], _gap_extremes(rhs[2])[1]
    _, beta, beta_star = _units(lhs[2], rhs[2])
    held = _gap_extremes(beta)[0] <= _gap_extremes(beta_star)[1] + _SLACK
    return (("beta_gap_dominated_by_beta_star_gap", held,
             "max pairwise |beta gap| = {0!r} vs min pairwise |beta* gap| = {1!r}",
             max_gap, min_gap_star),)


def _separated(a_name: str, a_detail: str, prod_name: str, prod_detail: str):
    """Every rhs alpha lies below every lhs alpha, and every lhs alpha*beta
    below every rhs one, decided in the units of the alphas and of the
    betas.  The detail templates are filled with the max and the min of
    each comparison; where a product overflows, those of the products in
    their units, which the detail names.  Only draw 0 has a detail."""
    def hypotheses(lhs, rhs):
        (_, alpha_lhs, beta_lhs), (_, alpha_rhs, beta_rhs) = lhs, rhs
        e_alpha, a_lhs, a_rhs = _units(alpha_lhs, alpha_rhs)
        e_beta, b_lhs, b_rhs = _units(beta_lhs, beta_rhs)
        with np.errstate(over="ignore", under="ignore"):
            prods = np.array([(a_lhs * b_lhs).max(axis=-1), (a_rhs * b_rhs).min(axis=-1)])
            shown = np.array([(alpha_lhs * beta_lhs).max(axis=-1),
                              (alpha_rhs * beta_rhs).min(axis=-1)])
        over = np.isinf(shown).any(axis=0)
        shown[:, over] = prods[:, over]
        units = ", in units of 2**{2:.0f}" if over[:1].any() else ""
        return ((a_name, a_rhs.max(axis=-1) <= a_lhs.min(axis=-1) + _SLACK, a_detail,
                 alpha_rhs.max(axis=-1), alpha_lhs.min(axis=-1)),
                (prod_name, prods[0] <= prods[1] + _SLACK, prod_detail + units, *shown,
                 (e_alpha + e_beta)[..., 0]))
    return hypotheses


def check_theorem_3_10(beta, beta_star, alpha: float, p, p_star) -> ConditionReport:
    """Gap condition on the beta vectors under a common alpha; claims the
    reversed-hazard-ratio order mixture(beta; p) <= mixture(beta*; p*).  A
    scalar beta or beta* broadcasts."""
    return _report("T3.10", beta=beta, beta_star=beta_star, alpha=alpha, p=p, p_star=p_star)


def check_theorem_3_11(p, alpha, beta, p_star, alpha_star, beta_star) -> ConditionReport:
    """Separation condition for the reversed hazard order between two fully
    heterogeneous mixtures: mixture(alpha, beta; p) <= mixture(alpha*, beta*; p*).
    A scalar shape broadcasts across its mixture's components."""
    return _report("T3.11", p=p, alpha=alpha, beta=beta,
                   p_star=p_star, alpha_star=alpha_star, beta_star=beta_star)


def check_theorem_3_12(p, alpha, beta, p_star, alpha_star, beta_star) -> ConditionReport:
    """Separation condition for the likelihood ratio order:
    mixture(alpha*, beta*; p*) <= mixture(alpha, beta; p), i.e. T3.11 with
    the roles of the two mixtures swapped.  A scalar shape broadcasts
    across its mixture's components."""
    return _report("T3.12", p=p, alpha=alpha, beta=beta,
                   p_star=p_star, alpha_star=alpha_star, beta_star=beta_star)


_PLAIN = ("p", "alpha", "beta")
_STARRED = ("p_star", "alpha_star", "beta_star")
_WEIGHT_SHIFT = (("p_star", "alpha", "beta"), _PLAIN,
                 ("mixture with shifted weights p*", "mixture with original weights p"))
_ALPHA_CHAIN = _chain_condition("alpha", check_theorem_3_4_or_3_5, _p_in_script_l, _reproduces)
# a layout is (name, kind) per checker argument, in argument order, which is
# also the scan's draw order; kind is "scalar", "vector" (one positive value
# per component) or "weights" (drawn per component, then normalised to sum one)
_SEPARATION_LAYOUT = (("p", "weights"), ("alpha", "vector"), ("beta", "vector"),
                      ("p_star", "weights"), ("alpha_star", "vector"),
                      ("beta_star", "vector"))
_CONDITIONS = {
    "T3.1": _Condition("st", *_WEIGHT_SHIFT, _weight_shift_common_beta(
        "p_star_weakly_submajorized_by_p", weak_submajorizes,
        "ascending suffix sums of p dominate those of p*",
        "some ascending suffix sum of p falls below p*'s"), check_theorem_3_1,
        (("alpha", "vector"), ("beta", "scalar"), ("p", "weights"), ("p_star", "weights"))),
    "T3.2": _Condition("st", _PLAIN, ("p_star", "alpha", "beta"), (
        "mixture with original weights p", "mixture with shifted weights p*"), _t3_2,
        check_theorem_3_2,
        (("beta", "vector"), ("alpha", "scalar"), ("p", "weights"), ("p_star", "weights"))),
    "T3.3": _Condition("st", ("p", "alpha_star", "beta"), _PLAIN, (
        "mixture with shifted shapes alpha*", "mixture with original shapes alpha"), _t3_3,
        check_theorem_3_3,
        (("alpha", "vector"), ("alpha_star", "vector"), ("beta", "scalar"), ("p", "weights"))),
    "T3.4": _ALPHA_CHAIN,
    "T3.5": _ALPHA_CHAIN,
    "T3.6": _chain_condition("alpha", check_theorem_3_6, _stages("before", 0),
                             q_label="mixture built from the chain result"),
    "T3.7": _chain_condition("beta", check_theorem_3_7_to_3_9, _p_in_script_l, _reproduces),
    "T3.8": _chain_condition("beta", partial(check_theorem_3_7_to_3_9, variant="3.8"),
                             _p_in_script_l, _reproduces),
    "T3.9": _chain_condition("beta", partial(check_theorem_3_7_to_3_9, variant="3.9"),
                             _p_in_script_l, _stages("after", 1), _reproduces),
    "T3.10": _Condition("r_rh", _PLAIN, ("p_star", "alpha", "beta_star"), (
        "mixture with tightly clustered betas", "mixture with spread betas"), _t3_10,
        check_theorem_3_10, (("beta", "vector"), ("beta_star", "vector"), ("alpha", "scalar"),
                             ("p", "weights"), ("p_star", "weights"))),
    "T3.11": _Condition("rh", _PLAIN, _STARRED, (
        "mixture with larger alphas", "mixture with larger alpha*beta products"), _separated(
        "alpha_star_max_below_alpha_min", "max(alpha*) = {0!r} vs min(alpha) = {1!r}",
        "alpha_beta_products_below_starred",
        "max(alpha*beta) = {0!r} vs min(alpha**beta*) = {1!r}"),
        check_theorem_3_11, _SEPARATION_LAYOUT),
    "T3.12": _Condition("lr", _STARRED, _PLAIN, (
        "mixture with smaller alpha*beta products", "mixture with larger products"), _separated(
        "alpha_max_below_alpha_star_min", "max(alpha) = {0!r} vs min(alpha*) = {1!r}",
        "alpha_beta_products_above_starred",
        "min(alpha*beta) = {1!r} vs max(alpha**beta*) = {0!r}"),
        check_theorem_3_12, _SEPARATION_LAYOUT),
    "C3.1": _Condition("st", *_WEIGHT_SHIFT, _weight_shift_common_beta(
        "p_star_majorized_by_p", majorizes,
        "majorizes(p, p*) = True", "majorizes(p, p*) = False"), check_corollary_3_1),
    "C3.2": _chain_condition("alpha", check_corollary_3_2, _p_in_script_l, _common_pair,
                             _reproduces),
    "C3.3": _chain_condition("beta", check_corollary_3_3, _p_in_script_l, _common_pair,
                             _reproduces),
}


# ---------------------------------------------------------------------------
# the registry: views of _CONDITIONS
# ---------------------------------------------------------------------------

CHECKERS = {tid: cond.checker for tid, cond in _CONDITIONS.items()}
THEOREM_IDS = tuple(_CONDITIONS)
SCAN_LAYOUTS: dict[str, tuple[tuple[str, str], ...]] = {
    tid: cond.layout for tid, cond in _CONDITIONS.items() if cond.layout}
