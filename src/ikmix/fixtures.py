"""Fixture catalog: the worked scenarios shipped with the package.

Each fixture JSON pins one scenario end to end: the checker inputs, the
expected hypothesis booleans, the expected grid verdict for the predicted
order, optionally spot values of mixture functionals, and optionally
T-transform product checks.  run_fixture replays all of it and reports
each comparison separately, so a failure says exactly which expectation
broke.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from importlib import resources

from .ikdist import DomainError
from .majorization import (
    _SLACK,
    ParamMatrix2xN,
    TTransform,
    apply_t_transform,
    chain_majorization_verify,
    infer_t_transform_2x2,
)
from .mixture import EVALUATORS
from .ordercheck import DEFAULT_GRID, Grid, _sf_difference, check_order
from .theorems import CHECKERS, ConditionReport

__all__ = ["FixtureCatalog", "FixtureResult", "CheckOutcome", "run_fixture"]


@dataclass(frozen=True)
class CheckOutcome:
    label: str
    passed: bool
    detail: str

    to_dict = asdict


@dataclass(frozen=True)
class FixtureResult:
    fixture_id: str
    checks: tuple[CheckOutcome, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckOutcome]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {"fixture_id": self.fixture_id, "passed": self.passed,
                "checks": [c.to_dict() for c in self.checks]}


def _checker_report(theorem: str, kwargs: dict) -> ConditionReport:
    """Decode the JSON matrices and transforms, then call the registered
    checker with the fixture's arguments."""
    try:
        checker = CHECKERS[theorem]
    except KeyError:
        raise DomainError(f"no checker wired for {theorem!r}") from None
    kwargs = dict(kwargs)
    for key in ("p_mat", "q_mat"):
        if key in kwargs:
            kwargs[key] = ParamMatrix2xN.from_dict(kwargs[key])
    if "ts" in kwargs:
        kwargs["ts"] = [TTransform.from_dict(t) for t in kwargs["ts"]]
    return checker(**kwargs)


def run_fixture(fixture: dict, grid: Grid = DEFAULT_GRID) -> FixtureResult:
    fid = fixture["id"]
    checks: list[CheckOutcome] = []

    report = _checker_report(fixture["theorem"], fixture["checker"])

    # 1. hypothesis booleans, compared exactly
    got = {h.name: h.held for h in report.hypotheses}
    for name, want in fixture["expected_hypotheses"].items():
        have = got.get(name)
        checks.append(CheckOutcome(
            f"hypothesis:{name}",
            have is want,
            f"expected {want}, checker reported {have}",
        ))
    extra = sorted(set(got) - set(fixture["expected_hypotheses"]))
    if extra:
        checks.append(CheckOutcome(
            "hypothesis:coverage", False,
            f"checker produced unexpected hypotheses {extra}"))

    # 2. grid verdict for the predicted orientation
    po = report.orientation
    verdict = check_order(po.kind, po.lhs, po.rhs, grid)
    want_status = fixture["expected_verdict"]
    detail = f"expected {want_status}, got {verdict.status}"
    if verdict.status == "violated":
        w = verdict.witness
        detail += (f" (witness x={w.x:.6g}, lhs={w.lhs:.6g}, rhs={w.rhs:.6g})")
    checks.append(CheckOutcome(f"verdict:{po.kind}", verdict.status == want_status, detail))

    # 3. spot values
    for ev in fixture.get("expected_values", ()):
        x = ev["x"]
        want = ev["value"]
        atol = ev.get("atol", 0.0)
        rtol = ev.get("rtol", 0.0)
        if ev["quantity"] == "sfdiff":
            minuend = po.lhs if ev["minuend"] == "lhs" else po.rhs
            subtrahend = po.lhs if ev["subtrahend"] == "lhs" else po.rhs
            have = float(_sf_difference(minuend, subtrahend, x))
            label = f"value:sfdiff@x={x:g}"
        else:
            fn = EVALUATORS[ev["quantity"]]
            m = po.lhs if ev["mixture"] == "lhs" else po.rhs
            have = fn(x, m)
            label = f"value:{ev['quantity']}({ev['mixture']})@x={x:g}"
        ok = abs(have - want) <= atol + rtol * abs(want)
        checks.append(CheckOutcome(
            label, ok,
            f"expected {want!r} within atol={atol:g} rtol={rtol:g}, got {have!r}"))

    # 4. T-transform products and omega recovery
    for i, tt in enumerate(fixture.get("t_transforms", ())):
        src = ParamMatrix2xN.from_dict(tt["from"])
        want_prod = ParamMatrix2xN.from_dict(tt["product"])
        t = TTransform(tt["omega"], tt["pair"])
        got_prod = apply_t_transform(src, t)
        worst = max(abs(a - b) for a, b in
                    zip(got_prod.row1 + got_prod.row2, want_prod.row1 + want_prod.row2))
        checks.append(CheckOutcome(
            f"t_transform:{i}:product", chain_majorization_verify(src, want_prod, (t,)),
            f"max entrywise deviation {worst:.3e}"))
        if src.n == 2:
            inferred = infer_t_transform_2x2(src, want_prod)
            want_omega = tt["inferred_omega"]
            # omega lies in [0, 1], so it is in its own units
            ok = inferred is not None and abs(inferred.omega - want_omega) <= _SLACK
            checks.append(CheckOutcome(
                f"t_transform:{i}:omega", ok,
                f"expected omega {want_omega!r}, inferred "
                f"{None if inferred is None else inferred.omega!r}"))

    return FixtureResult(fid, tuple(checks))


class FixtureCatalog:
    """Loads and replays the shipped scenario fixtures."""

    def __init__(self) -> None:
        root = resources.files("ikmix") / "fixtures"
        manifest = json.loads((root / "manifest.json").read_text())
        self._fixtures: dict[str, dict] = {}
        for entry in manifest["fixtures"]:
            data = json.loads((root / entry["file"]).read_text())
            if data["id"] != entry["id"]:
                raise DomainError(
                    f"manifest id {entry['id']!r} vs file id {data['id']!r}")
            self._fixtures[entry["id"]] = data

    def ids(self) -> list[str]:
        return list(self._fixtures)

    def load(self, fixture_id: str) -> dict:
        try:
            return self._fixtures[fixture_id]
        except KeyError:
            raise DomainError(f"unknown fixture {fixture_id!r}; "
                              f"known ids: {', '.join(self._fixtures)}") from None

    def checker_report(self, fixture_id: str) -> ConditionReport:
        """Run just the hypothesis checker, without the grid verdict."""
        fx = self.load(fixture_id)
        return _checker_report(fx["theorem"], fx["checker"])

    def run(self, fixture_id: str, grid: Grid = DEFAULT_GRID) -> FixtureResult:
        return run_fixture(self.load(fixture_id), grid)

    def run_all(self, grid: Grid = DEFAULT_GRID) -> list[FixtureResult]:
        return [self.run(fid, grid) for fid in self._fixtures]
