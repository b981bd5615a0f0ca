"""Spans around ikmix's public layer boundaries, recorded from outside.

`Tracer.install()` replaces each public function named in LAYERS with a
wrapper that records a span (id, parent id, layer, name, start, end,
attributes), wherever ikmix holds a reference to it: module globals,
module-level dicts and class attributes.  Nothing under src/ changes, and
`uninstall()` puts every original back.

Spans of one op are kept in memory and reduced to per-layer figures by
`LayerTotals.add` once the op has returned.  A span's self time is its
duration minus the part of it that its direct children cover.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

# layer -> (module, public names); a name "Class.method" wraps a method
LAYERS = {
    "ikdist": ("ikmix.ikdist", ("ik_cdf", "ik_pdf", "ik_sf", "ik_reversed_hazard",
                                "ik_quantile")),
    "mixture": ("ikmix.mixture", ("mixture_cdf", "mixture_sf", "mixture_pdf",
                                  "mixture_reversed_hazard", "mixture_quantile",
                                  "FiniteMixture.__init__")),
    "ordercheck": ("ikmix.ordercheck", ("check_order", "difference_curve",
                                        "write_curve_csv")),
    "theorems": ("ikmix.theorems", ("check_theorem_3_1", "check_theorem_3_2",
                                    "check_theorem_3_3", "check_theorem_3_4_or_3_5",
                                    "check_theorem_3_6", "check_theorem_3_7_to_3_9",
                                    "check_theorem_3_10", "check_theorem_3_11",
                                    "check_theorem_3_12", "check_corollary_3_1",
                                    "check_corollary_3_2", "check_corollary_3_3",
                                    "verify_prediction")),
    "majorization": ("ikmix.majorization", ("majorizes", "weak_supermajorizes",
                                            "weak_submajorizes", "in_script_l",
                                            "apply_t_transform",
                                            "chain_majorization_verify",
                                            "infer_t_transform_2x2", "schur_probe")),
    "fixtures": ("ikmix.fixtures", ("run_fixture", "FixtureCatalog.checker_report")),
    "scan": ("ikmix.scan", ("run_scan", "draw_sample")),
}

# mixture evaluators that sum over components themselves; the reversed
# hazard is built from two of them and would count its points twice
_LEAF_EVALUATORS = ("mixture_cdf", "mixture_sf", "mixture_pdf")
_EVALUATORS = _LEAF_EVALUATORS + ("mixture_reversed_hazard",)

# Span record fields.
ID, PARENT, LAYER, NAME, START, END, ATTRS = range(7)


def _x_size(args) -> int:
    return int(np.size(args[0])) if args else 0


def _call_attrs(name: str, args, kwargs) -> dict | None:
    if name.startswith("ik_"):
        return {"points": _x_size(args)}
    if name in _EVALUATORS:
        return {"points": _x_size(args), "scalar": np.ndim(args[0]) == 0,
                "components": args[1].n}
    if name == "check_order":
        grid = args[3] if len(args) > 3 else kwargs.get("grid", sys.modules["ikmix"].DEFAULT_GRID)
        return {"grid_points": grid.points}
    if name == "write_curve_csv":
        return {"path": args[1]}
    return None


def _result_attrs(name: str, attrs: dict | None, result) -> None:
    if name == "check_order":
        attrs["status"] = result.status
        attrs["refined"] = result.refined_crossing is not None
    elif name == "write_curve_csv":
        attrs["bytes"] = os.path.getsize(attrs.pop("path"))
    elif name == "run_scan":
        attrs["samples"] = result.config.samples
        attrs["alarms"] = result.alarm_count


class Tracer:
    """Records spans while installed; `take()` hands over and clears them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        wants_result = name in ("check_order", "write_curve_csv", "run_scan")

        def traced(*args, **kwargs):
            attrs = _call_attrs(name, args, kwargs)
            if wants_result and attrs is None:
                attrs = {}
            rec = [len(spans), stack[-1] if stack else None, layer, name, clock(), 0.0, attrs]
            spans.append(rec)
            stack.append(rec[ID])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if wants_result:
                _result_attrs(name, attrs, result)
            return result

        return traced

    def install(self) -> None:
        import ikmix  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "ikmix" or n.startswith("ikmix."))]
        for layer, (modname, names) in LAYERS.items():
            home = sys.modules[modname]
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else home
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, attr if owner_name == "" else qualname, original)
                if owner_name:
                    self._set(owner, attr, original, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, original, wrapper)
                        elif type(value) is dict:
                            for k, v in value.items():
                                if v is original:
                                    self._set_item(value, k, original, wrapper)

    def _set(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((setattr, owner, attr, original))

    def _set_item(self, mapping, key, original, wrapper) -> None:
        mapping[key] = wrapper
        self._restore.append((dict.__setitem__, mapping, key, original))

    def uninstall(self) -> None:
        while self._restore:
            put, owner, key, original = self._restore.pop()
            put(owner, key, original)

    def take(self) -> list[list]:
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the union of its direct children's
    intervals, clipped to the span."""
    children: dict = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s[ID], ())):
            lo, hi = max(lo, s[START]), min(hi, s[END])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s[END] - s[START]) - covered)
    return out


COUNT_METRICS = (
    "ikdist.calls", "ikdist.points",
    "mixture.calls", "mixture.scalar_calls", "mixture.component_points", "mixture.builds",
    "ordercheck.checks", "ordercheck.refine_evals", "ordercheck.csv_bytes",
    "theorems.calls", "majorization.calls", "fixtures.spot_evals", "scan.draws",
)
RATIO_METRICS = ("ordercheck.violated_frac", "ordercheck.refine_yield", "scan.alarm_frac")
TIME_METRICS = (
    "ikdist.ms", "mixture.self_ms", "mixture.build_ms",
    "ordercheck.evaluate_ms", "ordercheck.decide_ms", "ordercheck.refine_ms",
    "ordercheck.curve_ms", "ordercheck.csv_ms",
    "theorems.self_ms", "majorization.ms", "fixtures.self_ms", "scan.self_ms",
)


class LayerTotals:
    """Sums of span figures over any number of ops."""

    def __init__(self) -> None:
        self.sums: dict = defaultdict(float)

    def add(self, spans: list) -> None:
        t = self.sums
        by_id = {s[ID]: s for s in spans}
        selfs = self_times(spans)
        refine_checks: set = set()
        for s, self_s in zip(spans, selfs):
            layer, name, attrs = s[LAYER], s[NAME], s[ATTRS]
            dur = s[END] - s[START]
            parent = by_id.get(s[PARENT])
            outermost = not _inside_layer(s, by_id, layer)
            if layer == "ikdist":
                t["ikdist.calls"] += 1
                t["ikdist.points"] += attrs["points"]
                if outermost:
                    t["ikdist.ms"] += dur
            elif layer == "mixture" and name == "FiniteMixture.__init__":
                t["mixture.builds"] += 1
                if outermost:
                    t["mixture.build_ms"] += dur
            elif layer == "mixture":
                t["mixture.calls"] += 1
                t["mixture.self_ms"] += self_s
                if attrs is not None:
                    t["mixture.scalar_calls"] += attrs["scalar"]
                    if name in _LEAF_EVALUATORS:
                        t["mixture.component_points"] += attrs["points"] * attrs["components"]
                if parent is not None and parent[NAME] == "check_order" and attrs is not None:
                    if attrs["points"] * 2 >= parent[ATTRS]["grid_points"]:
                        t["ordercheck.evaluate_ms"] += dur
                    else:
                        t["ordercheck.refine_ms"] += dur
                        t["ordercheck.refine_evals"] += 1
                        refine_checks.add(parent[ID])
                if (parent is not None and parent[NAME] == "run_fixture"
                        and attrs is not None and attrs["scalar"]):
                    t["fixtures.spot_evals"] += 1
            elif name == "check_order":
                t["ordercheck.checks"] += 1
                t["ordercheck.decide_ms"] += self_s
                t["ordercheck.violated"] += attrs["status"] == "violated"
            elif name == "difference_curve":
                t["ordercheck.curve_ms"] += dur
            elif name == "write_curve_csv":
                t["ordercheck.csv_ms"] += dur
                t["ordercheck.csv_bytes"] += attrs["bytes"]
            elif layer == "theorems":
                t["theorems.calls"] += 1
                t["theorems.self_ms"] += self_s
            elif layer == "majorization":
                t["majorization.calls"] += 1
                if outermost:
                    t["majorization.ms"] += dur
            elif layer == "fixtures":
                t["fixtures.self_ms"] += self_s
            elif layer == "scan":
                t["scan.self_ms"] += self_s
                if name == "draw_sample":
                    t["scan.draws"] += 1
                else:
                    t["scan.samples"] += attrs["samples"]
                    t["scan.alarms"] += attrs["alarms"]
        t["ordercheck.refine_spent"] += len(refine_checks)
        t["ordercheck.refined_after_spend"] += sum(
            by_id[c][ATTRS]["refined"] for c in refine_checks)

    def metrics(self, ops: int) -> dict:
        """Per-op figures: counts and milliseconds divided by `ops`."""
        t = self.sums
        out = {name: t[name] / ops for name in COUNT_METRICS}
        out.update({name: 1000.0 * t[name] / ops for name in TIME_METRICS})
        checks = t["ordercheck.checks"]
        out["ordercheck.violated_frac"] = t["ordercheck.violated"] / checks if checks else 0.0
        spent = t["ordercheck.refine_spent"]
        out["ordercheck.refine_yield"] = t["ordercheck.refined_after_spend"] / spent if spent else 0.0
        samples = t["scan.samples"]
        out["scan.alarm_frac"] = t["scan.alarms"] / samples if samples else 0.0
        return out

    def shares(self) -> dict:
        """Share of order checks that were violated and that refined."""
        t = self.sums
        checks = t["ordercheck.checks"]
        return {"checks": int(checks),
                "violated_share": t["ordercheck.violated"] / checks if checks else 0.0,
                "refine_share": t["ordercheck.refine_spent"] / checks if checks else 0.0}


def _inside_layer(span, by_id: dict, layer: str) -> bool:
    parent = by_id.get(span[PARENT])
    while parent is not None:
        if parent[LAYER] == layer:
            return True
        parent = by_id.get(parent[PARENT])
    return False
