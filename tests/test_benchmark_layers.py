"""The benchmark's tracer (perfbench/spans.py) wraps every name in its
LAYERS table by getattr on each traced run, so one name that no longer
resolves fails every benchmark run.  Its wrappers also read their
arguments (a mixture evaluator's args[1].n, check_order's grid), so a
call that the traced pass makes with other arguments fails the run too.
This checks both from the tests, running the benchmark's own workload
code (perfbench/workloads.py) with and without the tracer."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    names = [(modname, qualname) for modname, qualnames in _load("spans").LAYERS.values()
             for qualname in qualnames]
    missing = []
    for modname, qualname in names:
        target = importlib.import_module(modname)
        for part in qualname.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{modname}.{qualname}")
    assert names and not missing, missing


def _bindings() -> dict:
    """Every place the tracer may rebind: the globals of each ikmix module,
    the entries of its module-level dicts and the attributes of its
    classes."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if modname != "ikmix" and not modname.startswith("ikmix."):
            continue
        for key, value in vars(module).items():
            out[modname, key] = value
            if type(value) is dict:
                out.update({(modname, key, k): v for k, v in value.items()})
            elif isinstance(value, type):
                out.update({(modname, key, "." + a): v for a, v in vars(value).items()})
    return out


def _digests(workloads, workload: str, state: dict, ops: int) -> list[str]:
    """The digests of ops 0 .. ops-1, each summarised as the benchmark
    does; summarise reads every crossing of a wide_orders verdict."""
    return [workloads.summarise(workload, state, i, workloads.run_op(workload, state, i))["digest"]
            for i in range(ops)]


@pytest.mark.parametrize("workload", ["catalog", "scan_alarm", "scan_quiet", "wide_orders"])
def test_traced_ops_equal_the_untraced_ones(tmp_path, workload):
    # one op of catalog and of each scan, one full cycle of wide_orders
    spans, workloads = _load("spans"), _load("workloads")
    state = workloads.setup(workload, workloads.generate(workload, 7), tmp_path)
    ops = workloads.CYCLE_OPS[workload] if workload == "wide_orders" else 1
    tracer = spans.Tracer()
    before = _bindings()
    tracer.install()
    try:
        during = _bindings()
        assert [key for key, value in before.items() if during.get(key) is not value]
        traced = _digests(workloads, workload, state, ops)
        recorded = tracer.take()
    finally:
        tracer.uninstall()
    after = _bindings()
    assert [key for key, value in before.items() if after.get(key) is not value] == []
    assert recorded
    assert _digests(workloads, workload, state, ops) == traced
