"""The benchmark's tracer (perfbench/spans.py) wraps every name in its
LAYERS table by getattr on each traced run, so one name that no longer
resolves fails every benchmark run.  This checks them from the tests."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_wrapped_name_resolves():
    names = [(modname, qualname) for modname, qualnames in _layers().values()
             for qualname in qualnames]
    missing = []
    for modname, qualname in names:
        target = importlib.import_module(modname)
        for part in qualname.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{modname}.{qualname}")
    assert names and not missing, missing
