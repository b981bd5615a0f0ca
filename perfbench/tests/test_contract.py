import json
from pathlib import Path

import run
import spans

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match_what_run_prints():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)


def test_per_layer_metrics_match_what_run_prints():
    printed = set(spans.COUNT_METRICS + spans.RATIO_METRICS + spans.TIME_METRICS)
    printed |= {"setup.import_ms", "fixtures.load_ms", "trace.overhead_frac"}
    assert {m["name"] for m in SPEC["per_layer"]} == printed
    for m in SPEC["per_layer"]:
        assert run._unit(m["name"]) == m["unit"], m["name"]


def test_workloads_match():
    import workloads

    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS
