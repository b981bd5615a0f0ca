import json
from pathlib import Path

import pytest

import workloads

REPO = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    a = workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) == a
    assert workloads.generate(workload, 8) != a


def test_wide_orders_blocks_are_stratified():
    inputs = workloads.generate("wide_orders", 3)
    block = sum(c for _, _, c in workloads.WIDE_BLOCK)
    assert len(inputs["pairs"]) == block * workloads.WIDE_BLOCKS
    want = sorted((k, r) for k, r, c in workloads.WIDE_BLOCK for _ in range(c))
    for b in range(workloads.WIDE_BLOCKS):
        pairs = inputs["pairs"][b * block:(b + 1) * block]
        assert sorted((p["kind"], p["region"]) for p in pairs) == want
        lo, hi = workloads.WIDE_COMPONENTS
        for p in pairs:
            assert lo <= len(p["m1"]["weights"]) == len(p["m2"]["alpha"]) <= hi


def test_wide_orders_sizes_are_the_same_for_every_seed():
    def sizes(seed):
        pairs = workloads.generate("wide_orders", seed)["pairs"]
        return {(k, r): sorted(len(p["m1"]["weights"]) for p in pairs
                               if (p["kind"], p["region"]) == (k, r))
                for k, r, _ in workloads.WIDE_BLOCK}

    assert sizes(1) == sizes(2)
    assert sum(map(sum, sizes(1).values())) == 50 * len(workloads.generate("wide_orders", 1)["pairs"])


def test_separated_pairs_satisfy_the_t312_hypotheses():
    for p in workloads.generate("wide_orders", 4)["pairs"]:
        if p["region"] != "separated":
            continue
        low, high = p["m1"], p["m2"]
        assert max(high["alpha"]) <= min(low["alpha"])
        assert min(a * b for a, b in zip(high["alpha"], high["beta"])) >= \
            max(a * b for a, b in zip(low["alpha"], low["beta"]))


@pytest.mark.parametrize("workload,name", [("scan_alarm", "t310_gap_probe"),
                                           ("scan_quiet", "t311_separated_region")])
def test_scan_ranges_match_the_example_configs(workload, name):
    path = REPO / "scripts" / "scan_configs" / f"{name}.json"
    if not path.is_file():
        pytest.skip(f"{path.name} is not in this checkout")
    shipped = json.loads(path.read_text())
    mine = workloads.SCAN_CONFIGS[workload]
    for key in ("theorem", "n_components", "ranges", "grid"):
        assert mine[key] == shipped[key]
