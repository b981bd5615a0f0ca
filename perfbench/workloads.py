"""Seeded inputs, program set-up and the single operation of each workload.

Input generation uses only the standard library, so a set-up probe can
draw its inputs before numpy or ikmix is imported and the import then
counts in full.  ikmix is imported lazily, inside `setup`.

Every workload is a closed loop: one client sends op i+1 only after op i
has returned.  Ops cycle through a fixed pool drawn from the seed, so the
same pool entry recurs many times in a run and each recurrence can be
checked against the first.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from pathlib import Path

WORKLOADS = ("catalog", "scan_alarm", "scan_quiet", "wide_orders")

KINDS = ("st", "rh", "lr", "r_rh")

# curve kind behind each predicted order, as in scripts/dump_curves.py
CURVE_FOR_KIND = {"st": "sf", "rh": "cdf_ratio", "lr": "pdf_ratio", "r_rh": "rh_ratio"}

DEFAULT_GRID_SPEC = "1e-4:1e4:2000:log"

# Draws per scan op, one count per pool entry (mean 32): enough that
# batching draws inside one run_scan call has room to pay, few enough that
# a run holds well over 100 ops.  The counts differ so that op latencies
# spread over a 3x range: with one fixed count every op costs the same,
# and on a virtual machine whose speed switches between two states 1.5x
# to 2x apart the median snaps between them instead of moving smoothly.
# The number of entries is odd, so the median of whole cycles is the
# middle of one entry's latencies, not the gap between the slowest run of
# one entry and the fastest of the next.
SCAN_DRAWS = tuple(16 + 2 * j for j in range(17))

# Ranges and grids copied from scripts/scan_configs, so that the benchmark
# keeps measuring the same work if those example files change.
SCAN_CONFIGS = {
    "scan_alarm": {  # t310_gap_probe.json: T3.10, n=2, nearly every draw alarms
        "theorem": "T3.10",
        "n_components": 2,
        "ranges": {
            "beta": [[0.8, 1.2], [1.6, 2.4]],
            "beta_star": [[0.8, 1.2], [2.6, 3.4]],
            "alpha": [0.8, 1.2],
            "p": [0.05, 1.0],
            "p_star": [0.05, 1.0],
        },
        "grid": "1e-4:1e3:500:log",
    },
    "scan_quiet": {  # t311_separated_region.json: T3.11, n=3, orders hold
        "theorem": "T3.11",
        "n_components": 3,
        "ranges": {
            "p": [0.05, 1.0],
            "alpha": [4.0, 9.0],
            "beta": [0.2, 1.0],
            "p_star": [0.05, 1.0],
            "alpha_star": [1.5, 3.9],
            "beta_star": [2.5, 6.0],
        },
        "grid": "1e-3:1e3:500:log",
    },
}

# Components per wide_orders pair, from 30 to 70 (mean 50).  As with the
# scan draw counts, the spread keeps op latencies continuous, so the
# percentiles move smoothly with the machine's speed.  The sizes are not
# drawn at random: each stratum gets the same evenly spaced set for every
# seed, so a seed cannot shift the median or the 90th percentile by
# drawing larger or smaller pairs than another.
WIDE_COMPONENTS = (30, 70)
# One block of wide_orders pairs: (kind, region, count).  "separated" pairs
# lie in the T3.12 region, where st, rh and lr hold and no refinement runs;
# "crossing" pairs have the smaller tail exponents on m1, so the order
# holds near 0, fails in the right tail, and the check refines the
# crossing.  Crossing lr checks refine or not depending on where the
# ratio's peak falls between grid points, which would make the refine
# share a coin flip per seed, so lr is drawn only separated.  Separated
# checks cost in proportion to their component count and nothing else, so
# the counts place the median in the middle of the separated rh stratum
# (positions 5 to 9 of 15 by cost) and the 90th percentile in the middle
# of the crossing rh stratum (13 to 15), away from the edges between
# strata and from the r_rh and crossing st checks, whose refinement cost
# varies from pair to pair, so neither percentile jumps from seed to seed.
WIDE_BLOCK = (("st", "separated", 2), ("lr", "separated", 2), ("rh", "separated", 5),
              ("r_rh", "crossing", 2), ("st", "crossing", 1), ("rh", "crossing", 3))
WIDE_BLOCKS = 4

# Ops in one cycle of the pool: every scan pool entry, one wide_orders
# block.  The timed loop ends on a cycle boundary, so every run measures
# the same op mix however fast the machine is, and the traced pass runs
# exactly one cycle, so its per-op figures describe that same mix.
CYCLE_OPS = {"catalog": 1, "scan_alarm": len(SCAN_DRAWS), "scan_quiet": len(SCAN_DRAWS),
             "wide_orders": sum(c for _, _, c in WIDE_BLOCK)}
# ops run under the tracer after the timed loop; fixed, so counts repeat
TRACED_OPS = dict(CYCLE_OPS, catalog=2)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"ikmix-bench:{workload}:{seed}")


def _weights(rng: random.Random, n: int) -> list[float]:
    raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
    total = sum(raw)
    return [w / total for w in raw]


def _component_counts(rng: random.Random, count: int) -> list[list[int]]:
    """Component counts for one stratum, block by block.  The stratum's
    count * WIDE_BLOCKS sizes are evenly spaced over WIDE_COMPONENTS and cut
    into `count` bands; every block takes one size from each band."""
    lo, hi = WIDE_COMPONENTS
    m = count * WIDE_BLOCKS
    sizes = [lo + round((hi - lo) * (k + 0.5) / m) for k in range(m)]
    per_block: list[list[int]] = [[] for _ in range(WIDE_BLOCKS)]
    for band in range(count):
        order = list(range(WIDE_BLOCKS))
        rng.shuffle(order)
        for b, k in enumerate(order):
            per_block[b].append(sizes[band * WIDE_BLOCKS + k])
    return per_block


def _separated_pair(rng: random.Random, n: int) -> tuple[dict, dict]:
    """A pair inside the T3.12 region: max(alpha) <= min(alpha*) and
    min(alpha*beta) >= max(alpha* beta*), so m1 = (p*, alpha*, beta*) lies
    below m2 = (p, alpha, beta) in lr, hence in rh and st."""
    alpha = [rng.uniform(1.0, 2.0) for _ in range(n)]
    beta = [rng.uniform(2.0, 4.0) for _ in range(n)]
    alpha_star = [rng.uniform(2.0, 4.0) for _ in range(n)]
    beta_star = [rng.uniform(0.2, 0.5) for _ in range(n)]
    m2 = {"weights": _weights(rng, n), "alpha": alpha, "beta": beta}
    m1 = {"weights": _weights(rng, n), "alpha": alpha_star, "beta": beta_star}
    return m1, m2


def _mixture(rng: random.Random, n: int, lo: float, hi: float) -> dict:
    return {"weights": _weights(rng, n),
            "alpha": [rng.uniform(lo, hi) for _ in range(n)],
            "beta": [rng.uniform(lo, hi) for _ in range(n)]}


def _crossing_pair(rng: random.Random, n: int) -> tuple[dict, dict]:
    """m1 has the smaller beta (left tail) and the smaller alpha (right
    tail), so m1 <= m2 holds near 0 and fails for large x."""
    return _mixture(rng, n, 0.5, 2.0), _mixture(rng, n, 2.5, 5.0)


def generate(workload: str, seed: int) -> dict:
    """The workload's inputs for one seed, as plain JSON-able data."""
    rng = _rng(workload, seed)
    if workload == "catalog":
        return {"grid": DEFAULT_GRID_SPEC, "check_seed": rng.randrange(2**32)}
    if workload in SCAN_CONFIGS:
        return {"config": SCAN_CONFIGS[workload], "draws": list(SCAN_DRAWS),
                "seeds": [rng.randrange(2**32) for _ in SCAN_DRAWS],
                "check_seed": rng.randrange(2**32)}
    if workload == "wide_orders":
        sizes = [_component_counts(rng, count) for _, _, count in WIDE_BLOCK]
        pairs = []
        for b in range(WIDE_BLOCKS):
            block = []
            for (kind, region, _), stratum_sizes in zip(WIDE_BLOCK, sizes):
                draw = _separated_pair if region == "separated" else _crossing_pair
                for n in stratum_sizes[b]:
                    m1, m2 = draw(rng, n)
                    block.append({"kind": kind, "region": region, "m1": m1, "m2": m2})
            rng.shuffle(block)
            pairs += block
        return {"grid": DEFAULT_GRID_SPEC, "pairs": pairs,
                "check_seed": rng.randrange(2**32)}
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def setup(workload: str, inputs: dict, workdir: Path | None = None) -> dict:
    """Build the program objects the workload's ops use."""
    import ikmix

    if workload == "catalog":
        return {"catalog": ikmix.FixtureCatalog(),
                "grid": ikmix.Grid.from_spec(inputs["grid"]), "workdir": workdir}
    if workload in SCAN_CONFIGS:
        return {"configs": [ikmix.ScanConfig.from_dict(dict(inputs["config"], seed=s, samples=d))
                            for s, d in zip(inputs["seeds"], inputs["draws"])]}
    grid = ikmix.Grid.from_spec(inputs["grid"])
    return {"grid": grid,
            "pairs": [(p["kind"], ikmix.FiniteMixture.from_dict(p["m1"]),
                       ikmix.FiniteMixture.from_dict(p["m2"])) for p in inputs["pairs"]]}


def run_op(workload: str, state: dict, i: int):
    """One operation; this is the only code inside the timed region."""
    import ikmix

    if workload == "catalog":
        # Each op writes into a new directory, as dump_curves.py into a fresh
        # --outdir.  Rewriting the same files would truncate them, and ext4
        # starts writeback on closing a truncated file, which puts disk
        # latency inside the op.
        catalog, grid = state["catalog"], state["grid"]
        outdir = state["workdir"] / f"op{i}"
        outdir.mkdir(parents=True, exist_ok=True)
        results = catalog.run_all(grid)
        for fid in catalog.ids():
            po = catalog.checker_report(fid).orientation
            curve_kind = CURVE_FOR_KIND[po.kind]
            rows = ikmix.difference_curve(po.lhs, po.rhs, grid, curve_kind)
            ikmix.write_curve_csv(rows, outdir / f"{fid.replace('.', '_')}_{curve_kind}.csv")
        return results
    if workload in SCAN_CONFIGS:
        configs = state["configs"]
        return ikmix.run_scan(configs[i % len(configs)])
    kind, m1, m2 = state["pairs"][i % len(state["pairs"])]
    return ikmix.check_order(kind, m1, m2, state["grid"])


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def summarise(workload: str, state: dict, i: int, out) -> dict:
    """Reduce an op's output to what the checks need; runs untimed."""
    if workload == "catalog":
        fixtures = [[r.fixture_id, r.passed, sorted(c.label for c in r.failures())]
                    for r in out]
        outdir = state["workdir"] / f"op{i}"
        csv = {p.name: p.read_bytes() for p in sorted(outdir.glob("*.csv"))}
        shutil.rmtree(outdir)
        return {"pool": 0, "fixtures": fixtures, "csv": csv,
                "digest": digest([fixtures, {k: hashlib.sha256(v).hexdigest()
                                             for k, v in csv.items()}])}
    pool = i % (len(state["configs"]) if workload in SCAN_CONFIGS else len(state["pairs"]))
    report = out.to_dict()
    return {"pool": pool, "report": report, "digest": digest(report)}
