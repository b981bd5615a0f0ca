"""Run one ikmix benchmark workload and print its metrics.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

One client process drives the workload as a closed loop for --seconds of
wall time (and at least 100 ops, ending on a whole pool cycle), then
checks every distinct output it saw.  A fixed reference probe runs after
every op, and the reported latencies are scaled to the reference speed
(speedref.py); the raw figures are printed beside them.  Set-up is timed
in fresh child interpreters.  After the timed loop a fixed set of ops
runs once more under the span tracer; with --trace 1 the per-layer
figures from that pass are printed instead of the end-to-end ones.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speedref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 100          # so that at least ten latencies lie beyond p90
HARD_CAP_S = 120.0     # the timed loop never runs longer than this
# fresh interpreters timed per run, before and after the timed loop so
# that they sample the machine at two moments; the median is reported
SETUP_PROBES = (5, 6)
WITNESS_SAMPLE = 6     # violated witnesses confirmed in mpmath per run
HOLDS_SAMPLE = 2       # scan draws said to hold, confirmed on the grid in mpmath per run
CSV_ROWS_SAMPLE = 2    # rows of each catalog curve confirmed in mpmath per run

END_TO_END = (("ops_per_s", "ops/s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mib", "MiB"))


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def probe_setup(workload: str, seed: int, count: int) -> list[dict]:
    """Set-up figures from `count` fresh interpreters, run one at a time."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def time_loop(workloads, workload: str, state: dict, seconds: float):
    """Closed loop: op i+1 starts only after op i has returned.  The
    reference probe runs between ops, outside their latencies."""
    warm = workloads.summarise(workload, state, 0, workloads.run_op(workload, state, 0))
    refs = {warm["pool"]: warm}
    speedref.probe()
    latencies: list[float] = []
    probes: list[float] = []
    records: list[dict] = []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_CAP_S or (elapsed >= seconds and i >= MIN_OPS
                                     and i % workloads.CYCLE_OPS[workload] == 0):
            break
        t0 = time.perf_counter()
        try:
            out = workloads.run_op(workload, state, i)
        except Exception as exc:  # an op that raises is a failed op; keep measuring
            latencies.append(time.perf_counter() - t0)
            probes.append(speedref.probe())
            records.append({"error": repr(exc)})
            i += 1
            continue
        latencies.append(time.perf_counter() - t0)
        probes.append(speedref.probe())
        summary = workloads.summarise(workload, state, i, out)
        refs.setdefault(summary["pool"], summary)
        records.append({"pool": summary["pool"], "digest": summary["digest"]})
        i += 1
    return latencies, probes, records, refs


def check_references(workloads, checks, workload: str, inputs: dict, state: dict,
                     refs: dict, rng) -> dict:
    """Problems per pool entry, from the first output seen for that entry."""
    problems = {pool: [] for pool in refs}
    if workload == "catalog":
        ref = refs[0]
        problems[0] += checks.check_catalog(ref["fixtures"])
        catalog = state["catalog"]
        expected = {}
        for fid in catalog.ids():
            po = catalog.checker_report(fid).orientation
            kind = workloads.CURVE_FOR_KIND[po.kind]
            expected[f"{fid.replace('.', '_')}_{kind}.csv"] = (kind, po.lhs.to_dict(),
                                                              po.rhs.to_dict())
        if sorted(ref["csv"]) != sorted(expected):
            problems[0].append(f"curve files {sorted(ref['csv'])}")
        for name, (kind, m1, m2) in sorted(expected.items()):
            if name in ref["csv"]:
                problems[0] += checks.check_curve_rows(ref["csv"][name], kind, m1, m2,
                                                       rng, CSV_ROWS_SAMPLE)
        return problems

    candidates = []
    if workload in workloads.SCAN_CONFIGS:
        config = inputs["config"]
        holds = []
        for pool, ref in refs.items():
            draws = checks.replay_draws(config, inputs["seeds"][pool], inputs["draws"][pool])
            problems[pool] += checks.check_scan_report(ref["report"], len(draws))
            found, claimed_holds = checks.check_scan_categories(config["theorem"],
                                                                ref["report"], draws)
            problems[pool] += found
            holds += [(pool, *checks.scan_orientation(config["theorem"], draws[i]))
                      for i in claimed_holds]
            for finding in ref["report"]["soundness_alarms"]:
                if finding["witness"] is not None:
                    kind, m1, m2 = checks.scan_orientation(config["theorem"], finding["params"])
                    candidates.append((pool, kind, m1, m2, finding["witness"], config["grid"]))
        for j in _sample(rng, holds, HOLDS_SAMPLE):
            pool, kind, m1, m2 = holds[j]
            problems[pool] += checks.confirm_holds(kind, m1, m2, config["grid"])
    else:
        for pool, ref in refs.items():
            pair = inputs["pairs"][pool]
            expected = checks.WIDE_EXPECTED_STATUS[(pair["kind"], pair["region"])]
            problems[pool] += checks.check_verdict(ref["report"], expected)
            if ref["report"]["status"] == "violated" and ref["report"]["witness"]:
                candidates.append((pool, pair["kind"], pair["m1"], pair["m2"],
                                   ref["report"]["witness"], inputs["grid"]))
    for j in _sample(rng, candidates, WITNESS_SAMPLE):
        pool, kind, m1, m2, witness, grid = candidates[j]
        problems[pool] += checks.confirm_witness(kind, m1, m2, witness, grid)
    return problems


def _sample(rng, items: list, size: int) -> list[int]:
    if not items:
        return []
    return list(rng.choice(len(items), size=min(size, len(items)), replace=False))


def traced_pass(workloads, spans, workload: str, state: dict, refs: dict):
    """TRACED_OPS[workload] fixed ops under the tracer."""
    tracer = spans.Tracer()
    totals = spans.LayerTotals()
    latencies, probes, pools, problems = [], [], [], []
    tracer.install()
    try:
        for i in range(workloads.TRACED_OPS[workload]):
            t0 = time.perf_counter()
            try:
                out = workloads.run_op(workload, state, i)
            except Exception as exc:  # reported as a problem; the run goes on
                problems.append(f"traced op {i} raised {exc!r}")
                tracer.take()
                continue
            latencies.append(time.perf_counter() - t0)
            probes.append(speedref.probe())
            totals.add(tracer.take())
            summary = workloads.summarise(workload, state, i, out)
            pools.append(summary["pool"])
            ref = refs.get(summary["pool"])
            if ref is not None and ref["digest"] != summary["digest"]:
                problems.append(f"traced op {i} output differs from the untraced one")
    finally:
        tracer.uninstall()
    return speedref.normalise(latencies, probes), pools, totals, problems


def trace_overhead(latencies: list, records: list, traced_lat: list, traced_pools: list) -> float:
    """1 - traced ops/s over untraced ops/s, on the same pool entries: each
    traced op against the median untraced latency of its pool entry, both
    normalised to the reference speed."""
    by_pool: dict = {}
    for lat, rec in zip(latencies, records):
        if "pool" in rec:
            by_pool.setdefault(rec["pool"], []).append(lat)
    untraced = sum(statistics.median(by_pool[pool]) for pool in traced_pools)
    return 1.0 - untraced / sum(traced_lat)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None if proc.returncode == 0 else None


def workload_shape(workloads, workload: str, inputs: dict) -> dict:
    if workload == "catalog":
        return {"components": [2, 3], "grid_points": 2000, "ops_pool": 1}
    if workload in workloads.SCAN_CONFIGS:
        config = inputs["config"]
        return {"components": config["n_components"],
                "grid_points": int(config["grid"].split(":")[2]),
                "draws_per_op": [min(inputs["draws"]), max(inputs["draws"])],
                "ops_pool": len(inputs["seeds"])}
    return {"components": list(workloads.WIDE_COMPONENTS),
            "grid_points": int(inputs["grid"].split(":")[2]),
            "ops_pool": len(inputs["pairs"])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ikmix" / "__init__.py").is_file():
        return _fail(f"no ikmix sources under {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}")

    setup_samples = probe_setup(args.workload, args.seed, SETUP_PROBES[0])

    inputs = workloads.generate(args.workload, args.seed)
    import ikmix
    if SRC not in Path(ikmix.__file__).resolve().parents:
        return _fail(f"imported ikmix from {ikmix.__file__}, not from {SRC}")
    workdir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        state = workloads.setup(args.workload, inputs, workdir)
        raw_latencies, probes, records, refs = time_loop(workloads, args.workload, state,
                                                         args.seconds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_samples += probe_setup(args.workload, args.seed, SETUP_PROBES[1])

        import numpy as np

        import checks
        import spans
        rng = np.random.default_rng(inputs.get("check_seed", args.seed))
        ref_problems = check_references(workloads, checks, args.workload, inputs, state,
                                        refs, rng)
        traced_lat, traced_pools, totals, trace_problems = traced_pass(
            workloads, spans, args.workload, state, refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass  # another run still uses it

    latencies = speedref.normalise(raw_latencies, probes)
    raw = {"ops_per_s": len(raw_latencies) / sum(raw_latencies),
           "latency_p50_ms": 1000.0 * statistics.median(raw_latencies),
           "latency_p90_ms": 1000.0 * statistics.quantiles(raw_latencies, n=10)[-1],
           "setup_s": statistics.median(s["setup_s"] for s in setup_samples),
           "probe_ms": 1000.0 * statistics.median(probes)}
    failed_reasons: list[str] = []
    failed = 0
    for rec in records:
        if "error" in rec:
            reason = rec["error"]
        elif rec["digest"] != refs[rec["pool"]]["digest"]:
            reason = f"pool entry {rec['pool']}: output differs from its first occurrence"
        elif ref_problems[rec["pool"]]:
            reason = f"pool entry {rec['pool']}: {ref_problems[rec['pool']][0]}"
        else:
            continue
        failed += 1
        failed_reasons.append(reason)
    attempted = len(records)

    import mpmath
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "mpmath": mpmath.__version__,
        **workload_shape(workloads, args.workload, inputs),
        "latency_samples": len(latencies), "setup_probes": len(setup_samples),
        "reference_probe_ms": 1000.0 * speedref.REFERENCE_S, "raw": raw,
        "traced_ops": len(traced_lat), **totals.shares(),
    }

    if args.trace:
        metrics = totals.metrics(len(traced_lat))
        metrics["setup.import_ms"] = statistics.median(s["import_ms"] for s in setup_samples)
        metrics["fixtures.load_ms"] = statistics.median(s["load_ms"] for s in setup_samples)
        metrics["trace.overhead_frac"] = trace_overhead(latencies, records, traced_lat,
                                                        traced_pools)
        units = {}
    else:
        metrics = {
            "ops_per_s": attempted / sum(latencies),
            "latency_p50_ms": 1000.0 * statistics.median(latencies),
            "latency_p90_ms": 1000.0 * statistics.quantiles(latencies, n=10)[-1],
            "setup_s": statistics.median(s["setup_s"] * speedref.REFERENCE_S / s["probe_s"]
                                         for s in setup_samples),
            "peak_rss_mib": peak_rss_mib,
        }
        units = dict(END_TO_END)

    print(f"workload {args.workload}  seed {args.seed}  ops {attempted}  failed {failed}")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:.6g} {units.get(name, _unit(name))}")
    if not args.trace:
        print("  raw, not normalised: " + "  ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    print(f"  {'error_rate':<28} {failed / attempted:.6g} fraction")
    for reason in failed_reasons[:5] + trace_problems[:5]:
        print(f"  problem: {reason}")
    print("PROVENANCE " + json.dumps(provenance, sort_keys=True))
    result = {
        "correct": failed == 0 and not trace_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, _unit(name))}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms" if name.startswith(("setup.", "fixtures.load")) else "ms/op"
    if name.endswith(("_frac", "_yield")):
        return "fraction"
    if name.endswith("bytes"):
        return "bytes/op"
    return "count/op"


if __name__ == "__main__":
    raise SystemExit(main())
