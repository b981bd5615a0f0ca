"""Compare a parent and a change from benchmark runs made as alternating pairs.

Run the pairs (each checkout runs its own perfbench; pair p uses seed
FIRST_SEED + p, and the side that runs first alternates):

    python3 perfbench/compare.py run --parent ../parent --change . --out cmp \\
        --pairs 10 [--trace 0|1] [--workloads catalog ...]

Every run measures for BENCHMARK.json's run_seconds, the run length the
bounds were set at.

Then report, per workload and end-to-end metric, each side's median and
quartiles, the shift of the change's median relative to the parent's,
the change's win fraction over the pairs, and a verdict:

    python3 perfbench/compare.py report cmp/parent cmp/change

A change has improved a metric when it wins at least nine tenths of the
pairs (ties count for neither) and the medians differ by more than the
parent's own quartile spread.  It has regressed when its median is worse
than the parent's by more than the metric's bound in BENCHMARK.json.
When the parent's spread is wider than the bound the metric is
unresolved, unless every change run beats every parent run.  Traced runs
(--trace 1) are compared count by count, and every count that differs
between the two sides is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("catalog", "scan_alarm", "scan_quiet", "wide_orders")
COUNT_UNITS = ("count/op", "bytes/op", "fraction")


def load_results(directory: Path) -> dict:
    """(workload, seed, trace) -> {"provenance": ..., "result": ...}."""
    out = {}
    for path in sorted(directory.glob("*.out")):
        lines = path.read_text().strip().splitlines()
        prov = next(json.loads(line[len("PROVENANCE "):]) for line in lines
                    if line.startswith("PROVENANCE "))
        result = json.loads(lines[-1])
        trace = int("ops_per_s" not in result["metrics"])
        out[(prov["workload"], prov["seed"], trace)] = {"provenance": prov, "result": result}
    return out


def _beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(parent: list, change: list, better: str, bound: float) -> tuple[str, float]:
    """Verdict and the change's win fraction; parent[i] pairs with change[i]."""
    wins = sum(_beats(c, p, better) for p, c in zip(parent, change))
    win_frac = wins / len(parent)
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    spread = q3 - q1
    gain = pm - cm if better == "lower" else cm - pm
    if win_frac >= 0.9 and gain > spread:
        return "improved", win_frac
    all_better = all(_beats(c, p, better) for c in change for p in parent)
    if spread > bound * abs(pm) and not all_better:
        return "unresolved", win_frac
    if -gain > bound * abs(pm):
        return "regressed", win_frac
    return "unchanged", win_frac


def _quartiles(values: list) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def _shift(parent: list, change: list) -> str:
    """The change's median relative to the parent's, the figure a bound limits."""
    pm = statistics.median(parent)
    return f"{statistics.median(change) / pm - 1:+.3f}" if pm else "n/a"


def report(parent_dir: Path, change_dir: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    metrics.append(("error_rate", "fraction", "lower", 0.0))
    parent, change = load_results(parent_dir), load_results(change_dir)
    keys = sorted(set(parent) & set(change))
    if not keys:
        print("no (workload, seed) runs common to both sides", file=sys.stderr)
        return 1
    flags = 0
    for workload in WORKLOADS:
        e2e = [k for k in keys if k[0] == workload and k[2] == 0]
        if len(e2e) >= 2:
            print(f"{workload}  ({len(e2e)} pairs, seeds {[k[1] for k in e2e]})")
            print(f"  {'metric':<16} {'parent median [q1, q3]':<30} "
                  f"{'change median [q1, q3]':<30} {'shift':>7} {'win':>5}  verdict")
            for name, unit, better, bound in metrics:
                pv = [_value(parent[k]["result"], name) for k in e2e]
                cv = [_value(change[k]["result"], name) for k in e2e]
                v, win = verdict(pv, cv, better, bound)
                print(f"  {name:<16} {_quartiles(pv):<30} {_quartiles(cv):<30} "
                      f"{_shift(pv, cv):>7} {win:>5.2f}  {v} ({unit}, bound {bound:g})")
        for k in (k for k in keys if k[0] == workload and k[2] == 1):
            pm, cm = parent[k]["result"]["metrics"], change[k]["result"]["metrics"]
            for name in sorted(set(pm) | set(cm)):
                p, c = pm.get(name), cm.get(name)
                if name == "trace.overhead_frac" or (p or c)["unit"] not in COUNT_UNITS:
                    continue
                if p is None or c is None or p["value"] != c["value"]:
                    flags += 1
                    print(f"  COUNT DIFFERS {workload} seed {k[1]} {name}: "
                          f"parent {p and p['value']} change {c and c['value']}")
    if flags:
        print(f"{flags} counts differ between parent and change")
    return 0


def _value(result: dict, name: str) -> float:
    if name == "error_rate":
        return result["failed"] / result["attempted"]
    return result["metrics"][name]["value"]


def run_pairs(args) -> int:
    out = Path(args.out)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for side, checkout in sides.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            print(f"{side}: no perfbench/run.py under {checkout}", file=sys.stderr)
            return 1
        (out / side).mkdir(parents=True, exist_ok=True)
    for p in range(args.pairs):
        seed = args.first_seed + p
        order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
        for workload in args.workloads:
            for side in order:
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True,
                                      timeout=900)
                path = out / side / f"{workload}-{seed}-t{args.trace}.out"
                path.write_text(proc.stdout)
                status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
                print(f"pair {p} {workload} {side}: {status}", flush=True)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run alternating parent/change pairs")
    run.add_argument("--parent", required=True, metavar="CHECKOUT")
    run.add_argument("--change", required=True, metavar="CHECKOUT")
    run.add_argument("--out", required=True, metavar="DIR")
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--first-seed", type=int, default=1000)
    run.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    rep = sub.add_parser("report", help="compare two directories of run outputs")
    rep.add_argument("parent", type=Path)
    rep.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_pairs(args)
    return report(args.parent, args.change)


if __name__ == "__main__":
    raise SystemExit(main())
