#!/usr/bin/env python3
"""Write, or compare, every output that must stay byte-identical.

    python3 scripts/golden.py DIR               write the outputs into DIR
    python3 scripts/golden.py --compare A B     diff two such directories

DIR receives, from the ikmix under this checkout's src/:

  reproduce_all.stdout, reproduce_all.exit   ikmix reproduce --all
  scan_<config>.stdout, .report.json, .exit  ikmix scan on each
                                             scripts/scan_configs/*.json
  curves/{default,wide}/*.csv, curves.exit   the four curve kinds of every
                                             catalog orientation, on the
                                             default grid and on
                                             1e-100:1e100:3000:log
                                             (exponent notation, zeros,
                                             subnormals, undefined points)
  dump_curves.stdout, .exit,                 scripts/dump_curves.py, run in
  dump_curves/*.csv                          DIR
  verdicts.json, verdicts.exit               the to_dict() of every catalog
                                             orientation under each order
                                             kind, both ways round (crossings
                                             read)
  reports.json, reports.exit                 the to_dict() of every catalog
                                             fixture's theorem report and of
                                             every draw's report in each
                                             scan config and in four inline
                                             configs (T3.1, T3.2, T3.3,
                                             T3.12), each draw replayed
                                             here from the seed, each
                                             report with its orientation's
                                             to_dict()
  checkers.json, checkers.exit               the to_dict() of seeded reports
                                             of all 15 checker ids, called
                                             through CHECKERS, with each
                                             orientation's to_dict(), and
                                             the error text of every
                                             single-fault input
  kernel.json, kernel.exit                   the hex of the float64 bytes of
                                             the mixture kernel's logs
                                             (_evaluate: every name at once
                                             with the slope, each name
                                             alone, the slope alone) and of
                                             the sf (_survival) on seeded
                                             edge cases, among them stacks
                                             of 8 mixtures and of one pair
                                             of 70-component mixtures

Every run turns RuntimeWarnings into errors, so a warning shows up as a
changed .exit file rather than as noise on stderr.

To check a change against its parent, run the script in a checkout of
each and compare the two directories; --compare exits 1 on any missing,
extra or differing file.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_CLI = "import sys; from ikmix.cli import main; sys.exit(main())"
# 15 fixtures x 4 kinds x 2 directions = 120 verdicts, as JSON on stdout
_VERDICTS = """
import json, sys
from ikmix import ORDER_KINDS, FixtureCatalog, check_order
catalog = FixtureCatalog()
rows = []
for fid in catalog.ids():
    po = catalog.checker_report(fid).orientation
    for kind in ORDER_KINDS:
        for direction, m1, m2 in (("lhs<=rhs", po.lhs, po.rhs), ("rhs<=lhs", po.rhs, po.lhs)):
            rows.append({"fixture": fid, "kind": kind, "claim": direction,
                         "verdict": check_order(kind, m1, m2).to_dict()})
json.dump(rows, sys.stdout, indent=1)
sys.stdout.write("\\n")
"""
# 15 fixtures x 4 curve kinds x 2 grids = 120 CSVs under sys.argv[1]; only
# difference_curve and write_curve_csv are called, so this runs unchanged
# against an older checkout
_CURVES = """
import sys
from pathlib import Path
from ikmix import CURVE_KINDS, DEFAULT_GRID, FixtureCatalog, Grid, difference_curve, write_curve_csv
catalog = FixtureCatalog()
for name, grid in (("default", DEFAULT_GRID), ("wide", Grid.from_spec("1e-100:1e100:3000:log"))):
    outdir = Path(sys.argv[1], name)
    outdir.mkdir(parents=True)
    for fid in catalog.ids():
        po = catalog.checker_report(fid).orientation
        for kind in CURVE_KINDS:
            path = outdir / f"{fid.replace('.', '_')}_{kind}.csv"
            write_curve_csv(difference_curve(po.lhs, po.rhs, grid, kind), path)
"""
# the orientation is recorded too: to_dict() leaves it out when a
# hypothesis fails.  The draws are replayed here, one rng.uniform per
# coordinate as the scan documents its stream, so that this script runs
# unchanged against an older checkout; the inline configs give every
# scannable checker seeded draws
_REPORTS = """
import json, sys
from pathlib import Path
import numpy as np
from ikmix import FixtureCatalog
from ikmix.scan import ScanConfig
from ikmix.theorems import CHECKERS, SCAN_LAYOUTS
W = [0.05, 1.0]
INLINE = {
    "inline_t31_uniform": dict(theorem="T3.1", samples=60, seed=31, ranges=dict(
        alpha=[0.3, 3.0], beta=[0.5, 2.0], p=W, p_star=W)),
    "inline_t32": dict(theorem="T3.2", samples=60, seed=32, ranges=dict(
        beta=[0.3, 3.0], alpha=[0.5, 2.0], p=W, p_star=W)),
    "inline_t33": dict(theorem="T3.3", samples=60, seed=33, n_components=3, ranges=dict(
        alpha=[0.5, 4.0], alpha_star=[0.5, 4.0], beta=[0.2, 1.5], p=W)),
    "inline_t312": dict(theorem="T3.12", samples=60, seed=312, n_components=3, ranges=dict(
        p=W, alpha=[1.0, 2.2], beta=[2.0, 4.0], p_star=W, alpha_star=[1.8, 4.0],
        beta_star=[0.2, 0.6])),
}
def row(report, **where):
    return dict(where, report=report.to_dict(), orientation=report.orientation.to_dict())
def draws(config):
    rng = np.random.Generator(np.random.Philox(config.seed))
    for _ in range(config.samples):
        params = {}
        for name, kind in SCAN_LAYOUTS[config.theorem]:
            vals = [rng.uniform(lo, hi) if hi > lo else lo for lo, hi in config.ranges[name]]
            total = sum(vals)
            params[name] = (vals[0] if kind == "scalar" else
                            tuple(v / total for v in vals) if kind == "weights" else tuple(vals))
        yield params
catalog = FixtureCatalog()
rows = [row(catalog.checker_report(fid), fixture=fid) for fid in catalog.ids()]
configs = [(path.stem, ScanConfig.from_file(path))
           for path in sorted(Path("scripts", "scan_configs").glob("*.json"))]
configs += [(name, ScanConfig.from_dict(d)) for name, d in INLINE.items()]
for name, config in configs:
    for index, params in enumerate(draws(config)):
        rows.append(row(CHECKERS[config.theorem](**params), scan=name, index=index))
json.dump(rows, sys.stdout, indent=1)
sys.stdout.write("\\n")
"""

# every checker id on seeded inputs, through CHECKERS and the public types
# alone, so that this runs unchanged against an older checkout.  Chain ids:
# 120 valid cases each, chains of 1 to 3 transforms (one for T3.4, two or
# three for T3.5) on 2 to 4 columns, half of them on one fixed column pair,
# q the chain's image (worked here in plain floats), that image moved by
# about 1e-10, or an unrelated matrix, and a shared shape inside or outside
# (0, 1); then each single fault: an empty chain, an out-of-range pair, a q
# of another width and a bad shared value.  Vector ids: 60 valid cases each
# from their scan layout, then a bad shared value, weights of another
# length and a zero entry
_CHECKERS = """
import inspect, json, math, sys
import numpy as np
from ikmix import DomainError, ParamMatrix2xN, TTransform
from ikmix.theorems import CHECKERS, SCAN_LAYOUTS
r = np.random.default_rng(1702)
BAD_SHARED = [0.0, -1.0, math.nan, math.inf, "0.5", True, None, 10**400]
ALPHA_FAMILY = ("T3.4", "T3.5", "T3.6", "C3.2")
CHAIN_IDS = ALPHA_FAMILY + ("T3.7", "T3.8", "T3.9", "C3.3")
def vec(n):
    return r.uniform(0.2, 4.0, n).tolist()
def weights(n):
    w = r.uniform(0.05, 1.0, n)
    return (w / w.sum()).tolist()
def shared():
    return float(r.uniform(0.05, 0.95) if r.random() < 0.5 else r.uniform(1.0, 3.0))
def matrix(n):
    w, s = weights(n), vec(n)
    if r.random() < 0.5:  # oppositely ordered rows
        w, s = sorted(w), sorted(s, reverse=True)
    return ParamMatrix2xN(tuple(w), tuple(s))
def pair(n):
    return tuple(int(i) + 1 for i in r.choice(n, 2, replace=False))
def chain(n, k):
    fixed = pair(n) if r.random() < 0.5 else None
    return [TTransform(float(r.choice([0.0, 1.0])) if r.random() < 0.15 else float(r.uniform()),
                       fixed or pair(n)) for _ in range(k)]
def image(pm, ts):
    rows = [list(pm.row1), list(pm.row2)]
    for t in ts:
        i, j, w = t.pair[0] - 1, t.pair[1] - 1, t.omega
        for row in rows:
            row[i], row[j] = w * row[i] + (1.0 - w) * row[j], (1.0 - w) * row[i] + w * row[j]
    return rows
def q_for(pm, ts, how):
    rows = image(pm, ts)
    if how == 1:
        rows = [[v + float(r.choice([-2e-10, -5e-11, 5e-11, 2e-10])) for v in row] for row in rows]
    return ParamMatrix2xN(*map(tuple, rows)) if how < 2 else matrix(pm.n)
def chain_args(tid, pm, q, ts, value):
    args = dict(p_mat=pm, q_mat=q, ts=ts, beta=value, alpha=value)
    return {k: v for k, v in args.items() if k in inspect.signature(CHECKERS[tid]).parameters}
def vector_args(tid, n):
    args = {}
    for name, kind in SCAN_LAYOUTS[tid]:
        sort = r.random() < 0.5  # weights ascending, shapes descending
        args[name] = (shared() if kind == "scalar" else
                      tuple(sorted(weights(n)) if sort else weights(n)) if kind == "weights" else
                      tuple(sorted(vec(n), reverse=True) if sort else vec(n)))
    return args
rows = []
def run(tid, case, args):
    try:
        report = CHECKERS[tid](**args)
    except DomainError as exc:
        rows.append(dict(id=tid, case=case, error=str(exc)))
        return
    rows.append(dict(id=tid, case=case, report=report.to_dict(),
                     orientation=report.orientation.to_dict()))
for tid in CHAIN_IDS:
    for index in range(120):
        n = int(r.integers(2, 5))
        k = (1 if tid == "T3.4" else int(r.integers(2, 4)) if tid == "T3.5"
             else int(r.integers(1, 4)))
        pm, ts = matrix(n), chain(n, k)
        run(tid, f"valid {index}", chain_args(tid, pm, q_for(pm, ts, index % 3), ts, shared()))
    for n in (2, 3):
        pm, ts, value = matrix(n), chain(n, 1 if tid == "T3.4" else 2), shared()
        q = q_for(pm, ts, 0)
        run(tid, f"empty chain, n={n}", chain_args(tid, pm, q, [], value))
        run(tid, f"pair out of range, n={n}", chain_args(
            tid, pm, pm, ts[:-1] + [TTransform(0.5, (1, n + 1))], value))
        if tid != "T3.6":
            run(tid, f"q of another width, n={n}", chain_args(tid, pm, matrix(n + 1), ts, value))
        for bad in BAD_SHARED:
            run(tid, f"shared {bad!r}, n={n}", chain_args(tid, pm, q, ts, bad))
for tid, layout in SCAN_LAYOUTS.items():
    for index in range(60):
        run(tid, f"valid {index}", vector_args(tid, int(r.integers(2, 5))))
    args = vector_args(tid, 3)
    scalar = [name for name, kind in layout if kind == "scalar"]
    for bad in BAD_SHARED if scalar else []:
        run(tid, f"shared {bad!r}", dict(args, **{scalar[0]: bad}))
    for name, kind in layout:
        if kind != "scalar":
            longer = args[name] + args[name][:1]
            run(tid, f"{name} of another length", dict(args, **{name: longer}))
            run(tid, f"{name} with a zero", dict(args, **{name: (0.0,) + args[name][1:]}))
json.dump(rows, sys.stdout, indent=1)
sys.stdout.write("\\n")
"""

# the kernel's own bytes on seeded edge cases: beta == 1 components, x = 0
# and 1e300, 70 components on 2000 points (18 blocks), a stack of 8
# two-component mixtures on 500 points, alpha * log1p(x) on both sides of
# log 2, beta = 400 and an underflowing alpha * x (-inf log-cdf columns, so
# the shift is clipped), shapes of 1e-300 and 1e300 (overflowing pdf
# constants and slopes), and a scalar x.  Only the private _evaluate and
# _survival are called, with the signatures they have had since the
# kernel took stacks
_KERNEL = """
import json, math, sys
import numpy as np
from ikmix import FiniteMixture, mixture
r = np.random.default_rng(2024)
def spread(n):
    w = r.uniform(0.05, 1.0, n)
    return FiniteMixture(tuple(w / w.sum()), tuple(10.0 ** r.uniform(-1.0, 1.5, n)),
                         tuple(10.0 ** r.uniform(-1.0, 1.5, n)))
ends = [0.0, 5e-324, 1e-300, 1e300]
wide = spread(70)
wide = FiniteMixture(wide.weights, wide.alphas, wide.betas[:60] + (1.0,) * 10)
a = np.array([0.5, 1.0, 3.0, 40.0])
log2_x = np.expm1(np.outer(math.log(2.0) / a, 1.0 + np.linspace(-1e-12, 1e-12, 25))).ravel()
stack = np.array([[(0.3, 0.7), tuple(10.0 ** r.uniform(-1, 1, 2)),
                   tuple(10.0 ** r.uniform(-1, 1, 2))] for _ in range(8)])
# one pair's sides as one two-row stack, as the order checks evaluate them:
# 2,000 points cut both rows into blocks of 4 components
pair = np.array([(m.weights, m.alphas, m.betas) for m in (spread(70), spread(70))])
cases = {
    "beta_one": (FiniteMixture((0.25,) * 4, (0.7, 2.0, 1.0, 5.0), (1.0, 0.5, 1.0, 2.5)),
                 np.concatenate([ends, np.geomspace(1e-6, 1e6, 300)])),
    "wide70": (wide, np.concatenate([ends, np.geomspace(1e-4, 1e4, 1996)])),
    "stack8": (stack, np.concatenate([ends, np.geomspace(1e-3, 1e3, 496)])),
    "pair70": (pair, np.concatenate([ends, np.geomspace(1e-4, 1e4, 1996)])),
    "log2_sides": (FiniteMixture((0.1, 0.2, 0.3, 0.4), tuple(a), (0.6, 1.0, 2.0, 7.0)),
                   np.concatenate([ends, np.sort(log2_x)])),
    "beta400": (FiniteMixture((0.5, 0.5), (1.0, 1.0), (400.0, 300.0)),
                np.concatenate([ends, np.geomspace(1e-12, 1e4, 200)])),
    "alpha_underflow": (FiniteMixture((0.6, 0.4), (1e-10, 2.0), (3.0, 0.4)),
                        np.array([0.0, 5e-324, 1e-320, 1e-300, 1e-12, 1.0, 1e300])),
    "extreme": (FiniteMixture((0.3, 0.3, 0.4), (1e300, 1e-300, 2.0), (1e10, 1e300, 1e-300)),
                np.array([0.0, 5e-324, 1e-300, 1e-12, 1.0, 1e12, 1e300])),
    "scalar": (FiniteMixture((0.4, 0.6), (1.5, 0.8), (1.0, 3.0)), 0.75),
    "scalar_zero": (FiniteMixture((0.4, 0.6), (1.5, 0.8), (0.5, 3.0)), 0.0),
}
def record(values):
    return [[list(np.shape(v)), np.asarray(v, dtype=np.float64).tobytes().hex()] for v in values]
out = {}
for name, (m, x) in cases.items():
    calls = {"cdf+pdf+rh+slope": record(mixture._evaluate(x, m, ("cdf", "pdf", "rh"), slope=True))}
    for single in ("cdf", "pdf", "rh"):
        calls[single] = record(mixture._evaluate(x, m, (single,)))
    calls["slope"] = record(mixture._evaluate(x, m, (), slope=True))
    calls["sf"] = record([mixture._survival(x, m)])
    out[name] = calls
json.dump(out, sys.stdout, indent=1)
sys.stdout.write("\\n")
"""


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("IKMIX_GRID", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args], env=env,
                          cwd=cwd, stdout=subprocess.PIPE, check=False)


def _record(outdir: Path, name: str, proc: subprocess.CompletedProcess) -> None:
    (outdir / f"{name}.stdout").write_bytes(proc.stdout)
    (outdir / f"{name}.exit").write_text(f"{proc.returncode}\n")


def write(outdir: Path) -> None:
    outdir = outdir.resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    _record(outdir, "reproduce_all", _run(["-c", _CLI, "reproduce", "--all"]))
    for config in sorted((ROOT / "scripts" / "scan_configs").glob("*.json")):
        report = outdir / f"scan_{config.stem}.report.json"
        _record(outdir, f"scan_{config.stem}",
                _run(["-c", _CLI, "scan", str(config), "--out", str(report)]))
    for name, script in (("verdicts", _VERDICTS), ("reports", _REPORTS),
                         ("checkers", _CHECKERS), ("kernel", _KERNEL)):
        proc = _run(["-c", script])
        (outdir / f"{name}.json").write_bytes(proc.stdout)
        (outdir / f"{name}.exit").write_text(f"{proc.returncode}\n")
    _record(outdir, "curves", _run(["-c", _CURVES, str(outdir / "curves")]))
    # run in DIR, so the printed paths are the same for every DIR
    _record(outdir, "dump_curves", _run([str(ROOT / "scripts" / "dump_curves.py"), "--outdir",
                                         "dump_curves"], cwd=outdir))


def compare(a: Path, b: Path) -> int:
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    problems = [f"only in {a}: {p}" for p in sorted(files_a - files_b)]
    problems += [f"only in {b}: {p}" for p in sorted(files_b - files_a)]
    problems += [f"differs: {p}" for p in sorted(files_a & files_b)
                 if (a / p).read_bytes() != (b / p).read_bytes()]
    for line in problems:
        print(line)
    print(f"{len(files_a & files_b)} common files, {len(problems)} differences")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dirs", nargs="+", type=Path, metavar="DIR")
    parser.add_argument("--compare", action="store_true",
                        help="compare two directories written by this script")
    args = parser.parse_args(argv)
    if args.compare:
        if len(args.dirs) != 2:
            parser.error("--compare takes two directories")
        return compare(*args.dirs)
    if len(args.dirs) != 1:
        parser.error("give one output directory")
    write(args.dirs[0])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
