"""Command-line front end.

Subcommands: eval, order, reproduce, curve, scan.  Exit codes follow a
fixed protocol so shell scripts can gate on them:

    0  success / order holds / all fixtures pass
    1  domain error (bad parameter values, unreadable input data)
    2  usage error (unknown flags, missing arguments)
    3  order violated
    4  order check inconclusive
    5  scan found at least one soundness alarm

A grid can be given per command as ``--grid xmin:xmax:points:spacing``
(spacing ``log`` or ``lin``).  When the flag is absent the environment
variable ``IKMIX_GRID`` is consulted, with the built-in default grid as
the final fallback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .ikdist import DomainError, IKParams, ik_cdf, ik_pdf, ik_quantile, ik_reversed_hazard, ik_sf
from .fixtures import FixtureCatalog
from .mixture import (
    EVALUATORS,
    FiniteMixture,
    mixture_quantile,
    mixture_sf,
)
from .ordercheck import (DEFAULT_GRID, ORDER_KINDS, Curve, Grid, _sf_difference, check_order,
                         difference_curve, write_curve_csv)
from .scan import ScanConfig, run_scan

__all__ = ["main"]

_GRID_ENV = "IKMIX_GRID"

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_VIOLATED = 3
EXIT_INCONCLUSIVE = 4
EXIT_ALARM = 5

# accepted spellings of the library's order and curve kind names
_ALIASES = {"r-rh": "r_rh", "cdfratio": "cdf_ratio", "pdfratio": "pdf_ratio",
            "rhratio": "rh_ratio"}


def _resolve_grid(spec: str | None) -> Grid:
    if spec:
        return Grid.from_spec(spec)
    env = os.environ.get(_GRID_ENV)
    if env:
        return Grid.from_spec(env)
    return DEFAULT_GRID


def _load_mixture(path: str) -> FiniteMixture:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read mixture file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"mixture file {path!r} is not valid JSON: {exc}") from exc
    return FiniteMixture.from_dict(obj)


def _print_value(v: float) -> None:
    print(format(float(v), ".17g"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_eval(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    dist_mode = args.alpha is not None or args.beta is not None
    if args.mixture is not None and dist_mode:
        parser.error("give either --mixture FILE or --alpha/--beta, not both")
    if args.mixture is None and not dist_mode:
        parser.error("eval needs either --mixture FILE or --dist ik with --alpha/--beta")
    if args.fn == "sfdiff" and dist_mode:
        parser.error("--fn sfdiff needs --mixture/--against, not --dist")
    if args.fn == "sfdiff" and args.against is None:
        parser.error("--fn sfdiff needs --against FILE")
    if args.fn != "sfdiff" and args.against is not None:
        parser.error("--against only applies to --fn sfdiff")

    if args.mixture is not None:
        m = _load_mixture(args.mixture)
        if args.fn == "sfdiff":
            _print_value(_sf_difference(m, _load_mixture(args.against), args.x))
            return EXIT_OK
        fn = mixture_quantile if args.fn == "quantile" else EVALUATORS[args.fn]
        _print_value(fn(args.x, m))
        return EXIT_OK

    if args.alpha is None or args.beta is None:
        parser.error("--dist ik needs both --alpha and --beta")
    params = IKParams(args.alpha, args.beta)
    fn = {"cdf": ik_cdf, "pdf": ik_pdf, "sf": ik_sf,
          "rh": ik_reversed_hazard, "quantile": ik_quantile}[args.fn]
    # for quantile the --x argument is the probability level
    _print_value(fn(args.x, params))
    return EXIT_OK


def _cmd_order(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    kind = _ALIASES.get(args.kind, args.kind)
    m1 = _load_mixture(args.m1)
    m2 = _load_mixture(args.m2)
    verdict = check_order(kind, m1, m2, _resolve_grid(args.grid))
    print(json.dumps(verdict.to_dict(), indent=2))
    return {"holds_on_grid": EXIT_OK, "violated": EXIT_VIOLATED,
            "inconclusive": EXIT_INCONCLUSIVE}[verdict.status]


def _cmd_reproduce(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.all == (args.id is not None):
        parser.error("give exactly one of a fixture id or --all")
    catalog = FixtureCatalog()
    grid = _resolve_grid(args.grid)
    ids = catalog.ids() if args.all else [args.id]
    results = [catalog.run(fid, grid) for fid in ids]
    width = max(len(fid) for fid in ids)
    for res in results:
        print(f"{res.fixture_id:<{width}}  {'PASS' if res.passed else 'FAIL'}")
        for chk in res.failures():
            print(f"{'':<{width}}    {chk.label}: {chk.detail}")
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} passed")
    return EXIT_OK if passed == len(results) else EXIT_DOMAIN


def _cmd_curve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    grid = _resolve_grid(args.grid)
    m1 = _load_mixture(args.m1)
    if args.which == "sf":
        if args.m2 is not None:
            parser.error("--which sf tabulates a single mixture; drop --m2 "
                         "or use sfdiff")
        xs = grid.xs()
        curve = Curve(xs, mixture_sf(xs, m1), np.ones(xs.size, bool))
    else:
        if args.m2 is None:
            parser.error(f"--which {args.which} needs --m2 FILE")
        m2 = _load_mixture(args.m2)
        which = "sf" if args.which == "sfdiff" else _ALIASES.get(args.which, args.which)
        curve = difference_curve(m1, m2, grid, which)
    write_curve_csv(curve, args.out)
    print(f"wrote {len(curve.x)} rows to {args.out}")
    return EXIT_OK


def _cmd_scan(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    config = ScanConfig.from_file(args.config)
    report = run_scan(config)
    payload = json.dumps(report.to_dict(), indent=2)
    print(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    return EXIT_ALARM if report.alarm_count else EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ikmix",
        description="Evaluate inverted-Kumaraswamy mixtures, check stochastic "
                    "orders, replay the fixture catalog, and scan for "
                    "counterexamples.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a distribution or mixture function")
    p_eval.add_argument("--dist", default="ik", choices=["ik"])
    p_eval.add_argument("--alpha", type=float)
    p_eval.add_argument("--beta", type=float)
    p_eval.add_argument("--mixture", metavar="FILE")
    p_eval.add_argument("--against", metavar="FILE",
                        help="second mixture for --fn sfdiff (value minus this one)")
    p_eval.add_argument("--x", type=float, required=True,
                        help="evaluation point; for --fn quantile this is the "
                             "probability level in (0,1)")
    p_eval.add_argument("--fn", required=True,
                        choices=["cdf", "pdf", "sf", "rh", "quantile", "sfdiff"])
    p_eval.set_defaults(func=_cmd_eval)

    p_order = sub.add_parser("order", help="check a stochastic order between two mixtures")
    p_order.add_argument("--kind", required=True, choices=[*ORDER_KINDS, "r-rh"])
    p_order.add_argument("--m1", required=True, metavar="FILE")
    p_order.add_argument("--m2", required=True, metavar="FILE")
    p_order.add_argument("--grid", metavar="SPEC")
    p_order.set_defaults(func=_cmd_order)

    p_rep = sub.add_parser("reproduce", help="replay catalog fixtures and print PASS/FAIL")
    p_rep.add_argument("id", nargs="?", help="fixture id, e.g. ex3.1 or ce3.2")
    p_rep.add_argument("--all", action="store_true")
    p_rep.add_argument("--grid", metavar="SPEC")
    p_rep.set_defaults(func=_cmd_reproduce)

    p_curve = sub.add_parser("curve", help="write a comparison curve as CSV")
    p_curve.add_argument("--which", required=True,
                         choices=["sf", "sfdiff", "cdf_ratio", "pdf_ratio", "rh_ratio",
                                  "cdfratio", "pdfratio", "rhratio"])
    p_curve.add_argument("--m1", required=True, metavar="FILE")
    p_curve.add_argument("--m2", metavar="FILE")
    p_curve.add_argument("--out", required=True, metavar="FILE")
    p_curve.add_argument("--grid", metavar="SPEC")
    p_curve.set_defaults(func=_cmd_curve)

    p_scan = sub.add_parser("scan", help="sample a parameter region and report findings")
    p_scan.add_argument("config", metavar="CONFIG.json")
    p_scan.add_argument("--out", metavar="FILE")
    p_scan.set_defaults(func=_cmd_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
