#!/usr/bin/env python3
"""Write the comparison curve behind every catalog fixture as CSV.

For each fixture the curve kind follows the predicted order: survival
difference for st, cdf ratio for rh, pdf ratio for lr, reversed-hazard
ratio for r_rh.  One file per fixture lands in the output directory,
named <id>_<kind>.csv, ready for plotting.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from ikmix import (
    CURVE_FOR_KIND,
    DEFAULT_GRID,
    FixtureCatalog,
    Grid,
    difference_curve,
    write_curve_csv,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="curves", metavar="DIR")
    parser.add_argument("--grid", metavar="SPEC",
                        help="xmin:xmax:points:spacing, default built-in grid")
    args = parser.parse_args(argv)

    grid = Grid.from_spec(args.grid) if args.grid else DEFAULT_GRID
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    catalog = FixtureCatalog()
    for fid in catalog.ids():
        report = catalog.checker_report(fid)
        po = report.orientation
        curve_kind = CURVE_FOR_KIND[po.kind]
        curve = difference_curve(po.lhs, po.rhs, grid, curve_kind)
        path = outdir / f"{fid.replace('.', '_')}_{curve_kind}.csv"
        write_curve_csv(curve, path)
        undefined = int(np.count_nonzero(~curve.defined))
        note = f", {undefined} undefined points" if undefined else ""
        print(f"{fid:<6} {po.kind:<4} -> {path} ({len(curve.x)} rows{note})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
