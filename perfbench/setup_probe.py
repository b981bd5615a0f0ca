"""Time one workload's set-up in this fresh interpreter and print it as JSON.

Set-up is `import ikmix` plus building the program objects the workload's
ops use.  The inputs are drawn first, with the standard library only, so
the benchmark's own random draws stay out of the figure and the import of
numpy stays in it.  A FixtureCatalog load is timed on its own afterwards,
and then the reference probe (speedref.py), so that the set-up time can
be scaled to the reference speed like the op latencies.

    python3 perfbench/setup_probe.py --workload catalog --seed 1
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (standard library only)

PROBES = 9  # reference probes timed after set-up; their median scales it


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    if "numpy" in sys.modules or "ikmix" in sys.modules:
        raise SystemExit("set-up probe imported numpy or ikmix before timing")

    inputs = workloads.generate(args.workload, args.seed)
    t0 = time.perf_counter()
    import ikmix
    t1 = time.perf_counter()
    workloads.setup(args.workload, inputs)
    t2 = time.perf_counter()
    ikmix.FixtureCatalog()
    t3 = time.perf_counter()
    import speedref
    speedref.probe()
    probe_s = statistics.median(speedref.probe() for _ in range(PROBES))
    print(json.dumps({"setup_s": t2 - t0, "import_ms": 1000.0 * (t1 - t0),
                      "load_ms": 1000.0 * (t3 - t2), "probe_s": probe_s}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
