"""A fixed reference computation that gauges the machine's current speed.

The virtual machines this benchmark runs on change speed by 1.5x to 2x
from one second to the next, for reasons outside the benchmark process:
a raw op latency then says as much about the machine's state as about
the program.  So the benchmark runs `probe()` right after every op, and
reports each op's latency scaled by how long the probes next to it took:

    normalised latency = raw latency * REFERENCE_S / probe time

where the probe time is the median of the probes of the op and of its
NEIGHBOURS ops on either side.  A normalised figure reads as the op's
latency on a machine on which the probe takes REFERENCE_S.  The probe
shares no code with ikmix, so any change in the program moves the
normalised figures in full; only the machine's speed cancels.

The probe is a pure-Python loop of scalar inverted-Kumaraswamy
arithmetic through the math module.  Probes of numpy work on 1000-point
and 40-point arrays and of numpy scalar calls were tried beside it, run
in turn with ops of every workload for four minutes: the pure-Python one
tracked the ops' drift best, leaving 2% to 6% between 30 s windows where
raw latencies moved 17% to 22%.
"""

from __future__ import annotations

import math
import statistics
import time


# Probe time the normalised figures are scaled to: about the median probe
# time on the 2-vCPU virtual machine the bounds were set on, so that the
# normalised figures there read close to the raw ones.
REFERENCE_S = 0.0012
# ops on either side whose probes count towards an op's probe time.  One
# probe is noisy; with two ops on either side the catalog's normalised
# 90th percentile moved by 12% between 20 s windows of one loop, with
# four by 4%, and the scans' figures moved alike with either.
NEIGHBOURS = 4

_STEPS = 1800


def _work() -> float:
    total = 0.0
    for k in range(1, _STEPS):
        a, b = 0.5 + 0.4 * (k % 7), 0.4 + 0.6 * (k % 5)
        log_u = math.log(-math.expm1(-a * math.log1p(k / 150.0)))
        total += math.exp(b * log_u) + math.expm1(b * log_u)
    return total


def probe() -> float:
    """Seconds the reference computation took just now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def normalise(latencies: list[float], probes: list[float]) -> list[float]:
    """Each latency scaled to the reference speed by the median probe time
    of its op and the NEIGHBOURS ops on either side."""
    out = []
    for i, lat in enumerate(latencies):
        near = probes[max(0, i - NEIGHBOURS):i + NEIGHBOURS + 1]
        out.append(lat * REFERENCE_S / statistics.median(near))
    return out
