"""Host-speed gauge: a fixed pure-Python loop timed around each measurement.

The benchmark's host shares its cores with other tenants, and its speed
drifts in phases of seconds to minutes.  Each timed region is bracketed by
two runs of the gauge; the faster one gives the host's speed around it, as
REF_S over the gauge's time, and a time at the reference speed is the wall
time multiplied by that speed.  See README.md.
"""

import time

LOOP = 150_000  # iterations, about 10 ms on an idle host
# The gauge's time on an idle host: its fastest runs (1st percentile, about
# 1,100 samples) on a 2-vCPU x86-64 VM with Python 3.11.7.
REF_S = 0.0100


def gauge() -> float:
    """Seconds the fixed loop takes right now."""
    t0 = time.perf_counter()
    s = 0
    for k in range(LOOP):
        s += k * k % 7
    return time.perf_counter() - t0


def speed(before: float, after: float) -> float:
    """Host speed relative to the reference, from the gauges around a timed region."""
    return REF_S / min(before, after)
