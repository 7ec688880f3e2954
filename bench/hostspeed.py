"""Host speed reference: a fixed pure-Python loop that does not touch alcove_cells.

The benchmark runs on shared hosts whose speed for the same fixed work
drifts by up to 1.8x, flipping between a fast and a slow state within
seconds and staying in one for up to minutes, as other tenants come and go.
While a pass times its items, an interval timer runs this loop every
SAMPLE_EVERY_S, also in the middle of an item, and the sample's own time is
taken out of the item's latency.  Each item latency t is then also reported
scaled to NOMINAL_MS, the loop's time in the host's fast state: t times the
mean of (NOMINAL_MS / r) ** EXPONENT over the samples r from the last one
before the item to the first one after it.  A change to alcove_cells moves t
and not r, so it shows in full; a slow period of the host moves both, and
mostly cancels.

The loop does integer arithmetic and allocates no objects
that the garbage collector tracks, so its time does not depend on the heap
the workload has built up.  Of the kernels tried (this loop, dict lookups
over a 40,000-key table, method calls on preallocated objects, Fraction
arithmetic), it tracked the workloads' own slowdowns most closely.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REF_LOOP = 12_500
# The loop's time in the fast state of a 2-vCPU Intel Xeon (2.0 GHz) VM
# under Python 3.11; it sets the scale of the scaled times, not their spread.
NOMINAL_MS = 0.9
# About 1 ms of every 50 ms goes to the samples: a long item gets tens of
# them, so the share of its time spent in each host state is well estimated.
SAMPLE_EVERY_S = 0.05
# In a slow period the workloads slow down more than the loop.  Across the
# runs of a 10-run set on that VM, log time against log median sample had
# slopes of 1.1 (certificate), 1.2 (verify) and 1.4 (atlas); with 1.0 the
# verify runs made in the slow state read 15% slower than the others.
EXPONENT = 1.2


def reference_ms() -> float:
    """One sample: the wall time of the fixed loop, in ms."""
    start = perf_counter()
    acc = 0
    for k in range(REF_LOOP):
        acc += k * k % 7
    return (perf_counter() - start) * 1e3


def scale(samples_ms: list[float]) -> float:
    """Mean of (NOMINAL_MS / r) ** EXPONENT over the samples r taken around a time."""
    return statistics.fmean((NOMINAL_MS / r) ** EXPONENT for r in samples_ms)
