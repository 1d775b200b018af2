"""Host speed: a fixed reference loop, timed on the cores an operation uses.

On a shared host the same work does not take the same time. On the 2-core
reference host the loop below took either about 11 ms or about 20 ms, and
the host switched between the two states every few seconds. Identical
50 000-iteration chains took 0.6 s to 1.1 s, and raw medians of 20-second
runs spread by 25-50% between runs. That is wider than any useful
regression bound.

So each operation is bracketed by two runs of this loop on its cores, and
its time is also reported at a nominal host speed: the measured seconds
times NOMINAL_S over the mean of the two loop times. On that host a derive
took 0.085 s next to 11 ms loops and 0.155 s next to 21 ms loops. Scaled,
the two agree within a few percent. Over two sets of ten 30-second runs per
workload, the quartile spread of the per-run medians was 6-41% raw and
4-18% scaled. The loop is the benchmark's own code, interpreter arithmetic
around 23-element numpy calls like lspfit's hot path, so a change to lspfit
cannot move it.
"""

from __future__ import annotations

import gc
import math
import os
import time

import numpy as np

# Reported times are those of a host on which the loop takes NOMINAL_S.
NOMINAL_S = 0.020
_X = np.linspace(0.0, 1.0, 23)


def reference_loop(n: int = 6000) -> float:
    acc = 0.0
    for i in range(n):
        acc += float(np.exp(_X * (-1e-3 * i)) @ _X) + math.log1p(i)
    return acc


def probe(cpus) -> float:
    """Mean seconds of the reference loop on each of ``cpus``, pinned in turn.

    The cyclic garbage collector is off meanwhile, so a collection of the
    operation's garbage is not timed as host speed.
    """
    total = 0.0
    gc.disable()
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            reference_loop()
            total += time.perf_counter() - t0
    finally:
        gc.enable()
    return total / len(cpus)


def scale(before: float, after: float) -> float:
    """Factor from measured seconds to seconds at the nominal host speed."""
    return NOMINAL_S / (0.5 * (before + after))
