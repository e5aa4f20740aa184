"""A calibration spin: the benchmark's yardstick for host speed.

The sandbox this benchmark has to run in changes speed by a quarter or
more for seconds at a time with the process's CPU time tracking its wall
time (so it is the host, not contention inside the guest): ten
back-to-back runs of one commit spread 11-25 % on any statistic of raw
wall time, medians included.  The drift is multiplicative and hits all
interpreter work alike, so every host-time sample is taken between two
runs of :func:`spin` — a fixed slice of interpreter work shaped like the
simulator's (heap and deque traffic, small-object attribute access,
generator resumption) — and reported at the speed of a reference host
on which the spin takes :data:`SPIN_REF_S`.  Block medians of a 64-rank
broadcast spread 7-16 % raw and 2.4-3.8 % after this normalisation, with
a log-log slope of 0.96 between the two clocks.

The spin is part of the benchmark: changing it changes every host
number, so it changes only together with a re-measured baseline.
"""

from __future__ import annotations

import gc
import heapq
import time
from collections import deque

#: spin duration on the reference host (this sandbox at its median
#: speed); host times are reported as ``wall * SPIN_REF_S / spin``
SPIN_REF_S = 0.0042

#: timed steps, after an untimed lead-in that refills the caches the
#: measured program has just emptied
_SPIN_STEPS = 5000
_LEAD_IN = 1000
#: live heap/queue entries: small enough to stay cache-resident
_LIVE = 64


class _Rec:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _ticker():
    n = 0
    while True:
        n += 1
        yield n


def spin() -> float:
    """Run the calibration slice; returns its wall seconds.

    The collector is held off meanwhile: the slice allocates, and a
    collection it triggered would charge the yardstick for the size of
    the measured program's heap (3.9 ms against 2.3 ms on an empty heap
    with the collector on; 2.25 ms on any heap with it off).
    """
    collecting = gc.isenabled()
    gc.disable()
    heap: list = []
    queue: deque = deque()
    ticks = _ticker()
    push, pop = heapq.heappush, heapq.heappop
    acc = 0
    t0 = 0.0
    for i in range(-_LEAD_IN, _SPIN_STEPS):
        if i == 0:
            t0 = time.perf_counter()
        rec = _Rec(i, acc)
        push(heap, ((i * 7919) % 1009, i, rec))
        queue.append(rec)
        if len(heap) > _LIVE:
            acc += pop(heap)[2].a + queue.popleft().b + next(ticks)
    elapsed = time.perf_counter() - t0
    if collecting:
        gc.enable()
    return elapsed


def at_reference_speed(wall_s: float, spin_s: float) -> float:
    """``wall_s`` as the reference host would have taken it, given the
    spin took ``spin_s`` around the same time (0 = not calibrated)."""
    return wall_s * SPIN_REF_S / spin_s if spin_s else wall_s
