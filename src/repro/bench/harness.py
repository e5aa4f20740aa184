"""Measurement harness reproducing the paper's methodology (§4):

"The performance of the MPI collective operations is measured as the
longest completion time of the collective operation among all processes.
For each message size, 20 to 30 different experiments were run.  The
graphs show the measured time for all experiments with a line through
the median of the times."

So, per (implementation, topology, nprocs, size): run ``reps``
iterations; per iteration every rank records its own duration; the
iteration's latency is the **max over ranks**; the series reports all
samples plus the median.  A small per-iteration compute phase staggers
entries (real SPMD ranks never enter a collective in lockstep), which —
on the hub — is what makes CSMA/CD collisions and their variance appear,
exactly as in the paper's scatter plots.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Optional

from ..runtime import run_spmd
from ..runtime.skew import compute_phase
from ..simnet.calibration import NetParams

__all__ = ["Sample", "Series", "measure_bcast", "measure_barrier"]

#: mean µs of the pseudo-compute phase between iterations
DEFAULT_THINK_US = 60.0


@dataclass
class Sample:
    size: int
    iteration: int
    latency_us: float


@dataclass
class Series:
    """All samples of one implementation across a sweep."""

    label: str
    impl: str
    topology: str
    nprocs: int
    samples: list[Sample] = field(default_factory=list)

    def latencies(self, size: int) -> list[float]:
        return [s.latency_us for s in self.samples if s.size == size]

    def median(self, size: int) -> float:
        lats = self.latencies(size)
        if not lats:
            raise KeyError(f"no samples for size {size} in {self.label}")
        return statistics.median(lats)

    def spread(self, size: int) -> tuple[float, float]:
        lats = self.latencies(size)
        return (min(lats), max(lats))

    @property
    def sizes(self) -> list[int]:
        return sorted({s.size for s in self.samples})

    def medians(self) -> dict[int, float]:
        return {size: self.median(size) for size in self.sizes}


#: per-iteration measurement window (µs) — generously above the largest
#: collective latency on any platform in the sweeps, so iterations never
#: bleed into each other
WINDOW_US = 20_000.0


def _window_sync(env, base: float, index: int,
                 window_us: float = WINDOW_US) -> float:
    """Align all ranks on iteration ``index``'s window start."""
    target = base + index * window_us
    now = env.now
    if target > now:
        return target - now
    return 0.0


def _agree_base(env):
    """Broadcast a common window origin from rank 0 (untimed, p2p)."""
    from ..mpi.collective.bcast_p2p import bcast_binomial

    base = env.now + 10_000.0 if env.rank == 0 else None
    base = yield from bcast_binomial(env.comm, base, 0)
    return base


def _timed_loop(call, sizes, reps, think_us, setup=None,
                window_us=WINDOW_US):
    """SPMD body: the windowed timed loop, per-rank durations into
    records.  ``call(env, size)`` is the generator under the stopwatch
    (one collective); it is the only thing that differs between the
    broadcast and barrier sweeps.

    ``setup(env)`` runs once per rank before the loop — benchmarks use it
    to install fault-injection filters (e.g. induced multicast loss for
    the segmented-broadcast sweep).  ``window_us`` overrides the
    per-iteration measurement window for workloads whose collectives
    (e.g. ``mcast-ack`` at many-segment sizes under loss) outlast the
    default.

    Iterations are separated by **measurement windows**: every rank idles
    until a common absolute start tick (the window-mode technique of
    standard MPI benchmarks, equivalent to clock-synchronized starts),
    then burns a small jittered think time, then runs the timed
    collective.  Without this, two artifacts corrupt the comparison: the
    eager-protocol root pipelines broadcasts ahead of its receivers, and
    barrier-exit stagger (itself one p2p message wide) leaks into the
    timed region and penalizes whichever algorithm finishes unevenly.
    """

    def main(env):
        if setup is not None:
            setup(env)
        base = yield from _agree_base(env)
        k = 0
        for size in sizes:
            for it in range(reps):
                delay = _window_sync(env, base, k, window_us)
                k += 1
                if delay > 0:
                    yield env.sim.timeout(delay)
                # staggered entry, like real compute between collectives
                yield from compute_phase(env, think_us)
                t0 = env.now
                yield from call(env, size)
                env.log("durations", (size, it, env.now - t0))

    return main


def _bcast(env, size):
    comm = env.comm
    obj = yield from comm.bcast(bytes(size) if comm.rank == 0 else None,
                                root=0)
    if len(obj) != size:  # pragma: no cover - correctness net
        raise AssertionError("bcast corrupted payload")


def _barrier(env, _size):
    yield from env.comm.barrier()


def _collect(result, label, impl, topology, nprocs) -> Series:
    """Fold per-rank duration records into max-over-ranks samples."""
    series = Series(label=label, impl=impl, topology=topology,
                    nprocs=nprocs)
    per_iter: dict[tuple[int, int], float] = {}
    for rank_records in result.record_series("durations"):
        for size, it, duration in rank_records:
            key = (size, it)
            per_iter[key] = max(per_iter.get(key, 0.0), duration)
    for (size, it), latency in sorted(per_iter.items()):
        series.samples.append(Sample(size=size, iteration=it,
                                     latency_us=latency))
    return series


def _measure(op, call, impl, topology, nprocs, sizes, reps, seed, params,
             think_us, label, setup=None, window_us=WINDOW_US) -> Series:
    result = run_spmd(nprocs,
                      _timed_loop(call, sizes, reps, think_us, setup=setup,
                                  window_us=window_us),
                      topology=topology, params=params, seed=seed,
                      collectives={op: impl})
    return _collect(result, label or f"{impl}/{topology}/{nprocs}p",
                    impl, topology, nprocs)


def measure_bcast(impl: str, topology: str, nprocs: int,
                  sizes: list[int], reps: int = 25, seed: int = 0,
                  params: Optional[NetParams] = None,
                  think_us: float = DEFAULT_THINK_US,
                  label: Optional[str] = None,
                  setup=None,
                  window_us: float = WINDOW_US) -> Series:
    """Latency sweep of one broadcast implementation.

    ``impl`` is a registry name ("p2p-binomial", "mcast-binary", ...).
    ``setup(env)`` runs per rank before the timed loop (fault injection);
    ``window_us`` widens the measurement window for slow collectives.
    """
    return _measure("bcast", _bcast, impl, topology, nprocs, sizes, reps,
                    seed, params, think_us, label, setup, window_us)


def measure_barrier(impl: str, topology: str, nprocs: int,
                    reps: int = 25, seed: int = 0,
                    params: Optional[NetParams] = None,
                    think_us: float = DEFAULT_THINK_US,
                    label: Optional[str] = None) -> Series:
    """Latency samples of one barrier implementation (size axis = {0})."""
    return _measure("barrier", _barrier, impl, topology, nprocs, [0], reps,
                    seed, params, think_us, label)
