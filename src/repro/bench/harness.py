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

This is the one measured-run layer of :mod:`repro.bench`:
:func:`op_body` is the one collective call (result asserted on every
rank) that both the timed loop and the sweep areas' single-shot runs
execute, and :func:`measure` is the one latency protocol: every sweep
area's latency sweep (``paper-figures``' curves and barriers, the
``latency`` family of each extension area) runs through it.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..mpi.ops import SUM
from ..runtime import run_spmd
from ..runtime.skew import compute_phase
from ..simnet.calibration import NetParams

__all__ = ["Sample", "Series", "measure", "op_body"]

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
#: collective latency on any platform in the paper's sweeps; an iteration
#: that outlasts its window fails the run (:func:`_timed_loop`)
WINDOW_US = 20_000.0


def op_body(op: str, size: int, root: int = 0):
    """``body(env)``: one ``op`` call over a ``size``-byte payload, its
    result asserted on every rank.

    ``bcast`` ships ``size`` bytes from ``root``; ``scatter`` / ``gather``
    / ``allgather`` move an equal ``size // n`` share per rank, each its
    own object filled with its rank's byte (``rank % 256``), so a share
    delivered to the wrong rank fails the check and the root's list
    pickles as ``n`` shares, not one; ``reduce`` / ``allreduce`` SUM
    float64 vectors of ``size`` bytes (at least one element) holding
    ``rank + 1``, so the result is ``n (n + 1) / 2`` everywhere it
    lands; ``barrier`` ignores ``size``.  ``root`` roots ``bcast`` /
    ``reduce`` / ``scatter`` / ``gather``."""

    def body(env):
        comm, n = env.comm, env.comm.size
        shares = [bytes([rank % 256]) * (size // n) for rank in range(n)]
        share = shares[comm.rank]
        if op == "bcast":
            out = yield from comm.bcast(
                bytes(size) if comm.rank == root else None, root)
            assert out == bytes(size), f"rank {comm.rank}: bcast payload"
        elif op in ("reduce", "allreduce"):
            arr = np.full(max(1, size // 8), float(comm.rank + 1),
                          dtype=np.float64)
            if op == "reduce":
                out = yield from comm.reduce(arr, SUM, root)
            else:
                out = yield from comm.allreduce(arr, SUM)
            if op == "allreduce" or comm.rank == root:
                assert np.all(out == n * (n + 1) / 2), \
                    f"rank {comm.rank}: {op} sum"
        elif op == "scatter":
            out = yield from comm.scatter(
                shares if comm.rank == root else None, root)
            assert out == share, f"rank {comm.rank}: scatter share"
        elif op == "gather":
            out = yield from comm.gather(share, root)
            assert out == (shares if comm.rank == root else None), \
                f"rank {comm.rank}: gather result"
        elif op == "allgather":
            out = yield from comm.allgather(share)
            assert out == shares, f"rank {comm.rank}: allgather result"
        elif op == "barrier":
            yield from comm.barrier()
        else:
            raise KeyError(op)

    return body


def _agree_base(env):
    """Broadcast a common window origin from rank 0 (untimed, p2p)."""
    from ..mpi.collective.tree_p2p import bcast_binomial

    base = env.now + 10_000.0 if env.rank == 0 else None
    base = yield from bcast_binomial(env.comm, base, 0)
    return base


def _timed_loop(op, sizes, reps, think_us, setup, window_us):
    """SPMD body: the windowed timed loop, per-rank durations into
    records; the stopwatch covers one :func:`op_body` call.

    ``setup(env)`` runs once per rank before the loop — benchmarks use it
    to install fault-injection filters (e.g. induced multicast loss).

    Iterations are separated by **measurement windows**: every rank idles
    until a common absolute start tick (the window-mode technique of
    standard MPI benchmarks, equivalent to clock-synchronized starts),
    then burns a small jittered think time, then runs the timed
    collective.  Without this, two artifacts corrupt the comparison: the
    eager-protocol root pipelines broadcasts ahead of its receivers, and
    barrier-exit stagger (itself one p2p message wide) leaks into the
    timed region and penalizes whichever algorithm finishes unevenly.
    An iteration still running when the next window opens would hand
    that window a late, unsynchronised start, so it fails the run
    instead: widen ``window_us``.
    """

    def main(env):
        if setup is not None:
            setup(env)
        base = yield from _agree_base(env)
        k = 0
        for size in sizes:
            body = op_body(op, size)
            for it in range(reps):
                delay = base + k * window_us - env.now
                if delay > 0:
                    yield env.sim.timeout(delay)
                # staggered entry, like real compute between collectives
                yield from compute_phase(env, think_us)
                t0 = env.now
                yield from body(env)
                k += 1
                if env.now > base + k * window_us:
                    raise AssertionError(
                        f"rank {env.rank}: iteration {k - 1} overran its "
                        f"{window_us:.0f} us window")
                env.log("durations", (size, it, env.now - t0))

    return main


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


def measure(op: str, impl: str, topology: str, nprocs: int,
            sizes: list[int], reps: int = 25, seed: int = 0,
            params: Optional[NetParams] = None,
            think_us: float = DEFAULT_THINK_US,
            label: Optional[str] = None,
            setup=None,
            window_us: float = WINDOW_US) -> Series:
    """Latency sweep of one implementation of one collective.

    ``op`` is any :func:`op_body` op, ``impl`` its registry name
    ("p2p-binomial", "mcast-binary", "auto", ...); a barrier sweeps
    ``sizes=[0]``.  ``setup(env)`` runs per rank before the timed loop
    (fault injection); ``window_us`` widens the measurement window for
    slow collectives.
    """
    result = run_spmd(nprocs,
                      _timed_loop(op, sizes, reps, think_us, setup,
                                  window_us),
                      topology=topology, params=params, seed=seed,
                      collectives={op: impl})
    return _collect(result, label or f"{impl}/{topology}/{nprocs}p",
                    impl, topology, nprocs)
