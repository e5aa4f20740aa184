"""One pass: cold ``run_spmd`` per leg, measured from outside.

Everything that touches ``repro`` lives here, on its public surface
only: ``run_spmd`` (with ``on_cluster`` to reach the cluster),
``NetParams``, ``FlightRecorder.attach``, ``NetStats.snapshot()/diff()``,
``Simulator.processed/peak_live`` and ``Communicator.impl_log``; stdlib
``cProfile`` and ``gc.callbacks`` do the rest.  A pass spec is a plain
dict (see :func:`run_pass`) and so is its result, so a pass can run in a
fresh subprocess (``child.py``) or in-process (the smoke test).
"""

from __future__ import annotations

import cProfile
import gc
import resource
import time
from dataclasses import replace

from repro import run_spmd
from repro.core.rounds import McastLost
from repro.mpi.ops import SUM
from repro.obs import FlightRecorder
from repro.runtime import compute_phase
from repro.simnet import (FAST_ETHERNET_HUB, FAST_ETHERNET_SWITCH,
                          DeadlockError, PartitionError)

import hostclock
import layers
import workloads

#: failures a collective may legitimately end in; each one fails the
#: pass's remaining ops instead of crashing the runner
TYPED_ERRORS = (McastLost, DeadlockError, PartitionError)

#: sim-time ceiling of one non-windowed leg: a hang past it is cut off
#: and its unfinished ops count as failed
MAX_SIM_US = 120e6


def net_params(workload, topology):
    """The paper's calibrated platform, software-overhead jitter
    included: every seed is a different (reproducible) timing history."""
    base = FAST_ETHERNET_HUB if topology == "hub" else FAST_ETHERNET_SWITCH
    return replace(base, segment_bytes="auto", loss=workload.loss)


def _invoke(comm, call, arg):
    op = call.op
    if op == "bcast":
        return comm.bcast(arg, 0)
    if op == "barrier":
        return comm.barrier()
    if op == "reduce":
        return comm.reduce(arg, SUM, 0)
    if op == "allreduce":
        return comm.allreduce(arg, SUM)
    if op == "gather":
        return comm.gather(arg, 0)
    if op == "scatter":
        return comm.scatter(arg, 0)
    return comm.allgather(arg)


class _Probe:
    """Counters, GC timer and profiler switched on for exactly the
    measured cycles of each leg, accumulated over the pass."""

    def __init__(self, profile: bool, gc_timer: bool):
        self.profiler = cProfile.Profile() if profile else None
        self.gc_timer = gc_timer
        self.gc_s = 0.0
        self.gc_collections = 0
        self.cpu_s = 0.0    # process CPU and ...
        self.wall_s = 0.0   # ... wall time with the probe on (spins too)
        self.recorded = 0
        self.stats: dict = {}
        self._gc_t0 = 0.0
        self._open = None

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_t0
            self.gc_collections += 1

    def start(self, cluster):
        rec = cluster.stats.recorder
        self._open = (cluster, cluster.stats.snapshot(),
                      len(rec.events) if rec is not None else 0,
                      time.process_time(), time.perf_counter())
        if self.gc_timer:
            gc.callbacks.append(self._on_gc)
        if self.profiler is not None:
            self.profiler.enable()

    def stop(self):
        if self.profiler is not None:
            self.profiler.disable()
        if self.gc_timer and self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        if self._open is None:
            return
        cluster, stats0, rec0, cpu0, wall0 = self._open
        self._open = None
        self.cpu_s += time.process_time() - cpu0
        self.wall_s += time.perf_counter() - wall0
        rec = cluster.stats.recorder
        if rec is not None:
            self.recorded += len(rec.events) - rec0
        for key, val in cluster.stats.diff(stats0).items():
            if isinstance(val, dict):
                mine = self.stats.setdefault(key, {})
                for kind, count in val.items():
                    mine[kind] = mine.get(kind, 0) + count
            else:
                self.stats[key] = self.stats.get(key, 0) + val


class _Leg:
    """The SPMD program of one leg plus its shared per-op bookkeeping."""

    def __init__(self, workload, leg, seed, cycles, probe, spin_every,
                 inputs=None):
        self.w = workload
        self.probe = probe
        self.inputs = inputs if inputs is not None else \
            workloads.make_inputs(workload, seed, leg, 1 + cycles)
        nops = (1 + cycles) * workload.ops_per_cycle
        self.warm_last = workload.ops_per_cycle - 1
        self.last = nops - 1
        self.count = [0] * nops
        self.bad = [False] * nops
        self.sim_us = [0.0] * nops      # max over ranks (paper §4)
        self.end = [0.0] * nops         # host clock when the last rank ends
        self.begin = [0.0] * (nops + 1)  # ... and after the bookkeeping
        #: calibration spins, keyed by the op they were taken after
        #: (-1: before run_spmd); none in profiled passes
        self.spin_every = spin_every
        self.spins: dict = {}
        self.cluster = None
        self.setup_sim_us = 0.0
        self.picks: list = []       # rank 0's impl_log ...
        self.first_pick = 0         # ... from its first measured call

    def on_cluster(self, cluster):
        self.cluster = cluster
        if self.w.recorder:
            FlightRecorder().attach(cluster)

    def done(self, k, sim_us, ok):
        if sim_us > self.sim_us[k]:
            self.sim_us[k] = sim_us
        if not ok:
            self.bad[k] = True
        self.count[k] += 1
        if self.count[k] < self.w.ranks:
            return
        if k == self.last:
            self.probe.stop()
        self.end[k] = time.perf_counter()
        measured = k - self.warm_last
        if self.spin_every and measured >= 0 and (
                measured % self.spin_every == 0 or k == self.last):
            self.spins[k] = hostclock.spin()
        if k == self.warm_last:
            self.setup_sim_us = self.cluster.sim.now
            self.probe.start(self.cluster)
        self.begin[k + 1] = time.perf_counter()

    def spin_around(self, k) -> float:
        """Mean of the spins bracketing op ``k`` (0 if uncalibrated)."""
        if not self.spins:
            return 0.0
        before = max((i for i in self.spins if i < k), default=None)
        after = min((i for i in self.spins if i >= k), default=None)
        near = [self.spins[i] for i in (before, after) if i is not None]
        return sum(near) / len(near)

    def main(self, env):
        w, comm, rank = self.w, env.comm, env.rank
        base = None
        if w.window_us:
            # paper §4 method: every op starts on a common window tick
            # agreed once, then a jittered think time staggers entries
            comm.use_collectives(bcast="p2p-binomial")
            base = yield from comm.bcast(
                env.now + 10_000.0 if rank == 0 else None, 0)
        k = 0
        for row in self.inputs:
            for call, inp in zip(w.cycle, row):
                if base is not None:
                    wait = base + k * w.window_us - env.now
                    if wait > 0:
                        yield env.sim.timeout(wait)
                    yield from compute_phase(env, w.think_us)
                if rank == 0 and k == self.warm_last + 1:
                    self.picks = comm.impl_log
                    self.first_pick = len(comm.impl_log)
                comm.use_collectives(**{call.op: call.impl})
                arg = workloads.argument(call, inp, rank)
                t0 = env.now
                out = yield from _invoke(comm, call, arg)
                self.done(k, env.now - t0,
                          workloads.check(call, inp, rank, out))
                k += 1

    def max_sim_us(self):
        if self.w.window_us:
            return 20_000.0 + (self.last + 3) * self.w.window_us
        return MAX_SIM_US

    def measured(self):
        return range(self.warm_last + 1, self.last + 1)

    def failed_ops(self):
        return sum(1 for k in self.measured()
                   if self.bad[k] or self.count[k] < self.w.ranks)


def _family(impl: str) -> str:
    if impl.startswith("p2p-"):
        return "p2p"
    return "hier" if impl.startswith("hier-") else "flat"


def run_pass(spec: dict, inputs=None) -> dict:
    """Run one pass and return its raw measurements.

    ``spec``: ``workload`` (name), ``seed``, ``pass_index``, ``cycles``
    (measured cycles per leg; 0 = set-up only), ``recorder`` (attach a
    FlightRecorder), ``profile`` (cProfile the measured cycles),
    ``gc_timer`` (time collections via ``gc.callbacks``) and ``smoke``.
    ``inputs`` (``[leg][cycle][slot]``) replaces the seeded inputs — the
    smoke test's seam for handing the oracle a corrupted payload.
    """
    workload = workloads.WORKLOADS[spec["workload"]]
    if spec.get("smoke"):
        workload = workloads.smoke(workload)
    workload = replace(workload, recorder=bool(spec["recorder"]))
    cycles = spec["cycles"]
    seed = workloads.pass_seed(spec["seed"], spec["pass_index"])
    probe = _Probe(bool(spec.get("profile")), bool(spec.get("gc_timer")))
    out = workloads.blank_pass()
    spin_every = 0 if spec.get("profile") else workload.spin_every
    for leg_index, topology in enumerate(workload.legs):
        leg = _Leg(workload, leg_index, seed, cycles, probe, spin_every,
                   None if inputs is None else inputs[leg_index])
        nmeasured = cycles * workload.ops_per_cycle
        out["ops"] += nmeasured
        if out["errors"]:
            out["failed"] += nmeasured      # the pass already aborted
            continue
        if spin_every:
            leg.spins[-1] = hostclock.spin()
        t0 = time.perf_counter()
        try:
            run_spmd(workload.ranks, leg.main, topology=topology,
                     params=net_params(workload, topology), seed=seed,
                     max_sim_us=leg.max_sim_us(), strict_deadlock=True,
                     on_cluster=leg.on_cluster)
        except TYPED_ERRORS as exc:
            out["errors"].append(f"{type(exc).__name__}: {exc}")
        finally:
            probe.stop()
        out["failed"] += leg.failed_ops()
        if leg.cluster is not None:
            sim = leg.cluster.sim
            out["events"] += sim.processed
            out["peak_live"] = max(out["peak_live"], sim.peak_live)
        if leg.count[leg.warm_last] == workload.ranks:
            out["leg_setup_s"].append(leg.end[leg.warm_last] - t0)
            out["leg_setup_spin_s"].append(
                leg.spin_around(leg.warm_last))
            out["setup_sim_us"] += leg.setup_sim_us
        for k in leg.measured():
            if leg.count[k] == workload.ranks:
                out["op_wall_s"].append(leg.end[k] - leg.begin[k])
                out["op_spin_s"].append(leg.spin_around(k))
                out["op_sim_us"].append(leg.sim_us[k])
                out["op_slot"].append(
                    leg_index * workload.ops_per_cycle
                    + k % workload.ops_per_cycle)
        for _op, impl in leg.picks[leg.first_pick:]:
            out["picks"][_family(impl)] += 1
    out["wall_s"] = sum(out["op_wall_s"])
    out["probe_wall_s"] = probe.wall_s
    out["cpu_s"] = probe.cpu_s
    out["stats"] = probe.stats
    out["recorded"] = probe.recorded
    out["gc_s"] = probe.gc_s
    out["gc_collections"] = probe.gc_collections
    if probe.profiler is not None:
        out["profile"] = layers.bucket(probe.profiler)
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return out
