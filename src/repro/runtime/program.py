"""SPMD program launcher: the mpiexec of the simulated cluster.

:func:`run_spmd` builds a cluster, boots an MPI world on it, starts one
rank per host (each a generator taking a :class:`~repro.runtime.env.RankEnv`),
runs the simulation to completion and returns a :class:`RunResult` with
per-rank return values, per-rank records, the final clock and network
statistics.

The MPI_Init analogue happens inside each rank: construct the COMM_WORLD
view, join the world's multicast group, and synchronize with a
point-to-point barrier so no rank can race ahead of another's group join
— after which the user's ``main`` runs.

Example::

    def main(env):
        data = env.rank if env.rank == 0 else None
        data = yield from env.comm.bcast(data, root=0)
        return data

    result = run_spmd(4, main, topology="hub", seed=7,
                      collectives={"bcast": "mcast-binary"})
    assert result.returns == [0, 0, 0, 0]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..mpi.world import MpiWorld
from ..obs import (FlightRecorder, build_hang_dump, register_recorder,
                   trace_enabled)
from ..simnet.calibration import NetParams
from ..simnet.fabric import PartitionError
from ..simnet.kernel import DeadlockError
from ..simnet.topology import Cluster, build_cluster
from .env import RankEnv
from .sanitize import (LeakError, check_quiesced, register_for_teardown,
                       sanitize_enabled)

__all__ = ["RunResult", "run_spmd"]


@dataclass
class RunResult:
    """Everything observable about one SPMD run."""

    returns: list[Any]
    records: list[dict[str, Any]]
    #: the instant the last rank program returned; a bounded run cut
    #: with ranks still live reports the cut
    sim_time_us: float
    stats: dict[str, Any]
    cluster: Cluster
    world: MpiWorld
    init_done_us: float = 0.0

    def record_series(self, key: str) -> list[list[Any]]:
        """``records[rank][key]`` for every rank (empty list if absent)."""
        return [r.get(key, []) for r in self.records]


def run_spmd(n: int,
             main: Callable[[RankEnv], Any],
             topology: str = "switch",
             params: Optional[NetParams] = None,
             seed: int = 0,
             skew: Optional[Sequence[float]] = None,
             collectives: Optional[dict[str, str]] = None,
             max_sim_us: Optional[float] = None,
             on_cluster: Optional[Callable[[Cluster], None]] = None,
             strict_deadlock: bool = False
             ) -> RunResult:
    """Run ``main`` as an ``n``-rank SPMD program on a fresh cluster.

    ``topology`` is ``"hub"``, ``"switch"``, or a tiered-fabric string
    like ``"tree:2x4"`` (2 leaf switches of 4 hosts each behind a core —
    see :mod:`repro.simnet.fabric`), every trunk at ``params``.
    ``collectives`` maps collective names to implementation names, e.g.
    ``{"bcast": "mcast-binary", "barrier": "mcast"}`` — the experiment
    knob of the whole reproduction.

    ``skew`` delays each rank's start (startup asynchrony): ``skew[r]``
    µs for rank ``r``, 0 for a rank past its end; a negative delay
    raises ``ValueError``.  ``max_sim_us`` bounds runaway simulations
    (e.g. intentional deadlocks in tests).

    ``on_cluster`` is the chaos-injection seam: called with the built
    cluster after the MPI world exists but before any rank process is
    started, so a caller can attach a flight recorder and install fault
    hooks / schedule fault timelines (:mod:`repro.chaos`) without
    monkey-patching.  On any failure escaping the simulation the raised
    exception carries ``repro_cluster`` / ``repro_world`` attributes so
    the caller can still reach the wreckage (teardown checks), and an
    attached recorder's ``hang_report`` holds the dump of what
    everything was doing — for a deadlock and for an error a rank
    program raised (``McastLost``, ...) alike; a deadlock while the cluster reports active partition
    faults is re-raised as the typed
    :class:`~repro.simnet.fabric.PartitionError`.

    A *bounded* run (``max_sim_us`` set) that drains its event queues
    before the deadline with ranks still blocked returns quietly by
    default — the long-standing contract tests rely on to inspect
    intentionally wedged runs.  ``strict_deadlock=True`` restores
    deadlock semantics for that situation (the chaos fuzzer's crisp
    failure contract): it raises :class:`DeadlockError` — translated
    to :class:`PartitionError` when injected fabric faults are active
    — exactly as an unbounded run would.
    """
    if n < 1:
        raise ValueError(f"need at least 1 rank, got {n}")
    delays = list(skew or ())
    if any(d < 0 for d in delays):
        raise ValueError("skew delays must be >= 0")
    cluster = build_cluster(n, topology=topology, params=params, seed=seed)
    world = MpiWorld(cluster)

    recorder = None
    if trace_enabled():
        # REPRO_TRACE=1: attach the flight recorder before any traffic
        # and park it in the hand-off registry for whoever drove the
        # run (the trace CLI, a test) to drain afterwards.
        recorder = FlightRecorder().attach(cluster)
        register_recorder(recorder)
    if on_cluster is not None:
        on_cluster(cluster)
    if recorder is None:
        # an on_cluster hook may have attached its own recorder; use it
        # for the hang-dump paths below
        recorder = cluster.stats.recorder

    returns: list[Any] = [None] * n
    records: list[dict[str, Any]] = [{} for _ in range(n)]
    init_times: list[float] = [0.0] * n
    returned_at: list[float] = []       # one instant per returned rank

    def rank_program(rank: int):
        if rank < len(delays) and delays[rank] > 0:
            yield cluster.sim.timeout(delays[rank])
        comm = world.comm_world(rank)
        if collectives:
            comm.use_collectives(**collectives)
        yield from comm._setup()
        init_times[rank] = cluster.sim.now
        env = RankEnv(rank=rank, size=n, comm=comm, host=comm.host,
                      sim=cluster.sim, records=records[rank])
        returns[rank] = yield from main(env)
        returned_at.append(cluster.sim.now)

    for rank in range(n):
        cluster.sim.process(rank_program(rank), name=f"rank{rank}")

    try:
        end = cluster.sim.run(until=max_sim_us)
        if len(returned_at) == n:
            # completed: the run ends when its last rank returns, not
            # when the heap's last record (a dead timer's, a late
            # frame's) pops
            end = returned_at[-1]
        if strict_deadlock and not cluster.sim._heap:
            stuck = [p for p in cluster.sim._live_processes
                     if p.is_alive and not p.daemon]
            if stuck:
                # bounded run, but the heap drained before the
                # deadline: that is a deadlock, not a deadline cut
                raise DeadlockError(stuck)
    except DeadlockError as exc:
        if recorder is not None:
            recorder.hang_report = build_hang_dump(cluster, "deadlock")
        faults = cluster.partition_faults()
        if faults:
            # The world cannot make progress *and* the fabric is cut:
            # that is a partition, not a protocol deadlock.  Keep the
            # original as the cause for the full picture.
            perr = PartitionError(
                f"no progress possible with the fabric partitioned "
                f"({'; '.join(faults)})")
            perr.repro_cluster = cluster
            perr.repro_world = world
            raise perr from exc
        exc.repro_cluster = cluster
        exc.repro_world = world
        raise
    except BaseException as exc:
        # rank-program exceptions (McastLost, ...) propagate out of the
        # event loop; tag them so the caller can still reach the run's
        # wreckage for diagnostics and teardown, and park the dump of
        # what everything was doing when the error surfaced.
        if recorder is not None and isinstance(exc, Exception):
            recorder.hang_report = build_hang_dump(cluster,
                                                   type(exc).__name__)
        exc.repro_cluster = cluster
        exc.repro_world = world
        raise
    if recorder is not None and max_sim_us is not None and any(
            not daemon for _n, daemon, _w in
            cluster.sim.process_snapshot()):
        # the deadline cut the run off with rank work still live: dump
        # what everything was doing at the cut (who waits on what,
        # which descriptors are posted, which rounds are still open)
        recorder.hang_report = build_hang_dump(cluster, "deadline")
    if max_sim_us is None and sanitize_enabled():
        # REPRO_SANITIZE=1: a completed (unbounded) run must quiesce
        # cleanly now; the destructive teardown check runs later, from
        # the test fixture that drains this registry (repro.runtime
        # .sanitize).  Bounded runs are exempt — they cut the sim off
        # mid-flight on purpose.
        try:
            check_quiesced(cluster)
        except LeakError as exc:
            if recorder is not None:
                recorder.hang_report = build_hang_dump(cluster, "quiesce")
            exc.repro_cluster = cluster
            exc.repro_world = world
            raise
        register_for_teardown(cluster, world)
    return RunResult(returns=returns, records=records, sim_time_us=end,
                     stats=cluster.stats.snapshot(), cluster=cluster,
                     world=world, init_done_us=max(init_times))
