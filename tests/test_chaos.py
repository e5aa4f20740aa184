"""The chaos suite's own contract: crisp failures, honest hang dumps,
bit-identical replay.

Four properties pinned here:

* a receiver cut off mid-collective aborts after ``max_repair_rounds``
  repair rounds with a typed :class:`~repro.core.rounds.McastLost`
  (the regression for the round-engine livelock: before the knob the
  engine kept repairing to the ack baseline's 40-resend ceiling with an
  untyped error at the end), and the same bound stops ``mcast-ack``'s
  full-payload resends;
* a trunk partitioned mid-broadcast surfaces as the typed
  :class:`~repro.simnet.fabric.PartitionError` whose flight-recorder
  hang dump names the open follow round and its missing-segment set;
* the fuzzer's records — including the CRCs of the per-case stats
  snapshot and the failure artifact — are identical across reruns and
  worker counts, so every printed ``(seed, case index)`` replays bit
  for bit;
* the fuzzer draws every registered collective, so each is inside its
  complete-or-fail contract, and ``barrier`` is the one op outside the
  auto policy.
"""

from dataclasses import replace

import pytest

from repro import run_spmd
from repro.chaos import timed_fault
from repro.chaos.fuzz import OPS, make_case, run_case, run_fuzz
from repro.core.rounds import McastLost
from repro.mpi.collective.policy import POLICY_WAIVERS
from repro.mpi.collective.registry import REGISTRY
from repro.obs.trace import FlightRecorder
from repro.runtime.sanitize import forced_teardown
from repro.simnet import PartitionError, quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH

QUIET = quiet(FAST_ETHERNET_SWITCH)


# ----------------------------------------------------- bounded repair
def test_max_repair_rounds_converts_livelock_to_typed_failure():
    """A follower that can never be repaired (its host eats every data
    frame) must abort after the configured number of repair rounds —
    not orbit the old 40-round retransmit ceiling."""
    params = replace(QUIET, max_repair_rounds=2)

    def eat_data(dgram):
        return "drop" if dgram.kind == "mcast-seg" else None

    def on_cluster(cluster):
        cluster.hosts[3].frame_fate = eat_data

    def main(env):
        data = b"x" * 8000 if env.rank == 0 else None
        out = yield from env.comm.bcast(data, root=0)
        return len(out)

    # whichever rank's abort dispatches first propagates: the root says
    # "gave up after 2 repair rounds", a told follower "root gave up"
    with pytest.raises(McastLost, match="gave up"):
        run_spmd(4, main, params=params,
                 collectives={"bcast": "mcast-seg-nack"},
                 on_cluster=on_cluster)


def test_max_repair_rounds_is_the_one_retry_bound():
    """One retry bound for every multicast path: ``max_repair_rounds``
    stops ``mcast-ack``'s full-payload resends to a host that eats every
    data copy, and lets the NACK engine run exactly the repair rounds
    it allows."""
    def eat_data(dgram):
        return "drop" if dgram.kind == "mcast-data" else None

    def on_cluster(cluster):
        cluster.hosts[2].frame_fate = eat_data

    def send(env):
        out = yield from env.comm.bcast(
            b"x" * 8000 if env.rank == 0 else None, root=0)
        return len(out)

    with pytest.raises(McastLost, match="gave up after 2 retransmits"):
        run_spmd(3, send, params=replace(QUIET, max_repair_rounds=2),
                 collectives={"bcast": "mcast-ack"}, on_cluster=on_cluster)

    lost = []

    def drop_first_copy(dgram):
        if dgram.kind == "mcast-seg" and not lost:
            lost.append(dgram)
            return "drop"
        return None

    def main(env):
        if env.rank == 1:
            env.host.frame_fate = drop_first_copy
        out = yield from env.comm.bcast(
            b"x" * 8000 if env.rank == 0 else None, root=0)
        return len(out)

    # one repair round allowed, one needed: it runs
    result = run_spmd(3, main, params=replace(QUIET, max_repair_rounds=1),
                      collectives={"bcast": "mcast-seg-nack"})
    assert result.returns == [8000] * 3
    assert result.stats["retransmissions"] == 1


# ------------------------------------------------- partition hang dump
def test_trunk_partition_mid_bcast_dumps_open_round():
    """Cut the trunk under leaf 1 mid-broadcast: the run fails with the
    typed PartitionError naming the downed trunk, and the hang dump
    lists the far followers' open round with its missing segments."""
    recorder = FlightRecorder()

    def on_cluster(cluster):
        recorder.attach(cluster)
        timed_fault(cluster, "cut", 3000.0,
                    lambda: cluster.fabric.partition_trunk((1,)))

    def main(env):
        data = b"y" * 30_000 if env.rank == 0 else None
        out = yield from env.comm.bcast(data, root=0)
        return len(out)

    with pytest.raises(PartitionError, match="trunk") as info:
        run_spmd(4, main, topology="tree:2x2", params=QUIET,
                 collectives={"bcast": "mcast-seg-nack"},
                 on_cluster=on_cluster)

    exc = info.value
    dump = recorder.hang_report
    assert dump is not None
    assert "open rounds" in dump
    assert "follow:seq" in dump
    # at least one follower lists a non-empty missing-segment set
    assert any("missing=[" in line and "missing=[]" not in line
               for line in dump.splitlines() if "follow:seq" in line)
    # the injected fault window was recorded (so dumps can tell an
    # injected cut from a protocol bug)
    assert any(ev[2] == "chaos" and ev[3] == "fault:cut"
               for ev in recorder.events)

    # heal, then the forced teardown must still leave nothing behind
    exc.repro_cluster.fabric.heal_trunk((1,))
    forced_teardown(exc.repro_cluster, exc.repro_world)


# -------------------------------------------------- replay determinism
def _canonical(records):
    return [(r["index"], r["key"], r["outcome"], r["error"],
             r["stats_crc"], r["artifact_crc"], tuple(r["violations"]))
            for r in records]


def test_fuzz_records_replay_bit_identically():
    first, ok1 = run_fuzz(seed=5, budget=10)
    again, ok2 = run_fuzz(seed=5, budget=10)
    assert ok1 and ok2
    assert _canonical(first) == _canonical(again)
    # a single case replayed in isolation gives the very same record
    solo = run_case(make_case(5, 7), base_seed=5)
    assert _canonical([solo]) == _canonical([first[7]])


def test_fuzz_records_identical_across_worker_counts():
    serial, _ = run_fuzz(seed=5, budget=8)
    parallel, _ = run_fuzz(seed=5, budget=8, workers=2)
    assert _canonical(serial) == _canonical(parallel)


def test_forced_partitions_fail_crisply_and_reproduce():
    """Every trunk-partition case either completes (the op beat the
    cut) or fails with a typed error + deterministic artifact — and the
    whole batch reruns to identical records."""
    first, ok1 = run_fuzz(seed=3, budget=6, scenario="trunk-partition")
    again, ok2 = run_fuzz(seed=3, budget=6, scenario="trunk-partition")
    assert ok1 and ok2
    assert _canonical(first) == _canonical(again)
    failed = [r for r in first if r["outcome"] == "failed-crisp"]
    assert failed, "expected at least one crisp partition failure"
    for rec in failed:
        assert rec["error"] is not None
        assert rec["artifact_crc"] is not None


def test_case_generation_is_budget_independent():
    assert make_case(9, 4) == make_case(9, 4)
    # case i never depends on how many other cases the run draws
    keys = [make_case(9, i).key for i in range(12)]
    assert len(set(keys)) == 12


# ------------------------------------------------------------ coverage
def test_every_registered_collective_is_fuzzed():
    assert set(REGISTRY) == set(OPS)
    assert POLICY_WAIVERS.keys() == {"barrier"}
