"""Direct unit tests for McastChannel and the sequencer variant."""

import pytest

from repro.core.channel import (DATA_PORT_BASE, GROUP_ID_BASE,
                                SCOUT_PORT_BASE)
from repro.runtime import run_spmd
from repro.simnet import quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH
from repro.simnet.frame import mcast_mac

QUIET = quiet(FAST_ETHERNET_SWITCH)


def test_channel_ports_and_group_derive_from_ctx():
    captured = {}

    def main(env):
        ch = env.comm.mcast
        captured[env.rank] = (ch.group, ch.data_port, ch.scout_port)
        yield env.sim.timeout(0.0)

    run_spmd(2, main, params=QUIET)
    group, dport, sport = captured[0]
    assert group == mcast_mac(GROUP_ID_BASE + 0)     # world ctx = 0
    assert dport == DATA_PORT_BASE
    assert sport == SCOUT_PORT_BASE
    assert captured[0] == captured[1]                # all ranks agree


def test_channel_distinct_per_communicator():
    def main(env):
        sub = yield from env.comm.dup()
        a, b = env.comm.mcast, sub.mcast
        return (a.group != b.group and a.data_port != b.data_port
                and a.scout_port != b.scout_port)

    result = run_spmd(2, main, params=QUIET)
    assert all(result.returns)


def test_channel_seq_advances_in_lockstep():
    def main(env):
        env.comm.use_collectives(bcast="mcast-binary", barrier="mcast")
        for i in range(3):
            yield from env.comm.bcast("x" if env.rank == 0 else None, 0)
        yield from env.comm.barrier()
        return env.comm.mcast.seq

    result = run_spmd(4, main, params=QUIET)
    # 3 bcasts + 1 barrier = 4 collective sequences on every rank
    assert result.returns == [4] * 4


def test_scout_stash_keeps_early_arrivals():
    """A scout for a future (seq, phase) must be stashed and later
    matched, not dropped."""
    log = {}

    def main(env):
        ch = env.comm.mcast
        if env.rank == 1:
            # send two scouts out of order: seq 8 then seq 7
            yield from ch.send_ctrl(0, 8, "up", "eight")
            yield from ch.send_ctrl(0, 7, "up", "seven")
        else:
            yield env.sim.timeout(3000.0)
            got7 = yield from ch.wait_ctrl({1}, 7, "up")
            got8 = yield from ch.wait_ctrl({1}, 8, "up")
            log["got"] = (got7, got8)

    run_spmd(2, main, params=QUIET)
    assert log["got"] == ({1: "seven"}, {1: "eight"})


def test_wait_scouts_timeout_reports_missing():
    def main(env):
        ch = env.comm.mcast
        if env.rank == 0:
            t0 = env.sim.now
            got = yield from ch.wait_ctrl({1, 2}, 1, "up",
                                          timeout_us=500.0)
            return got, env.sim.now - t0
        if env.rank == 2:
            yield from ch.send_ctrl(0, 1, "up")
        yield env.sim.timeout(0.0)   # rank 1 never scouts

    result = run_spmd(3, main, params=QUIET)
    # the partial dict: who was heard before the deadline
    assert result.returns[0] == ({2: None}, pytest.approx(500.0))


def test_channel_close_idempotent_and_frees_ports():
    def main(env):
        ch = env.comm.mcast
        ch.close()
        ch.close()             # second close is a no-op
        # ports are free again on this host (close the probe socket so
        # it doesn't trip the REPRO_SANITIZE teardown check itself)
        env.host.socket(ch.data_port).close()
        yield env.sim.timeout(0.0)

    run_spmd(2, main, params=QUIET)


def test_comm_free_closes_channel():
    def main(env):
        sub = yield from env.comm.dup()
        _ = sub.mcast
        sub.free()
        sub.free()             # idempotent
        yield env.sim.timeout(0.0)
        return True

    result = run_spmd(2, main, params=QUIET)
    assert all(result.returns)


# ---------------------------------------------------------------- sequencer
def test_sequencer_root_is_sequencer_fast_path():
    """When the root IS the sequencer there is no forwarding hop."""
    marks = {}

    def main(env):
        obj = "direct" if env.rank == 0 else None
        yield env.sim.timeout(max(0.0, 50_000.0 - env.sim.now))
        if env.rank == 0:
            marks["before"] = env.host.stats.snapshot()
        return (yield from env.comm.bcast(obj, root=0))

    result = run_spmd(4, main, params=QUIET,
                      collectives={"bcast": "mcast-sequencer"})
    assert result.returns == ["direct"] * 4
    kb = marks["before"]["frames_by_kind"]
    ka = result.stats["frames_by_kind"]
    # no p2p forwarding when root == sequencer
    assert ka.get("p2p", 0) - kb.get("p2p", 0) == 0


def test_sequencer_nonroot_pays_forwarding_hop():
    marks = {}

    def main(env):
        obj = "forwarded" if env.rank == 2 else None
        yield env.sim.timeout(max(0.0, 50_000.0 - env.sim.now))
        if env.rank == 0:
            marks["before"] = env.host.stats.snapshot()
        return (yield from env.comm.bcast(obj, root=2))

    result = run_spmd(4, main, params=QUIET,
                      collectives={"bcast": "mcast-sequencer"})
    assert result.returns == ["forwarded"] * 4
    kb = marks["before"]["frames_by_kind"]
    ka = result.stats["frames_by_kind"]
    assert ka.get("p2p", 0) - kb.get("p2p", 0) >= 1   # root -> sequencer


def test_sequencer_total_order_across_roots():
    """The sequencer's raison d'être: one total order for all roots."""
    roots = [3, 1, 2, 3, 0]

    def main(env):
        got = []
        for i, root in enumerate(roots):
            obj = (root, i) if env.rank == root else None
            got.append((yield from env.comm.bcast(obj, root=root)))
        return got

    result = run_spmd(4, main, params=QUIET, seed=5,
                      skew=[0.0, 2000.0, 500.0, 1500.0],
                      collectives={"bcast": "mcast-sequencer"})
    expected = [(root, i) for i, root in enumerate(roots)]
    assert all(r == expected for r in result.returns)


def test_sequencer_retransmits_to_late_receiver():
    def main(env):
        if env.rank == 3:
            yield env.sim.timeout(5000.0)
        obj = "late-ok" if env.rank == 0 else None
        return (yield from env.comm.bcast(obj, root=0))

    result = run_spmd(4, main, params=QUIET,
                      collectives={"bcast": "mcast-sequencer"})
    assert result.returns == ["late-ok"] * 4
    assert result.stats["retransmissions"] >= 1


def test_scout_stash_stays_bounded_over_many_collectives():
    """Regression: duplicate scouts whose (seq, phase) wait had already
    been satisfied were stashed forever — the stash grew without bound
    across collectives.  Stale entries must be purged when draining and
    satisfied duplicates must not be stashed at all."""

    def main(env):
        ch = env.comm.mcast
        high = 0
        for _ in range(100):
            seq = ch.next_seq()
            if env.rank == 1:
                # a duplicate ack: the second copy can never match
                yield from ch.send_ctrl(0, seq, "ack")
                yield from ch.send_ctrl(0, seq, "ack")
            if env.rank == 0:
                got = yield from ch.wait_ctrl({1}, seq, "ack")
                assert got == {1: None}
            high = max(high, len(ch._scout_stash))
            yield from env.comm.barrier()     # p2p: keeps ranks in step
        return high

    result = run_spmd(2, main, params=QUIET)
    # a couple of in-flight entries are fine; linear growth is the bug
    assert max(result.returns) <= 4
