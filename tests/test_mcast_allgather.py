"""Many-to-many multicast (the paper's §5 future work), tested: the
unpaced overrun experiment and its cure, the rank-ordered
``mcast-seg-paced`` allgather."""

import pytest

from repro.core.mcast_allgather import allgather_mcast_unpaced
from repro.runtime import run_spmd
from repro.simnet import quiet
from repro.simnet.calibration import (FAST_ETHERNET_HUB,
                                      FAST_ETHERNET_SWITCH)

QUIET_SW = quiet(FAST_ETHERNET_SWITCH)
QUIET_HUB = quiet(FAST_ETHERNET_HUB)
PACED = "mcast-seg-paced"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9])
def test_paced_allgather_correct(n):
    def main(env):
        env.comm.use_collectives(allgather=PACED)
        return (yield from env.comm.allgather(f"rank{env.rank}"))

    result = run_spmd(n, main, params=QUIET_SW)
    expected = [f"rank{r}" for r in range(n)]
    assert result.returns == [expected] * n


@pytest.mark.parametrize("topology", ["hub", "switch"])
def test_paced_allgather_both_topologies(topology):
    def main(env):
        env.comm.use_collectives(allgather=PACED)
        return (yield from env.comm.allgather(env.rank * 11))

    result = run_spmd(5, main, topology=topology)
    assert result.returns == [[0, 11, 22, 33, 44]] * 5


def test_paced_allgather_no_drops_with_one_descriptor():
    """Rank-ordered turns never overrun a receiver: where one unpaced
    descriptor loses contributions, no paced datagram finds none
    posted."""

    def main(env):
        env.comm.use_collectives(allgather=PACED)
        out = yield from env.comm.allgather(bytes(2000))
        return len(out)

    result = run_spmd(8, main, params=QUIET_SW)
    assert result.returns == [8] * 8
    assert result.stats["drops_not_posted"] == 0


def test_paced_allgather_repeated_calls():
    def main(env):
        env.comm.use_collectives(allgather=PACED)
        out = []
        for i in range(5):
            out.append((yield from env.comm.allgather((env.rank, i))))
        return out

    result = run_spmd(4, main, params=QUIET_SW)
    for got in result.returns:
        for i, round_result in enumerate(got):
            assert round_result == [(r, i) for r in range(4)]


def test_paced_allgather_matches_p2p_allgather():
    def main(env):
        p2p = yield from env.comm.allgather(env.rank)
        env.comm.use_collectives(allgather=PACED)
        mc = yield from env.comm.allgather(env.rank)
        return p2p == mc

    result = run_spmd(6, main, params=QUIET_SW)
    assert all(result.returns)


# ---------------------------------------------------------------- overrun
def _unpaced(n, descriptors, size_bytes=1500, topology="switch"):
    def main(env):
        payload = bytes(size_bytes)
        results, lost = yield from allgather_mcast_unpaced(
            env.comm, payload, descriptors=descriptors)
        return lost

    params = QUIET_SW if topology == "switch" else QUIET_HUB
    result = run_spmd(n, main, params=params, topology=topology)
    return result.returns, result.stats


def test_unpaced_with_full_descriptors_no_loss():
    """With N-1 pre-posted descriptors even the burst is absorbed."""
    lost, stats = _unpaced(6, descriptors=5)
    assert lost == [0] * 6
    assert stats["drops_not_posted"] == 0


def test_unpaced_with_one_descriptor_overruns():
    """The paper's §5 fear, realized: N-1 simultaneous senders vs a
    single receive descriptor loses datagrams."""
    lost, stats = _unpaced(8, descriptors=1)
    assert any(n > 0 for n in lost)
    assert stats["drops_not_posted"] > 0


def test_unpaced_loss_decreases_with_budget():
    losses = []
    for k in (1, 3, 7):
        lost, _ = _unpaced(8, descriptors=k)
        losses.append(sum(lost))
    assert losses[0] >= losses[1] >= losses[2]
    assert losses[2] == 0


def test_unpaced_rejects_zero_descriptors():
    def main(env):
        with pytest.raises(ValueError):
            yield from allgather_mcast_unpaced(env.comm, b"", 0)

    run_spmd(2, main, params=QUIET_SW)


def test_unpaced_single_rank_trivial():
    def main(env):
        results, lost = yield from allgather_mcast_unpaced(
            env.comm, "me", descriptors=1)
        return (results, lost)

    result = run_spmd(1, main, params=QUIET_SW)
    assert result.returns[0] == (["me"], 0)


def test_unpaced_drain_cancels_every_leftover_descriptor():
    """Regression: the drain-timeout path used to cancel only the first
    untriggered descriptor.  The leftovers swallowed the next
    collective's multicast payload on the same channel, hanging a
    back-to-back unpaced → paced sequence."""

    def main(env):
        if env.rank == 5:
            # induced loss: rank 5 never sees contributions from 1,2,3,
            # so its drain times out with descriptors still posted
            env.host.frame_fate = (
                lambda dgram: "drop" if dgram.kind == "mcast-data"
                and dgram.payload[0] in (1, 2, 3) else None)
        results, lost = yield from allgather_mcast_unpaced(
            env.comm, bytes(1500), descriptors=2)
        env.host.frame_fate = None

        env.comm.use_collectives(allgather=PACED)
        out = yield from env.comm.allgather(env.rank)   # hangs before fix
        return lost, out

    result = run_spmd(6, main, params=QUIET_SW)
    losses = [r[0] for r in result.returns]
    assert losses[5] == 3                   # the induced loss was real
    assert all(r[1] == list(range(6)) for r in result.returns)
    # and no descriptor survived into the paced collective
    assert result.stats["drops_chaos"] == 3
