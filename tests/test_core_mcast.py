"""Tests for the paper's contribution: collectives over IP multicast."""

import pytest

from repro.analysis.framecount import paper_mcast_barrier_messages
from repro.core.scout import binary_tree_steps
from repro.runtime import run_spmd
from repro.simnet import quiet
from repro.simnet.calibration import (FAST_ETHERNET_HUB,
                                      FAST_ETHERNET_SWITCH)

QUIET_SW = quiet(FAST_ETHERNET_SWITCH)
QUIET_HUB = quiet(FAST_ETHERNET_HUB)

SIZES = [1, 2, 3, 4, 6, 7, 8, 9]
SCOUTED = ["mcast-binary", "mcast-linear"]
RELIABLE = SCOUTED + ["mcast-ack", "mcast-sequencer"]


# ---------------------------------------------------------------- formulas
def test_binary_tree_steps_is_ceil_log2():
    assert [binary_tree_steps(n) for n in (1, 2, 3, 4, 7, 8, 9)] \
        == [0, 1, 2, 2, 3, 3, 4]


def test_barrier_mcast_message_count():
    assert paper_mcast_barrier_messages(1) == (0, 0)
    assert paper_mcast_barrier_messages(9) == (8, 1)


# ---------------------------------------------------------------- correctness
@pytest.mark.parametrize("impl", RELIABLE)
@pytest.mark.parametrize("n", SIZES)
def test_mcast_bcast_delivers_everywhere(impl, n):
    def main(env):
        obj = {"blob": "x" * 100} if env.rank == 0 else None
        obj = yield from env.comm.bcast(obj, root=0)
        return obj["blob"]

    result = run_spmd(n, main, params=QUIET_SW,
                      collectives={"bcast": impl})
    assert result.returns == ["x" * 100] * n


@pytest.mark.parametrize("impl", RELIABLE)
@pytest.mark.parametrize("topology", ["hub", "switch"])
def test_mcast_bcast_both_topologies(impl, topology):
    def main(env):
        obj = list(range(500)) if env.rank == 0 else None
        obj = yield from env.comm.bcast(obj, root=0)
        return sum(obj)

    result = run_spmd(5, main, topology=topology,
                      collectives={"bcast": impl})
    assert result.returns == [sum(range(500))] * 5


@pytest.mark.parametrize("impl", RELIABLE)
@pytest.mark.parametrize("root", [0, 1, 4, 6])
def test_mcast_bcast_nonzero_root(impl, root):
    def main(env):
        obj = f"root={root}" if env.rank == root else None
        obj = yield from env.comm.bcast(obj, root=root)
        return obj

    result = run_spmd(7, main, params=QUIET_SW,
                      collectives={"bcast": impl})
    assert result.returns == [f"root={root}"] * 7


@pytest.mark.parametrize("impl", SCOUTED)
def test_mcast_bcast_sequence_of_many(impl):
    """Back-to-back broadcasts must not cross sequence numbers."""

    def main(env):
        got = []
        for i in range(10):
            obj = i * 100 if env.rank == 0 else None
            got.append((yield from env.comm.bcast(obj, root=0)))
        return got

    result = run_spmd(6, main, params=QUIET_SW,
                      collectives={"bcast": impl})
    assert result.returns == [[i * 100 for i in range(10)]] * 6


@pytest.mark.parametrize("impl", SCOUTED)
def test_scouted_bcast_survives_slow_receiver(impl):
    """A receiver that enters the collective late: the scout handshake
    makes it lossless (without it the root's one multicast would find no
    posted descriptor — the paper's §2 unreliability)."""

    def main(env):
        if env.rank == 2:
            yield env.sim.timeout(5000.0)
        obj = "safe" if env.rank == 0 else None
        return (yield from env.comm.bcast(obj, root=0))

    result = run_spmd(4, main, params=QUIET_SW,
                      collectives={"bcast": impl})
    assert result.returns == ["safe"] * 4
    assert result.stats["drops_not_posted"] == 0


def test_ack_bcast_retransmits_to_late_receiver():
    """PVM-style reliability: the late rank is caught by a retransmission
    (costing extra payload frames — the paper's argument against it)."""

    def main(env):
        if env.rank == 2:
            yield env.sim.timeout(5000.0)    # miss the first transmission
        obj = "retry" if env.rank == 0 else None
        return (yield from env.comm.bcast(obj, root=0))

    result = run_spmd(4, main, params=QUIET_SW,
                      collectives={"bcast": "mcast-ack"})
    assert result.returns == ["retry"] * 4
    assert result.stats["retransmissions"] >= 1
    assert result.stats["drops_not_posted"] >= 1   # the lost first copy


@pytest.mark.parametrize("n", SIZES)
def test_mcast_barrier_synchronizes(n):
    def main(env):
        yield env.sim.timeout(100.0 * env.rank)
        entered = env.sim.now
        yield from env.comm.barrier()
        return (entered, env.sim.now)

    result = run_spmd(n, main, params=QUIET_HUB, topology="hub",
                      collectives={"barrier": "mcast"})
    last_entry = max(e for e, _l in result.returns)
    for _entered, left in result.returns:
        assert left >= last_entry


def test_mcast_barrier_sequence():
    def main(env):
        for _ in range(5):
            yield from env.comm.barrier()
        return env.sim.now

    result = run_spmd(6, main, params=QUIET_SW,
                      collectives={"barrier": "mcast"})
    assert all(t > 0 for t in result.returns)


# ---------------------------------------------------------------- frame counts
QUIESCE_US = 50_000.0


def _bcast_frames(impl, n, nbytes, topology="switch"):
    """Network frame deltas for exactly one bcast of nbytes, n ranks.

    All ranks idle until an absolute time well past MPI init, so every
    init frame has drained; the broadcast is then the *only* traffic and
    the end-of-run totals minus the pre-broadcast snapshot isolate it.
    """
    marks = {}

    def main(env):
        obj = bytes(nbytes) if env.rank == 0 else None
        yield env.sim.timeout(max(0.0, QUIESCE_US - env.sim.now))
        if env.rank == 0:
            marks["before"] = env.host.stats.snapshot()
        obj = yield from env.comm.bcast(obj, root=0)
        return len(obj)

    params = quiet(FAST_ETHERNET_SWITCH if topology == "switch"
                   else FAST_ETHERNET_HUB)
    result = run_spmd(n, main, params=params, topology=topology,
                      collectives={"bcast": impl})
    assert result.returns == [nbytes] * n
    kinds_b = marks["before"]["frames_by_kind"]
    kinds_a = result.stats["frames_by_kind"]
    return {k: kinds_a.get(k, 0) - kinds_b.get(k, 0)
            for k in set(kinds_a) | set(kinds_b)}


def test_mcast_binary_frame_count_formula():
    """(N-1) scouts + floor(M/T)+1 data frames (paper §3.1)."""
    n, m = 7, 5000
    delta = _bcast_frames("mcast-binary", n, m)
    assert delta.get("scout", 0) == n - 1
    assert delta.get("mcast-data", 0) == 4          # 5000 B -> 4 frames
    assert delta.get("p2p", 0) == 0                 # bypasses MPICH layers


def test_mcast_linear_frame_count_formula():
    n, m = 9, 3000
    delta = _bcast_frames("mcast-linear", n, m)
    assert delta.get("scout", 0) == n - 1
    assert delta.get("mcast-data", 0) == 3
    assert delta.get("p2p", 0) == 0


def test_mpich_bcast_frame_count_formula():
    """(floor(M/T)+1) * (N-1) data frames (paper §3)."""
    n, m = 7, 5000
    delta = _bcast_frames("p2p-binomial", n, m)
    assert delta.get("p2p", 0) == 4 * (n - 1)
    assert delta.get("mcast-data", 0) == 0
    assert delta.get("scout", 0) == 0


def test_paper_claim_frame_savings_at_7_nodes():
    """Paper: 'With 7 nodes, the multicast implementation only requires
    one-third of actual data frames compared to current MPICH.'

    Data frames alone scale as 1/(N-1) = 1/6; counting the six scout
    frames too, the *total* is exactly one-third of MPICH's at a ~7.5 KB
    message (6 scouts + 6 data = 12 vs 36) and keeps shrinking beyond.
    """
    n, m = 7, 7500
    mpich = _bcast_frames("p2p-binomial", n, m).get("p2p", 0)
    delta = _bcast_frames("mcast-binary", n, m)
    data = delta.get("mcast-data", 0)
    scouts = delta.get("scout", 0)
    assert mpich == 36
    assert data * (n - 1) == mpich              # 1/6 of data frames
    assert 3 * (data + scouts) == mpich         # 1/3 of total frames


def test_mcast_barrier_frame_counts():
    n = 9
    marks = {}

    def main(env):
        env.comm.use_collectives(barrier="mcast")
        yield env.sim.timeout(max(0.0, QUIESCE_US - env.sim.now))
        if env.rank == 0:
            marks["before"] = env.host.stats.snapshot()
        yield from env.comm.barrier()

    result = run_spmd(n, main, params=QUIET_SW)
    kinds_b = marks["before"]["frames_by_kind"]
    kinds_a = result.stats["frames_by_kind"]
    delta = {k: kinds_a.get(k, 0) - kinds_b.get(k, 0)
             for k in set(kinds_a) | set(kinds_b)}
    assert delta.get("scout", 0) == n - 1       # N-1 p2p scouts
    assert delta.get("mcast-release", 0) == 1   # single release multicast
    assert delta.get("mcast-data", 0) == 0


# ---------------------------------------------------------------- invariants
@pytest.mark.parametrize("impl", SCOUTED)
def test_root_multicast_never_precedes_last_post(impl):
    """The central safety property: with scout sync, no multicast data
    frame is dropped for lack of a posted receive, under any skew."""

    def main(env):
        obj = "inv" if env.rank == 3 else None
        return (yield from env.comm.bcast(obj, root=3))

    skews = [0.0, 4000.0, 800.0, 100.0, 2500.0, 50.0]
    result = run_spmd(6, main, params=QUIET_SW, skew=skews,
                      collectives={"bcast": impl})
    assert result.returns == ["inv"] * 6
    assert result.stats["drops_not_posted"] == 0


def test_mixed_collectives_mcast_bcast_p2p_barrier():
    def main(env):
        env.comm.use_collectives(bcast="mcast-binary")
        out = []
        for i in range(3):
            obj = i if env.rank == 0 else None
            out.append((yield from env.comm.bcast(obj, root=0)))
            yield from env.comm.barrier()    # p2p barrier interleaved
        return out

    result = run_spmd(5, main, params=QUIET_SW)
    assert result.returns == [[0, 1, 2]] * 5
