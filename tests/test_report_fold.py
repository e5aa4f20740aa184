"""The round engine's O(log N) control plane (PR 18): NACK reports fold
up the arming tree (:func:`repro.core.scout.report_fold_binary`) and
the decision returns as one control multicast on the scout port."""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import run_spmd
from repro.core import rounds
from repro.core.rounds import McastLost, round_namespace, stream_rounds
from repro.core.scout import binary_tree_steps
from repro.core.segment import fragment
from repro.simnet import quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH

QUIET = quiet(FAST_ETHERNET_SWITCH)
AUTO = replace(QUIET, segment_bytes="auto")

NSEGS = 8
PAYLOAD = bytes(range(256)) * 16            # 8 segments of 512 B


def _lose_first_copy_of(indices):
    """A frame_fate eating the first arrival of each listed segment."""
    pending = set(indices)

    def flt(dgram):
        if dgram.kind != "mcast-seg":
            return None
        index = dgram.payload[2].index
        if index in pending:
            pending.discard(index)
            return "drop"
        return None

    return flt


@st.composite
def _groups(draw):
    n = draw(st.integers(min_value=2, max_value=33))
    ranks = st.integers(min_value=0, max_value=n - 1)
    lost = st.sets(st.integers(min_value=0, max_value=NSEGS - 1),
                   max_size=3)
    return (n, draw(ranks),
            draw(st.lists(lost, min_size=n, max_size=n)),
            draw(st.sets(ranks, max_size=n // 2)))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(group=_groups())
def test_fold_carries_the_union_and_the_smallest_ring_to_the_root(group):
    """Any group size, root, per-rank loss pattern and bystander
    subset: what the root's fold returns is the union of the followers'
    missing sets, as a ``frozenset``; every round puts exactly N-1
    reports and ONE decision on the wire; the root's scout socket takes
    at most ceil(log2 N) reports a round and never its own decision."""
    n, root, lost, bystanders = group
    bystanders = bystanders - {root}
    folded = []
    at_root = {"seg-report": 0, "seg-dec": 0}
    real_fold = rounds.report_fold_binary

    def spy(comm, *args):
        out = yield from real_fold(comm, *args)
        if comm.rank == root:
            folded.append(out)
        return out

    def count(dgram):
        if dgram.kind in at_root:
            at_root[dgram.kind] += 1
        return None

    def main(env):
        comm, channel = env.comm, env.comm.mcast
        seq = channel.next_seq()
        arm, tok = round_namespace("fold", 0)
        if env.rank == root:
            env.host.frame_fate = count
            yield from stream_rounds(comm, channel, seq, root, arm, tok,
                                     fragment(PAYLOAD, 512), 1)
            return PAYLOAD
        env.host.frame_fate = _lose_first_copy_of(
            lost[env.rank])
        if env.rank in bystanders:
            yield from stream_rounds(comm, channel, seq, root, arm, tok,
                                     needed=set())
            return PAYLOAD
        reasm = yield from stream_rounds(comm, channel, seq, root, arm,
                                         tok)
        return reasm.result()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rounds, "report_fold_binary", spy)
        result = run_spmd(n, main, params=QUIET)
    assert result.returns == [PAYLOAD] * n

    followers = [r for r in range(n) if r != root]
    union = set().union(*(lost[r] for r in followers
                          if r not in bystanders))
    assert all(type(missing) is frozenset for missing in folded)
    nrounds = 2 if union else 1             # first copies only: one repair
    assert folded == [union] + [set()] * (nrounds - 1)
    assert result.stats["retransmissions"] == len(union)

    kinds = result.stats["frames_by_kind"]
    assert kinds["seg-report"] == nrounds * (n - 1)
    assert kinds["seg-dec"] == nrounds
    # the engine's header handshake rides ahead of the rounds
    assert kinds["mcast-seg-hdr"] == 1
    assert kinds["scout"] == (1 + nrounds) * (n - 1)
    assert at_root["seg-report"] <= nrounds * binary_tree_steps(n)
    assert at_root["seg-dec"] == 0


def test_abort_decision_reaches_every_follower():
    """The repair budget runs out: the root multicasts "abort" before
    it raises, so every follower — bystander included — ends in the
    same typed error instead of arming a round nobody will serve."""
    n, root = 6, 2
    params = replace(QUIET, max_repair_rounds=1)

    def main(env):
        comm, channel = env.comm, env.comm.mcast
        seq = channel.next_seq()
        arm, tok = round_namespace("fold", 0)
        if env.rank == 5:               # segment 3 never gets through
            env.host.frame_fate = (
                lambda d: "drop" if d.kind == "mcast-seg"
                and d.payload[2].index == 3 else None)
        try:
            yield from stream_rounds(
                comm, channel, seq, root, arm, tok,
                fragment(PAYLOAD, 512) if env.rank == root else None, 1,
                needed=set() if env.rank == 0 else None)
        except McastLost as exc:
            return str(exc)
        return "completed"

    result = run_spmd(n, main, params=params)
    assert "gave up after 1 repair rounds" in result.returns[root]
    assert "missing segments [3]" in result.returns[root]
    for rank, told in enumerate(result.returns):
        if rank != root:
            assert "root gave up" in told, (rank, told)
    # round 0 -> "repair [3]", round 1 -> "abort": two multicasts
    assert result.stats["frames_by_kind"]["seg-dec"] == 2
    assert result.stats["frames_by_kind"]["seg-report"] == 2 * (n - 1)


#: simulated us of the second (warm) 24 kB ``mcast-seg-nack`` bcast on a
#: quiet switch at the parent commit (0f2253d: N-1 reports received one
#: after another at the root, N-1 decisions unicast one after another)
PARENT_WARM_BCAST_US = {4: 3431.76, 5: 3476.76, 8: 4050.64, 64: 9999.28}


@pytest.mark.parametrize("n", sorted(PARENT_WARM_BCAST_US))
def test_folded_handshake_latency_against_the_parent(n):
    """The fold is one level deeper than the star from 4 ranks up and
    the single decision buys it back: small groups are not slower, and
    at 64 ranks the broadcast takes under 0.55x the parent's time
    (measured: 3369.2 / 3369.2 / 3739.5 / 4850.5 us)."""
    def main(env):
        env.comm.use_collectives(bcast="mcast-seg-nack")
        for _ in range(2):
            start = env.now
            out = yield from env.comm.bcast(
                bytes(24_000) if env.rank == 0 else None, 0)
            assert len(out) == 24_000
        return env.now - start

    warm = max(run_spmd(n, main, topology="switch", params=AUTO,
                        seed=1).returns)
    parent = PARENT_WARM_BCAST_US[n]
    assert warm <= (0.55 * parent if n == 64 else parent), (warm, parent)
