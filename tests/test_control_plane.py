"""The one control plane: ``McastChannel.wait_ctrl`` against a ten-line
model, the one tree walk of :mod:`repro.core.scout` on every (size,
root) and its one answer, the stale-copy guard of ``scouted_mcast`` on
docs/CHAOS.md's reproducer, the data sockets' diet: data only — and a
lost control multicast, which still wedges a rank (ROADMAP 1(a)) and
shows in the hang dump where it does."""

from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_tree as tree

from repro.bench.harness import op_body
from repro.core.channel import McastChannel, McastLost
from repro.core.mcast_bcast import scouted_mcast
from repro.core.scout import (answer, report_fold_binary,
                              scout_gather_binary, scout_gather_linear)
from repro.mpi.collective.registry import REGISTRY
from repro.obs import FlightRecorder
from repro.runtime import run_spmd
from repro.simnet import DeadlockError, quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH
from repro.simnet.udp import UdpSocket

QUIET = quiet(FAST_ETHERNET_SWITCH)

SEQ = 5                         # the sequence under wait; SEQ - 1 is stale
KEYS = ("up", "ack", ("seg-dec", 0))


# ------------------------------------------------- wait_ctrl vs its model
def model_wait(stash, arrivals, wanted, key):
    """What a wait for ``(SEQ, key)`` from ``wanted`` must do with the
    stash, then with the datagrams in arrival order: ``(the first value
    per wanted source, the stash it leaves, datagrams it consumed)``."""
    got, early, consumed = {}, [], 0
    pending = list(stash)
    while True:
        for msg in pending:
            src, s, k, value = msg
            if (s, k) == (SEQ, key) and src in wanted:
                got.setdefault(src, value)      # later copies: duplicates
            elif s >= SEQ:
                early.append(msg)               # older ones: stale
        if got.keys() >= wanted or consumed == len(arrivals):
            return got, early, consumed
        pending = [arrivals[consumed]]
        consumed += 1


class ScriptedSocket:
    """A scout socket that delivers a fixed arrival order, then times
    out (or, with no deadline to honour, fails the test)."""

    def __init__(self, sim, arrivals):
        self.sim, self.arrivals, self.consumed = sim, arrivals, 0

    def recv(self, timeout=None):
        if self.consumed == len(self.arrivals):
            assert timeout is not None, "would block forever"
            self.sim.now += timeout
            return None
        self.sim.now += 1.0
        self.consumed += 1
        return SimpleNamespace(payload=self.arrivals[self.consumed - 1])
        yield                                           # a generator


def scripted_channel(stash, arrivals):
    channel = McastChannel.__new__(McastChannel)
    channel.sim = SimpleNamespace(now=0.0)
    channel.seq = SEQ
    channel._scout_stash = list(stash)
    channel.scout_sock = ScriptedSocket(channel.sim, arrivals)
    return channel


def drive(gen):
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("a scripted wait must never suspend")


@st.composite
def _traffic(draw):
    """Wanted, early (another key or SEQ + 1), stale (SEQ - 1),
    duplicate and sibling-subtree (an unwanted source) messages in any
    order, every value distinct; some of it already stashed."""
    msg = st.tuples(st.integers(0, 5),
                    st.sampled_from((SEQ - 1, SEQ, SEQ + 1)),
                    st.sampled_from(KEYS))
    heads = draw(st.lists(msg, max_size=24))
    msgs = [head + (i,) for i, head in enumerate(heads)]
    cut = draw(st.integers(0, len(msgs)))
    # a stash never holds stale entries of its own sequence's past
    stash = [m for m in msgs[:cut] if m[1] >= SEQ]
    wanted = draw(st.sets(st.integers(0, 5), max_size=4))
    key = draw(st.sampled_from(KEYS))
    deadline = draw(st.booleans())
    arrivals = msgs[cut:]
    if not deadline:            # no deadline: everyone wanted does arrive
        arrivals += [(src, SEQ, key, -1 - src) for src in sorted(wanted)]
    return stash, arrivals, wanted, key, deadline


@settings(max_examples=300, deadline=None)
@given(traffic=_traffic())
def test_wait_ctrl_is_its_model_over_any_interleaving(traffic):
    stash, arrivals, wanted, key, deadline = traffic
    channel = scripted_channel(stash, arrivals)
    got = drive(channel.wait_ctrl(wanted, SEQ, key,
                                  timeout_us=500.0 if deadline else None))
    want, early, consumed = model_wait(stash, arrivals, wanted, key)
    # exactly the first value per wanted source — the partial dict when
    # the deadline cut the wait short — and not one datagram more
    assert got == want
    assert channel.scout_sock.consumed == consumed
    assert (got.keys() == wanted) or (deadline and consumed == len(arrivals))
    # every early message stashed once, in arrival order; no stale or
    # duplicate entry survives
    assert channel._scout_stash == early
    assert all(s >= SEQ for _src, s, _k, _v in early)
    assert not any((s, k) == (SEQ, key) and src in got
                   for src, s, k, _v in early)

    # ... and matched later, by the wait that wants it, off the stash alone
    channel.scout_sock = ScriptedSocket(channel.sim, [])
    for s, k in sorted({(s, k) for _src, s, k, _v in early}, key=repr):
        first = {}
        for src, s2, k2, value in early:
            if (s2, k2) == (s, k):
                first.setdefault(src, value)
        channel.seq = s
        assert drive(channel.wait_ctrl(set(first), s, k)) == first
    # once the sequence has moved on, whatever is left is stale
    channel.seq = SEQ + 2
    assert drive(channel.wait_ctrl((), SEQ + 2, "up")) == {}
    assert channel._scout_stash == []


# ------------------------------------------------------- the one up-walk
def subtree(rel, size):
    out = {rel}
    for child in tree.children(rel, size):
        out |= subtree(child, size)
    return out


def walk_all(n, root, walk):
    """Run ``walk(env, channel, seq)`` on ``n`` ranks; returns the
    per-rank results and the log of ``(time, src, dst)`` control sends."""
    sends = []

    def main(env):
        channel = env.comm.mcast
        real_send = channel.send_ctrl

        def send_ctrl(dst, *args, **kw):
            sends.append((env.sim.now, env.rank, dst))
            return real_send(dst, *args, **kw)

        channel.send_ctrl = send_ctrl
        out = yield from walk(env, channel, channel.next_seq())
        return out, env.sim.now

    result = run_spmd(n, main, params=QUIET)
    return result, sends


@pytest.mark.parametrize("n", range(1, 18))
def test_walk_merges_every_subtree_and_sends_one_message_up(n):
    """Every size up to 17 and every root: N-1 messages, each rank one
    to its binomial parent and only after all of its children did; a
    rank's return is the merge of its whole subtree — the group's at
    the root."""
    for root in range(n):
        def fold(env, channel, seq):
            return report_fold_binary(env.comm, channel, seq, root, 0,
                                      {env.rank}, nsegs=n)

        result, sends = walk_all(n, root, fold)
        assert result.stats["frames_by_kind"].get("seg-report", 0) == n - 1
        sent_at = {src: t for t, src, _dst in sends}
        assert len(sends) == len(sent_at) == n - 1
        for rank in range(n):
            rel = (rank - root) % n
            mine = {(r + root) % n for r in subtree(rel, n)}
            assert result.returns[rank][0] == mine, (n, root, rank)
            for child in tree.children(rel, n):
                assert sent_at[(child + root) % n] < sent_at.get(
                    rank, float("inf"))
        assert {(src, dst) for _t, src, dst in sends} == {
            (rank, (tree.parent((rank - root) % n) + root) % n)
            for rank in range(n) if rank != root}


@pytest.mark.parametrize("gather,kind", [(scout_gather_binary, "binary"),
                                         (scout_gather_linear, "linear")])
def test_gathers_are_the_walk_without_a_value(gather, kind):
    """N-1 bare scouts; the root returns last; the linear gather is the
    walk on the star (everyone's parent is the root)."""
    for n, root in ((1, 0), (2, 1), (6, 0), (9, 4), (17, 16)):
        result, sends = walk_all(
            n, root, lambda env, channel, seq: gather(
                env.comm, channel, seq, root, "ready"))
        assert result.stats["frames_by_kind"].get("scout", 0) == n - 1
        assert sorted(src for _t, src, _dst in sends) == \
            [r for r in range(n) if r != root]
        assert all(out is None for out, _t in result.returns)
        assert all(t < result.returns[root][1] for t, _s, _d in sends)
        if kind == "linear":
            assert {dst for _t, _src, dst in sends} <= {root}


def test_answer_is_one_multicast_and_a_late_rank_finds_it_stashed():
    """The root sends ONE control multicast of the given kind and
    returns its own value; every other rank returns the root's.  A rank
    busy on another wait when the answer lands stashes it, and its own
    ``answer`` is then served off the channel's stash."""
    n, root, late = 4, 1, 3

    def main(env):
        comm, channel = env.comm, env.comm.mcast
        seq = channel.next_seq()
        stashed = None
        if env.rank == late:    # parked on "go", sent after the answer
            yield from channel.wait_ctrl({root}, seq, "go")
            stashed = [k for _src, _s, k, _v in channel._scout_stash]
        out = yield from answer(comm, channel, seq, root, "verdict",
                                ("from", env.rank), 40, "verdict")
        if env.rank == root:
            yield from channel.send_ctrl(late, seq, "go")
        return out, stashed, list(channel._scout_stash)

    result = run_spmd(n, main, params=QUIET)
    assert result.stats["frames_by_kind"]["verdict"] == 1
    for rank, (out, stashed, left) in enumerate(result.returns):
        assert out == ("from", root), rank
        assert stashed == (["verdict"] if rank == late else None)
        assert left == []


# ---------------------------------- the stale-copy guard (docs/CHAOS.md)
@pytest.mark.parametrize("nbytes", [100, 3000])
@pytest.mark.parametrize("n", [3, 5, 6, 9])
def test_ack_bcast_then_mcast_barrier_completes(n, nbytes):
    """docs/CHAOS.md's reproducer: the ``mcast-ack`` root's late
    retransmission of seq k reaches receivers while they wait for the
    barrier release of seq k+1.  The release is a control message, so
    no posted descriptor is there for the stale copy to take: it dies
    unposted and every case completes, at 100 B too, where a receiver
    posting after the unscouted first copy forces a real resend."""
    payload = bytes(nbytes)

    def main(env):
        out = yield from env.comm.bcast(
            payload if env.rank == 0 else None, 0)
        yield from env.comm.barrier()
        return out

    for seed in range(3):
        result = run_spmd(n, main, "switch", seed=seed, collectives={
            "bcast": "mcast-ack", "barrier": "mcast"})
        assert result.returns == [payload] * n


def test_a_future_or_foreign_multicast_is_still_unsafe_code():
    """Only a *stale* sequence is a transport loss (``McastLost``); a
    later sequence or another root in the descriptor means the ranks
    disagree about the order of collectives."""
    def no_scouts(comm, channel, seq, root):
        return
        yield

    def main(env):
        channel = env.comm.mcast
        if env.rank == 0:
            yield env.sim.timeout(500.0)
            yield from channel.send_data("x", 1, seq=7)
            return None
        # the (root, seq) a receiver posts for: next_seq() is seq + 1
        root, channel.seq = {1: (0, 2), 2: (1, 6), 3: (0, 8)}[env.rank]
        receive = scouted_mcast(env.comm, None, root, no_scouts)
        if env.rank == 3:       # posted for seq 9: seq 7 is stale
            with pytest.raises(McastLost,
                               match="a stale copy took the descriptor"):
                yield from receive
            return None
        with pytest.raises(AssertionError, match="unsafe MPI code"):
            yield from receive

    run_spmd(4, main, params=QUIET)


# -------------------------------------------- the data socket carries data
MCAST_CASES = [(op, impl) for op in sorted(REGISTRY)
               for impl in sorted(REGISTRY[op])
               if impl.startswith("mcast") or impl == "hier-mcast"]


@pytest.mark.parametrize("op,impl", MCAST_CASES)
def test_only_data_reaches_a_data_port(op, impl, monkeypatch):
    """Every multicast implementation, flat and ``hier-mcast``, loss-free
    on one switch and on a two-tier fabric: the only datagrams any
    channel's posted-only data socket is offered are ``mcast-data`` and
    ``mcast-seg`` — the stream header, the decision and the barrier
    release all ride the control plane."""
    kinds = Counter()
    deliver = UdpSocket._deliver

    def spy(sock, dgram):
        if sock.posted_only:
            kinds[dgram.kind] += 1
        deliver(sock, dgram)

    monkeypatch.setattr(UdpSocket, "_deliver", spy)
    for topology in ("switch", "tree:2x2"):
        for size in (100, 5000):
            run_spmd(4, op_body(op, size), topology, params=QUIET,
                     collectives={op: impl})
    assert kinds.keys() <= {"mcast-data", "mcast-seg"}
    assert bool(kinds) == (op != "barrier")


# ---------------------------------------- a lost control multicast wedges
@pytest.mark.xfail(strict=True, raises=DeadlockError, reason="ROADMAP 1(a)")
@pytest.mark.parametrize("kind,ranks", [("seg-dec", {2}),
                                        ("mcast-seg-hdr", {1, 2, 3})],
                         ids=["seg-dec@2", "mcast-seg-hdr@1-3"])
def test_a_lost_control_multicast_completes_or_fails_typed(kind, ranks):
    """The control plane has no retry: dropping the first ``kind``
    control multicast at ``ranks`` (one copy each) suspends them until
    the kernel's ``DeadlockError``.  The contract every data loss
    already honours — each rank returns the payload or raises
    ``McastLost`` — is the one direction 1(a) must extend to it."""
    payload = bytes(24_000)

    def on_cluster(cluster):
        for rank in ranks:
            eaten = []

            def drop_first(dgram, eaten=eaten):
                if dgram.kind == kind and not eaten:
                    eaten.append(dgram)
                    return "drop"
                return None
            cluster.hosts[rank].frame_fate = drop_first

    def main(env):
        try:
            out = yield from env.comm.bcast(
                payload if env.rank == 0 else None, 0)
        except McastLost:
            return "lost"
        return out

    result = run_spmd(4, main, "switch", seed=1, params=QUIET,
                      collectives={"bcast": "mcast-seg-nack"},
                      on_cluster=on_cluster)
    assert all(out in (payload, "lost") for out in result.returns)



@pytest.mark.parametrize("kind,ranks,waiting", [
    ("seg-dec", {2}, {"rank2 follow:seq1:r0"}),
    ("mcast-seg-hdr", {1, 2, 3},
     {f"rank{r} follow:seq1:hdr" for r in (1, 2, 3)})],
    ids=["seg-dec@2", "mcast-seg-hdr@1-3"])
def test_the_hang_dump_names_the_step_a_lost_multicast_wedged(
        kind, ranks, waiting):
    """The wedge above, as the hang dump shows it: a rank waiting for
    its stream header lists the stream's ``hdr`` step, one waiting for
    a decision lists that round — the waits direction 1(a) must
    unstick."""
    recorder = FlightRecorder()

    def on_cluster(cluster):
        recorder.attach(cluster)
        for rank in ranks:
            eaten = []

            def drop_first(dgram, eaten=eaten):
                if dgram.kind == kind and not eaten:
                    eaten.append(dgram)
                    return "drop"
                return None
            cluster.hosts[rank].frame_fate = drop_first

    def main(env):
        out = yield from env.comm.bcast(
            bytes(24_000) if env.rank == 0 else None, 0)
        return out

    with pytest.raises(DeadlockError):
        run_spmd(4, main, "switch", seed=1, params=QUIET,
                 collectives={"bcast": "mcast-seg-nack"},
                 on_cluster=on_cluster)
    section = recorder.hang_report.split("-- open rounds --\n", 1)[1]
    section = section.split("\n--", 1)[0]
    labels = {line.strip().rsplit(": missing=", 1)[0]
              for line in section.splitlines()}
    assert {label for label in labels if "follow" in label} == waiting, \
        recorder.hang_report
