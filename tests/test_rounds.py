"""The reusable round engine: the stream loop's contract, needed-subset and
bystander followers, adaptive drain timeouts, repair re-batching, and
the stragglers that reach a follower where its header was due or land
in its data descriptors."""

from dataclasses import replace

import pytest

from _invariants import assert_quiesced
from repro import run_spmd
from repro.core.rounds import (Reassembler, Segment, repair_batch,
                               round_drain_timeout_us, round_namespace,
                               stream_rounds)
from repro.core.segment import (fragment, seg_nack_datagram_count)
from repro.mpi.ops import Op
from repro.simnet import quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH

QUIET = quiet(FAST_ETHERNET_SWITCH)
AUTO = replace(QUIET, segment_bytes="auto")
CONCAT = Op("CONCAT", lambda a, b: a + b, commutative=False)


# ------------------------------------------------------------ namespace
def test_round_namespace_shapes():
    arm, tok = round_namespace()
    assert arm(0) == ("seg-arm", 0) and tok(3) == 3
    arm, tok = round_namespace("ag", 2)
    assert arm(1) == ("seg-arm", "ag", 2, 1)
    assert tok(1) == ("ag", 2, 1)
    # distinct keys never collide
    assert round_namespace("a")[0](0) != round_namespace("b")[0](0)


# ------------------------------------------------- adaptive drain timeout
def test_drain_timeout_is_capped_by_configured_timeout():
    """A 33-datagram round exceeds the cap: the flat expectation is
    the configured fixed timeout, and only the path rides on top — the edge
    switch's store-and-forward of one full frame, ``1472 + 28`` IP bytes
    + 38 B of Ethernet framing = 1538 wire B x 0.08 us + 12 us lookup +
    0.5 us cable = 135.54 us."""
    assert (round_drain_timeout_us(QUIET, 33, 1472)
            == QUIET.seg_drain_timeout_us + 135.54)


def test_drain_timeout_shrinks_for_short_rounds():
    one = round_drain_timeout_us(QUIET, 1, 1472)
    assert QUIET.seg_drain_floor_us < one < QUIET.seg_drain_timeout_us
    # the 12 kB auto case: one batched ~12 kB datagram, still below cap
    batched = round_drain_timeout_us(AUTO, 1, 12_044)
    assert batched < AUTO.seg_drain_timeout_us
    # monotonic in round length
    assert one <= round_drain_timeout_us(QUIET, 2, 1472)


def test_whole_round_loss_nacks_faster_than_fixed_timeout():
    """The PR 2 follow-up: losing the *whole* round (one batched auto
    datagram) used to pay the full fixed drain timeout before NACKing;
    the adaptive timeout cuts the stall, so the same lossy broadcast
    finishes measurably earlier."""
    def drop_first_round():
        seen = set()

        def flt(dgram):
            if dgram.kind != "mcast-seg":
                return None
            seq = dgram.payload[1]
            if seq in seen:
                return None
            seen.add(seq)
            return "drop"

        return flt

    def main(env):
        env.comm.use_collectives(bcast="mcast-seg-nack")
        if env.rank == 1:
            env.host.frame_fate = drop_first_round()
        obj = bytes(12_000) if env.rank == 0 else None
        out = yield from env.comm.bcast(obj, 0)
        return len(out)

    adaptive = run_spmd(3, main, params=AUTO)
    # forcing the floor to the cap reproduces the fixed-timeout behaviour
    fixed = run_spmd(3, main, params=replace(
        AUTO, seg_drain_floor_us=AUTO.seg_drain_timeout_us))
    assert adaptive.returns == fixed.returns == [12_000] * 3
    assert adaptive.stats["retransmissions"] >= 1
    assert adaptive.sim_time_us < fixed.sim_time_us - 500.0


def _flat_lossy_bcast(n, topology, seed):
    def main(env):
        env.comm.use_collectives(bcast="mcast-seg-nack")
        obj = bytes(24_000) if env.rank == 0 else None
        out = yield from env.comm.bcast(obj, 0)
        return out == bytes(24_000)

    return run_spmd(n, main, topology=topology,
                    params=replace(AUTO, loss=0.02), seed=seed)


def test_flat_lossy_bcast_completes_at_12_ranks():
    """The PR 18 fix, pinned where the bug was: on a flat 12-rank switch
    at 2 % loss one lost segment used to be unrepairable.  The root
    unicast its N-1 decisions one after another (4845.7 ... 5250.2
    sim-us), so rank 1 — told first — armed and started its repair-round
    drain clock (4893.7) while the root was still talking; the timer
    fired at 5989.6, cancelled the descriptor, and the repair datagram
    (sent 5790.2) reached it at 6240.8 to die as ``drops_not_posted`` —
    identically in all 40 rounds, until the root gave up ("still
    missing [10]").  480 of the 896 us of skew were decision stagger,
    the rest the arming gather's depth.  Now the decision is one
    multicast (no stagger) and the drain timeout derives the gather
    term from the group size: one repair round, then done."""
    result = _flat_lossy_bcast(12, "switch", 1)
    assert result.returns == [True] * 12
    assert result.stats["retransmissions"] == 1
    assert result.stats["frames_by_kind"]["seg-dec"] == 2   # repair, done


@pytest.mark.parametrize("n,topology,seed", [
    (64, "switch", 1), (64, "switch", 2), (64, "switch", 3),
    (256, "tree:16x16", 1)])
def test_flat_lossy_bcast_completes_at_scale(n, topology, seed):
    """Sizes where no floor under the cap used to help: the decision
    stagger grew with N (every case here raised McastLost before
    PR 18).  Byte-correct everywhere, within a handful of repair
    rounds — one decision multicast per round."""
    result = _flat_lossy_bcast(n, topology, seed)
    assert result.returns == [True] * n
    assert result.stats["retransmissions"] >= 1
    assert 1 <= result.stats["frames_by_kind"]["seg-dec"] - 1 <= 4


# ------------------------------------------------------ repair re-batching
def test_repair_batch_policy():
    # fully-auto params: small repair plans pack into one datagram
    assert repair_batch(AUTO, 3, 1) == 3
    assert repair_batch(AUTO, AUTO.seg_auto_crossover, 1) == 10
    # above the crossover: keep round 0's granularity
    assert repair_batch(AUTO, 11, 1) == 1
    # an explicit segment size pins the wire behaviour
    assert repair_batch(QUIET, 3, 1) == 1


def test_scattered_losses_repack_into_one_repair_datagram():
    """48 kB auto (batch 1) with three scattered losses at one rank:
    the repair round re-batches [3, 11, 19] into a single datagram —
    one retransmission event, one descriptor, three frames."""
    lost = {3, 11, 19}

    def drop_once():
        dropped = set()

        def flt(dgram):
            if dgram.kind != "mcast-seg":
                return None
            seg = dgram.payload[2]
            segs = seg if isinstance(seg, tuple) else (seg,)
            if len(segs) == 1 and segs[0].index in lost - dropped:
                dropped.add(segs[0].index)
                return "drop"
            return None

        return flt

    def main(env):
        env.comm.use_collectives(bcast="mcast-seg-nack")
        if env.rank == 1:
            env.host.frame_fate = drop_once()
        obj = bytes(48_000) if env.rank == 0 else None
        out = yield from env.comm.bcast(obj, 0)
        return out == bytes(48_000)

    result = run_spmd(3, main, params=AUTO)
    assert result.returns == [True] * 3
    # ONE batched repair send carried all three lost segments...
    assert result.stats["retransmissions"] == 1
    # ...but still three single-frame segments on the wire
    assert result.stats["frames_by_kind"]["mcast-seg"] == 33 + 3
    wireup = result.stats["frames_by_kind"].get("p2p", 0)
    assert (result.stats["datagrams_sent"] - wireup
            == seg_nack_datagram_count(3, 33, batch=1, repairs=[3],
                                       repair_batches=[3]))


def test_seg_nack_datagram_count_repair_batches():
    base = seg_nack_datagram_count(4, 33, batch=1, repairs=[5])
    packed = seg_nack_datagram_count(4, 33, batch=1, repairs=[5],
                                     repair_batches=[5])
    assert base - packed == 4          # 5 repair datagrams became 1
    with pytest.raises(ValueError):
        seg_nack_datagram_count(4, 33, repairs=[5], repair_batches=[5, 1])


# ------------------------------------------------- Reassembler subsets
def test_reassembler_needed_subset():
    segs = fragment(bytes(range(250)) * 2, 100)      # 5 segments
    r = Reassembler(5, needed={1, 2})
    assert r.missing() == {1, 2} and not r.complete
    assert not r.add(segs[0])                        # not needed: ignored
    assert r.add(segs[1]) and r.add(segs[2])
    assert r.complete and r.missing() == set()
    assert [s.index for s in r.segments()] == [1, 2]
    assert b"".join(s.chunk for s in r.segments()) == (bytes(segs[1].chunk)
                                                       + bytes(segs[2].chunk))
    with pytest.raises(ValueError):
        r.result()                                   # not the whole stream


def test_reassembler_bystander_and_validation():
    r = Reassembler(3, needed=set())
    assert r.complete and r.missing() == set() and r.segments() == []
    with pytest.raises(ValueError):
        Reassembler(3, needed={5})
    with pytest.raises(ValueError):
        Reassembler(0)


# ------------------------------------------------------ serve/follow raw
def test_serve_follow_contract_with_subsets_and_bystander():
    """The raw engine API: rank 0 serves a 10-segment stream; rank 1
    follows it all, rank 2 follows only indices 0-4, rank 3 is a pure
    bystander — and a loss at rank 1 is repaired without disturbing the
    others."""
    payload = bytes(range(256)) * 20                 # 5120 B
    nsegs, batch = 10, 2

    def drop_seg7_once():
        state = {"done": False}

        def flt(dgram):
            if dgram.kind != "mcast-seg" or state["done"]:
                return None
            seg = dgram.payload[2]
            segs = seg if isinstance(seg, tuple) else (seg,)
            if any(s.index == 7 for s in segs):
                state["done"] = True
                return "drop"
            return None

        return flt

    def main(env):
        comm = env.comm
        channel = comm.mcast
        seq = channel.next_seq()
        arm, tok = round_namespace("raw", 0)
        if env.rank == 0:
            segs = fragment(payload, 512)
            assert len(segs) == nsegs
            yield from stream_rounds(comm, channel, seq, 0, arm, tok,
                                     segs, batch)
            return "served"
        if env.rank == 1:
            env.host.frame_fate = drop_seg7_once()
            reasm = yield from stream_rounds(comm, channel, seq, 0, arm,
                                             tok)
            return reasm.result()
        if env.rank == 2:
            reasm = yield from stream_rounds(comm, channel, seq, 0, arm,
                                             tok, needed=set(range(5)))
            return b"".join(s.chunk for s in reasm.segments())
        reasm = yield from stream_rounds(comm, channel, seq, 0, arm, tok,
                                         needed=set())
        return ("bystander", reasm.segments(),
                channel.data_sock.posted_high_water)

    result = run_spmd(4, main, params=QUIET)
    assert result.returns[0] == "served"
    assert result.returns[1] == payload
    assert result.returns[2] == payload[:2560]
    kind, segs, high_water = result.returns[3]
    assert kind == "bystander" and segs == []
    assert high_water == 0                 # never posted a descriptor
    # the batch holding segment 7 (one datagram of 2 segments) was the
    # only repair
    assert result.stats["retransmissions"] == 1
    # the engine's own header handshake: N-1 scouts and one header
    # multicast ahead of the two rounds' arming gathers
    kinds = result.stats["frames_by_kind"]
    assert kinds["mcast-seg-hdr"] == 1
    assert kinds["scout"] == (4 - 1) * (1 + 2)


def test_serve_follow_sequential_namespaces_do_not_cross_match():
    """Two back-to-back engine streams on one channel, distinct
    namespaces: control traffic of the first can never satisfy the
    second."""
    def main(env):
        comm = env.comm
        channel = comm.mcast
        out = []
        for k, payload in enumerate((b"a" * 1500, b"b" * 3000)):
            seq = channel.next_seq()
            arm, tok = round_namespace("multi", k)
            if env.rank == 0:
                segs = fragment(payload, 512)
                yield from stream_rounds(comm, channel, seq, 0, arm, tok,
                                         segs, 1)
                out.append(payload)
            else:
                reasm = yield from stream_rounds(comm, channel, seq, 0,
                                                 arm, tok)
                out.append(reasm.result())
        return [o == e for o, e in zip(out, (b"a" * 1500, b"b" * 3000))]

    result = run_spmd(3, main, params=QUIET)
    assert result.returns == [[True, True]] * 3
    # per stream: one header, header + arming scout gathers
    kinds = result.stats["frames_by_kind"]
    assert kinds["mcast-seg-hdr"] == 2
    assert kinds["scout"] == 2 * (3 - 1) * 2


# ------------------------------------------------- the drain timer (PR 14)
def _eat_tail_once():
    """A frame_fate losing the first datagram that carries the stream's
    last segment — the loss only silence can detect."""
    done = []

    def flt(dgram):
        if dgram.kind != "mcast-seg" or done:
            return None
        payload = dgram.payload[2]
        segs = payload if isinstance(payload, tuple) else (payload,)
        if segs[-1].index == segs[-1].nsegs - 1:
            done.append(True)
            return "drop"
        return None

    return flt


def test_tail_loss_records_one_drain_timeout_at_the_historical_instant():
    """The round's drain timer replaced a Timeout + AnyOf per awaited
    descriptor (701 kernel records at f05fb36, same deadline
    arithmetic).  The instant is derived, not fitted: round 0 arms at
    1607.348... and the timeout is ``round_drain_timeout_us(params, 5,
    1012, size=4)``, priced in wire bytes (:mod:`repro.simnet.ip`):

    * flat expectation ``250 + 5 x (1078 B x 0.08 + 48 + 15 + 45 + 45
      + 4) = 250 + 5 x 243.24 = 1466.20`` (1012 user B + 28 IP/UDP +
      38 Ethernet framing = 1078 wire B), under the 2500 cap;
    * the edge switch's store-and-forward of that one frame,
      ``86.24 + 12 + 0.5 = 98.74``;
    * the arming gather of a 4-rank group, 2 levels x one control hop
      ``48 + 45 + 4 + 84 B x 0.08 + (6.72 + 12 + 0.5) = 122.94`` (a
      4 B scout pads to the 46 B minimum payload: 84 wire B).

    ``1466.20 + 98.74 + 245.88 = 1810.82``, so the timer fires at
    3418.168...  The run ends when the last rank returns."""
    from repro.obs.trace import FlightRecorder

    params = replace(FAST_ETHERNET_SWITCH, segment_bytes=1000)  # jittered
    recorders = []

    def main(env):
        env.comm.use_collectives(bcast="mcast-seg-nack")
        if env.rank == 2:
            env.host.frame_fate = _eat_tail_once()
        out = yield from env.comm.bcast(
            bytes(range(250)) * 20 if env.rank == 0 else None, 0)
        return len(out)

    result = run_spmd(
        4, main, params=params, seed=3,
        on_cluster=lambda c: recorders.append(FlightRecorder().attach(c)))
    assert result.returns == [5000] * 4
    assert result.stats["drops_chaos"] == 1
    assert result.stats["retransmissions"] == 1
    drains = [e for e in recorders[0].events
              if e[0] == "inst" and e[3] == "drain-timeout"]
    assert drains == [("inst", 2, "round", "drain-timeout",
                       3418.168328975861,
                       (("round", 0), ("cancelled", 1)))]
    assert drains[0][4] == pytest.approx(1607.348328975861 + 1810.82)
    assert round_drain_timeout_us(params, 5, 1012, size=4) == \
        pytest.approx(1810.82)
    assert result.sim_time_us == 4585.294052996833
    assert result.cluster.sim.processed < 701 * 0.65


def test_socket_closed_in_consume_round_disarms_and_withdraws(monkeypatch):
    """Every exit of the wait — the data socket closing under the rank
    parked on the ring included — closes the ring: drain timer disarmed,
    descriptors withdrawn (the sanitizer's quiesce check would name a
    leftover one)."""
    from repro.core.rounds import _consume_round, _taker
    from repro.simnet.udp import SocketClosed

    monkeypatch.setenv("REPRO_SANITIZE", "1")

    def main(env):
        if env.rank != 1:
            return None
        channel = env.comm.mcast
        env.sim.schedule_call(200.0, channel.data_sock.close)
        due = env.sim.now + 200.0
        seq = channel.next_seq()
        ring = channel.data_sock.post_ring(
            3, _taker(0, seq, Reassembler(3), last_index=2))
        assert channel.data_sock.posted_depth == 3
        try:
            yield from _consume_round(env.comm, ring, drain_us=5_000.0)
        except SocketClosed as exc:
            return (type(exc).__name__, ring.timer.armed,
                    channel.data_sock.posted_depth, env.sim.now == due)
        return "not closed"

    result = run_spmd(2, main, params=QUIET)      # check_quiesced passes
    assert result.returns[1] == ("SocketClosed", False, 0, True)
    # the orphaned timer record popped as a no-op; nothing else ran
    assert not result.cluster.sim._heap


def test_timed_recv_returns_none_and_leaves_no_descriptor():
    """UdpSocket.recv(timeout=) on the same timer: None at exactly
    ``now + timeout``, descriptor withdrawn, a later datagram queues."""
    from repro.simnet.topology import build_cluster
    from repro.simnet.udp import UdpSocket

    cluster = build_cluster(2, topology="switch", params=QUIET)
    sim = cluster.sim
    rx = UdpSocket(cluster.hosts[1], 9000)
    tx = UdpSocket(cluster.hosts[0], 9001)
    out = []

    def receiver():
        out.append(((yield from rx.recv(timeout=1 / 3)), sim.now))
        assert rx.posted_depth == 0
        got = yield from rx.recv(timeout=10_000.0)
        out.append((got.payload, rx.posted_depth))

    def sender():
        yield sim.timeout(50.0)
        yield from tx.sendto("hello", 100, cluster.hosts[1].addr, 9000)

    sim.process(receiver())
    sim.process(sender())
    sim.run()
    assert out == [(None, 1 / 3), ("hello", 0)]


# -------------------------------------------------- record budget (PR 14)
def test_record_budget_64_rank_bcast():
    """ROADMAP's own case: 64 ranks on tree:8x8, one 24 kB mcast-seg-nack
    bcast.  A record is scheduled only when something observes its
    effect, so a delivered frame costs < 4.5 kernel records: 15.0 when
    every link pumped a wake-up per frame (26,570 / 1,770), 7.10 while
    each hop still took a second record for the far end's fixed delay
    and every idle NIC send a completion (12,570), 5.00 with both folded
    away (8,846), 4.27 since the copies landing at one instant share a
    record (7,552; the jittered unicast control traffic rarely ties).
    The heap never holds more than 250 (1,176 with the per-frame
    wake-ups, 235 before the shared records, 180 since).  Counts are
    deterministic: a gate, not a band."""
    def main(env):
        env.comm.use_collectives(bcast="mcast-seg-nack")
        out = yield from env.comm.bcast(
            bytes(24_000) if env.rank == 0 else None, 0)
        return len(out)

    result = run_spmd(64, main, topology="tree:8x8", seed=1)
    assert result.returns == [24_000] * 64
    sim = result.cluster.sim
    assert result.stats["frames_delivered"] == 1770
    assert sim.processed / result.stats["frames_delivered"] <= 4.5
    assert sim.peak_live <= 250


# ------------------------------------- a straggler where the header was due
def _late_duplicate(cluster, addr):
    """Chaos through the ``HalfLink.fault`` seam, on one host's access
    link: the first ``mcast-seg`` frame down to ``addr`` is delivered —
    and delivered once more (the ``dup`` fate, delayed) at the instant
    the host's next scout leaves its NIC.  That scout is the header
    scout of the stream after the duplicated one: the stale copy
    arrives exactly where that stream's header is due."""
    up, down = cluster.host_links[addr]
    held = []

    def capture(frame, link):
        if frame.kind == "mcast-seg" and not held and up.fault is None:
            held.append((frame, frame.frame_id))
            up.fault = release
        return None

    def release(frame, link):
        if frame.kind == "scout" and held:
            stale, frame_id = held.pop()
            # a hook holds a frame without asking anybody: it is still
            # the frame it captured, however much traffic went by
            assert (stale.kind, stale.frame_id) == ("mcast-seg", frame_id)
            down.deliver(stale)
        return None

    down.fault = capture


def _straggler_program(op, size, seen):
    """Rank 0 — a follower of every stream after its own — logs what
    its engine reads off the data socket; every rank returns whether
    its result was byte-correct."""
    def block(rank):
        return bytes([rank + 1]) * 24_000

    def main(env):
        comm, rank = env.comm, env.rank
        if rank == 0:
            sock = comm.mcast.data_sock
            real = sock.post_ring

            def spy(n, take):
                def logged(dgram):
                    seen.append(dgram.payload[2])
                    return take(dgram)
                return real(n, logged)

            sock.post_ring = spy
        if op == "bcast":       # two streams, two sequence numbers
            outs = []
            for root in (1, 2):
                outs.append((yield from comm.bcast(
                    block(root) if rank == root else None, root)))
            return outs == [block(1), block(2)]
        if op == "scatter":
            outs = []
            for root in (1, 2):
                outs.append((yield from comm.scatter(
                    [block(root + r) for r in range(size)]
                    if rank == root else None, root)))
            return outs == [block(1 + rank), block(2 + rank)]
        if op == "reduce":      # one sequence number, a stream per turn
            out = yield from comm.reduce(block(rank), CONCAT, 0)
            return rank != 0 or out == b"".join(map(block, range(size)))
        out = yield from comm.allgather(block(rank))
        return out == [block(r) for r in range(size)]

    return main


@pytest.mark.parametrize("op,impl", [
    ("bcast", "mcast-seg-nack"), ("scatter", "mcast-seg-root"),
    ("reduce", "mcast-seg-combine"), ("allgather", "mcast-seg-paced")])
def test_stale_duplicate_where_the_header_was_due_dies_unposted(op, impl):
    """A stale ``mcast-seg`` duplicate of the previous stream — previous
    call (bcast, scatter) or previous turn of the same sequence number
    (reduce, allgather) — reaches a follower just as it scouts for the
    next stream's header.  The header rides the control plane, so the
    follower has posted no data descriptor yet: the copy dies unposted
    (one more ``drops_not_posted`` than the undisturbed run), the data
    socket never hands it — nor any header — to the engine, and the
    streams stay byte-correct with no repair traffic and nothing left
    posted."""
    n, clean, seen = 4, [], []
    base = run_spmd(n, _straggler_program(op, n, clean), params=AUTO,
                    collectives={op: impl})
    result = run_spmd(n, _straggler_program(op, n, seen), params=AUTO,
                      collectives={op: impl},
                      on_cluster=lambda c: _late_duplicate(c, 0))
    assert result.returns == [True] * n
    assert (result.stats["drops_not_posted"]
            == base.stats["drops_not_posted"] + 1)
    assert clean and len(seen) == len(clean)
    assert all(isinstance(seg, Segment) for got in seen
               for seg in (got if isinstance(got, tuple) else (got,)))
    assert not [got for i, got in enumerate(seen)
                if any(got is earlier for earlier in seen[:i])]
    assert result.stats["retransmissions"] == 0
    assert result.stats["drops_chaos"] == 0
    assert_quiesced(result.cluster, result.world)


# ------------------------------------------- the data straggler rule
def _delay_first_segment(cluster, addr, src, index, delay_us):
    """Chaos through the ``HalfLink.fault`` seam, on the switch → ``addr``
    link: the first ``mcast-seg`` frame carrying rank ``src``'s segment
    ``index`` is held back ``delay_us`` (the ``("delay", us)`` fate)."""
    down = cluster.host_links[addr][1]
    held = []

    def fate(frame, link):
        if frame.kind != "mcast-seg" or held:
            return None
        root, _seq, seg = frame.payload.dgram.payload
        if root == src and seg.index == index:
            held.append(frame)
            return ("delay", delay_us)
        return None

    down.fault = fate


@pytest.mark.parametrize("delay_us", [1750.0, 2000.0])
@pytest.mark.parametrize("op,impl", [("allgather", "mcast-seg-paced"),
                                     ("gather", "mcast-seg-root-follow")])
def test_late_segment_of_one_turn_is_not_the_next_turns_data(op, impl,
                                                             delay_us):
    """Every turn of one call shares its sequence number and, at equal
    contribution sizes, its segment indices: rank 0's segment 1, held
    back on its way to rank 2, lands in a descriptor rank 2 posted for
    rank 1's turn.  Only the stream's server may fill its data
    descriptors, so the late copy is discarded instead of reassembled
    as rank 1's segment 1; the segment it displaced is NACKed and
    repaired: byte-correct, one retransmission more than the turn-0
    repair alone."""
    def block(rank):
        return bytes([rank + 1]) * 5000            # 4 segments of <= 1460

    def main(env):
        if op == "allgather":
            out = yield from env.comm.allgather(block(env.rank))
        else:
            out = yield from env.comm.gather(block(env.rank), 2)
            if env.rank != 2:
                return out is None
        return out == [block(r) for r in range(3)]

    result = run_spmd(3, main, params=QUIET, collectives={op: impl},
                      on_cluster=lambda c: _delay_first_segment(
                          c, c.hosts[2].addr, 0, 1, delay_us))
    assert result.returns == [True] * 3
    assert result.stats["delays_chaos"] == 1
    assert result.stats["retransmissions"] == 2
    assert_quiesced(result.cluster, result.world)
