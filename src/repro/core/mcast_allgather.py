"""Many-to-many collectives over IP multicast — the paper's future work.

§5 of the paper: "While we have not observed buffer overflow due to a
set of fast senders overrunning a single receiver, it is possible this
may occur in many-to-many communications and needs to be examined
further."  This module examines it.

An **allgather** over multicast lets every rank contribute one payload
and receive everyone else's — N multicasts total instead of MPICH's
gather-plus-broadcast trees.  Two schedules are provided:

* ``mcast-paced`` (the safe one, registered as an ``allgather``
  implementation): after a scout-synchronized "all ready" round, ranks
  multicast strictly **in rank order**, each waiting for its
  predecessor's payload before sending.  A receiver therefore never
  needs more than **one** outstanding receive descriptor: pacing turns
  the many-to-many hazard back into the paper's one-to-many case.
* ``unpaced`` (:func:`allgather_mcast_unpaced`, deliberately *not*
  registered): after the ready round every rank multicasts at once.
  Receivers holding fewer than N-1 posted descriptors can be overrun —
  exactly the buffer-overflow scenario the paper worried about.  The
  function reports per-rank losses instead of hanging, and the
  ``overrun`` family of the ``paper-figures`` sweep area
  (:mod:`repro.bench.paper_figures`) sweeps the descriptor budget to
  chart the overrun boundary.

Both build on the per-communicator :class:`~repro.core.channel.McastChannel`.
For contributions larger than one MTU, :mod:`repro.core.segment` registers
``mcast-seg-paced``: the same rank-ordered pacing, with each turn's payload
fragmented (adaptively sized/batched) and streamed as a pipeline of
segments, and each turn's sender running the broadcast's selective NACK
repair rounds — so induced loss or a descriptor-budget overrun is
repaired by the rank that owns the data instead of raising ``McastLost``.
"""

from __future__ import annotations

from typing import Any, Generator

from ..mpi.collective.registry import register
from ..mpi.datatypes import payload_bytes
from .scout import scout_gather_binary

__all__ = ["allgather_mcast_paced", "allgather_mcast_unpaced"]


def _ready_round(comm, channel, seq: int) -> Generator:
    """Scout-sync "everyone has posted" round at rank 0 (like the
    barrier, but the release rides the scout socket so it cannot consume
    a data post)."""
    yield from scout_gather_binary(comm, channel, seq, 0, phase="ag-ready")
    if comm.rank == 0:
        for dst in range(1, comm.size):
            yield from channel.send_ctrl(dst, seq, "ag-go")
    else:
        yield from channel.wait_ctrl({0}, seq, "ag-go")


@register("allgather", "mcast-paced")
def allgather_mcast_paced(comm, obj: Any) -> Generator:
    """Rank-ordered multicast allgather (overrun-free by construction).

    Usage: ``everything = yield from comm.allgather(obj)`` with
    ``comm.use_collectives(allgather="mcast-paced")``.
    """
    channel = comm.mcast
    seq = channel.next_seq()
    size = comm.size
    if size == 1:
        return [obj]

    # One post is enough: pacing guarantees at most one in-flight payload.
    results: list[Any] = [None] * size
    results[comm.rank] = obj

    yield from _ready_round(comm, channel, seq)

    for turn in range(size):
        if turn == comm.rank:
            yield from channel.send_data((turn, obj),
                                         payload_bytes(obj), seq)
            continue
        posted = channel.post_data()
        src, got_seq, (turn_tag, data) = yield from channel.wait_data(
            posted)
        if got_seq != seq or src != turn or turn_tag != turn:
            raise AssertionError(
                f"rank {comm.rank}: allgather pacing violated "
                f"(expected turn {turn}, got src={src}, tag={turn_tag}, "
                f"seq={got_seq}/{seq})")
        results[turn] = data
    return results


def allgather_mcast_unpaced(comm, obj: Any,
                            descriptors: int) -> Generator:
    """All ranks multicast simultaneously; ``descriptors`` receives are
    pre-posted.  Returns ``(results, lost)`` where ``lost`` counts the
    contributions this rank missed (``results`` holds ``None`` there).

    This is the overrun experiment, not a correct collective: with
    ``descriptors < N-1`` a receiver *will* drop whatever arrives while
    it has no free descriptor (paper §5's buffer-overflow worry).  The
    function re-posts as fast as it can consume, so losses measure the
    burst the receiver could not absorb, then uses a timeout to detect
    what never came.
    """
    if descriptors < 1:
        raise ValueError(f"need at least one descriptor, got "
                         f"{descriptors}")
    channel = comm.mcast
    seq = channel.next_seq()
    size = comm.size
    if size == 1:
        return [obj], 0

    results: list[Any] = [None] * size
    results[comm.rank] = obj

    # Pre-post the descriptor budget (VIA-style receive descriptors).
    budget = min(descriptors, size - 1)
    posted = [channel.post_data() for _ in range(budget)]

    yield from _ready_round(comm, channel, seq)

    # Everyone fires at once.
    yield from channel.send_data((comm.rank, obj), payload_bytes(obj),
                                 seq)

    expected = size - 1
    received = 0
    # Consume + re-post until everything arrived or nothing more comes.
    # The drain timeout is generous: several worst-case serializations.
    drain_us = 50_000.0
    timer = channel.data_timer()
    try:
        while received < expected and posted:
            ev = posted.pop(0)
            if not ev.triggered:
                timer.arm(drain_us, ev)
            got = yield from channel.wait_data(ev)
            if got is None:
                break
            src, got_seq, (tag, data) = got
            if got_seq == seq and results[tag] is None:
                results[tag] = data
                received += 1
            if received + len(posted) < expected:
                posted.append(channel.post_data())
    finally:
        timer.cancel()
        # Withdraw every descriptor still outstanding (not just the one
        # that timed out): a stale posted receive would swallow the next
        # collective's multicast payload on this channel and hang it.
        channel.cancel_data(posted)

    lost = expected - received
    return results, lost
