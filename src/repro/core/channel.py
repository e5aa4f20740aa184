"""The per-communicator multicast channel.

Binds an MPI communicator to one IP multicast group (paper §4: one group
per process group / context) plus two sockets on every member host:

* the **data socket** — joined to the group, ``posted_only``: a multicast
  datagram is delivered only if the receive was already posted, the
  paper's readiness model.  ``IP_MULTICAST_LOOP`` is off so the root does
  not consume its own broadcast;
* the **scout socket** — an ordinary buffered UDP socket that carries
  the **control plane**.  It joins the group too (``IP_MULTICAST_LOOP``
  off; the host's membership is refcounted, so no second IGMP report
  leaves the host), so a control message can be one multicast to
  ``(group, scout_port)``.

**One control message, one matcher.**  Every scout, ack, NACK report,
per-round decision and implementation announcement is the message
``(source rank, sequence, key, value)``: :meth:`McastChannel.send_ctrl`
sends it (unicast, or one multicast to the group) and
:meth:`McastChannel.wait_ctrl` matches it on ``(source, sequence, key)``,
optionally under a deadline.  A scout has no value; a report's value is
a subtree's missing set; a decision's the next round's plan.  Ranks that
race ahead are absorbed by one stash under one rule: stale (a completed
sequence) and duplicate messages are dropped, anything else is early and
kept for the wait that wants it — so the stash stays bounded across
collectives.

Every collective call advances the channel's **sequence number**; because
MPI code must be *safe* (all ranks issue collectives on a communicator in
the same order — paper §4), sequence numbers advance identically
everywhere and stale traffic is detectable: on the control plane by the
rule above, on the data socket by the ``(root, seq)`` of each datagram
a receive takes.

Every receive on the data socket is one descriptor ring
(``data_sock.post_ring(n, take)``): a ring of one for an ``mcast-data``
payload, a round's worth of *segments* (:mod:`repro.core.segment`) for
payloads larger than one MTU — each ``mcast-seg`` datagram carries one
segment or a batch of them; the data socket carries nothing else.  Why
every data-less multicast rides the buffered scout port is argued in
:mod:`repro.core.rounds`.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..simnet.fabric import path_trunk_hops
from ..simnet.frame import mcast_mac

__all__ = ["McastChannel", "McastLost", "GROUP_ID_BASE", "DATA_PORT_BASE",
           "SCOUT_PORT_BASE", "SCOUT_BYTES", "MCAST_HEADER_BYTES",
           "SEG_HEADER_BYTES"]

#: multicast group-id space of the communicators' channels: a channel's
#: group derives from ``GROUP_ID_BASE + ctx`` (hierarchical sub-channels
#: take theirs above, from ``MpiWorld.alloc_hier_slab``)
GROUP_ID_BASE = 1 << 16

DATA_PORT_BASE = 20000
SCOUT_PORT_BASE = 40000

#: wire payload of a scout message ("no data": just rank+seq encoding)
SCOUT_BYTES = 4

#: envelope bytes prepended to multicast data (root, seq)
MCAST_HEADER_BYTES = 8

#: extra envelope bytes on a *segment* frame (segment index, total
#: segment count) — on top of MCAST_HEADER_BYTES
SEG_HEADER_BYTES = 4


class McastLost(RuntimeError):
    """A multicast transfer was lost for good.

    Raised by ``mcast-binary`` / ``-linear`` on a stale copy, and by
    ``mcast-ack`` / ``mcast-sequencer`` and the round engine when
    ``NetParams.max_repair_rounds`` resends or repair rounds leave a
    receiver incomplete — the crisp, typed end of the "complete or
    fail" contract the chaos fuzzer asserts.  Every raiser states its
    ``reason``.  A ``RuntimeError``, for callers that catch the engine's
    historical bare error.
    """

    def __init__(self, rank: int, seq, reason: str):
        self.rank = rank
        self.seq = seq
        super().__init__(reason)


def _members_trunk_hops(comm) -> int:
    """Worst trunk path between any two members of a communicator view,
    in trunk hops; 0 when the view cannot reach a cluster topology (the
    real-socket validation stack) or on flat builds."""
    world = getattr(comm, "world", None)
    if world is None:
        world = getattr(getattr(comm, "parent", None), "world", None)
    cluster = getattr(world, "cluster", None)
    if getattr(cluster, "fabric", None) is None:
        return 0
    # the path depends only on the endpoints' segments
    paths = [cluster.segment_path(seg) for seg in sorted(
        {cluster.segment_of(comm.addr_of(r)) for r in range(comm.size)})]
    return max(path_trunk_hops(pa, pb) for pa in paths for pb in paths)


class McastChannel:
    """Multicast transport for one communicator, on one rank.

    ``comm`` may be a full :class:`~repro.mpi.communicator.Communicator`
    or any *communicator view* exposing ``rank`` / ``size`` /
    ``addr_of`` / ``host`` / ``sim`` (the hierarchical collectives bind
    channels to segment-local views, see
    :mod:`repro.mpi.collective.hier`).  The default group address and
    ports derive from ``comm.ctx``; explicit ``group`` / ``data_port`` /
    ``scout_port`` override them for channels that subdivide one
    communicator (per-segment groups, the leaders' group).
    """

    def __init__(self, comm, group: Optional[int] = None,
                 data_port: Optional[int] = None,
                 scout_port: Optional[int] = None):
        self.comm = comm
        self.host = comm.host
        self.sim = comm.sim
        self.params = self.host.params
        self.group = (mcast_mac(GROUP_ID_BASE + comm.ctx)
                      if group is None else group)
        self.data_port = (DATA_PORT_BASE + comm.ctx
                          if data_port is None else data_port)
        self.scout_port = (SCOUT_PORT_BASE + comm.ctx
                           if scout_port is None else scout_port)
        self.data_sock = self.host.socket(self.data_port, posted_only=True,
                                          mcast_loop=False)
        self.scout_sock = self.host.socket(self.scout_port,
                                           mcast_loop=False)
        self.data_sock.join(self.group)
        # the host's membership is refcounted: no second IGMP report
        self.scout_sock.join(self.group)
        self.seq = 0
        #: the members' trunk diameter — the most switch-to-switch hops
        #: any sender-receiver pair of this channel spans on a tiered
        #: fabric (0 on flat clusters and single-segment groups).  Every
        #: deadline prices one store-and-forward frame
        #: (:func:`repro.simnet.ip.store_forward_us`) for the edge switch
        #: and one per hop, so a deep tree's far corner never NACKs data
        #: that is still in flight.
        self.trunk_hops = _members_trunk_hops(comm)
        self._scout_stash: list[tuple] = []
        self._closed = False

    # ------------------------------------------------------------------
    def next_seq(self) -> int:
        """Advance the collective sequence (call once per collective)."""
        self.seq += 1
        return self.seq

    # -- control messages -------------------------------------------------
    def send_ctrl(self, dst_rank: Optional[int], seq: int, key,
                  value=None, nbytes: int = SCOUT_BYTES,
                  kind: str = "scout") -> Generator:
        """Send one control message ``(rank, seq, key, value)`` on the
        scout port: a unicast to ``dst_rank``, or — ``None`` — ONE
        multicast to ``(group, scout_port)``.  ``nbytes`` is the declared
        wire size (a bare scout carries no data), ``kind`` the frame's
        trace label."""
        yield from self.scout_sock.sendto(
            (self.comm.rank, seq, key, value), nbytes,
            self.group if dst_rank is None else self.comm.addr_of(dst_rank),
            self.scout_port, kind=kind)

    def wait_ctrl(self, src_ranks, seq: int, key,
                  timeout_us: Optional[float] = None) -> Generator:
        """Collect the ``(seq, key)`` message of every rank in
        ``src_ranks``; returns ``{src: value}`` — of every source, or of
        those heard before ``timeout_us`` expired.

        The one matcher: a message of a completed sequence is stale, a
        second copy of one this wait took is a duplicate — both dropped;
        anything else (another ``(seq, key)``, or a source not asked
        about, e.g. a sibling subtree racing ahead in the up-walk) is
        early: stashed once, for the wait that wants it."""
        wanted = set(src_ranks)
        got: dict[int, Any] = {}
        keep = []
        for msg in self._scout_stash:
            src, s, k, value = msg
            mine = s == seq and k == key
            if mine and src in wanted:
                wanted.discard(src)
                got[src] = value
            elif s >= self.seq and not (mine and src in got):
                keep.append(msg)
        self._scout_stash = keep
        deadline = (None if timeout_us is None
                    else self.sim.now + timeout_us)
        while wanted:
            budget = None
            if deadline is not None:
                budget = deadline - self.sim.now
                if budget <= 0:
                    break
            dgram = yield from self.scout_sock.recv(timeout=budget)
            if dgram is None:
                break
            msg = dgram.payload
            src, s, k, value = msg
            mine = s == seq and k == key
            if mine and src in wanted:
                wanted.discard(src)
                got[src] = value
            elif s >= self.seq and not (mine and src in got):
                self._scout_stash.append(msg)
        return got

    # -- multicast data ----------------------------------------------------
    def send_data(self, payload: Any, nbytes: int, seq: int,
                  retransmit: bool = False,
                  kind: str = "mcast-data") -> Generator:
        """Multicast ``payload`` to the whole group in one send on the
        data socket, which carries only data: ``mcast-data``, or the
        engine's ``mcast-seg`` (:meth:`send_batch`).  Data-less protocol
        multicasts — the stream header, the decision, the barrier
        release — are control messages (:meth:`send_ctrl`)."""
        if retransmit:
            self.host.stats.retransmissions += 1
        if self.params.mcast_send_extra_us > 0:
            yield from self.host.cpu.use(
                self.host.jitter(self.params.mcast_send_extra_us))
        yield from self.data_sock.sendto(
            (self.comm.rank, seq, payload), nbytes + MCAST_HEADER_BYTES,
            self.group, self.data_port, kind=kind)

    def send_batch(self, segments, seq: int,
                   retransmit: bool = False) -> Generator:
        """Multicast a batch of segments as **one** ``mcast-seg`` datagram.

        A single-segment batch ships the bare
        :class:`~repro.core.segment.Segment`, a larger one the tuple;
        either way each segment pays its own :data:`SEG_HEADER_BYTES`
        envelope and the receiver the per-datagram software tax **once**
        — the entire point of batching below the crossover.
        """
        segments = tuple(segments)
        n = len(segments)
        if n == 0:
            raise ValueError("cannot send an empty segment batch")
        if n == 1:
            payload, nbytes = segments[0], segments[0].nbytes
        else:
            payload, nbytes = segments, sum(s.nbytes for s in segments)
        yield from self.send_data(payload, nbytes + SEG_HEADER_BYTES * n,
                                  seq, retransmit=retransmit,
                                  kind="mcast-seg")

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.data_sock.close()
        self.scout_sock.close()
