"""The MPI point-to-point engine ("device" layer).

Plays the role of MPICH's ADI/channel device (paper Fig. 1): one endpoint
per rank, with

* **envelope matching** — posted receives match messages on
  ``(context, source, tag)`` with ``ANY_SOURCE``/``ANY_TAG`` wildcards;
  unmatched arrivals park in the unexpected-message queue.  FIFO links +
  FIFO queues give MPI's non-overtaking guarantee;
* **eager protocol** — messages up to :data:`EAGER_THRESHOLD` bytes travel in
  one shot, like MPICH's short/eager protocol;
* **rendezvous protocol** — larger messages first send a request-to-send
  (RTS); the data moves only after the receiver matches and replies
  clear-to-send (CTS), bounding unexpected-buffer usage;
* a **progress daemon** per endpoint that drains the socket, charges
  per-message receive + matching CPU time, and completes requests.

The endpoint socket pays TCP-like software costs (``tcp_send_us``/
``tcp_recv_us``) to model MPICH ch_p4; the multicast collectives in
:mod:`repro.core` deliberately bypass this layer, exactly as the paper's
implementation bypasses the MPICH layers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..simnet.host import Host
from ..simnet.kernel import Event
from ..simnet.udp import SocketClosed
from .status import ANY_SOURCE, ANY_TAG, Request, Status

__all__ = ["MpiEndpoint", "Envelope", "MPI_PORT", "EAGER_THRESHOLD"]

#: well-known UDP port of the MPI p2p engine on every host
MPI_PORT = 5100

#: eager/rendezvous switch-over (bytes), MPICH-ch_p4-flavoured
EAGER_THRESHOLD = 16 * 1024

_rts_ids = itertools.count(1)


@dataclass(slots=True)
class Envelope:
    """MPI message envelope used for matching; like the datagram that
    carries it, nothing mutates it once sent."""

    ctx: int
    src: int        #: source *rank within ctx's communicator*
    tag: int

    def matches(self, ctx: int, src: int, tag: int) -> bool:
        return (self.ctx == ctx
                and (src == ANY_SOURCE or self.src == src)
                and (tag == ANY_TAG or self.tag == tag))


@dataclass(slots=True)
class _Msg:
    """What rides inside a p2p datagram."""

    op: str                 #: "eager" | "rts" | "cts" | "data"
    env: Envelope
    data: Any
    nbytes: int
    src_addr: int           #: sender host address (for cts routing)
    rts_id: int = 0


@dataclass(slots=True)
class _PostedRecv:
    ctx: int
    src: int
    tag: int
    event: Event


class MpiEndpoint:
    """Per-rank MPI engine bound to one simulated host."""

    def __init__(self, host: Host):
        self.host = host
        self.sim = host.sim
        self.params = host.params
        self.sock = host.socket(
            MPI_PORT,
            buffer_bytes=4 * 1024 * 1024,      # ch_p4's TCP windows, roughly
            send_cost_us=host.params.tcp_send_us,
            recv_cost_us=host.params.tcp_recv_us,
        )
        self._posted: list[_PostedRecv] = []
        self._unexpected: list[_Msg] = []
        # sender side: rts_id -> (payload, nbytes, dst_addr, send_done event)
        self._rts_outstanding: dict[int, tuple[Any, int, int, Event]] = {}
        # receiver side: rts_id -> (recv event, envelope)
        self._cts_sent: dict[int, tuple[Event, Envelope]] = {}
        self.sent_messages = 0
        self.received_messages = 0
        self._progress_proc = self.sim.process(
            self._progress(), name=f"mpi-progress@{host.addr}", daemon=True)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def isend(self, ctx: int, src_rank: int, dst_addr: int, data: Any,
              nbytes: int, tag: int) -> Request:
        """Nonblocking send; the request completes at local completion.

        Eager: complete once the datagram is handed to the NIC.
        Rendezvous: complete once the CTS arrived and the data is out.
        """
        done = self.sim.event()
        env = Envelope(ctx=ctx, src=src_rank, tag=tag)
        if nbytes <= EAGER_THRESHOLD:
            self.sim.process(
                self._send_eager(env, dst_addr, data, nbytes, done),
                name=f"isend@{self.host.addr}")
        else:
            self.sim.process(
                self._send_rts(env, dst_addr, data, nbytes, done),
                name=f"isend-rndv@{self.host.addr}")
        return Request(event=done)

    def _send_eager(self, env: Envelope, dst_addr: int, data: Any,
                    nbytes: int, done: Event) -> Generator:
        msg = _Msg("eager", env, data, nbytes, self.host.addr)
        yield from self.sock.sendto(msg, nbytes + self.params.mpi_header,
                                    dst_addr, MPI_PORT, kind="p2p")
        self.sent_messages += 1
        done.succeed((None, Status(source=env.src, tag=env.tag,
                                   count=nbytes)))

    def _send_rts(self, env: Envelope, dst_addr: int, data: Any,
                  nbytes: int, done: Event) -> Generator:
        rts_id = next(_rts_ids)
        self._rts_outstanding[rts_id] = (data, nbytes, dst_addr, done)
        msg = _Msg("rts", env, None, nbytes, self.host.addr, rts_id)
        yield from self.sock.sendto(msg, self.params.mpi_header,
                                    dst_addr, MPI_PORT, kind="p2p-rts")

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def irecv(self, ctx: int, src: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> Request:
        """Nonblocking receive: matches eager data or answers an RTS."""
        event = self.sim.event()
        msg = self._match_unexpected(ctx, src, tag)
        if msg is None:
            self._posted.append(_PostedRecv(ctx, src, tag, event))
        elif msg.op == "eager":
            event.succeed((msg.data, Status(source=msg.env.src,
                                            tag=msg.env.tag,
                                            count=msg.nbytes)))
        elif msg.op == "rts":
            self._answer_rts(msg, event)
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unexpected queue held {msg.op!r}")
        return Request(event=event)

    def _match_unexpected(self, ctx: int, src: int,
                          tag: int) -> Optional[_Msg]:
        for i, msg in enumerate(self._unexpected):
            if msg.env.matches(ctx, src, tag):
                return self._unexpected.pop(i)
        return None

    def _answer_rts(self, msg: _Msg, event: Event) -> None:
        self._cts_sent[msg.rts_id] = (event, msg.env)
        self.sim.process(self._send_cts(msg),
                         name=f"cts@{self.host.addr}")

    def _send_cts(self, msg: _Msg) -> Generator:
        cts = _Msg("cts", msg.env, None, msg.nbytes, self.host.addr,
                   msg.rts_id)
        yield from self.sock.sendto(cts, self.params.mpi_header,
                                    msg.src_addr, MPI_PORT, kind="p2p-cts")

    # ------------------------------------------------------------------
    # progress engine
    # ------------------------------------------------------------------
    def _progress(self) -> Generator:
        while True:
            try:
                dgram = yield from self.sock.recv()
            except SocketClosed:
                return              # endpoint torn down: daemon exits
            yield from self.host.cpu.use(
                self.host.jitter(self.params.mpi_match_us))
            self._handle(dgram.payload)

    def close(self) -> None:
        """Tear the endpoint down: closing the socket releases its port
        and group memberships and wakes the progress daemon with
        :class:`~repro.simnet.udp.SocketClosed`, so it exits instead of
        holding a posted descriptor forever (the leak sanitizer checks
        exactly this — see :mod:`repro.runtime.sanitize`)."""
        self.sock.close()

    def _handle(self, msg: _Msg) -> None:
        if msg.op == "eager":
            self.received_messages += 1
            posted = self._match_posted(msg.env)
            if posted is None:
                self._unexpected.append(msg)
            else:
                posted.event.succeed((msg.data,
                                      Status(source=msg.env.src,
                                             tag=msg.env.tag,
                                             count=msg.nbytes)))
        elif msg.op == "rts":
            posted = self._match_posted(msg.env)
            if posted is None:
                self._unexpected.append(msg)
            else:
                self._answer_rts(msg, posted.event)
        elif msg.op == "cts":
            data, nbytes, dst_addr, done = self._rts_outstanding.pop(
                msg.rts_id)
            self.sim.process(
                self._send_rndv_data(msg, data, nbytes, dst_addr, done),
                name=f"rndv-data@{self.host.addr}")
        elif msg.op == "data":
            self.received_messages += 1
            event, env = self._cts_sent.pop(msg.rts_id)
            event.succeed((msg.data, Status(source=env.src, tag=env.tag,
                                            count=msg.nbytes)))
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown p2p op {msg.op!r}")

    def _send_rndv_data(self, cts: _Msg, data: Any, nbytes: int,
                        dst_addr: int, done: Event) -> Generator:
        msg = _Msg("data", cts.env, data, nbytes, self.host.addr,
                   cts.rts_id)
        yield from self.sock.sendto(msg, nbytes + self.params.mpi_header,
                                    dst_addr, MPI_PORT, kind="p2p")
        self.sent_messages += 1
        done.succeed((None, Status(source=cts.env.src, tag=cts.env.tag,
                                   count=nbytes)))

    def _match_posted(self, env: Envelope) -> Optional[_PostedRecv]:
        for i, posted in enumerate(self._posted):
            if env.matches(posted.ctx, posted.src, posted.tag):
                return self._posted.pop(i)
        return None

    # -- introspection ---------------------------------------------------
    @property
    def posted_depth(self) -> int:
        return len(self._posted)
