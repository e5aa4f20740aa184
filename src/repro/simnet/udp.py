"""UDP sockets over the simulated stack — including the paper's two
delivery disciplines.

A socket operates in one of two modes:

* **buffered** (default) — datagrams arriving with no posted receive are
  queued up to ``buffer_bytes``; beyond that they are dropped and counted
  (``drops_buffer_full``).  This is ordinary BSD-socket behaviour and what
  the MPI point-to-point layer builds on.
* **posted-only** (``posted_only=True``) — a datagram is delivered *only*
  if a receive has already been posted; otherwise it is dropped and
  counted (``drops_not_posted``).  This is the paper's model of multicast
  readiness ("only receivers that are ready at the time the message
  arrives will receive it") and of VIA-style descriptor posting mentioned
  in its future work.  The multicast collective data path uses this mode,
  which is why scout synchronization is *necessary* and not just polite.

Every receive is a :class:`DescriptorRing`: ``post_ring(n, take)``
posts ``n`` descriptors that the socket itself fills, charges and hands
to ``take``, and ``recv`` is a ring of one.  A datagram with no free
descriptor is queued (buffered) or dropped (posted-only); a ring posted
on a buffered socket takes the queued datagrams first.

Send and receive both charge per-datagram software time on the host CPU —
the dominant term at the paper's message sizes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator, Optional

from .host import Host
from .ip import Datagram
from .kernel import Event, SimError, Timer

__all__ = ["UdpSocket", "SocketClosed", "DescriptorRing"]


class SocketClosed(SimError):
    """Operation on a closed socket."""


class UdpSocket:
    """A simulated UDP socket (see module docstring for the two modes)."""

    def __init__(self, host: Host, port: Optional[int] = None, *,
                 posted_only: bool = False,
                 buffer_bytes: Optional[int] = None,
                 send_cost_us: Optional[float] = None,
                 recv_cost_us: Optional[float] = None,
                 mcast_loop: bool = True):
        self.host = host
        self.sim = host.sim
        self.params = host.params
        self.stats = host.stats
        self.posted_only = posted_only
        #: IP_MULTICAST_LOOP: deliver own multicast sends locally
        self.mcast_loop = mcast_loop
        # Per-socket software costs let the MPI point-to-point layer pay
        # TCP-like prices (MPICH ch_p4) while multicast pays UDP prices.
        self.send_cost_us = (host.params.udp_send_us
                             if send_cost_us is None else send_cost_us)
        self.recv_cost_us = (host.params.udp_recv_us
                             if recv_cost_us is None else recv_cost_us)
        self.buffer_bytes = (host.params.socket_buffer_bytes
                             if buffer_bytes is None else buffer_bytes)
        self.port = host.ipstack.bind(self, port)
        self._groups: set[int] = set()
        self._queue: deque[Datagram] = deque()
        self._queued_bytes = 0
        self._ring: Optional[DescriptorRing] = None
        self._closed = False
        self.rx_dropped = 0
        #: most receive descriptors simultaneously posted over the
        #: socket's lifetime — the descriptor-ring size a real VIA-style
        #: NIC would need.  The round engine reports it per round to the
        #: flight recorder (``CallRecord.posted_high_water``).
        self.posted_high_water = 0
        #: optional fault-injection hook: ``drop_filter(dgram) -> bool``;
        #: a True return drops the datagram before delivery (counted as
        #: ``drops_induced``).  Benchmarks and tests use this to model
        #: lossy multicast without touching the wire simulation.
        self.drop_filter: Optional[Callable[[Datagram], bool]] = None

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Close the socket.

        A ring still posted stops filling.  A datagram it already holds
        is still charged and delivered; once its charges reach an empty
        descriptor it *fails* with :class:`SocketClosed`, so a process
        blocked on it gets a clear error instead of hanging until the
        end-of-simulation deadlock detector trips.
        """
        if self._closed:
            return
        for group in list(self._groups):
            self.leave(group)
        self._closed = True
        self.host.ipstack.unbind(self.port)
        ring = self._ring
        if ring is not None and not ring.triggered:
            ring._free = 0
            if ring.filled == ring.taken:   # no charge in flight
                ring._fail_closed()

    def _check_open(self) -> None:
        if self._closed:
            raise SocketClosed(f"socket :{self.port} on host "
                               f"{self.host.addr} is closed")

    # -- multicast membership ---------------------------------------------
    def join(self, group: int) -> None:
        """Join a multicast group (programs NIC filter + IGMP report)."""
        self._check_open()
        if group in self._groups:
            return
        self._groups.add(group)
        self.host.ipstack.join_group(group)

    def leave(self, group: int) -> None:
        self._check_open()
        if group not in self._groups:
            return
        self._groups.discard(group)
        self.host.ipstack.leave_group(group)

    def joined(self, group: int) -> bool:
        return group in self._groups

    # -- send ------------------------------------------------------------
    def sendto(self, payload, size: int, dst: int, dst_port: int,
               kind: str = "data") -> Generator:
        """Send a datagram; completes when handed to the NIC queue.

        Charges ``udp_send_us`` (jittered) on the host CPU, like a
        ``sendto`` syscall.  Usage: ``yield from sock.sendto(...)``.
        """
        self._check_open()
        cost = self.host.jitter(self.send_cost_us)
        cost += self.params.per_frame_tx_us * (self.params.frames_for(size) - 1)
        yield from self.host.cpu.use(cost)
        dgram = Datagram(src=self.host.addr, src_port=self.port, dst=dst,
                         dst_port=dst_port, payload=payload, size=size,
                         kind=kind)
        self.host.ipstack.send_datagram(dgram, mcast_loop=self.mcast_loop)
        return dgram

    # -- receive ---------------------------------------------------------
    def post_ring(self, n: int,
                  take: Callable[[Datagram], Any]) -> "DescriptorRing":
        """Post ``n`` descriptors as one :class:`DescriptorRing`; close
        it on every exit.  On a buffered socket the queued datagrams
        fill them first, oldest first."""
        self._check_open()
        if self._ring is not None:
            raise SimError(f"socket :{self.port} already has a ring posted")
        self._ring = ring = DescriptorRing(self, n, take)
        self.posted_high_water = max(self.posted_high_water, n)
        if self._queue:
            ring._unqueue()
        return ring

    def recv(self, timeout: Optional[float] = None) -> Generator:
        """Blocking receive: a ring of one; returns the Datagram, or
        None on timeout.

        Charges ``udp_recv_us`` on the host CPU once a datagram arrives
        (the syscall + copy cost).  Usage: ``d = yield from sock.recv()``.
        """
        ring = self.post_ring(1, _itself)
        try:
            return (yield ring.drain(timeout))
        finally:
            ring.close()

    def recv_cost(self, dgram: Datagram) -> float:
        """Mean receive software cost of ``dgram`` on this socket (µs)."""
        cost = self.recv_cost_us
        if dgram.kind in ("mcast-data", "mcast-seg"):
            # The extra models payload validation + user-buffer delivery;
            # control multicasts (stream header, decision, barrier
            # release) ride the scout socket and skip it.
            cost += self.params.mcast_recv_extra_us
        return cost

    # -- delivery from the IP stack ---------------------------------------
    def _deliver(self, dgram: Datagram) -> None:
        if self._closed:
            self.stats.drops_no_listener += 1
            return
        if self.drop_filter is not None and self.drop_filter(dgram):
            self.rx_dropped += 1
            self.stats.drops_induced += 1
            return
        if self.host.frame_fate is not None:
            # The stateful chaos hook (see Host.frame_fate): one
            # decision per datagram, before the loss model, so chaos
            # runs compose with (and are distinguishable from)
            # NetParams.loss.
            fate = self.host.frame_fate(dgram)
            if fate == "drop":
                self.rx_dropped += 1
                self.stats.drops_chaos += 1
                return
            if fate == "dup":
                self.stats.dups_chaos += 1
                self._accept(dgram)
                self._accept(dgram)
                return
            if fate not in (None, "deliver"):
                raise ValueError(f"frame_fate hook on host "
                                 f"{self.host.addr} returned unknown "
                                 f"fate {fate!r}")
        if (dgram.kind == "mcast-seg" and self.params.loss > 0.0
                and self.host.loss_rng.random() < self.params.loss):
            # NetParams.loss wired for real: each receiver drops each
            # multicast data datagram independently with probability
            # ``loss`` (seeded per host, so runs stay reproducible).
            # Only ``mcast-seg`` data is lossy — the engine repairs it
            # selectively, and the benches close the loop between this
            # measured repair traffic and the auto policy's
            # ``expected_seg_repair_frames`` expectation.
            self.rx_dropped += 1
            self.stats.drops_lossy += 1
            return
        self._accept(dgram)

    def _accept(self, dgram: Datagram) -> None:
        """The delivery tail every surviving datagram copy goes through:
        fill the ring's next descriptor, else queue or drop per the
        socket mode."""
        ring = self._ring
        if ring is not None and ring._free:
            ring._fill(dgram)
            return
        if self.posted_only:
            self.rx_dropped += 1
            self.stats.drops_not_posted += 1
            return
        if self._queued_bytes + dgram.size > self.buffer_bytes:
            self.rx_dropped += 1
            self.stats.drops_buffer_full += 1
            return
        self._queue.append(dgram)
        self._queued_bytes += dgram.size

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def posted_depth(self) -> int:
        """Receive descriptors currently posted and unfilled."""
        ring = self._ring
        return ring._free if ring is not None else 0


class DescriptorRing(Event):
    """``n`` receive descriptors drained inside the socket: a process
    looping post / park / ``cpu.use`` over them under one drain timer
    (``tests/_reference_udp.py`` keeps that loop as the oracle), record
    for record and jitter draw for jitter draw, minus its resume per
    datagram.  The owner parks once (``yield ring.drain(us)``); each
    datagram is charged in its arrival record if awaited with the CPU
    idle, else after its zero-delay fill record (a buffered socket's
    queued datagrams take that one) and the charge before it, then
    handed to ``take(dgram) -> done``.  The ring completes in the record
    ending a charge, with ``done`` once it is truthy or all ``n`` are
    taken — or, through a zero-delay record, with ``None`` after ``us``
    of silence on an awaited empty descriptor (``drain(None)``: never);
    ``take`` may :meth:`post` one more.  :meth:`UdpSocket.recv` is a
    ring of one whose ``take`` returns the datagram.
    """

    __slots__ = ("sock", "n", "take", "filled", "taken", "_free", "timer",
                 "_drain_us", "_ready", "_turn", "_parked", "_busy",
                 "_over")

    def __init__(self, sock: UdpSocket, n: int, take: Callable):
        Event.__init__(self, sock.sim)
        self.sock, self.n, self.take = sock, n, take
        self.filled = self.taken = 0
        self._free = n                  # descriptors posted and unfilled
        self.timer: Optional[Timer] = None     # a deadline drain's
        self._drain_us: Optional[float] = None
        self._ready: Optional[deque] = None   # filled, not yet charged
        self._turn: Optional[Event] = None
        self._parked = self._busy = self._over = False

    def drain(self, drain_us: Optional[float]) -> "DescriptorRing":
        """Start draining; returns the ring for its owner to yield."""
        self._parked = True
        if drain_us is not None:
            self._drain_us = drain_us
            self.timer = self.sim.timer(self._expire)
        self._next()
        return self

    def post(self) -> None:
        """Post one more descriptor (called from ``take``)."""
        self.n += 1
        self._free += 1
        sock = self.sock
        sock.posted_high_water = max(sock.posted_high_water, self._free)
        if sock._queue:
            self._unqueue()

    def _unqueue(self) -> None:
        """Fill free descriptors from the socket's queue, oldest first,
        each in a zero-delay fill record."""
        sock = self.sock
        queue = sock._queue
        while queue and self._free:
            dgram = queue.popleft()
            sock._queued_bytes -= dgram.size
            self._free -= 1
            self.filled += 1
            self.sim.schedule_call(0.0, self._filled, dgram)

    def close(self) -> None:
        """Withdraw what is left, give back a charge's CPU; idempotent."""
        if self.sock._ring is self:
            self.sock._ring = None
        self._over, self._free, self.take = True, 0, None
        if self.timer is not None:
            self.timer.cancel()
            self.timer.fn = None        # no ring <-> timer cycle for gc
        if self._busy:
            self._busy = False
            self.sock.host.cpu.relinquish(self._turn)

    def _fill(self, dgram: Datagram) -> None:
        cpu = self.sock.host.cpu
        awaited = self._parked and self.filled == self.taken
        self._free -= 1
        self.filled += 1
        if awaited and not (self._busy or self._over or cpu.held):
            self._busy = True
            cpu.acquire()
            self.sim.schedule_call(self.sock.host.jitter(
                self.sock.recv_cost(dgram)), self._charged, dgram)
        else:
            self.sim.schedule_call(0.0, self._filled, dgram)

    def _filled(self, dgram: Datagram) -> None:
        if not self._over:
            if self._ready is None:
                self._ready = deque()
            self._ready.append(dgram)
            if self._parked and not self._busy:
                self._next()

    def _next(self) -> None:
        """The charges reached descriptor ``taken``: charge it if its
        fill record has run, arm the timer if it is still empty."""
        if self._ready:
            dgram = self._ready.popleft()
            cost = self.sock.host.jitter(self.sock.recv_cost(dgram))
            self._busy = True
            self._turn = turn = self.sock.host.cpu.acquire()
            if turn is None:
                self.sim.schedule_call(cost, self._charged, dgram)
            else:
                turn.add_callback(lambda _: self._over or self.sim.
                                  schedule_call(cost, self._charged, dgram))
        elif self.filled == self.taken:
            if self.sock._closed:
                self._fail_closed()
            elif self.timer is not None:
                self.timer.arm(self._drain_us, self.taken)

    def _fail_closed(self) -> None:
        sock = self.sock
        self.close()
        self.fail(SocketClosed(f"socket :{sock.port} on host "
                               f"{sock.host.addr} closed with a receive "
                               f"still posted"))

    def _charged(self, dgram: Datagram) -> None:
        if self._over:
            return                      # closed mid-charge
        self._busy, self._turn = False, None
        self.sock.host.cpu.release()
        self.sock.stats.datagrams_delivered += 1
        self.taken += 1
        done = self.take(dgram)
        if done or self.taken == self.n:
            # in place, as the charge record that resumed a process
            # parked on its descriptor: trigger and dispatch here
            self._over = self._triggered = True
            self._value = done
            self._dispatch()
        else:
            self._next()

    def _expire(self, index: int) -> None:
        if self.filled == index:        # the awaited one is still empty
            self._free -= 1
            self._over = True
            self.succeed(None)


def _itself(dgram: Datagram) -> Datagram:
    """:meth:`UdpSocket.recv`'s ``take``: the ring completes with the
    datagram."""
    return dgram
