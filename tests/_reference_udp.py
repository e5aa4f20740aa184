"""Differential reference for :meth:`repro.simnet.udp.UdpSocket.recv`.

The socket's second receive path exactly as it stood before every
receive became a :class:`~repro.simnet.udp.DescriptorRing`: ``recv`` is
``post_recv`` (one descriptor :class:`Event`, popped from the buffered
queue at once if a datagram waits there) plus ``finish_recv`` (park on
it, pay the receive cost with ``cpu.use``), a deadline is a
:class:`Timer` calling ``expire_recv``, and ``cancel_recv`` withdraws a
descriptor.  ``_accept`` keeps its one shortcut: a datagram filling the
descriptor the process is parked on in ``finish_recv``, CPU idle, is
charged in the record that completes it (``_parked`` / ``_charged``).
``tests/test_udp.py`` holds the live socket — its rings, and ``recv`` as
a ring of one — to this loop on completion times, CPU grant order, the
host's jitter stream, every counter and the kernel record count.  Do not
optimise this file.
"""

from collections import deque
from typing import Generator, Optional

from repro.simnet.kernel import Event
from repro.simnet.udp import SocketClosed
from repro.simnet.udp import UdpSocket as LiveUdpSocket


class UdpSocket(LiveUdpSocket):
    """The live socket with the descriptor-event receive path."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._posted: deque[Event] = deque()
        #: the descriptor a process is parked on in :meth:`finish_recv`
        #: (the only one ``_accept`` may charge) and the one it charged
        self._parked: Optional[Event] = None
        self._charged: Optional[Event] = None

    def close(self) -> None:
        """Close the socket; receives still posted are failed with
        :class:`SocketClosed`."""
        if self._closed:
            return
        for group in list(self._groups):
            self.leave(group)
        self._closed = True
        self.host.ipstack.unbind(self.port)
        while self._posted:
            self._posted.popleft().fail(SocketClosed(
                f"socket :{self.port} on host {self.host.addr} closed "
                f"with a receive still posted"))

    def post_recv(self) -> Event:
        """Post a receive; the event fires with the Datagram."""
        self._check_open()
        ev = self.sim.event()
        if self._queue:
            dgram = self._queue.popleft()
            self._queued_bytes -= dgram.size
            ev.succeed(dgram)
        else:
            self._posted.append(ev)
            self.posted_high_water = max(self.posted_high_water,
                                         len(self._posted))
        return ev

    def cancel_recv(self, ev: Event) -> None:
        """Withdraw a posted receive that has not fired."""
        try:
            self._posted.remove(ev)
        except ValueError:
            pass

    def expire_recv(self, ev: Event) -> None:
        """:meth:`recv`'s deadline: withdraw the posted receive ``ev``
        and complete it with ``None`` (no-op once it has fired)."""
        if not ev.triggered:
            self.cancel_recv(ev)
            ev.succeed(None)

    def recv(self, timeout: Optional[float] = None) -> Generator:
        """Blocking receive; returns a Datagram, or None on timeout."""
        ev = self.post_recv()
        if timeout is None or ev.triggered:
            return (yield from self.finish_recv(ev))
        timer = self.sim.timer(self.expire_recv)
        timer.arm(timeout, ev)
        try:
            return (yield from self.finish_recv(ev))
        finally:
            timer.cancel()

    def finish_recv(self, ev: Event) -> Generator:
        """Complete the posted receive ``ev``: park on it, pay the
        receive cost on the host CPU, count the delivery; returns the
        Datagram, or ``None`` if :meth:`expire_recv` timed ``ev`` out."""
        self._parked = ev
        try:
            dgram = yield ev
        finally:
            if self._parked is ev:
                self._parked = None
            charged = self._charged is ev
            if charged:
                self._charged = None
                self.host.cpu.release()
        if dgram is None:
            return None
        if not charged:
            yield from self.host.cpu.use(
                self.host.jitter(self.recv_cost(dgram)))
        self.stats.datagrams_delivered += 1
        return dgram

    def _accept(self, dgram) -> None:
        """Fill a posted descriptor, or queue/drop per the socket mode."""
        if self._posted:
            ev = self._posted.popleft()
            cpu = self.host.cpu
            if ev is self._parked and not cpu.held:
                cpu.acquire()
                self._charged = ev
                ev.succeed(dgram, delay=self.host.jitter(
                    self.recv_cost(dgram)))
            else:
                ev.succeed(dgram)
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
    def posted_depth(self) -> int:
        """Receive descriptors currently posted and unfilled."""
        return len(self._posted)
