"""Full-duplex point-to-point links (host ↔ switch cabling).

Unlike the hub's shared medium, a switched segment gives every station a
private collision-free channel in each direction.  Each
:class:`HalfLink` is an independent serializer: frames queue FIFO, occupy
the transmitter for their wire time, and arrive at the far end one
propagation delay after serialization completes (store-and-forward —
the receiving device only sees a frame once the last bit is in).

Record economy: a frame hop costs **one** kernel record.  The
transmitter keeps the instant the wire falls idle (:attr:`free_at`); a
record at serialization end exists only when somebody observes it — the
sender asked for a completion callback, or a frame is queued behind the
wire.  A link wired with its far end's fixed delay (``settle_us``: a
NIC's ``per_frame_rx_us``, a switch's ``switch_latency_us``) runs the
far end's work in the arrival record, ``settle_us`` after the last bit;
the copies of a multicast fan-out that land at one instant share that
record (:meth:`~repro.simnet.kernel.Simulator.schedule_fanout`).
A frame offered to a :attr:`~HalfLink.fault` hook takes two records
(the hook reads the clock at the last bit), and reaches the far end
``settle_us`` later all the same: every observation at one device
shifts by the same constant, so their order is kept.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from .calibration import NetParams
from .frame import Frame
from .kernel import Simulator
from .stats import NetStats
from .units import rate_bytes_per_us

__all__ = ["HalfLink"]

#: return values a :attr:`HalfLink.fault` hook may produce per frame:
#: ``None``/``"deliver"`` passes the frame through, ``"drop"`` loses it
#: on the wire, ``"dup"`` delivers two copies, ``("delay", us)`` holds
#: the frame back ``us`` microseconds (later traffic overtakes it —
#: reordering).  See :mod:`repro.chaos.scenarios` for the stateful
#: hooks built on this seam.
LinkFate = "Optional[str | tuple]"


class HalfLink:
    """One direction of a full-duplex link."""

    def __init__(self, sim: Simulator, params: NetParams, stats: NetStats,
                 deliver: Callable[..., object], name: str = "",
                 count_as_send: bool = True, is_trunk: bool = False,
                 settle_us: Optional[float] = None):
        self.sim = sim
        self.params = params
        self._bytes_per_us = rate_bytes_per_us(params.rate_mbps)
        self.stats = stats
        #: ``deliver(frame)`` at the last bit — or, with ``settle_us``,
        #: ``deliver(frame, at)`` that long after the last bit ``at``
        self.deliver = deliver
        self.settle_us = settle_us
        self.name = name
        #: host-originated links count toward ``frames_sent`` (the paper's
        #: frame accounting); switch egress links count as forwards so a
        #: switched path is not double-counted.
        self.count_as_send = count_as_send
        #: switch-to-switch trunk links additionally count toward
        #: ``frames_trunk`` — the contended resource of a tiered fabric
        #: (see :mod:`repro.simnet.fabric`).
        self.is_trunk = is_trunk
        #: cable state: a downed link (trunk partition, host crash)
        #: still serializes — the transmitter cannot tell — but nothing
        #: arrives at the far end.  Toggled by the partition APIs on
        #: :class:`~repro.simnet.fabric.Fabric` /
        #: :class:`~repro.simnet.topology.Cluster`, never directly by
        #: tests.
        self.up = True
        #: optional stateful frame-fate hook consulted on last-bit
        #: arrival: ``fault(frame, link)`` returns a :data:`LinkFate`.
        #: This is the link-level counterpart of ``Host.frame_fate`` —
        #: it sees every frame kind (data, scouts, IGMP), so it can
        #: model corruption-like loss, duplication and reordering below
        #: the IP stack.  It is offered the frames that start
        #: serializing while it is installed.
        self.fault: Optional[Callable] = None
        self._queue: deque[tuple[Frame, Optional[Callable]]] = deque()
        self.free_at = 0.0      # instant the frame on the wire ends
        self._wake_at = -1.0    # == free_at iff a _sent record is due then

    def send(self, frame: Frame,
             on_sent: Optional[Callable[[bool], object]] = None) -> None:
        """Transmit ``frame`` (FIFO behind whatever is on the wire).

        ``on_sent(True)`` is called when serialization finishes, if given.
        """
        if self._queue or self.sim.now < self.free_at:
            self._queue.append((frame, on_sent))
            if self._wake_at != self.free_at:
                self._wake_at = self.free_at
                self.sim.schedule_at(self.free_at, self._sent, None)
        else:
            self._start(frame, on_sent)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def _start(self, frame: Frame, on_sent: Optional[Callable]) -> None:
        sim = self.sim
        wire_us = frame.wire_size / self._bytes_per_us    # bytes_to_us
        if self.count_as_send:
            self.stats.record_send(frame.wire_size, frame.kind)
        else:
            self.stats.frames_forwarded += 1
        if self.is_trunk:
            self.stats.record_trunk(frame.kind)
        rec = self.stats.recorder
        if rec is not None:
            if self.count_as_send:
                rec.frame_sent(sim.now, frame, self.name)
            else:
                rec.frame_forwarded(sim.now, frame, self.name,
                                    self.is_trunk)
        at = sim.now + (wire_us + self.params.prop_delay_us)
        if self.settle_us is None or self.fault is not None:
            sim.schedule_at(at, self._last_bit, frame)
        else:
            # the float the far end's own schedule_call would compute
            sim.schedule_fanout(at + self.settle_us, self._arrive, frame, at)
        self.free_at = free_at = sim.now + wire_us
        if on_sent is not None or self._queue:
            self._wake_at = free_at
            sim.schedule_at(free_at, self._sent, on_sent)

    def _sent(self, on_sent: Optional[Callable]) -> None:
        # A send landing exactly at free_at may have taken the idle wire
        # ahead of this record; the queue then waits for *its* wake-up.
        if self._queue and self.sim.now >= self.free_at:
            self._start(*self._queue.popleft())
        if on_sent is not None:
            on_sent(True)

    def _arrive(self, frame: Frame, at: float) -> None:
        if self.up:
            self.deliver(frame, at)
        else:
            self.stats.drops_chaos += 1

    def _last_bit(self, frame: Frame) -> None:
        if not self.up:
            # Cable cut: the last bit never arrives.
            self.stats.drops_chaos += 1
            return
        fate = self.fault(frame, self) if self.fault is not None else None
        if fate is None or fate == "deliver":
            self._hand_over(frame)
        elif fate == "drop":
            self.stats.drops_chaos += 1
        elif fate == "dup":
            # Two copies reach the far end.
            self.stats.dups_chaos += 1
            self._hand_over(frame)
            self._hand_over(frame)
        elif isinstance(fate, tuple) and fate[0] == "delay":
            self.stats.delays_chaos += 1
            self._hand_over(frame, float(fate[1]))
        else:
            raise ValueError(f"link fault hook on {self.name!r} returned "
                             f"unknown fate {fate!r}")

    def _hand_over(self, frame: Frame, delay: Optional[float] = None) -> None:
        """Deliver ``frame`` ``delay`` µs after its last bit (now, if
        ``None``) — plus ``settle_us``, as the folded path would."""
        sim = self.sim
        if self.settle_us is not None:
            at = sim.now if delay is None else sim.now + delay
            sim.schedule_at(at + self.settle_us, self.deliver, frame, at)
        elif delay is None:
            self.deliver(frame)
        else:
            sim.schedule_call(delay, self.deliver, frame)
