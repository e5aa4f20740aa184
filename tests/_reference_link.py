"""Differential reference for :class:`repro.simnet.link.HalfLink`.

The half link exactly as it stood before the record-economy rewrite
(PR 14): every frame allocates a ``done`` :class:`Event`, the
transmitter is a ``_queue`` / ``_busy`` / ``_sent`` pump that schedules a
wake-up at the end of *every* serialization, and ``send`` returns the
event.  Three kernel records per frame where the live link spends one —
slow and obviously right; ``tests/test_link_reference.py`` holds the
live link to it on arrival times and order, completion times and every
counter.  Do not optimise this file.
"""

from collections import deque
from typing import Callable, Optional

from repro.simnet.calibration import NetParams
from repro.simnet.frame import Frame
from repro.simnet.kernel import Event, Simulator
from repro.simnet.stats import NetStats


class HalfLink:
    """One direction of a full-duplex link."""

    def __init__(self, sim: Simulator, params: NetParams, stats: NetStats,
                 deliver: Callable[[Frame], object], name: str = "",
                 count_as_send: bool = True, is_trunk: bool = False):
        self.sim = sim
        self.params = params
        self.stats = stats
        self.deliver = deliver
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
        #: This is the link-level generalization of
        #: ``UdpSocket.drop_filter`` — it sees every frame kind (data,
        #: scouts, IGMP), so it can model corruption-like loss,
        #: duplication and reordering below the IP stack.
        self.fault: Optional[Callable] = None
        self._queue: deque[tuple[Frame, Event]] = deque()
        self._busy = False

    def send(self, frame: Frame) -> Event:
        """Queue ``frame``; the event fires when serialization finishes."""
        done = self.sim.event()
        self._queue.append((frame, done))
        if not self._busy:
            self._pump()
        return done

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def _pump(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        frame, done = self._queue.popleft()
        wire_us = frame.wire_time_us(self.params.rate_mbps)
        if self.count_as_send:
            self.stats.record_send(frame.wire_size, frame.kind)
        else:
            self.stats.frames_forwarded += 1
        if self.is_trunk:
            self.stats.record_trunk(frame.kind)
        rec = self.stats.recorder
        if rec is not None:
            if self.count_as_send:
                rec.frame_sent(self.sim.now, frame, self.name)
            else:
                rec.frame_forwarded(self.sim.now, frame, self.name,
                                    self.is_trunk)
        self.sim.schedule_call(wire_us + self.params.prop_delay_us,
                               self._arrive, frame)
        self.sim.schedule_call(wire_us, self._sent, done)

    def _sent(self, done: Event) -> None:
        done.succeed(True)
        self._pump()

    def _arrive(self, frame: Frame) -> None:
        if not self.up:
            # Cable cut: the last bit never arrives.
            self.stats.drops_chaos += 1
            return
        fate = self.fault(frame, self) if self.fault is not None else None
        if fate is None or fate == "deliver":
            self.deliver(frame)
        elif fate == "drop":
            self.stats.drops_chaos += 1
        elif fate == "dup":
            # Two copies reach the far end.
            self.stats.dups_chaos += 1
            self.deliver(frame)
            self.deliver(frame)
        elif isinstance(fate, tuple) and fate[0] == "delay":
            self.stats.delays_chaos += 1
            self.sim.schedule_call(float(fate[1]), self.deliver, frame)
        else:
            raise ValueError(f"link fault hook on {self.name!r} returned "
                             f"unknown fate {fate!r}")
