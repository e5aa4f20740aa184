"""Network interface card model.

The NIC owns the transmit queue (frames go out strictly FIFO, one at a
time) and the receive-side **address filter**: a frame is accepted only if
it is unicast to this station, broadcast, or multicast to a group the host
has programmed into the filter.  Multicast frames for groups nobody joined
die here, silently — the data-link half of the paper's "receiver must be
ready" story.

Accepted frames pay ``per_frame_rx_us`` (interrupt + IP input processing)
after their last bit: on the hub the NIC filters at the last bit and
schedules IP input — every station's copy of one transmission in one
shared kernel record; a switch-to-host link hands the frame over once the
delay has elapsed (its ``settle_us``), and filter and IP input run then.
A frame sent onto an idle link costs no record; one queued behind the
wire costs one wake, ``per_frame_tx_us`` after the wire falls idle.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Optional

from .calibration import NetParams
from .frame import BROADCAST, Frame
from .kernel import Simulator
from .stats import NetStats

__all__ = ["Nic", "TxPort"]

#: What a NIC on the hub transmits through — the shared medium's
#: ``transmit`` for this station: ``port(frame, on_done)`` calls
#: ``on_done(True)`` once the frame is on the wire, or ``on_done(exc)``
#: if the medium gave up on it.
TxPort = Callable[[Frame, Callable[[object], None]], None]


class Nic:
    """One station's interface: FIFO tx queue + rx multicast filter."""

    def __init__(self, sim: Simulator, params: NetParams, mac: int,
                 stats: Optional[NetStats] = None, name: str = ""):
        self.sim = sim
        self.params = params
        self.mac = mac
        self.stats = stats if stats is not None else NetStats()
        self.name = name or f"nic{mac}"
        self._port: Optional[TxPort] = None
        self._link = None           # the host->switch half link, if any
        self._receiver: Optional[Callable[[Frame], None]] = None
        self._txq: deque[Frame] = deque()
        self._tx_busy = False
        self._mcast_refs: dict[int, int] = {}
        self.tx_frames = 0
        self.rx_frames = 0
        self.filtered_frames = 0
        self.tx_errors = 0

    # -- wiring -------------------------------------------------------------
    def attach_medium(self, medium) -> None:
        """Plug into a shared CSMA/CD segment (hub topology)."""
        self._port = partial(medium.transmit, self)
        medium.attach(self)

    def attach_link(self, out_halflink) -> None:
        """Plug into a switch via the host→switch half link."""
        self._link = out_halflink

    def set_receiver(self, fn: Callable[[Frame], None]) -> None:
        """Install the IP-input callback (one per host)."""
        self._receiver = fn

    # -- multicast filter ----------------------------------------------------
    def join_filter(self, group_mac: int) -> None:
        """Admit ``group_mac`` (a multicast address: the filter tests
        bare membership)."""
        self._mcast_refs[group_mac] = self._mcast_refs.get(group_mac, 0) + 1

    def leave_filter(self, group_mac: int) -> None:
        refs = self._mcast_refs.get(group_mac, 0)
        if refs <= 1:
            self._mcast_refs.pop(group_mac, None)
        else:
            self._mcast_refs[group_mac] = refs - 1

    def in_filter(self, group_mac: int) -> bool:
        return group_mac in self._mcast_refs

    # -- transmit path ------------------------------------------------------
    def send(self, frame: Frame) -> None:
        """Queue a frame for transmission (FIFO, one on the wire at a
        time); the outcome is counted in ``tx_frames`` / ``tx_errors``."""
        link = self._link
        if link is None:
            if self._port is None:
                raise RuntimeError(
                    f"{self.name} is not attached to any network")
            self._txq.append(frame)
            if not self._tx_busy:
                self._tx_pump()
        elif self._txq or self.sim.now < link.free_at:
            self._txq.append(frame)
            if len(self._txq) == 1:
                self.sim.schedule_at(
                    link.free_at + self.params.per_frame_tx_us,
                    self._tx_next)
        else:
            self.tx_frames += 1
            link.send(frame)

    def _tx_next(self) -> None:
        # the wire fell idle per_frame_tx_us ago: the queue's head goes out
        link = self._link
        self.tx_frames += 1
        link.send(self._txq.popleft())
        if self._txq:
            self.sim.schedule_at(link.free_at + self.params.per_frame_tx_us,
                                 self._tx_next)

    def _tx_pump(self) -> None:
        if not self._txq:
            self._tx_busy = False
            return
        self._tx_busy = True
        self._port(self._txq.popleft(), self._tx_done)

    def _tx_done(self, result: object) -> None:
        if result is True:
            self.tx_frames += 1
        else:
            self.tx_errors += 1
        # Next frame pays the per-fragment driver cost before transmitting.
        if self._txq:
            self.sim.schedule_call(self.params.per_frame_tx_us, self._tx_pump)
        else:
            self._tx_busy = False

    # -- receive path --------------------------------------------------------
    def deliver(self, frame: Frame, at: Optional[float] = None) -> bool:
        """Called by the medium/link at the last bit, or ``per_frame_rx_us``
        after the last bit ``at``; returns True if the filter accepted."""
        dst = frame.dst
        accept = (dst == self.mac or dst == BROADCAST
                  or dst in self._mcast_refs)
        if not accept:
            self.filtered_frames += 1
            return False
        self.rx_frames += 1
        self.stats.frames_delivered += 1
        rec = self.stats.recorder
        if rec is not None:
            rec.frame_delivered(self.sim.now if at is None else at, frame,
                                self.mac)
        if self._receiver is not None:
            if at is None:
                sim = self.sim
                sim.schedule_fanout(sim.now + self.params.per_frame_rx_us,
                                    self._receiver, frame)
            else:
                self._receiver(frame)
        return True
