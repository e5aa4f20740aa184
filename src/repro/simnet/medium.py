"""CSMA/CD shared medium — the model of the paper's 3Com Fast-Ethernet hub.

A hub electrically repeats every frame to every port, so the whole cluster
is **one collision domain**: only one frame can be in flight at a time, and
stations that begin transmitting simultaneously collide and back off.

The model (standard simplified CSMA/CD for a zero-diameter segment):

* A station with a frame senses the carrier.  If the medium is busy it
  *defers*; every deferring station is released at the same instant the
  medium goes idle — which is exactly how real stations pile up behind a
  long frame and then collide, the phenomenon the paper blames for the
  latency variance of Figs. 7 and 9.
* If two or more stations commence in the same slot, all abort, emit a jam
  signal, and each retries after binary exponential backoff
  (``r × slot_time`` with ``r`` uniform in ``[0, 2^min(k,10))`` on the
  ``k``-th collision).  After ``max_attempts`` collisions the send fails
  with :class:`ExcessiveCollisions` (counted in
  ``NetStats.drops_excessive_collisions``, never silently ignored).
* A successful transmission occupies the medium for the frame's wire time;
  every *other* attached NIC receives a copy at completion (receive-side
  filtering happens in the NIC).
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from .calibration import NetParams
from .frame import Frame
from .kernel import SimError, Simulator
from .stats import NetStats

__all__ = ["SharedMedium", "ExcessiveCollisions"]


class ExcessiveCollisions(SimError):
    """A frame hit the 16-collision limit (counted as a hard send failure)."""

    def __init__(self, frame: Frame, attempts: int):
        self.frame = frame
        self.attempts = attempts
        super().__init__(f"{frame!r} dropped after {attempts} collisions")


class _Tx:
    """One pending transmission attempt (station + frame + completion
    callback + attempt count)."""

    __slots__ = ("nic", "frame", "done", "attempts")

    def __init__(self, nic, frame: Frame, done: Optional[Callable]):
        self.nic = nic
        self.frame = frame
        self.done = done
        self.attempts = 0


class SharedMedium:
    """A single CSMA/CD collision domain shared by all attached NICs."""

    def __init__(self, sim: Simulator, params: NetParams,
                 rng: random.Random, stats: Optional[NetStats] = None):
        self.sim = sim
        self.params = params
        self.rng = rng
        self.stats = stats if stats is not None else NetStats()
        self.nics: list = []
        self._busy_until: float = 0.0
        self._active: Optional[_Tx] = None
        self._starting: list[_Tx] = []       # commencing this timestamp
        self._commence_pending = False
        self._deferred: list[_Tx] = []       # waiting for idle

    # -- wiring ------------------------------------------------------------
    def attach(self, nic) -> None:
        """Connect a NIC to the segment (hub port)."""
        self.nics.append(nic)

    # -- public API ----------------------------------------------------------
    def transmit(self, nic, frame: Frame,
                 on_done: Optional[Callable[[object], object]] = None
                 ) -> None:
        """Ask the medium to carry ``frame``.

        ``on_done(True)`` is called once the frame is delivered, or
        ``on_done(exc)`` with an :class:`ExcessiveCollisions` if the
        retry limit is reached — as a kernel record of its own at that
        instant, after the deliveries it reports.
        """
        self._attempt(_Tx(nic, frame, on_done))

    @property
    def idle(self) -> bool:
        return (self._active is None
                and self.sim.now >= self._busy_until
                and not self._commence_pending)

    # -- CSMA/CD state machine -------------------------------------------
    def _attempt(self, tx: _Tx) -> None:
        if self._commence_pending:
            # Another station is commencing at this very instant: with zero
            # propagation delay it cannot be carrier-sensed yet, so we start
            # too and the _commence handler detects the collision.
            self._starting.append(tx)
        elif self._active is None and self.sim.now >= self._busy_until:
            self._starting.append(tx)
            self._commence_pending = True
            self.sim.schedule_call(0.0, self._commence)
        else:
            self._deferred.append(tx)

    def _commence(self) -> None:
        self._commence_pending = False
        starters, self._starting = self._starting, []
        if not starters:
            return
        if len(starters) == 1:
            self._transmit_now(starters[0])
        else:
            self._collide(starters)

    def _transmit_now(self, tx: _Tx) -> None:
        frame = tx.frame
        wire_us = frame.wire_time_us(self.params.rate_mbps)
        self._active = tx
        self._busy_until = self.sim.now + wire_us
        # Record at transmission start (same convention as HalfLink), so
        # wire timelines are consistent across topologies.  A started
        # transmission cannot abort in this model.
        self.stats.record_send(frame.wire_size, frame.kind)
        rec = self.stats.recorder
        if rec is not None:
            rec.frame_sent(self.sim.now, frame, "hub")
        self.sim.schedule_call(wire_us, self._complete, tx)

    def _complete(self, tx: _Tx) -> None:
        self._active = None
        delivered = 0
        frame = tx.frame
        for nic in self.nics:
            if nic is not tx.nic and nic.deliver(frame):
                delivered += 1
        if delivered == 0 and frame.kind != "igmp":
            self.stats.drops_no_listener += 1
        if tx.done is not None:
            self.sim.schedule_call(0.0, tx.done, True)
        self._release_deferred()

    def _collide(self, starters: list[_Tx]) -> None:
        self.stats.collisions += 1
        jam = self.params.jam_time_us
        self._busy_until = self.sim.now + jam
        for tx in starters:
            tx.attempts += 1
            if tx.attempts >= self.params.max_attempts:
                self.stats.drops_excessive_collisions += 1
                if tx.done is not None:
                    self.sim.schedule_call(
                        0.0, tx.done,
                        ExcessiveCollisions(tx.frame, tx.attempts))
                continue
            self.stats.backoffs += 1
            k = min(tx.attempts, self.params.backoff_limit)
            slots = self.rng.randrange(0, 2 ** k)
            delay = jam + slots * self.params.slot_time_us
            self.sim.schedule_call(delay, self._attempt, tx)
        # Deferred stations also saw the jam; release them after it ends.
        self.sim.schedule_call(jam, self._release_deferred)

    def _release_deferred(self) -> None:
        if self.sim.now < self._busy_until or self._active is not None:
            return
        waiting, self._deferred = self._deferred, []
        for tx in waiting:
            self._attempt(tx)
