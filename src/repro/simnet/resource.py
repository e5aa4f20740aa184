"""A FIFO mutual-exclusion resource (models a host CPU).

Per-message software overheads — the dominant cost at the paper's message
sizes — must *serialize* on each host: a rank cannot overlap two sendto()
calls.  Every host owns one :class:`Resource`; protocol code holds it for
the duration of each software overhead via :meth:`Resource.use`.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

from .kernel import Event, SimError, Simulator, Timeout

__all__ = ["Resource"]


class Resource:
    """Capacity-1 FIFO lock for simulated processes."""

    def __init__(self, sim: Simulator, name: str = "cpu"):
        self.sim = sim
        self.name = name
        self.held = False
        self._waiters: deque[Event] = deque()

    @property
    def queue_depth(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Optional[Event]:
        """Take the resource: ``None`` if it was free (the caller holds it
        now), else the event that fires when the caller's turn comes."""
        if not self.held:
            self.held = True
            return None
        ev = self.sim.event()
        self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if not self.held:
            raise SimError(f"release of un-held resource {self.name!r}")
        if self._waiters:
            self._waiters.popleft().succeed(None)
        else:
            self.held = False

    def relinquish(self, turn: Optional[Event]) -> None:
        """Give back what :meth:`acquire` returned, on any exit: release
        the resource if the caller holds it (``turn`` ``None`` or
        granted), else withdraw the queued ``turn``, which a later
        :meth:`release` would hand a resource nobody gives back."""
        if turn is None or turn.triggered:
            self.release()
        else:
            self._waiters.remove(turn)

    def use(self, duration_us: float) -> Generator:
        """``yield from cpu.use(t)`` — hold the resource for ``t`` µs."""
        turn = self.acquire()
        if turn is not None:
            try:
                yield turn
            except BaseException:       # e.g. gen.close() while queued
                self.relinquish(turn)
                raise
        try:
            yield Timeout(self.sim, duration_us)
        finally:
            self.release()
