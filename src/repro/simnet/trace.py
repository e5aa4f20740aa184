"""Flight-recorder hook points.

:class:`RecorderHooks` is the protocol every layer of the stack reports
into: devices (medium, links, switches, NICs) call the ``frame_*``
hooks with real frame context, the multicast round engine
(``repro.core.rounds``) calls the round-lifecycle hooks, and the MPI
dispatch layer calls the collective/phase span hooks.  Every hook site
is guarded by a single branch on ``stats.recorder`` (``None`` by
default), so tracing off costs one attribute load per event and
schedules nothing — the recorder is *pulled* data synchronously, never
woken by the event loop.

The base class implements every hook as a no-op, which is what lets a
recorder live below every layer: ``repro.simnet`` defines the
vocabulary, ``repro.obs`` subclasses it with the full flight recorder,
and nothing in ``simnet``/``core``/``mpi`` ever imports upward.
"""

from __future__ import annotations

__all__ = ["RecorderHooks"]


class RecorderHooks:
    """No-op base implementation of every flight-recorder hook point.

    ``now`` is always the simulator clock at the hook site (passed
    explicitly so recorders need no back-reference to the simulator);
    ``addr`` is always the *host* address the event happened on — the
    same integer frames carry as ``src``, which is what lets a recorder
    attribute wire traffic to the collective call that caused it.
    """

    # ------------------------------------------------ frame path (devices)
    def frame_sent(self, now: float, frame, via: str) -> None:
        """A host-originated transmission started (``record_send`` site)."""

    def frame_forwarded(self, now: float, frame, via: str,
                        trunk: bool) -> None:
        """A switch-egress re-serialization started (``trunk`` on
        switch-to-switch links)."""

    def frame_delivered(self, now: float, frame, mac: int) -> None:
        """A NIC filter accepted a frame copy for host ``mac``."""

    def frame_switched(self, now: float, frame, via: str,
                       negress: int) -> None:
        """A switch accepted a frame and fanned it to ``negress`` ports."""

    # ------------------------------------------- round engine (repro.core)
    def round_begin(self, now: float, addr: int, role: str, seq: int,
                    rnd: int, nsegs: int):
        """A NACK-repair round started (``role`` is serve/follow)."""
        return None

    def round_end(self, now: float, token, posted_hw: int = 0) -> None:
        """The round that returned ``token`` finished."""

    def nack_report(self, now: float, addr: int, src: int, rnd: int,
                    missing: frozenset) -> None:
        """The server received one receiver's segment report."""

    def nack_sent(self, now: float, addr: int, rnd: int,
                  missing: tuple) -> None:
        """A receiver reported ``missing`` segments up to the root."""

    def repair_decision(self, now: float, addr: int, rnd: int,
                        plan) -> None:
        """The server decided the next repair round (or completion)."""

    def drain_timeout(self, now: float, addr: int, rnd: int,
                      cancelled: int) -> None:
        """A receiver's drain timer expired with descriptors pending."""

    def round_open(self, now: float, addr: int, label: str,
                   missing_fn) -> None:
        """A step of an engine stream is in flight on host ``addr`` —
        its header (``<role>:seq<seq>:hdr``) or one round
        (``<role>:seq<seq>:r<rnd>``); ``missing_fn()``, when given,
        names the segment indices still outstanding (live — for hang
        diagnostics)."""

    def round_close(self, now: float, addr: int, label: str) -> None:
        """The step opened under ``label`` completed or aborted."""

    # -------------------------------------------- collectives (repro.mpi)
    def collective_begin(self, now: float, addr: int, rank: int, op: str,
                         impl: str):
        """A collective call entered dispatch on ``rank``."""
        return None

    def collective_end(self, now: float, token):
        """The collective that returned ``token`` finished; returns the
        finalized per-call metrics record (or ``None``)."""
        return None

    def phase_begin(self, now: float, addr: int, label: str):
        """A hierarchical sub-phase started on this rank."""
        return None

    def phase_end(self, now: float, token) -> None:
        """The phase that returned ``token`` finished."""

    # ------------------------------------------- chaos hooks (repro.chaos)
    def chaos_fault_begin(self, now: float, name: str):
        """An injected fault window opened (a trunk cut, a switch
        killed, a drop hook armed); returns a token for the matching
        ``chaos_fault_end``, so fault windows show up as spans in the
        trace and the hang dump can tell injected faults from bugs."""
        return None

    def chaos_fault_end(self, now: float, token) -> None:
        """The fault window that returned ``token`` was healed."""
