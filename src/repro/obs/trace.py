"""The flight recorder: deterministic structured spans over the stack.

:class:`FlightRecorder` subclasses the hook vocabulary defined by
:class:`repro.simnet.trace.RecorderHooks` and turns the hook stream into

* an append-only **event log** — instants (frame hops, NACKs, pacing
  stalls) and spans (collective → hier phase → NACK round), each keyed
  on the simulation clock, ready for the Perfetto/text exporters in
  :mod:`repro.obs.export`.  A frame hop — 94 % of a 256-rank bcast's
  events — is one packed fixed-width row and retains no Python object;
  :attr:`FlightRecorder.events` is a read-only sequence view that
  builds the event tuples (names, ``args`` pairs, wire bytes) on access;
* **per-collective-call metrics** (:mod:`repro.obs.metrics`): frames a
  call's host put on the wire are attributed to the collective open on
  that host at transmission time (frames carry their source address),
  so summing every call plus the recorder's ``outside_frames`` bucket
  reproduces the cluster-wide ``NetStats`` frame deltas *exactly*;
* the live state hang diagnostics need (:mod:`repro.obs.hang`): which
  reassembly rounds are open and which segment indices they still miss.

Everything recorded derives from the simulation clock, addresses and
counters — never the host machine — so recordings of the same seeded
run are identical event for event.  The one process-global value in a
frame, its ``frame_id``, is normalized at export time.

Activation is opt-in: ``run_spmd`` attaches a recorder per cluster when
``REPRO_TRACE=1`` (:func:`trace_enabled`) and parks it in a module
registry (:func:`drain_recorders`) for whoever drives the run — the
``trace`` CLI, a test — to collect afterwards.
"""

from __future__ import annotations

import os
from collections import Counter
from collections.abc import Sequence
from struct import Struct
from typing import List, Optional

from repro.simnet.frame import wire_bytes
from repro.simnet.trace import RecorderHooks

from .metrics import CallRecord

__all__ = ["TRACE_ENV", "trace_enabled", "FlightRecorder",
           "register_recorder", "drain_recorders"]

#: set to 1/true/yes/on to have run_spmd attach a FlightRecorder
TRACE_ENV = "REPRO_TRACE"


def trace_enabled() -> bool:
    value = os.environ.get(TRACE_ENV, "").strip().lower()
    return value in ("1", "true", "yes", "on")


#: one event row: ``(hook, kind, ts, rank, src, dst, frame_id, via, n)``
#: — ``kind`` / ``via`` interned, ``n`` the payload size (send) or the
#: egress count (switch); little-endian, unpadded, 47 bytes
_ROW = Struct("<BHdiqqqII")
_pack = _ROW.pack

#: row ``hook`` codes.  A ``_SIDE`` row stands for a non-frame event (a
#: span, a NACK / pacing / chaos instant — a handful per rank per
#: collective): it only marks the event's place in the order, its
#: ``src`` column indexing the tuple kept whole in
#: ``FlightRecorder._side``.  The rest are frame hops, named
#: ``<prefix>:<kind>`` on read.
_SIDE, _SEND, _HOP, _TRUNK, _RECV, _SWITCH = range(6)
_PREFIX = (None, "send", "hop", "trunk", "recv", "switch")


class _Interned(dict):
    """string -> small int, minted on first sight (``names`` reads it
    back); a plain subscript on every later one."""

    def __init__(self):
        self.names: List[str] = []

    def __missing__(self, name):
        code = self[name] = len(self.names)
        self.names.append(name)
        return code


class _Default(dict):
    """A dict whose misses read as ``default`` without being stored, so
    the frame hooks subscript instead of calling ``dict.get``."""

    def __init__(self, default):
        self.default = default

    def __missing__(self, _key):
        return self.default


class _EventView(Sequence):
    """``FlightRecorder.events``: the recorded events in dispatch order
    as ``("inst", rank, cat, name, ts, args)`` / ``("span", rank, cat,
    name, t0, t1, args)`` tuples (``args`` a tuple of (key, value)
    pairs), built from the packed rows on each access.  Read-only;
    slices are lists."""

    __slots__ = ("_rec",)

    def __init__(self, rec: "FlightRecorder"):
        self._rec = rec

    def __len__(self) -> int:
        return len(self._rec._rows) // _ROW.size

    def __iter__(self):
        return map(self._event, range(len(self)))

    def __getitem__(self, index):
        # a range does the index arithmetic: negatives, IndexError, slices
        rows = range(len(self))[index]
        if isinstance(index, slice):
            return [self._event(i) for i in rows]
        return self._event(rows)

    def _event(self, i: int) -> tuple:
        rec = self._rec
        hook, kind, ts, rank, src, dst, frame_id, via, n = \
            _ROW.unpack_from(rec._rows, i * _ROW.size)
        if hook == _SIDE:
            return rec._side[src]
        args = (("src", src), ("dst", dst), ("frame", frame_id))
        if hook == _SEND:
            args += (("bytes", wire_bytes(n)),)
        if hook != _RECV:
            args += (("via", rec._vias.names[via]),)
        if hook == _SWITCH:
            args += (("egress", n),)
        return ("inst", rank, "frame",
                f"{_PREFIX[hook]}:{rec._kinds.names[kind]}", ts, args)


class FlightRecorder(RecorderHooks):
    """Collects spans, instants and per-call metrics from the hooks."""

    def __init__(self):
        #: the event log, append-only and dispatch-ordered (therefore
        #: deterministic): one packed ``_ROW`` per event, read through
        #: :attr:`events`
        self._rows = bytearray()
        self._kinds = _Interned()
        self._vias = _Interned()
        self._side: list = []         # non-frame events, whole
        #: finished CallRecords, in finish order
        self.calls: List[CallRecord] = []
        #: frames whose source host had no collective open (IGMP joins,
        #: rendezvous setup, progress-daemon traffic, ...)
        self.outside_frames: Counter = Counter()
        self.outside_trunk = 0
        #: filled by the hang-dump path on deadline/deadlock/quiesce or
        #: when a rank program raises
        self.hang_report: Optional[str] = None
        self.cluster = None
        self._stats0: Optional[dict] = None
        #: host addr -> rank, learnt at the host's first
        #: ``collective_begin``; -1 (the network track) until then
        self._rank_of: dict = _Default(-1)
        self._stack_of: dict = _Default(())  # host addr -> open calls
        self._open_rounds: dict = {}  # (addr, label) -> (rank, missing_fn)

    @property
    def events(self) -> Sequence:
        """Every recorded event, in dispatch order (see
        :class:`_EventView`)."""
        return _EventView(self)

    # ------------------------------------------------------------ wiring
    def attach(self, cluster) -> "FlightRecorder":
        """Become ``cluster.stats.recorder`` and snapshot the counters
        (the baseline for :meth:`stats_delta`)."""
        if cluster.stats.recorder is not None:
            raise RuntimeError("cluster already has a recorder attached")
        cluster.stats.recorder = self
        self.cluster = cluster
        self._stats0 = cluster.stats.snapshot()
        return self

    def detach(self) -> None:
        if self.cluster is not None \
                and self.cluster.stats.recorder is self:
            self.cluster.stats.recorder = None

    def stats_delta(self) -> dict:
        """NetStats counter deltas since :meth:`attach`."""
        return self.cluster.stats.diff(self._stats0)

    def frame_totals(self) -> Counter:
        """Frame-send counts by kind, summed over every collective call
        (finished or still open) plus the outside bucket.  By
        construction equals the ``frames_by_kind`` delta of
        :meth:`stats_delta` — the exporter and the ``trace`` CLI assert
        exactly that."""
        total = Counter(self.outside_frames)
        for call in self.calls:
            total.update(call.frames_by_kind)
        for addr in sorted(self._stack_of):
            for call in self._stack_of[addr]:
                total.update(call.frames_by_kind)
        return +total

    def _call_of(self, addr) -> Optional[CallRecord]:
        stack = self._stack_of[addr]
        return stack[-1] if stack else None

    def _keep(self, event: tuple) -> None:
        """Log a non-frame event: whole in the side list, plus the row
        that marks its place among the frame hops."""
        self._rows += _pack(_SIDE, 0, 0.0, 0, len(self._side), 0, 0, 0, 0)
        self._side.append(event)

    # ------------------------------------------------------- frame hooks
    # The hot path: a 256-rank bcast fires these ~16,000 times.  Each
    # copies what it needs out of ``frame`` into one packed row and
    # calls nothing else — a row retains no object for the collector to
    # walk, and every name, ``args`` pair and ``wire_bytes()`` is left
    # to ``_EventView``.  Attribution stays here: it needs the call
    # stack (and the rank) as they are at this instant.
    def frame_sent(self, now, frame, via):
        kind = frame.kind
        src = frame.src
        stack = self._stack_of[src]
        if stack:
            stack[-1].frames_by_kind[kind] += 1
        else:
            self.outside_frames[kind] += 1
        self._rows += _pack(_SEND, self._kinds[kind], now,
                            self._rank_of[src], src, frame.dst,
                            frame.frame_id, self._vias[via], frame.size)

    def frame_forwarded(self, now, frame, via, trunk):
        src = frame.src
        if trunk:
            stack = self._stack_of[src]
            if stack:
                stack[-1].trunk_frames += 1
            else:
                self.outside_trunk += 1
        self._rows += _pack(_TRUNK if trunk else _HOP,
                            self._kinds[frame.kind], now,
                            self._rank_of[src], src, frame.dst,
                            frame.frame_id, self._vias[via], 0)

    def frame_delivered(self, now, frame, mac):
        self._rows += _pack(_RECV, self._kinds[frame.kind], now,
                            self._rank_of[mac], frame.src, frame.dst,
                            frame.frame_id, 0, 0)

    def frame_switched(self, now, frame, via, negress):
        src = frame.src
        self._rows += _pack(_SWITCH, self._kinds[frame.kind], now,
                            self._rank_of[src], src, frame.dst,
                            frame.frame_id, self._vias[via], negress)

    # ------------------------------------------------------- round hooks
    def round_begin(self, now, addr, role, seq, rnd, nsegs):
        call = self._call_of(addr)
        if call is not None:
            call.rounds += 1
            if rnd > 0:
                call.repair_rounds += 1
        return (addr, role, seq, rnd, nsegs, now)

    def round_end(self, now, token, posted_hw=0):
        addr, role, seq, rnd, nsegs, t0 = token
        call = self._call_of(addr)
        if call is not None and posted_hw > call.posted_high_water:
            call.posted_high_water = posted_hw
        self._keep((
            "span", self._rank_of[addr], "round", f"{role}:r{rnd}", t0, now,
            (("seq", seq), ("round", rnd), ("nsegs", nsegs))))

    def nack_report(self, now, addr, src, rnd, missing):
        call = self._call_of(addr)
        if call is not None and missing:
            call.nack_reports += 1
            call.nacked_segments += len(missing)
        self._keep((
            "inst", self._rank_of[addr], "round", "seg-report", now,
            (("src", src), ("round", rnd), ("missing", len(missing)))))

    def nack_sent(self, now, addr, rnd, missing):
        call = self._call_of(addr)
        if call is not None and missing:
            call.nacks_sent += 1
        self._keep((
            "inst", self._rank_of[addr], "round", "nack", now,
            (("round", rnd), ("missing", len(missing)))))

    def repair_decision(self, now, addr, rnd, plan):
        if plan is None:
            outcome = "done"
        elif plan == "abort":
            outcome = "abort"
        else:
            outcome = f"repair:{len(plan)}"
        self._keep((
            "inst", self._rank_of[addr], "round", "decision", now,
            (("round", rnd), ("plan", outcome))))

    def drain_timeout(self, now, addr, rnd, cancelled):
        call = self._call_of(addr)
        if call is not None:
            call.drain_timeouts += 1
        self._keep((
            "inst", self._rank_of[addr], "round", "drain-timeout", now,
            (("round", rnd), ("cancelled", cancelled))))

    # ------------------------------------------------------- chaos hooks
    def chaos_fault_begin(self, now, name):
        self._keep((
            "inst", -1, "chaos", f"fault:{name}", now, ()))
        return (name, now)

    def chaos_fault_end(self, now, token):
        name, t0 = token
        self._keep((
            "span", -1, "chaos", f"fault:{name}", t0, now, ()))

    def round_open(self, now, addr, label, missing_fn):
        self._open_rounds[(addr, label)] = (self._rank_of[addr], missing_fn)

    def round_close(self, now, addr, label):
        self._open_rounds.pop((addr, label), None)

    def open_rounds(self) -> list:
        """Deterministic live view: ``(rank, addr, label, missing)``
        per still-open reassembly, sorted."""
        out = []
        for (addr, label) in sorted(self._open_rounds):
            rank, missing_fn = self._open_rounds[(addr, label)]
            missing = sorted(missing_fn()) if missing_fn is not None \
                else []
            out.append((rank, addr, label, missing))
        return out

    # -------------------------------------------------- collective hooks
    def collective_begin(self, now, addr, rank, op, impl):
        self._rank_of[addr] = rank
        call = CallRecord(op, impl, rank, addr, now)
        self._stack_of.setdefault(addr, []).append(call)
        return call

    def collective_end(self, now, token):
        call = token
        call.t1 = now
        stack = self._stack_of.get(call.addr)
        if stack and call in stack:
            stack.remove(call)
        self.calls.append(call)
        self._keep((
            "span", call.rank, "collective", f"{call.op}:{call.impl}",
            call.t0, now,
            (("op", call.op), ("impl", call.impl))))
        return call.as_dict()

    def phase_begin(self, now, addr, label):
        return (addr, label, now)

    def phase_end(self, now, token):
        addr, label, t0 = token
        call = self._call_of(addr)
        if call is not None:
            call.phase_us[label] = call.phase_us.get(label, 0.0) \
                + (now - t0)
        self._keep((
            "span", self._rank_of[addr], "phase", label, t0, now, ()))


# ---------------------------------------------------------------------------
# recorder hand-off registry (mirrors runtime.sanitize's pending list):
# run_spmd attaches recorders deep inside a benchmark runner; the driver
# that set REPRO_TRACE drains them here once the runner returns.
# ---------------------------------------------------------------------------
_recorders: List[FlightRecorder] = []


def register_recorder(rec: FlightRecorder) -> None:
    _recorders.append(rec)


def drain_recorders() -> List[FlightRecorder]:
    """Detach and return every recorder registered since the last drain."""
    out, _recorders[:] = list(_recorders), []
    for rec in out:
        rec.detach()
    return out
