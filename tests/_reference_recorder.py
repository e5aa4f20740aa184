"""Differential reference for :class:`repro.obs.trace.FlightRecorder`.

The flight recorder exactly as it stood before the packed row store
(PR 17): every hook appends one ``("inst"|"span", rank, cat, name, ...,
args)`` tuple — outer tuple, ``args`` tuple, three to five ``(key,
value)`` pairs, an f-string name, a float — to a plain ``events`` list.
About eight retained objects per frame hop where the live recorder
keeps none — slow and obviously right.  The tee in
``tests/test_recorder_reference.py`` forwards every hook of one run to
both and holds the live recorder's ``events`` view, call records,
attribution buckets and exports to this one, event for event and byte
for byte.  Do not optimise this file.
"""

from collections import Counter
from typing import List, Optional

from repro.obs.metrics import CallRecord
from repro.simnet.trace import RecorderHooks


class FlightRecorder(RecorderHooks):
    """Collects spans, instants and per-call metrics from the hooks."""

    def __init__(self):
        #: append-only, dispatch-ordered (therefore deterministic):
        #: ``("span", rank, cat, name, t0, t1, args)`` appended when the
        #: span closes, ``("inst", rank, cat, name, ts, args)`` at the
        #: instant; ``args`` is a tuple of (key, value) pairs
        self.events: list = []
        #: finished CallRecords, in finish order
        self.calls: List[CallRecord] = []
        #: frames whose source host had no collective open (IGMP joins,
        #: rendezvous setup, progress-daemon traffic, ...)
        self.outside_frames: Counter = Counter()
        self.outside_trunk = 0
        #: filled by the hang-dump path on deadline/deadlock/quiesce
        self.hang_report: Optional[str] = None
        self.cluster = None
        self._stats0: Optional[dict] = None
        self._rank_of: dict = {}      # host addr -> rank
        self._stack_of: dict = {}     # host addr -> open CallRecord stack
        self._open_rounds: dict = {}  # (addr, label) -> (rank, missing_fn)

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
        stack = self._stack_of.get(addr)
        return stack[-1] if stack else None

    def _rank(self, addr) -> int:
        return self._rank_of.get(addr, -1)

    # ------------------------------------------------------- frame hooks
    def frame_sent(self, now, frame, via):
        kind = frame.kind
        call = self._call_of(frame.src)
        if call is not None:
            call.frames_by_kind[kind] += 1
        else:
            self.outside_frames[kind] += 1
        self.events.append((
            "inst", self._rank(frame.src), "frame", f"send:{kind}", now,
            (("src", frame.src), ("dst", frame.dst),
             ("frame", frame.frame_id), ("bytes", frame.wire_size),
             ("via", via))))

    def frame_forwarded(self, now, frame, via, trunk):
        if trunk:
            call = self._call_of(frame.src)
            if call is not None:
                call.trunk_frames += 1
            else:
                self.outside_trunk += 1
        self.events.append((
            "inst", self._rank(frame.src), "frame",
            f"{'trunk' if trunk else 'hop'}:{frame.kind}", now,
            (("src", frame.src), ("dst", frame.dst),
             ("frame", frame.frame_id), ("via", via))))

    def frame_delivered(self, now, frame, mac):
        self.events.append((
            "inst", self._rank(mac), "frame", f"recv:{frame.kind}", now,
            (("src", frame.src), ("dst", frame.dst),
             ("frame", frame.frame_id))))

    def frame_switched(self, now, frame, via, negress):
        self.events.append((
            "inst", self._rank(frame.src), "frame",
            f"switch:{frame.kind}", now,
            (("src", frame.src), ("dst", frame.dst),
             ("frame", frame.frame_id), ("via", via),
             ("egress", negress))))

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
        self.events.append((
            "span", self._rank(addr), "round", f"{role}:r{rnd}", t0, now,
            (("seq", seq), ("round", rnd), ("nsegs", nsegs))))

    def nack_report(self, now, addr, src, rnd, missing):
        call = self._call_of(addr)
        if call is not None and missing:
            call.nack_reports += 1
            call.nacked_segments += len(missing)
        self.events.append((
            "inst", self._rank(addr), "round", "seg-report", now,
            (("src", src), ("round", rnd), ("missing", len(missing)))))

    def nack_sent(self, now, addr, rnd, missing):
        call = self._call_of(addr)
        if call is not None and missing:
            call.nacks_sent += 1
        self.events.append((
            "inst", self._rank(addr), "round", "nack", now,
            (("round", rnd), ("missing", len(missing)))))

    def repair_decision(self, now, addr, rnd, plan):
        if plan is None:
            outcome = "done"
        elif plan == "abort":
            outcome = "abort"
        else:
            outcome = f"repair:{len(plan)}"
        self.events.append((
            "inst", self._rank(addr), "round", "decision", now,
            (("round", rnd), ("plan", outcome))))

    def drain_timeout(self, now, addr, rnd, cancelled):
        call = self._call_of(addr)
        if call is not None:
            call.drain_timeouts += 1
        self.events.append((
            "inst", self._rank(addr), "round", "drain-timeout", now,
            (("round", rnd), ("cancelled", cancelled))))

    # ------------------------------------------------------- chaos hooks
    def chaos_fault_begin(self, now, name):
        self.events.append((
            "inst", -1, "chaos", f"fault:{name}", now, ()))
        return (name, now)

    def chaos_fault_end(self, now, token):
        name, t0 = token
        self.events.append((
            "span", -1, "chaos", f"fault:{name}", t0, now, ()))

    def round_open(self, now, addr, label, missing_fn):
        self._open_rounds[(addr, label)] = (self._rank(addr), missing_fn)

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
        self.events.append((
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
        self.events.append((
            "span", self._rank(addr), "phase", label, t0, now, ()))
