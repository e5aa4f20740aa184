"""Discrete-event simulation kernel.

A small, dependency-free engine in the style of SimPy, specialised for the
needs of a network simulator:

* the clock is a ``float`` in **microseconds** (see :mod:`repro.simnet.units`);
* simulated activities are plain Python **generators** that ``yield``
  :class:`Event` objects and are resumed with the event's value;
* ties in the event heap are broken by insertion order, so runs are fully
  deterministic for a fixed seed.

Typical use::

    sim = Simulator()

    def worker(sim):
        yield sim.timeout(5.0)          # sleep 5 µs
        ev = sim.event()
        sim.schedule_call(1.0, ev.succeed, "ping")
        msg = yield ev                  # blocks until ev fires
        return msg

    proc = sim.process(worker(sim))
    sim.run()
    assert proc.value == "ping"

A wait with a deadline keeps one re-armable :class:`Timer` instead of a
``Timeout`` racing each awaited step — as a socket's descriptor ring
drains (``repro.simnet.udp.DescriptorRing``)::

    timer = sim.timer(expire)           # fn(*args) runs at the deadline
    for index in steps:                 # each step the wait reaches empty
        timer.arm(500.0, index)         # due = now + 500, the float a
        ...                             #   Timeout(500) would have had
    timer.cancel()                      # on every exit, exceptions too

However often it is re-armed, a timer keeps one heap record: a record
that pops before the current deadline re-schedules itself there, one
that pops after ``cancel()`` is a no-op.  (Only re-arming to an
*earlier* deadline pushes a second record, orphaning the later one.)

A multicast fan-out — a switch's copies leaving one port after
another, a hub's one transmission reaching every station — lands many
calls at one instant.  :meth:`Simulator.schedule_fanout` gives them one
heap record: a fan-out push *joins* the record of the previous push
when that push was a fan-out too, at the identical ``due`` float, and
its record has not popped; otherwise it opens a new record.  The record
calls its members in push order.  Joined members would have been
adjacent in ``(due, seq)`` order anyway (nothing was pushed between
them), and whatever they schedule takes a later ``seq`` either way, so
dispatch order is the same as with one record each; ``processed`` and
``peak_live`` count records.  The one rule for a member: it is a device
callback that schedules work but never resumes a process in place — a
process crashing mid-record would otherwise let the members after it
run before :meth:`Simulator.run` re-raises.

The kernel also detects **deadlock**: if :meth:`Simulator.run` exhausts the
event heap while processes are still suspended, it raises
:class:`DeadlockError` naming them — invaluable when debugging MPI programs
whose ranks wait on messages that never arrive.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Timer",
    "Process",
    "SimError",
    "DeadlockError",
    "Interrupt",
]


class SimError(Exception):
    """Base class for simulator errors."""


class DeadlockError(SimError):
    """Raised when the event heap drains while processes are still blocked."""

    def __init__(self, processes: list["Process"]):
        self.processes = processes
        # sorted: the live set iterates in id order, which is not
        # deterministic — the message is part of the replay contract
        names = ", ".join(sorted(p.name for p in processes))
        super().__init__(
            f"simulation deadlock: {len(processes)} process(es) still "
            f"suspended with no pending events: {names}"
        )


class Interrupt(SimError):
    """Thrown *into* a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        self.cause = cause
        super().__init__(f"process interrupted (cause={cause!r})")


class Event:
    """A one-shot occurrence processes can wait on.

    An event is *triggered* once :meth:`succeed` or :meth:`fail` is called;
    its callbacks then run at the current simulation time (or, for events
    scheduled with a delay, at their due time).  Triggering twice is an
    error — it almost always indicates a protocol bug in the caller.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (callbacks may not have run yet)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have been dispatched."""
        return self._processed

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimError("event value read before the event triggered")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay`` µs."""
        if self._triggered:
            raise SimError(f"event {self!r} triggered twice")
        self._triggered = True
        self._value = value
        self._ok = True
        self.sim.schedule_call(delay, self._dispatch)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed; waiters have ``exc`` raised in them."""
        if self._triggered:
            raise SimError(f"event {self!r} triggered twice")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._triggered = True
        self._value = exc
        self._ok = False
        self.sim.schedule_call(delay, self._dispatch)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event was already processed the callback runs immediately.
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def _dispatch(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for fn in callbacks:
                fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` µs after creation.

    Timers are the single most common event in a protocol simulation, so
    the constructor writes the slots directly (born triggered, one heap
    push) instead of going through ``Event.__init__`` + ``succeed``.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay!r}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        sim.schedule_call(delay, self._dispatch)


class Timer:
    """A re-armable one-shot: ``fn(*args)`` runs when the deadline passes
    (see the module docstring for the wait idiom).  ``arm`` replaces the
    deadline and the arguments, ``cancel`` disarms; neither touches the
    heap while a record at or before the deadline is pending."""

    __slots__ = ("sim", "fn", "args", "_due", "_rec_due")

    def __init__(self, sim: "Simulator", fn: Callable):
        self.sim = sim
        self.fn = fn
        self.args: tuple = ()
        self._due: Optional[float] = None       # deadline; None = disarmed
        self._rec_due: Optional[float] = None   # due time of the live record

    @property
    def armed(self) -> bool:
        return self._due is not None

    def arm(self, delay: float, *args: Any) -> None:
        """(Re)arm: call ``fn(*args)`` ``delay`` µs from now."""
        self.args = args
        self._due = due = self.sim.now + delay
        if self._rec_due is None or due < self._rec_due:
            self._rec_due = due
            self.sim.schedule_at(due, self._pop, due)

    def cancel(self) -> None:
        """Disarm; the pending record (if any) pops as a no-op."""
        self._due = None

    def _pop(self, rec_due: float) -> None:
        if rec_due != self._rec_due:
            return                  # orphaned by a re-arm to an earlier time
        due, self._rec_due = self._due, None
        if due is None:
            return
        if due > self.sim.now:      # re-armed since: chase the deadline
            self._rec_due = due
            self.sim.schedule_at(due, self._pop, due)
        else:
            self._due = None
            self.fn(*self.args)


class Process(Event):
    """Wraps a generator; the process *is* an event that fires on return.

    Yield semantics inside the generator:

    * ``yield event`` — suspend until ``event`` fires; the ``yield``
      expression evaluates to the event's value (or raises, if it failed).
    * ``return x`` — terminate; the process-event succeeds with ``x``.
    * an uncaught exception fails the process-event, propagating to any
      process joined on it (and to :meth:`Simulator.run` if nobody is).
    """

    __slots__ = ("gen", "name", "daemon", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "",
                 daemon: bool = False):
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", None) or repr(gen)
        self.daemon = daemon
        self._waiting_on: Optional[Event] = None
        # Bootstrap: start the generator at the current simulation time.
        sim.schedule_call(0.0, self._boot)
        sim._live_processes.add(self)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimError(f"cannot interrupt finished process {self.name}")
        target = self._waiting_on
        if target is not None and not target.triggered:
            # Detach from the event we were waiting on: drop our stale
            # _resume callback so a long-lived event the process abandons
            # does not accumulate dead waiters.  (The event may still fire
            # later; the _resume staleness guard would ignore it, but the
            # reference would otherwise pin this process until then.)
            callbacks = target.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(self._resume)
                except ValueError:
                    pass
        self.sim.schedule_call(0.0, self._throw, Interrupt(cause))

    # -- internal ------------------------------------------------------
    def _boot(self) -> None:
        if not self._triggered:
            self._step(self.gen.send, None)

    def _resume(self, event: Event) -> None:
        if self._triggered:
            return  # already finished (e.g. interrupted while waiting)
        if self._waiting_on is not None and event is not self._waiting_on:
            return  # stale wakeup from an event we abandoned via interrupt
        self._waiting_on = None
        if event._ok:
            self._step(self.gen.send, event._value)
        else:
            self._step(self.gen.throw, event._value)

    def _throw(self, exc: BaseException) -> None:
        if self._triggered:
            return
        self._waiting_on = None
        self._step(self.gen.throw, exc)

    def _step(self, advance: Callable[[Any], Any], arg: Any) -> None:
        sim = self.sim
        prev = sim.active_process
        sim.active_process = self
        try:
            target = advance(arg)
        except StopIteration as stop:
            sim._live_processes.discard(self)
            self.succeed(stop.value)
            return
        except BaseException as exc:
            sim._live_processes.discard(self)
            sim._crashed.append((self, exc))
            self.fail(exc)
            return
        finally:
            sim.active_process = prev
        if not isinstance(target, Event):
            err = SimError(
                f"process {self.name} yielded {target!r}; processes must "
                f"yield Event instances (did you forget 'yield from'?)"
            )
            sim._live_processes.discard(self)
            sim._crashed.append((self, err))
            self.fail(err)
            return
        self._waiting_on = target
        target.add_callback(self._resume)


class Simulator:
    """The event loop: one binary heap of ``(due, seq, fn, args)`` records.

    Every record is a plain callable with its arguments —
    :meth:`schedule_call` / :meth:`schedule_at` push the caller's, an
    :class:`Event` pushes its own bound ``_dispatch``, a fan-out its
    member list behind ``_run_fanout`` — and the loop
    pops the smallest and calls ``fn(*args)``.  ``seq`` is a global
    insertion counter, unique per record, so the heap orders by
    ``(due, seq)`` and a comparison never reaches ``fn``.

    Determinism contract: records dispatch in ``(due, seq)`` order —
    ties at one timestamp in insertion order, a zero-delay record in
    its ``(now, seq)`` place among them.  A fan-out record
    (:meth:`schedule_fanout`) runs its members in push order, in the
    place the first of them would have had.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable, tuple]] = []
        self._seq = 0
        self.active_process: Optional[Process] = None
        self._live_processes: set[Process] = set()
        self._crashed: list[tuple[Process, BaseException]] = []
        #: records dispatched over the simulator's lifetime (the
        #: denominator-free half of the events/sec throughput metric)
        self.processed: int = 0
        #: high-water mark of pending records — the kernel's working-set
        #: size, recorded by the sim-throughput area.  Read once per pop
        #: (and when :meth:`run` returns): the pending count only grows
        #: between two pops, so that is the maximum over every push.
        self.peak_live: int = 0
        # the open fan-out record (its member list, due and seq), until
        # it pops; see schedule_fanout
        self._fan: Optional[list] = None
        self._fan_due = 0.0
        self._fan_seq = 0

    # -- event factories ------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` µs from now."""
        return Timeout(self, delay, value)

    def timer(self, fn: Callable) -> Timer:
        """A disarmed re-armable one-shot calling ``fn`` at its deadline."""
        return Timer(self, fn)

    def process(self, gen: Generator, name: str = "",
                daemon: bool = False) -> Process:
        """Start ``gen`` as a simulated process; returns its Process event.

        ``daemon=True`` marks background engines (e.g. MPI progress loops)
        that legitimately outlive the workload: they do not trigger
        :class:`DeadlockError` when the heap drains.
        """
        return Process(self, gen, name, daemon=daemon)

    def schedule_call(self, delay: float, fn: Callable, *args: Any) -> None:
        """Call ``fn(*args)`` after ``delay`` µs.

        Nothing can wait on the record, so nothing is returned.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args))

    def schedule_at(self, due: float, fn: Callable, *args: Any) -> None:
        """Call ``fn(*args)`` at absolute time ``due`` (>= now) — for a
        caller holding a due time computed earlier (a link's free-at
        instant, a timer's deadline) that must hit exactly that float,
        not ``now + (due - now)``."""
        if due < self.now:
            raise ValueError(f"cannot schedule into the past (due={due}, "
                             f"now={self.now})")
        self._seq += 1
        heapq.heappush(self._heap, (due, self._seq, fn, args))

    def schedule_fanout(self, due: float, fn: Callable, *args: Any) -> None:
        """:meth:`schedule_at` for one copy of a fan-out: joins the
        previous push's record when that push was a fan-out at the
        identical ``due`` whose record is still pending (see the module
        docstring); ``fn`` must never resume a process in place."""
        fan = self._fan
        if fan is not None and self._fan_seq == self._seq \
                and due == self._fan_due:
            fan.append((fn, args))
            return
        if due < self.now:
            raise ValueError(f"cannot schedule into the past (due={due}, "
                             f"now={self.now})")
        self._seq += 1
        self._fan = fan = [(fn, args)]
        self._fan_due, self._fan_seq = due, self._seq
        heapq.heappush(self._heap, (due, self._seq, self._run_fanout, (fan,)))

    def _run_fanout(self, fan: list) -> None:
        if fan is self._fan:
            self._fan = None        # popped: a member's push opens anew
        for fn, args in fan:
            fn(*args)

    # -- main loop --------------------------------------------------------
    def step(self) -> None:
        """Process exactly one record, in global ``(due, seq)`` order."""
        heap = self._heap
        if len(heap) > self.peak_live:
            self.peak_live = len(heap)
        due, _seq, fn, args = heapq.heappop(heap)
        self.now = due
        self.processed += 1
        fn(*args)

    def peek(self) -> float:
        """Due time of the next record, or +inf if nothing is pending."""
        return self._heap[0][0] if self._heap else float("inf")

    def process_snapshot(self) -> list:
        """Deterministic view of the live processes (hang diagnostics).

        Sorted by process name; each entry is ``(name, daemon, waiting)``
        where ``waiting`` names what the process is parked on (the class
        of its wait target, plus whether that target already triggered)
        or ``"runnable"`` when it is not waiting on any event.  Never on
        the dispatch path — only readers like the flight recorder's hang
        dump call it.
        """
        out = []
        for proc in sorted(self._live_processes, key=lambda p: p.name):
            target = proc._waiting_on
            if target is None:
                waiting = "runnable"
            else:
                waiting = type(target).__name__
                if target._triggered:
                    waiting += "(triggered)"
            out.append((proc.name, proc.daemon, waiting))
        return out

    def run(self, until: Optional[float] = None) -> float:
        """Run until the heap drains or the clock passes ``until``.

        Returns the final clock value.  Raises :class:`DeadlockError` if
        the heap drains with live processes remaining, and re-raises the
        first uncaught exception from any process that nothing joined on.
        """
        heap = self._heap
        heappop = heapq.heappop
        crashed = self._crashed
        n_dispatched = 0
        peak = self.peak_live
        try:
            while heap:
                if len(heap) > peak:
                    peak = len(heap)
                if until is not None and heap[0][0] > until:
                    self.now = until
                    break
                self.now, _seq, fn, args = heappop(heap)
                n_dispatched += 1
                fn(*args)
                if crashed:
                    proc, exc = crashed[0]
                    # A crash is only fatal if nobody is joined on that
                    # process (its failure event would otherwise propagate
                    # the error).
                    if proc.callbacks is not None and not proc.callbacks:
                        crashed.clear()
                        raise exc
                    crashed.clear()
            else:
                alive = [p for p in self._live_processes
                         if p.is_alive and not p.daemon]
                if alive and until is None:
                    raise DeadlockError(alive)
        finally:
            # Local counters + one writeback keep the hot loop free of
            # attribute stores while still surviving exceptions.
            self.processed += n_dispatched
            self.peak_live = max(peak, len(heap))
        return self.now
