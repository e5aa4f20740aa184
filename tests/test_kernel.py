"""Unit tests for the discrete-event kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.kernel import (DeadlockError, Event, SimError, Simulator,
                                 Timeout, Timer)


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(5.0)
        seen.append(sim.now)
        yield sim.timeout(2.5)
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [5.0, 7.5]


def test_event_value_passes_to_yield():
    sim = Simulator()
    got = []

    def waiter(ev):
        value = yield ev
        got.append(value)

    ev = sim.event()
    sim.process(waiter(ev))
    sim.schedule_call(3.0, ev.succeed, "payload")
    sim.run()
    assert got == ["payload"]
    assert sim.now == 3.0


def test_event_fail_raises_in_process():
    sim = Simulator()
    caught = []

    def waiter(ev):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    ev = sim.event()
    sim.process(waiter(ev))
    ev.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimError):
        ev.succeed(2)


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimError):
        _ = ev.value


def test_process_return_value_is_event_value():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return 42

    def parent():
        proc = sim.process(child())
        result = yield proc
        return result * 2

    top = sim.process(parent())
    sim.run()
    assert top.value == 84


def test_process_exception_propagates_to_joiner():
    sim = Simulator()
    caught = []

    def child():
        yield sim.timeout(1.0)
        raise RuntimeError("child failed")

    def parent():
        try:
            yield sim.process(child())
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(parent())
    sim.run()
    assert caught == ["child failed"]


def test_unjoined_crash_propagates_to_run():
    sim = Simulator()

    def crasher():
        yield sim.timeout(1.0)
        raise RuntimeError("unhandled")

    sim.process(crasher())
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(SimError, match="must yield Event"):
        sim.run()


def test_deadlock_detection_names_processes():
    sim = Simulator()

    def stuck():
        yield sim.event()  # never fires

    sim.process(stuck(), name="stucky")
    with pytest.raises(DeadlockError, match="stucky"):
        sim.run()


def test_daemon_processes_do_not_deadlock():
    sim = Simulator()

    def daemon():
        yield sim.event()  # never fires; fine for a daemon

    def worker():
        yield sim.timeout(1.0)

    sim.process(daemon(), name="d", daemon=True)
    sim.process(worker())
    assert sim.run() == 1.0


def test_run_until_stops_the_clock():
    sim = Simulator()

    def ticker():
        while True:
            yield sim.timeout(10.0)

    sim.process(ticker(), daemon=True)
    assert sim.run(until=35.0) == 35.0


def test_tie_break_is_insertion_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(5.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.process(proc(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_schedule_call_runs_function():
    sim = Simulator()
    calls = []
    sim.schedule_call(4.0, calls.append, "x")
    sim.run()
    assert calls == ["x"] and sim.now == 4.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_determinism_same_seedless_structure():
    """Two identical simulations produce identical event orders."""

    def build():
        sim = Simulator()
        trace = []

        def proc(tag, period):
            for _ in range(5):
                yield sim.timeout(period)
                trace.append((sim.now, tag))

        sim.process(proc("a", 3.0))
        sim.process(proc("b", 2.0))
        sim.run()
        return trace

    assert build() == build()


# ------------------------------------------------------------------ Timer
def _pending(sim):
    return len(sim._heap)


def test_timer_fires_at_the_float_a_timeout_would():
    """Armed at an awkward instant with an awkward delay, the timer fires
    at bit-for-bit the ``now + delay`` a Timeout created there has."""
    sim = Simulator()
    fired = {}

    def arm():
        sim.timer(lambda: fired.setdefault("timer", sim.now)).arm(1 / 3)
        sim.timeout(1 / 3).add_callback(
            lambda _ev: fired.setdefault("timeout", sim.now))

    sim.schedule_call(0.1, arm)
    sim.schedule_call(0.7, arm)     # a second pair must not disturb it
    sim.run()
    assert fired["timer"] == fired["timeout"] == 0.1 + 1 / 3


def test_timer_rearms_leave_one_pending_record():
    sim = Simulator()
    fired = []
    timer = sim.timer(lambda tag: fired.append((sim.now, tag)))
    timer.arm(10.0, "first")
    assert _pending(sim) == 1

    def rearm(i):
        timer.arm(10.0, i)
        # the timer's one record + the rearm calls still to come
        assert _pending(sim) == 1 + (49 - i)

    for i in range(50):
        sim.schedule_call(1.0 + i, rearm, i)     # deadlines 11 .. 60
    assert _pending(sim) == 51
    sim.run(until=50.5)
    assert timer.armed and fired == [] and _pending(sim) == 1
    sim.run()
    assert fired == [(60.0, 49)]                 # last deadline, last args
    # one record at t=10 that chased the deadline a few times, not 50
    assert sim.processed <= 50 + 8


def test_timer_cancel_never_fires_and_the_loop_drains():
    sim = Simulator()
    fired = []
    timer = sim.timer(fired.append)
    timer.arm(5.0, "x")
    timer.cancel()
    assert not timer.armed
    assert sim.run() == 5.0          # the record pops as a no-op
    assert fired == [] and _pending(sim) == 0


def test_timer_rearm_after_firing_and_after_cancel():
    sim = Simulator()
    fired = []
    timer = sim.timer(lambda tag: fired.append((sim.now, tag)))
    timer.arm(2.0, "a")
    sim.run()
    assert fired == [(2.0, "a")] and not timer.armed
    timer.arm(3.0, "b")
    sim.run()
    assert fired == [(2.0, "a"), (5.0, "b")]
    # cancel, then arm *earlier* than the orphaned record: fires on time
    timer.arm(100.0, "late")
    timer.cancel()
    timer.arm(1.0, "early")
    sim.run()
    assert fired[-1] == (6.0, "early") and len(fired) == 3
    assert _pending(sim) == 0


def test_timer_rejects_negative_delay_and_schedule_at_the_past():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timer(print).arm(-1.0)
    sim.schedule_call(5.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(4.0, print)
    order = []
    sim.schedule_call(0.0, order.append, "call")
    sim.schedule_at(5.0, order.append, "at-now")     # due == now: FIFO
    sim.run()
    assert order == ["call", "at-now"]


# ------------------------------------------- the contract, as a property
class ModelSim:
    """The kernel's whole scheduling contract: pending entries kept in
    issue order, the next to run is the first of those with the
    smallest due time (a stable sort by due) and runs its calls in
    order, ``processed`` counts dispatched entries and ``peak_live`` is
    the most that were ever pending.  A fan-out push appends its call
    to the last pending entry when that entry was the previous push,
    is a fan-out and has the same due; every other push is an entry."""

    def __init__(self):
        self.now, self.pending, self.processed, self.peak_live = 0.0, [], 0, 0
        self.last = None            # the entry of the previous push

    def _push(self, due, fan, fn, args):
        self.last = (due, fan, [(fn, args)])
        self.pending.append(self.last)
        self.peak_live = max(self.peak_live, len(self.pending))

    def schedule_at(self, due, fn, *args):
        self._push(due, False, fn, args)

    def schedule_call(self, delay, fn, *args):
        self.schedule_at(self.now + delay, fn, *args)

    def schedule_fanout(self, due, fn, *args):
        last = self.pending[-1] if self.pending else None
        if last is self.last and last is not None and last[1] \
                and last[0] == due:
            last[2].append((fn, args))
        else:
            self._push(due, True, fn, args)

    def run(self, until=None):
        while self.pending:
            first = min(range(len(self.pending)),
                        key=lambda i: self.pending[i][0])
            if until is not None and self.pending[first][0] > until:
                self.now = until
                break
            self.now, _fan, calls = self.pending.pop(first)
            self.processed += 1
            for fn, args in calls:
                fn(*args)


_KINDS = ("call", "at", "fan", "fan", "succeed", "fail", "timeout",
          "arm0", "arm1", "cancel0", "cancel1")
_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.25])   # ties
_NODES = st.recursive(
    st.tuples(st.sampled_from(_KINDS), _DELAYS, st.just(())),
    lambda kids: st.tuples(st.sampled_from(_KINDS), _DELAYS,
                           st.lists(kids, max_size=3).map(tuple)),
    max_leaves=25)


def _interpret(sim, program, untils, drive):
    """Run ``program`` — a forest of ``(kind, delay, children)`` nodes,
    each issuing its children when it fires — on ``sim`` (anything with
    ``now`` / ``schedule_call`` / ``schedule_at`` / ``schedule_fanout``:
    the real ``Event``, ``Timeout`` and ``Timer`` classes ask for
    nothing else).  Returns
    the dispatch log and, after each ``until`` cut-off and the final
    drain, ``(now, fired so far, processed, peak_live)``."""
    log = []

    def fire(path, kids):
        log.append((sim.now, path))
        for i, kid in enumerate(kids):
            issue(path + (i,), kid)

    timers = [Timer(sim, fire), Timer(sim, fire)]

    def issue(path, node):
        kind, delay, kids = node
        if kind == "call":
            sim.schedule_call(delay, fire, path, kids)
        elif kind == "at":
            sim.schedule_at(sim.now + delay, fire, path, kids)
        elif kind == "fan":
            sim.schedule_fanout(sim.now + delay, fire, path, kids)
        elif kind == "timeout":
            Timeout(sim, delay).add_callback(lambda _ev: fire(path, kids))
        elif kind in ("succeed", "fail"):
            ev = Event(sim)
            ev.add_callback(lambda _ev: fire(path, kids))
            if kind == "succeed":
                ev.succeed(path, delay)
            else:
                ev.fail(KeyError(path), delay)
        elif kind.startswith("arm"):        # re-arms whatever was armed
            timers[int(kind[-1])].arm(delay, path, kids)
        else:
            timers[int(kind[-1])].cancel()

    for i, node in enumerate(program):
        issue((i,), node)
    marks = []
    for until in sorted(untils) + [None]:
        drive(sim, until)
        marks.append((sim.now, len(log), sim.processed, sim.peak_live))
    return log, marks


def _drive_by_instant(sim, _until):
    while sim.peek() != float("inf"):
        sim.run(until=sim.peek())


@settings(max_examples=300, deadline=None)
@given(program=st.lists(_NODES, min_size=1, max_size=6),
       untils=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]),
                       max_size=3))
def test_dispatch_order_is_a_stable_sort_by_due_time(program, untils):
    """Every way of putting a record on the heap — ``schedule_call``
    (zero and positive delay), ``schedule_at``, ``schedule_fanout``
    (joining the open record or not), ``Event.succeed`` /
    ``fail``, ``Timeout``, a ``Timer`` armed, re-armed and cancelled —
    from callbacks that schedule further records: the kernel dispatches
    exactly as the model does, and counts what the model counts, at
    every ``run(until=...)`` cut-off and at the end; driven instant by
    instant through ``run(until=peek())`` it ends in the same place."""
    want = _interpret(ModelSim(), program, untils, ModelSim.run)
    assert _interpret(Simulator(), program, untils, Simulator.run) == want
    log, marks = _interpret(Simulator(), program, [], _drive_by_instant)
    assert (log, marks[-1]) == (want[0], want[1][-1])


def test_counters_survive_a_crashing_record():
    """``run`` writes ``processed`` / ``peak_live`` back on the way out
    of an exception too, counting what the crashing record pushed."""
    sim = Simulator()

    def crash():
        for _ in range(3):
            sim.schedule_call(1.0, print)
        raise KeyError("boom")

    sim.schedule_call(0.0, crash)
    with pytest.raises(KeyError):
        sim.run()
    assert (sim.processed, sim.peak_live) == (1, 3)


# ------------------------------------------------- the fan-out record
def _fanout_log(sim):
    log = []
    return log, lambda tag: log.append((sim.now, tag))


def test_fanout_pushes_at_one_instant_share_one_record():
    sim = Simulator()
    log, note = _fanout_log(sim)
    for tag in "abc":
        sim.schedule_fanout(5.0, note, tag)
    sim.schedule_fanout(6.0, note, "d")         # another due: a new record
    sim.run()
    assert log == [(5.0, "a"), (5.0, "b"), (5.0, "c"), (6.0, "d")]
    assert (sim.processed, sim.peak_live) == (2, 2)
    with pytest.raises(ValueError):
        sim.schedule_fanout(5.0, note, "past")


def test_interleaved_push_splits_a_fanout():
    """A push of any other kind between two fan-out pushes closes the
    record: the three run in push order, as three records."""
    sim = Simulator()
    log, note = _fanout_log(sim)
    sim.schedule_fanout(5.0, note, "a")
    sim.schedule_at(5.0, note, "x")
    sim.schedule_fanout(5.0, note, "b")
    sim.run()
    assert [tag for _, tag in log] == ["a", "x", "b"]
    assert sim.processed == 3


def test_fanout_push_after_its_record_popped_opens_a_new_one():
    """A member pushing a fan-out at its own instant (nothing pushed in
    between, identical due) does not join the record already running:
    the new call runs after it, as a record of its own."""
    sim = Simulator()
    log, note = _fanout_log(sim)

    def first():
        note("first")
        sim.schedule_fanout(sim.now, note, "again")

    sim.schedule_fanout(5.0, first)
    sim.schedule_fanout(5.0, note, "second")
    sim.run()
    assert [tag for _, tag in log] == ["first", "second", "again"]
    assert sim.processed == 2
    sim.schedule_fanout(5.0, note, "later")     # the clock stands at 5.0
    sim.run()
    assert log[-1] == (5.0, "later") and sim.processed == 3


def test_fanout_members_run_in_push_order():
    sim = Simulator()
    log, note = _fanout_log(sim)
    order = [3, 1, 4, 1, 5, 9, 2, 6]
    for tag in order:
        sim.schedule_fanout(2.5, note, tag)
    sim.run()
    assert [tag for _, tag in log] == order and sim.processed == 1


def test_step_runs_a_whole_fanout_record():
    sim = Simulator()
    log, note = _fanout_log(sim)
    for tag in "abc":
        sim.schedule_fanout(1.0, note, tag)
    sim.schedule_call(2.0, note, "z")
    sim.run(until=1.0)
    assert log == [(1.0, "a"), (1.0, "b"), (1.0, "c")]
    assert sim.processed == 1 and sim.peek() == 2.0
