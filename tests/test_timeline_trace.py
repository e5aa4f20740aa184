"""Wire-timeline tool tests (a view over the flight recorder)."""


from repro.bench.timeline import (WireEvent, ascii_timeline,
                                  kinds_in_order, record_timeline)
from repro.simnet import quiet
from repro.simnet.calibration import FAST_ETHERNET_HUB

QUIET = quiet(FAST_ETHERNET_HUB)
QUIESCE = 50_000.0


def _one_bcast(size, impl):
    def main(env):
        obj = bytes(size) if env.rank == 0 else None
        yield env.sim.timeout(max(0.0, QUIESCE - env.sim.now))
        obj = yield from env.comm.bcast(obj, root=0)
        return len(obj)

    return record_timeline(5, main, topology="hub", params=QUIET,
                           collectives={"bcast": impl},
                           skip_before_us=QUIESCE)


def test_scouts_strictly_precede_multicast_payload():
    """The central protocol order: the root multicasts only after all
    scouts are on the wire."""
    events = _one_bcast(3000, "mcast-binary")
    order = kinds_in_order(events)
    assert order.count("scout") == 4          # N-1 scouts
    assert order.count("mcast-data") == 3     # 3008 B -> 3 frames
    last_scout = max(i for i, k in enumerate(order) if k == "scout")
    first_data = min(i for i, k in enumerate(order) if k == "mcast-data")
    assert last_scout < first_data


def test_mpich_timeline_has_only_p2p_frames():
    events = _one_bcast(3000, "p2p-binomial")
    kinds = set(kinds_in_order(events))
    assert kinds == {"p2p"}
    assert len(events) == 3 * 4               # 3 frames x (N-1) copies


def test_wire_events_non_overlapping_on_hub():
    """One collision domain: successful transmissions never overlap."""
    events = _one_bcast(4000, "mcast-binary")
    ordered = sorted(events, key=lambda e: e.start_us)
    for a, b in zip(ordered, ordered[1:]):
        assert b.start_us >= a.start_us + a.duration_us - 1e-6


def test_ascii_timeline_renders():
    events = [WireEvent(0.0, 10.0, "scout"),
              WireEvent(20.0, 40.0, "mcast-data")]
    art = ascii_timeline(events, width=40, title="demo")
    assert "demo" in art and "scout" in art and "mcast-data" in art
    assert "#" in art


def test_ascii_timeline_empty():
    assert ascii_timeline([]) == "(no wire activity)"


def test_timeline_reads_the_recorder_run_spmd_attached(monkeypatch):
    """Under ``REPRO_TRACE=1`` run_spmd has attached a flight recorder
    before ``on_cluster`` runs; the timeline is a view over that one
    (a second ``attach`` would raise) and shows the same wire."""
    from repro import obs

    plain = _one_bcast(3000, "mcast-binary")
    monkeypatch.setenv(obs.TRACE_ENV, "1")
    obs.drain_recorders()
    traced = _one_bcast(3000, "mcast-binary")
    assert len(obs.drain_recorders()) == 1
    assert traced == plain
