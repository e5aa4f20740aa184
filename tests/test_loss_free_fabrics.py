"""ROADMAP 10(a): on a loss-free, jitter-free platform every collective
completes at any link rate, on any fabric — no timer reads data still on
the wire as lost.

The round engine's drain timer and the ack baselines' deadline are the
protocol's only readers of silence (paper §3: scouts make the multicast
safe, timers make the repair safe).  Both are priced by the simulator's
own frame arithmetic (:func:`repro.simnet.ip.datagram_wire_us` /
:func:`~repro.simnet.ip.store_forward_us`), so a slow or deep fabric
stretches them exactly as it stretches the path.

The property draws a case from every registered impl of the seven ops,
rate ∈ {5, 10, 20, 100, 1000} Mb/s, ``hub`` / ``switch`` (N ∈ 3..8) /
``tree:2x4`` / ``tree:2x2x2`` (their 8 hosts), payload ∈ {0, 1,500,
6,000, 24,000} B and both segment policies, and asserts: every call is
byte-correct (``op_body``), nothing raises (no ``McastLost``), no drain
timer fires (``CallRecord.drain_timeouts`` under a flight recorder) and
nothing is retransmitted — except the one resend a late poster costs
the impls whose registry frame model is an ``estimate:`` of it.

The one exception is the hub's physics, not a timer: a long p2p stream
on a slow shared medium can collide 16 times and the NIC gives the frame
up (``NetStats.drops_excessive_collisions``); the TCP stand-in does not
retransmit, so the run deadlocks.  Those cases are strict xfails below.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, seed, settings
from hypothesis import strategies as st

from repro import run_spmd
from repro.bench.harness import op_body
from repro.mpi.collective.registry import REGISTRY
from repro.obs.trace import FlightRecorder
from repro.simnet import DeadlockError, quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH

IMPLS = [(op, impl) for op, impls in REGISTRY.items() for impl in impls]
RATES = (5, 10, 20, 100, 1000)
PAYLOADS = (0, 1500, 6000, 24000)

#: hub p2p cases (seed 0) whose CSMA/CD gives a frame up:
#: ``(op, impl, rate_mbps, n, payload)``
GIVE_UPS = [
    ("allgather", "p2p-gather-bcast", 5, 7, 24000),
    ("allgather", "p2p-gather-bcast", 5, 8, 24000),
    ("allgather", "p2p-gather-bcast", 10, 8, 24000),
    ("allreduce", "p2p-reduce-bcast", 5, 6, 24000),
    ("allreduce", "p2p-reduce-bcast", 5, 7, 24000),
    ("allreduce", "p2p-reduce-bcast", 5, 8, 24000),
    ("allreduce", "p2p-reduce-bcast", 10, 6, 24000),
    ("allreduce", "p2p-reduce-bcast", 10, 7, 24000),
    ("allreduce", "p2p-reduce-bcast", 10, 8, 24000),
    ("allreduce", "p2p-reduce-bcast", 20, 8, 24000),
    ("bcast", "p2p-binomial", 5, 7, 24000),
    ("bcast", "p2p-binomial", 5, 8, 6000),
    ("bcast", "p2p-binomial", 5, 8, 24000),
    ("bcast", "p2p-binomial", 10, 8, 24000),
    ("reduce", "p2p-binomial", 5, 6, 24000),
    ("reduce", "p2p-binomial", 5, 7, 24000),
    ("reduce", "p2p-binomial", 5, 8, 24000),
    ("reduce", "p2p-binomial", 10, 6, 24000),
    ("reduce", "p2p-binomial", 10, 7, 24000),
    ("reduce", "p2p-binomial", 10, 8, 24000),
    ("reduce", "p2p-binomial", 20, 8, 24000),
    ("scatter", "p2p-binomial", 5, 8, 24000),
]


def _run(op, impl, rate, topology, n, size, seg=1460):
    params = quiet(replace(FAST_ETHERNET_SWITCH, rate_mbps=rate,
                           segment_bytes=seg))
    recorders = []
    result = run_spmd(n, op_body(op, size), topology=topology,
                      params=params, collectives={op: impl},
                      on_cluster=lambda c: recorders.append(
                          FlightRecorder().attach(c)))
    return result, recorders[0]


@st.composite
def _cases(draw):
    op, impl = draw(st.sampled_from(IMPLS))
    topology = draw(st.sampled_from(("hub", "switch", "tree:2x4",
                                     "tree:2x2x2")))
    n = 8 if topology.startswith("tree") else draw(st.integers(3, 8))
    rate, size = draw(st.sampled_from(RATES)), draw(st.sampled_from(PAYLOADS))
    # the hub's give-ups are physics, xfailed below
    assume(topology != "hub" or (op, impl, rate, n, size) not in GIVE_UPS)
    return op, impl, rate, topology, n, size, draw(
        st.sampled_from((1460, "auto")))


@seed(10)
@settings(max_examples=600, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_cases())
def test_loss_free_runs_never_give_up(case):
    op, impl, *_rest = case
    result, recorder = _run(*case)
    assert sum(call.drain_timeouts for call in recorder.calls) == 0
    late_poster = REGISTRY[op][impl].model.startswith("estimate:")
    assert result.stats["retransmissions"] <= (1 if late_poster else 0)


@pytest.mark.xfail(strict=True, raises=DeadlockError,
                   reason="the hub NIC gives a frame up after 16 "
                          "collisions (drops_excessive_collisions); the "
                          "p2p TCP stand-in never resends it")
@pytest.mark.parametrize("op,impl,rate,n,size", GIVE_UPS)
def test_hub_p2p_gives_frames_up_to_excessive_collisions(op, impl, rate, n,
                                                         size):
    try:
        _run(op, impl, rate, "hub", n, size)
    except DeadlockError as exc:
        assert exc.repro_cluster.stats.drops_excessive_collisions > 0
        raise
