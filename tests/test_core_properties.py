"""Property-based tests (hypothesis) for the core invariants.

These are the load-bearing guarantees of the reproduction:

1. **delivery** — scout-synchronized multicast broadcast delivers the
   payload to every rank, for any cluster size, topology, payload size,
   skew, and seed (no drops, ever);
2. **frame economy** — the wire cost is exactly (N-1) scouts + one
   fragmented payload, never more (paper §3.1's whole point);
3. **barrier synchrony** — no rank exits before the last rank enters;
4. **order** — any (safe) schedule of broadcast roots arrives in program
   order at every rank;
5. **fragmentation** — datagram fragmentation is exact and minimal for
   any size.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import model_mcast_bcast_frames
from repro.runtime import run_spmd
from repro.simnet import quiet
from repro.simnet.calibration import (FAST_ETHERNET_HUB,
                                      FAST_ETHERNET_SWITCH)
from repro.simnet.ip import fragment_sizes

QUIET_SW = quiet(FAST_ETHERNET_SWITCH)
QUIET_HUB = quiet(FAST_ETHERNET_HUB)

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@settings(max_examples=25, **COMMON)
@given(
    n=st.integers(min_value=2, max_value=9),
    size=st.integers(min_value=0, max_value=8000),
    topology=st.sampled_from(["hub", "switch"]),
    impl=st.sampled_from(["mcast-binary", "mcast-linear"]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_scouted_bcast_always_delivers(n, size, topology, impl, seed):
    def main(env):
        obj = bytes(size) if env.rank == 0 else None
        obj = yield from env.comm.bcast(obj, root=0)
        return len(obj)

    result = run_spmd(n, main, topology=topology, seed=seed,
                      collectives={"bcast": impl})
    assert result.returns == [size] * n
    assert result.stats["drops_not_posted"] == 0
    assert result.stats["drops_buffer_full"] == 0


@settings(max_examples=20, **COMMON)
@given(
    n=st.integers(min_value=2, max_value=9),
    size=st.integers(min_value=0, max_value=8000),
    skews=st.lists(st.floats(min_value=0.0, max_value=5000.0),
                   min_size=9, max_size=9),
)
def test_scouted_bcast_immune_to_skew(n, size, skews):
    """Arbitrary per-rank start delays never cause loss (the paper's
    central claim for scout synchronization)."""

    def main(env):
        obj = bytes(size) if env.rank == 0 else None
        obj = yield from env.comm.bcast(obj, root=0)
        return len(obj)

    result = run_spmd(n, main, params=QUIET_SW,
                      skew=skews[:n],
                      collectives={"bcast": "mcast-binary"})
    assert result.returns == [size] * n
    assert result.stats["drops_not_posted"] == 0


@settings(max_examples=20, **COMMON)
@given(
    n=st.integers(min_value=2, max_value=9),
    size=st.integers(min_value=0, max_value=6000),
)
def test_mcast_frame_economy_exact(n, size):
    """Exactly (N-1) scout frames + frames_for(payload) data frames."""
    marks = {}

    def main(env):
        obj = bytes(size) if env.rank == 0 else None
        yield env.sim.timeout(max(0.0, 50_000.0 - env.sim.now))
        if env.rank == 0:
            marks["before"] = env.host.stats.snapshot()
        yield from env.comm.bcast(obj, root=0)

    result = run_spmd(n, main, params=QUIET_SW,
                      collectives={"bcast": "mcast-binary"})
    kinds_b = marks["before"]["frames_by_kind"]
    kinds_a = result.stats["frames_by_kind"]
    delta = {k: kinds_a.get(k, 0) - kinds_b.get(k, 0)
             for k in set(kinds_a) | set(kinds_b)}
    scouts, data = model_mcast_bcast_frames(QUIET_SW, n, size)
    assert delta.get("scout", 0) == scouts
    assert delta.get("mcast-data", 0) == data
    assert delta.get("p2p", 0) == 0


@settings(max_examples=15, **COMMON)
@given(
    n=st.integers(min_value=2, max_value=9),
    barrier=st.sampled_from(["mcast", "p2p-mpich"]),
    entry_gaps=st.lists(st.floats(min_value=0.0, max_value=2000.0),
                        min_size=9, max_size=9),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_barrier_synchrony_property(n, barrier, entry_gaps, seed):
    """No rank leaves the barrier before the last rank has entered."""

    def main(env):
        yield env.sim.timeout(entry_gaps[env.rank])
        entered = env.sim.now
        yield from env.comm.barrier()
        return (entered, env.sim.now)

    result = run_spmd(n, main, topology="hub", seed=seed,
                      collectives={"barrier": barrier})
    last_entry = max(e for e, _l in result.returns)
    assert all(left >= last_entry for _e, left in result.returns)


@settings(max_examples=15, **COMMON)
@given(
    n=st.integers(min_value=2, max_value=7),
    roots=st.lists(st.integers(min_value=0, max_value=6), min_size=1,
                   max_size=8),
    impl=st.sampled_from(["mcast-binary", "mcast-linear"]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_bcast_order_property(n, roots, impl, seed):
    """Safe schedules of broadcasts arrive in program order (paper §4)."""
    roots = [r % n for r in roots]

    def main(env):
        got = []
        for i, root in enumerate(roots):
            obj = (root, i) if env.rank == root else None
            got.append((yield from env.comm.bcast(obj, root=root)))
        return got

    result = run_spmd(n, main, seed=seed, collectives={"bcast": impl})
    expected = [(root, i) for i, root in enumerate(roots)]
    assert all(r == expected for r in result.returns)


@settings(max_examples=100, **COMMON)
@given(size=st.integers(min_value=0, max_value=200_000))
def test_fragmentation_exact_and_minimal(size):
    p = QUIET_SW
    sizes = fragment_sizes(p, size)
    user = sum(sizes) - p.ip_header * len(sizes) - p.udp_header
    assert user == size
    assert len(sizes) == p.frames_for(size)
    assert all(0 < s <= p.mtu for s in sizes)
    # minimality: one fewer frame could not carry the payload
    if len(sizes) > 1:
        capacity = (p.max_udp_payload
                    + (len(sizes) - 2) * p.max_fragment_payload)
        assert size > capacity


@settings(max_examples=30, **COMMON)
@given(
    n=st.integers(min_value=1, max_value=9),
    op_objs=st.lists(st.integers(min_value=-1000, max_value=1000),
                     min_size=9, max_size=9),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_allreduce_agrees_with_python_sum(n, op_objs, seed):
    from repro.mpi import SUM

    def main(env):
        return (yield from env.comm.allreduce(op_objs[env.rank], SUM))

    result = run_spmd(n, main, params=QUIET_SW, seed=seed)
    assert result.returns == [sum(op_objs[:n])] * n
