"""Analytic models vs the simulator: the models must track reality."""

import pytest

from repro.analysis import (LatencyModel, model_mcast_bcast_frames,
                            model_p2p_frames,
                            paper_frames_per_message,
                            paper_mcast_barrier_messages,
                            paper_mcast_bcast_frames,
                            paper_mpich_barrier_messages,
                            paper_mpich_bcast_frames)
from repro.runtime import run_spmd
from repro.simnet import quiet
from repro.simnet.calibration import (FAST_ETHERNET_HUB,
                                      FAST_ETHERNET_SWITCH)

QUIET_SW = quiet(FAST_ETHERNET_SWITCH)
QUIET_HUB = quiet(FAST_ETHERNET_HUB)


# ---------------------------------------------------------------- formulas
def test_paper_frames_per_message():
    assert paper_frames_per_message(0) == 1
    assert paper_frames_per_message(1500) == 2       # floor(M/T)+1
    assert paper_frames_per_message(5000) == 4
    with pytest.raises(ValueError):
        paper_frames_per_message(-1)
    with pytest.raises(ValueError):
        paper_frames_per_message(10, 0)


def test_paper_bcast_formulas():
    assert paper_mpich_bcast_frames(7, 5000) == 4 * 6
    assert paper_mcast_bcast_frames(7, 5000) == 6 + 4
    assert paper_mcast_bcast_frames(1, 5000) == 0
    with pytest.raises(ValueError):
        paper_mpich_bcast_frames(0, 100)


def test_paper_barrier_formulas():
    assert paper_mpich_barrier_messages(7) == 2 * 3 + 4 * 2
    assert paper_mcast_barrier_messages(7) == (6, 1)
    assert paper_mcast_barrier_messages(1) == (0, 0)


def test_model_vs_paper_headers_only():
    """The header-aware model differs from the paper formula only when
    the MPI envelope pushes a message over a fragment boundary."""
    p = QUIET_SW
    for n in (2, 5, 9):
        for m in (0, 100, 1000, 1400, 3000):
            model = model_p2p_frames("bcast", (0,) * n, 0, m, p)[0]
            paper = paper_mpich_bcast_frames(n, m, p.max_udp_payload)
            assert model >= paper
            assert model - paper <= (n - 1)   # at most one extra frame/copy


def test_mcast_total_frames():
    p = QUIET_SW
    scouts, data = model_mcast_bcast_frames(p, 9, 5000)
    assert scouts == 8 and data == 4


# ---------------------------------------------------------------- latency model
def _measured_bcast(impl, n, m, topology):
    durs = {}

    def main(env):
        obj = bytes(m) if env.rank == 0 else None
        yield env.sim.timeout(max(0.0, 50_000.0 - env.sim.now))
        t0 = env.now
        yield from env.comm.bcast(obj, root=0)
        durs[env.rank] = env.now - t0

    params = QUIET_HUB if topology == "hub" else QUIET_SW
    run_spmd(n, main, topology=topology, params=params,
             collectives={"bcast": impl})
    return max(durs.values())


def _measured_barrier(impl, n, topology):
    durs = {}

    def main(env):
        yield env.sim.timeout(max(0.0, 50_000.0 - env.sim.now))
        t0 = env.now
        yield from env.comm.barrier()
        durs[env.rank] = env.now - t0

    params = QUIET_HUB if topology == "hub" else QUIET_SW
    run_spmd(n, main, topology=topology, params=params,
             collectives={"barrier": impl})
    return max(durs.values())


@pytest.mark.parametrize("topology", ["hub", "switch"])
@pytest.mark.parametrize("n,m", [(2, 0), (4, 1000), (4, 5000), (9, 2000)])
def test_latency_model_tracks_mpich_bcast(topology, n, m):
    params = QUIET_HUB if topology == "hub" else QUIET_SW
    model = LatencyModel(params, topology)
    predicted = model.mpich_bcast(n, m)
    measured = _measured_bcast("p2p-binomial", n, m, topology)
    assert predicted == pytest.approx(measured, rel=0.25), \
        f"model {predicted:.0f} vs sim {measured:.0f}"


@pytest.mark.parametrize("variant", ["binary", "linear"])
@pytest.mark.parametrize("n,m", [(4, 0), (4, 5000), (9, 1000)])
def test_latency_model_tracks_mcast_bcast(variant, n, m):
    model = LatencyModel(QUIET_SW, "switch")
    predicted = model.mcast_bcast(n, m, variant)
    measured = _measured_bcast(f"mcast-{variant}", n, m, "switch")
    assert predicted == pytest.approx(measured, rel=0.25), \
        f"model {predicted:.0f} vs sim {measured:.0f}"


@pytest.mark.parametrize("n", [2, 4, 7, 9])
def test_latency_model_tracks_barriers(n):
    model = LatencyModel(QUIET_HUB, "hub")
    assert model.mpich_barrier(n) == pytest.approx(
        _measured_barrier("p2p-mpich", n, "hub"), rel=0.35)
    assert model.mcast_barrier(n) == pytest.approx(
        _measured_barrier("mcast", n, "hub"), rel=0.35)


def test_model_crossover_exists_and_is_small():
    """The closed-form crossover lands in the paper's ~1-frame zone."""
    for topology in ("hub", "switch"):
        params = QUIET_HUB if topology == "hub" else QUIET_SW
        model = LatencyModel(params, topology)
        x = model.bcast_crossover_bytes(4, "binary")
        assert x is not None
        assert 0 < x <= 2500, f"{topology}: crossover at {x}"


def test_model_crossover_shrinks_with_n():
    """More processes -> more MPICH copies -> earlier multicast win."""
    model = LatencyModel(QUIET_SW, "switch")
    x4 = model.bcast_crossover_bytes(4, "binary")
    x9 = model.bcast_crossover_bytes(9, "binary")
    assert x9 <= x4


def test_model_rejects_bad_inputs():
    with pytest.raises(ValueError):
        LatencyModel(QUIET_SW, "tokenring")
    model = LatencyModel(QUIET_SW, "switch")
    with pytest.raises(ValueError):
        model.mcast_bcast(4, 100, variant="quadratic")


def test_zero_cases():
    model = LatencyModel(QUIET_SW, "switch")
    assert model.mpich_bcast(1, 5000) == 0.0
    assert model.mcast_bcast(1, 5000) == 0.0
    assert model.mpich_barrier(1) == 0.0
    assert model.mcast_barrier(1) == 0.0
