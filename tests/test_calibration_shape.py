"""Calibration-shape tests: the targets of ``simnet/calibration.py`` (read
off the paper's Figs. 7 and 8), as fast checks.

These pin the *shape* claims the whole reproduction rests on, with small
sweeps (3 sizes, few reps) so they run in the unit-test budget.  The
full-resolution versions live in ``benchmarks/``.
"""

import pytest

from repro.bench import crossover, measure

REPS = 8


@pytest.fixture(scope="module")
def hub4():
    sizes = [0, 1000, 5000]
    return {
        "mpich": measure("bcast", "p2p-binomial", "hub", 4, sizes, REPS,
                         1),
        "binary": measure("bcast", "mcast-binary", "hub", 4, sizes, REPS,
                          2),
        "linear": measure("bcast", "mcast-linear", "hub", 4, sizes, REPS,
                          3),
    }


def test_absolute_magnitudes_in_era_band(hub4):
    """Paper Fig. 7: MPICH/hub/4p ≈ 350-450 µs at 0 B and ≈ 1700-2100 µs
    at 5 kB on the paper's platform; we accept a generous band around
    those read-offs (this pins gross mis-calibration, not exact µs)."""
    assert 250 <= hub4["mpich"].median(0) <= 500
    assert 1200 <= hub4["mpich"].median(5000) <= 2200
    assert 600 <= hub4["binary"].median(5000) <= 1100


def test_small_message_ordering(hub4):
    """At 0 B the scouts make multicast the slower choice."""
    assert hub4["mpich"].median(0) < hub4["binary"].median(0)


def test_large_message_ordering(hub4):
    for impl in ("binary", "linear"):
        assert hub4[impl].median(5000) < 0.75 * hub4["mpich"].median(5000)


def test_crossover_band(hub4):
    for impl in ("binary", "linear"):
        x = crossover(hub4[impl], hub4["mpich"])
        assert x is not None and x <= 2000


def test_barrier_ordering_and_scaling():
    mpich9 = measure("barrier", "p2p-mpich", "hub", 9, [0], REPS, 4)
    mcast9 = measure("barrier", "mcast", "hub", 9, [0], REPS, 5)
    mpich3 = measure("barrier", "p2p-mpich", "hub", 3, [0], REPS, 6)
    mcast3 = measure("barrier", "mcast", "hub", 3, [0], REPS, 7)
    assert mcast9.median(0) < mpich9.median(0)
    assert mcast3.median(0) < mpich3.median(0)
    gap3 = mpich3.median(0) - mcast3.median(0)
    gap9 = mpich9.median(0) - mcast9.median(0)
    assert gap9 > gap3


def test_switch_storeforward_costs_more_for_multicast():
    sizes = [0, 4000]
    hub = measure("bcast", "mcast-binary", "hub", 4, sizes, REPS, 8)
    sw = measure("bcast", "mcast-binary", "switch", 4, sizes, REPS, 9)
    for size in sizes:
        assert hub.median(size) < sw.median(size)


def test_mpich_scaling_with_process_count():
    sizes = [5000]
    m3 = measure("bcast", "p2p-binomial", "switch", 3, sizes, REPS, 10)
    m9 = measure("bcast", "p2p-binomial", "switch", 9, sizes, REPS, 11)
    l3 = measure("bcast", "mcast-linear", "switch", 3, sizes, REPS, 12)
    l9 = measure("bcast", "mcast-linear", "switch", 9, sizes, REPS, 13)
    # MPICH pays ~(N-1) copies; multicast pays ~constant + scouts.
    mpich_growth = m9.median(5000) / m3.median(5000)
    linear_growth = l9.median(5000) / l3.median(5000)
    assert mpich_growth > 1.8
    assert linear_growth < 1.5
