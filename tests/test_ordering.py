"""Broadcast ordering and safety (paper §4)."""

import random

import pytest

from repro.core.ordering import (UnsafeScheduleError, check_safe_schedule,
                                 run_bcast_sequence)
from repro.runtime import run_spmd
from repro.simnet import quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH

QUIET = quiet(FAST_ETHERNET_SWITCH)


def test_safe_schedule_accepts_identical():
    check_safe_schedule({
        0: [("bcast", 0, 1), ("bcast", 0, 2)],
        1: [("bcast", 0, 1), ("bcast", 0, 2)],
    })


def test_safe_schedule_rejects_reorder():
    with pytest.raises(UnsafeScheduleError):
        check_safe_schedule({
            0: [("bcast", 0, 1), ("bcast", 0, 2)],
            1: [("bcast", 0, 2), ("bcast", 0, 1)],
        })


def test_safe_schedule_rejects_length_mismatch():
    with pytest.raises(UnsafeScheduleError):
        check_safe_schedule({0: [("barrier", 0)], 1: []})


def test_safe_schedule_empty_ok():
    check_safe_schedule({})
    check_safe_schedule({0: [], 1: []})


@pytest.mark.parametrize("impl", ["mcast-binary", "mcast-linear",
                                  "p2p-binomial", "mcast-sequencer"])
def test_paper_section4_scenario_order_preserved(impl):
    """The paper's example: successive broadcasts rooted at three
    different group members arrive in program order at every rank."""
    roots = [1, 2, 3]     # the paper's processes 6, 7, 8 (as ranks)

    def main(env):
        out = yield from run_bcast_sequence(env, roots)
        return out

    result = run_spmd(4, main, params=QUIET,
                      collectives={"bcast": impl})
    expected = [(root, i) for i, root in enumerate(roots)]
    assert all(r == expected for r in result.returns)


@pytest.mark.parametrize("impl", ["mcast-binary", "mcast-linear"])
def test_order_preserved_under_heavy_skew(impl):
    """Even with wildly skewed starts, scout sync forces program order."""
    roots = [0, 3, 1, 4, 2, 0, 4]

    def main(env):
        out = yield from run_bcast_sequence(env, roots)
        return out

    rng = random.Random(5)
    result = run_spmd(5, main, seed=11,
                      skew=[rng.uniform(0.0, 3000.0) for _ in range(5)],
                      collectives={"bcast": impl})
    expected = [(root, i) for i, root in enumerate(roots)]
    assert all(r == expected for r in result.returns)


def test_two_groups_interleaved_safely():
    """Two communicators (two multicast groups): per-group order holds
    when every rank issues the calls in the same order (safe code)."""

    def main(env):
        sub = yield from env.comm.dup()
        sub.use_collectives(bcast="mcast-binary")
        env.comm.use_collectives(bcast="mcast-binary")
        a = yield from env.comm.bcast(
            "world-1" if env.rank == 0 else None, root=0)
        b = yield from sub.bcast(
            "dup-1" if env.rank == 1 else None, root=1)
        c = yield from env.comm.bcast(
            "world-2" if env.rank == 2 else None, root=2)
        return (a, b, c)

    result = run_spmd(4, main, params=QUIET)
    assert all(r == ("world-1", "dup-1", "world-2") for r in result.returns)
