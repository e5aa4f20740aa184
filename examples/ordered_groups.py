#!/usr/bin/env python3
"""The paper's §4 scenario: multiple roots broadcasting to one group.

Four processes share one multicast group (one communicator).  Processes
1, 2 and 3 broadcast in that program order — the paper argues the scout
synchronization preserves this order *provided the MPI code is safe*
(every rank issues the collectives in the same order).

This script (a) verifies a safe schedule statically, (b) runs it on the
simulator under heavy artificial skew and shows every rank receives the
broadcasts in program order, and (c) shows the static checker rejecting
an unsafe schedule.

Run:  python examples/ordered_groups.py
"""

import random

from repro.core.ordering import (UnsafeScheduleError, check_safe_schedule,
                                 run_bcast_sequence)
from repro.runtime import run_spmd

ROOTS = [1, 2, 3]   # the paper's processes 6, 7, 8, as ranks of the group


def main() -> None:
    # (a) static safety check: all ranks issue the same collective
    # sequence on the same communicator -> safe.
    schedule = [("bcast", "world", root) for root in ROOTS]
    check_safe_schedule({rank: schedule for rank in range(4)})
    print("static check: schedule is safe (identical on every rank)")

    # (b) run it with scout-synchronized multicast under skewed starts,
    # one seeded start delay per rank, drawn in rank order.
    rng = random.Random(3)
    def program(env):
        received = yield from run_bcast_sequence(env, ROOTS)
        return received

    result = run_spmd(4, program, topology="switch", seed=9,
                      skew=[rng.uniform(0.0, 4000.0) for _ in range(4)],
                      collectives={"bcast": "mcast-binary"})
    expected = [(root, i) for i, root in enumerate(ROOTS)]
    print("\nper-rank arrival order (root, call-index):")
    for rank, got in enumerate(result.returns):
        marker = "ok" if got == expected else "ORDER VIOLATION"
        print(f"  rank {rank}: {got}   [{marker}]")
    assert all(got == expected for got in result.returns)

    # (c) an unsafe schedule: rank 3 issues the broadcasts in a
    # different order -> rejected before it can deadlock the group.
    bad = {rank: schedule for rank in range(3)}
    bad[3] = list(reversed(schedule))
    try:
        check_safe_schedule(bad)
    except UnsafeScheduleError as exc:
        print(f"\nunsafe schedule rejected as expected:\n  {exc}")


if __name__ == "__main__":
    main()
