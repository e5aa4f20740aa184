#!/usr/bin/env python3
"""Barrier scaling on the shared hub — the paper's Fig. 13.

Sweeps the cluster from 2 to 9 workstations and compares the MPICH
three-phase barrier against the multicast barrier (binary scout
reduction + one data-less multicast release).  Also prints the message
counts from the paper's closed-form analysis next to the measured
latencies, so the "why" is visible: the multicast barrier replaces
``2(N-K) + K·log2(K)`` point-to-point messages with ``N-1`` scouts and
a single multicast.

Run:  python examples/barrier_scaling.py
"""

from repro.analysis import (paper_mcast_barrier_messages,
                            paper_mpich_barrier_messages)
from repro.bench import measure


def main() -> None:
    print(f"{'procs':>5} | {'MPICH msgs':>10} | {'mcast msgs':>10} | "
          f"{'MPICH us':>9} | {'mcast us':>9} | speedup")
    print("-" * 66)
    for n in range(2, 10):
        mpich = measure("barrier", "p2p-mpich", "hub", n, [0], reps=15,
                        seed=n)
        mcast = measure("barrier", "mcast", "hub", n, [0], reps=15,
                        seed=100 + n)
        mpich_us = mpich.median(0)
        mcast_us = mcast.median(0)
        scouts, releases = paper_mcast_barrier_messages(n)
        print(f"{n:>5} | {paper_mpich_barrier_messages(n):>10} | "
              f"{f'{scouts}+{releases}mc':>10} | {mpich_us:>9.1f} | "
              f"{mcast_us:>9.1f} | {mpich_us / mcast_us:>6.2f}x")
    print()
    print("The multicast release frees all waiting processes with ONE")
    print("frame; MPICH needs a release message per non-power-of-2 rank")
    print("plus log2(K) pairwise exchange rounds.")


if __name__ == "__main__":
    main()
