#!/usr/bin/env python3
"""Reproduce the paper's headline figure from the public API.

Sweeps message size 0-5 kB for MPI_Bcast with 4 processes over both the
hub and the switch (paper Figs. 7, 8 and 11), prints the median-latency
tables and ASCII plots, and reports the measured crossover points.

Run:  python examples/compare_broadcast.py [--reps 15]
"""

import argparse

from repro.bench import PAPER_SIZES, ascii_plot, crossover, measure


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=15,
                        help="iterations per size (paper used 20-30)")
    parser.add_argument("--procs", type=int, default=4)
    args = parser.parse_args()

    for topology in ("hub", "switch"):
        series = [
            measure("bcast", "p2p-binomial", topology, args.procs,
                    PAPER_SIZES, reps=args.reps, seed=1,
                    label=f"mpich/{topology}"),
            measure("bcast", "mcast-linear", topology, args.procs,
                    PAPER_SIZES, reps=args.reps, seed=2,
                    label=f"mcast linear/{topology}"),
            measure("bcast", "mcast-binary", topology, args.procs,
                    PAPER_SIZES, reps=args.reps, seed=3,
                    label=f"mcast binary/{topology}"),
        ]
        print(f"MPI_Bcast, {args.procs} processes, {topology} "
              f"(median of {args.reps} runs, us)")
        print(f"{'bytes':>6} | "
              + " | ".join(f"{ser.label:>20}" for ser in series))
        for size in PAPER_SIZES:
            print(f"{size:>6} | " + " | ".join(
                f"{ser.median(size):>20.1f}" for ser in series))
        print()
        print(ascii_plot(series, title=f"{topology}: latency vs size"))
        mpich = series[0]
        for ser in series[1:]:
            x = crossover(ser, mpich)
            print(f"  {ser.label} beats mpich from "
                  f"{x if x is not None else '>5000'} bytes")
        print()


if __name__ == "__main__":
    main()
