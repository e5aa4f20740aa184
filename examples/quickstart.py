#!/usr/bin/env python3
"""Quickstart: broadcast over IP multicast vs MPICH, in 40 lines.

Builds a 7-node simulated Fast-Ethernet cluster, broadcasts a 4 kB
payload with the MPICH binomial tree and with the paper's binary-scout
multicast, and prints latency and wire cost for both.

Run:  python examples/quickstart.py
"""

from repro import run_spmd


def make_program(payload_size):
    def main(env):
        # one lowercase call per MPI operation; blocking calls use
        # `yield from`.
        data = bytes(payload_size) if env.rank == 0 else None
        t0 = env.now
        data = yield from env.comm.bcast(data, root=0)
        env.log("latency_us", env.now - t0)
        yield from env.comm.barrier()
        return len(data)

    return main


def run(impl: str, payload_size: int = 4000, nprocs: int = 7):
    result = run_spmd(
        nprocs,
        make_program(payload_size),
        topology="hub",              # the paper's shared-Ethernet platform
        seed=42,
        collectives={"bcast": impl, "barrier": "mcast"},
    )
    assert result.returns == [payload_size] * nprocs
    latency = max(r["latency_us"][0] for r in result.records)
    kinds = result.stats["frames_by_kind"]
    return latency, kinds


if __name__ == "__main__":
    print("MPI_Bcast of 4000 bytes to 7 processes over a Fast Ethernet hub")
    print(f"{'implementation':>22} | {'latency':>10} | frames on the wire")
    print("-" * 70)
    for impl in ("p2p-binomial", "mcast-binary", "mcast-linear"):
        latency, kinds = run(impl)
        wire = {k: v for k, v in kinds.items()
                if k in ("p2p", "scout", "mcast-data")}
        print(f"{impl:>22} | {latency:>8.1f}us | {wire}")
    print()
    print("mcast sends ONE copy of the payload plus N-1 empty scouts;")
    print("MPICH sends N-1 full copies — that is the whole paper.")
