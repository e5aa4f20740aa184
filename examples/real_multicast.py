#!/usr/bin/env python3
"""The paper's protocols on REAL sockets: UDP multicast over loopback.

Runs the same registered collectives every figure and benchmark measures
— no second implementation — as five ranks wired through genuine
239.x.y.z multicast groups: `run_loopback` swaps the simulated hosts' IP
layer for the kernel's and leaves everything above it alone.  Broadcasts
with both scout algorithms, the binomial baseline and the PVM-style ack
variant, runs both barrier flavours and an allreduce, then repairs a
lossy segmented broadcast with selective NACKs over real UDP.

Skips politely when the environment forbids loopback multicast.

Run:  python examples/real_multicast.py
"""

import sys
from dataclasses import replace

from repro.mpi import ops
from repro.simnet import FAST_ETHERNET_SWITCH
from repro.sockets import multicast_available, run_loopback

BCASTS = ("mcast-binary", "mcast-linear", "p2p-binomial", "mcast-ack")
BARRIERS = ("p2p-mpich", "mcast")
BLOB = bytes(range(256)) * 94            # 24 kB: 17 frame-sized segments


def program(env):
    comm = env.comm
    results = {}
    for impl in BCASTS:
        comm.use_collectives(bcast=impl)
        payload = {"impl": impl, "blob": b"x" * 2000} \
            if comm.rank == 0 else None
        t0 = env.now
        data = yield from comm.bcast(payload, root=0)
        results[f"bcast {impl}"] = (data["impl"], round(env.now - t0))
    for impl in BARRIERS:
        comm.use_collectives(barrier=impl)
        t0 = env.now
        yield from comm.barrier()
        results[f"barrier {impl}"] = round(env.now - t0)
    results["allreduce"] = yield from comm.allreduce(comm.rank + 1, ops.SUM)
    return results


def lossy_program(env):
    data = yield from env.comm.bcast(BLOB if env.rank == 0 else None, 0)
    return data == BLOB


def main() -> int:
    if not multicast_available():
        print("loopback UDP multicast unavailable here - skipping demo")
        return 0
    n = 5
    print(f"running {n} ranks over real 239.x multicast groups\n")
    returns = run_loopback(n, program).returns

    print("rank 0 view (µs of a clock dilated to let Python keep up, i.e.")
    print("NOT the paper's performance story - see the simulator for that):")
    for key, value in returns[0].items():
        print(f"  {key:>20}: {value}")

    total = n * (n + 1) // 2
    assert all(r["allreduce"] == total for r in returns)
    assert all(r["bcast mcast-binary"][0] == "mcast-binary" for r in returns)
    print(f"\nall {n} ranks agree: allreduce(1..{n}) = {total}")

    lossy = run_loopback(n, lossy_program, {"bcast": "mcast-seg-nack"},
                         params=replace(FAST_ETHERNET_SWITCH, loss=0.05),
                         seed=1)
    assert all(lossy.returns)
    print(f"mcast-seg-nack at 5% data loss: {len(BLOB)} B byte-correct on "
          f"every rank after {lossy.stats['drops_lossy']} drops and "
          f"{lossy.stats['retransmissions']} retransmissions")
    print("protocol logic validated against the real network stack")
    return 0


if __name__ == "__main__":
    sys.exit(main())
