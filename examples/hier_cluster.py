#!/usr/bin/env python3
"""Hierarchical collectives on a tiered switch fabric.

Builds a ``tree:2x4`` cluster (two 4-host leaf switches behind a core,
joined by trunks — see :mod:`repro.simnet.fabric`), prints the
communicator's topology digest (segments, the leader ``hier-mcast``
elects in each, trunk-hop distances), and compares the trunk traffic
of the flat segmented collectives against the hierarchical ones.  The
trunks are the scarce, shared
resource of a multi-segment fabric.  The flat engine's control plane
walks the *rank* binomial tree, so what it pays on the trunks depends on
how ranks are placed; the hierarchy walks the *fabric*, so it pays each
trunk once per segment whatever the placement — a tie on block
placement, a win on round-robin placement and on the reduce turn loop.

Run:  python examples/hier_cluster.py
"""

from dataclasses import replace

import numpy as np

from repro import run_spmd
from repro.mpi.collective.policy import comm_topology
from repro.mpi.ops import SUM
from repro.simnet import FAST_ETHERNET_SWITCH, quiet

TOPOLOGY = "tree:2x4"
NPROCS = 8
SIZE = 24_000

PARAMS = quiet(replace(FAST_ETHERNET_SWITCH, segment_bytes="auto"))


def show_topology() -> None:
    def main(env):
        yield from env.comm.barrier()
        if env.rank == 0:
            # the one topology answer the policy and hier-mcast read
            env.records["digest"] = comm_topology(env.comm)
        return True

    result = run_spmd(NPROCS, main, topology=TOPOLOGY, params=PARAMS)
    digest = result.records[0]["digest"]
    print(f"topology {TOPOLOGY}: {digest.nsegments} segments")
    for s in range(digest.nsegments):
        members = [r for r, seg in enumerate(digest.seg_of_rank)
                   if seg == s]
        # the leader of a segment is its smallest rank
        print(f"  segment {s}: ranks {members} (leader: rank "
              f"{members[0]})")
    print("trunk-hop distance matrix (segment x segment):")
    for row in digest.hops:
        print("  ", list(row))


def trunk_frames(op: str, impl: str, n_ops: int,
                 round_robin: bool) -> int:
    def main(env):
        comm = env.comm
        if round_robin:
            # comm ranks 0..7 on hosts 0,4,1,5,...: segments alternate
            comm = yield from env.comm.split(
                0, key=(env.rank % 4) * 2 + env.rank // 4)
        comm.use_collectives(**{op: impl})
        for _ in range(n_ops):
            if op == "bcast":
                data = yield from comm.bcast(
                    bytes(SIZE) if comm.rank == 0 else None, 0)
                assert len(data) == SIZE
            else:
                yield from comm.reduce(np.ones(SIZE // 8), SUM, 0)
        return True

    result = run_spmd(NPROCS, main, topology=TOPOLOGY, params=PARAMS)
    return result.stats["frames_trunk"]


def compare_trunk_traffic() -> None:
    print(f"\nper-call trunk serializations, {SIZE} B:")
    for op, flat_impl, round_robin in (
            ("bcast", "mcast-seg-nack", False),
            ("bcast", "mcast-seg-nack", True),
            ("reduce", "mcast-seg-combine", False)):
        placement = "round-robin" if round_robin else "block"
        per_call = {
            impl: (trunk_frames(op, impl, 2, round_robin)
                   - trunk_frames(op, impl, 1, round_robin))
            for impl in (flat_impl, "hier-mcast")}
        print(f"  {op + ', ' + placement + ' placement:':<32}"
              f"flat {per_call[flat_impl]:>4}   "
              f"hier {per_call['hier-mcast']:>4}")
    print("every multicast crosses each trunk once either way; the flat "
          "engine's scout\ngathers and report fold walk the rank tree "
          "(one trunk edge on block placement,\nevery other edge on "
          "round-robin), the hierarchy's walk the fabric.")


if __name__ == "__main__":
    show_topology()
    compare_trunk_traffic()
