#!/usr/bin/env python3
"""Recursive multi-tier fabrics and leaders-of-leaders collectives.

Builds a three-tier ``tree:2x2x2`` cluster (a core switch, two mid
switches, four leaf switches of two hosts — see
:mod:`repro.simnet.fabric`), prints the communicator's topology digest
(segment paths, true trunk-hop distances), shows the recursive
hierarchy ``hier-mcast`` elects (per-leaf groups, leader groups, and a
leaders-of-leaders group at the core), and compares per-call trunk
traffic of the flat segmented gather against the hierarchical one.

Run:  python examples/deep_fabric.py
"""

from dataclasses import replace

from repro import run_spmd
from repro.mpi.collective.hier import group_members, tree_internal_nodes
from repro.mpi.collective.policy import comm_topology
from repro.simnet import FAST_ETHERNET_SWITCH, quiet

TOPOLOGY = "tree:2x2x2"
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
    print(f"topology {TOPOLOGY}: {digest.nsegments} segments, "
          f"3 switch tiers")
    for s, path in enumerate(digest.paths):
        members = [r for r, seg in enumerate(digest.seg_of_rank)
                   if seg == s]
        print(f"  segment {s} at switch path {path}: ranks {members}")
    print("trunk-hop distance matrix (segment x segment; up to 4 hops "
          "across the tree):")
    for row in digest.hops:
        print("  ", list(row))
    print("recursive leader hierarchy (leaders of leaders):")
    for node in tree_internal_nodes(digest.tree):
        where = "core" if node.path == () else f"switch {node.path}"
        print(f"  group at {where}: leader ranks "
              f"{list(group_members(node))}")


def trunk_frames(impl: str, n_ops: int) -> int:
    def main(env):
        env.comm.use_collectives(gather=impl)
        for _ in range(n_ops):
            got = yield from env.comm.gather(
                bytes([env.rank]) * (SIZE // NPROCS), 0)
            assert (got is None) == (env.rank != 0)
        return True

    result = run_spmd(NPROCS, main, topology=TOPOLOGY, params=PARAMS)
    return result.stats["frames_trunk"]


def compare_trunk_traffic() -> None:
    print(f"\nper-call trunk serializations, {SIZE} B gather:")
    for impl in ("mcast-seg-root-follow", "hier-mcast"):
        per_call = trunk_frames(impl, 2) - trunk_frames(impl, 1)
        print(f"  {impl:<21} {per_call:>4} trunk frames")
    print("the hierarchy gathers within each leaf, then leader groups "
          "bridge each\ntier — every tier's trunks carry each "
          "contribution once, where the flat\nturn loop spans the "
          "whole fabric once per contributing rank.")


if __name__ == "__main__":
    show_topology()
    compare_trunk_traffic()
