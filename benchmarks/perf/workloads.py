"""The five workloads, their seeded inputs and the correctness oracle.

Pure data and stdlib/NumPy only: the runner imports this module to
plan passes without paying for ``import repro``; :mod:`simrun` turns a
:class:`Workload` into ``run_spmd`` arguments.

Load model (closed loop): an SPMD program of ``ranks`` ranks, each
issuing its next collective when its previous one returns.  A workload
is a fixed **cycle** of collective calls; one **pass** is one cold
``run_spmd`` per topology in ``legs`` running one warm-up cycle plus
``cycles`` measured cycles.  See README.md for why each one exists.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, replace

import numpy as np

#: the seven collectives the mixed cycles draw from, in cycle order
OPS = ("bcast", "allreduce", "reduce", "gather", "scatter", "allgather",
       "barrier")

#: payload bytes with no zero byte, so a buffer the program left
#: zero-filled can never pass for the payload
_NONZERO = bytes(range(1, 256)) + b"\x01"


@dataclass(frozen=True)
class Call:
    """One collective call of a cycle."""

    op: str      #: one of :data:`OPS`
    size: int    #: total payload bytes of the collective
    impl: str    #: registry name, or ``"auto"``


@dataclass(frozen=True)
class Workload:
    name: str
    ranks: int
    legs: tuple            #: topologies; one cold run_spmd each per pass
    cycle: tuple           #: the ordered :class:`Call` list
    cycles: int            #: measured cycles per leg of an untraced pass
    traced_cycles: int     #: measured cycles per leg of a traced pass
    exact_passes: int      #: passes the simulated metrics are taken from
    loss: float = 0.0      #: NetParams.loss
    recorder: bool = False  #: FlightRecorder attached in every pass
    window_us: float = 0.0  #: > 0: paper §4 window-synchronised ops
    think_us: float = 0.0   #: mean compute_phase before each windowed op
    spin_every: int = 1     #: measured ops between calibration spins

    @property
    def ops_per_cycle(self) -> int:
        return len(self.cycle)


def _lan_cycle() -> tuple:
    calls = [Call("bcast", size, impl)
             for impl in ("p2p-binomial", "mcast-binary", "mcast-linear")
             for size in range(0, 6000, 1000)]
    calls += [Call("barrier", 0, impl)
              for _ in range(3) for impl in ("p2p-mpich", "mcast")]
    return tuple(calls)


def _mixed_cycle(impl: str) -> tuple:
    return tuple(Call(op, size, "hier-mcast" if op == "barrier" else impl)
                 for size in (512, 24_000) for op in OPS)


_FABRIC_BCAST = Workload(
    name="fabric-bcast", ranks=256, legs=("tree:16x16",),
    cycle=(Call("bcast", 24_000, "mcast-seg-nack"),),
    cycles=10, traced_cycles=2, exact_passes=2)

_HIER_AUTO = Workload(
    name="hier-auto", ranks=32, legs=("tree:2x4x4",),
    cycle=_mixed_cycle("auto"),
    cycles=5, traced_cycles=2, exact_passes=3, spin_every=3)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="lan-paper", ranks=9, legs=("hub", "switch"),
        cycle=_lan_cycle(), cycles=80, traced_cycles=10,
        exact_passes=2, window_us=20_000.0, think_us=60.0, spin_every=100),
    _FABRIC_BCAST,
    replace(_FABRIC_BCAST, name="fabric-bcast-traced", recorder=True),
    _HIER_AUTO,
    replace(_HIER_AUTO, name="hier-lossy",
            cycle=_mixed_cycle("hier-mcast"), loss=0.02),
)}


def smoke(workload: Workload) -> Workload:
    """The same program small enough for a tier-1 test: a few ranks,
    payloads capped at 4 kB, one measured cycle, one pass."""
    small = {"lan-paper": (4, ("hub", "switch")),
             "fabric-bcast": (16, ("tree:4x4",)),
             "fabric-bcast-traced": (16, ("tree:4x4",)),
             "hier-auto": (4, ("tree:2x2",)),
             "hier-lossy": (4, ("tree:2x2",))}
    ranks, legs = small[workload.name]
    cycle = tuple(replace(call, size=min(call.size, 4000))
                  for call in workload.cycle)
    return replace(workload, ranks=ranks, legs=legs, cycle=cycle,
                   cycles=1, traced_cycles=1, exact_passes=1)


def blank_pass(ops: int = 0, failed: int = 0) -> dict:
    """A pass result with nothing measured yet: what ``run_pass`` fills
    in, and what stands in for a pass that never reported back."""
    return {"ops": ops, "failed": failed, "errors": [],
            "leg_setup_s": [], "leg_setup_spin_s": [],
            "setup_sim_us": 0.0, "events": 0, "peak_live": 0,
            "op_wall_s": [], "op_spin_s": [], "op_sim_us": [],
            "op_slot": [],
            "picks": {"p2p": 0, "flat": 0, "hier": 0},
            "wall_s": 0.0, "probe_wall_s": 0.0, "cpu_s": 0.0, "stats": {},
            "recorded": 0, "gc_s": 0.0, "gc_collections": 0,
            "profile": {}, "rss_kb": 0, "import_s": 0.0}


# ---------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------
@dataclass
class Inputs:
    """What one call of one cycle sends and what it must return."""

    payload: bytes = b""        #: bcast payload / concatenated blocks
    blocks: tuple = ()          #: per-rank blocks (gather/scatter/allgather)
    crc: int = 0                #: crc32 of ``payload``
    block_crcs: tuple = ()      #: crc32 of each block
    vector: np.ndarray = None   #: rank r contributes ``vector * (r + 1)``
    total: np.ndarray = None    #: the expected elementwise sum


def pass_seed(seed: int, pass_index: int) -> int:
    """Simulator/input seed of one pass: distinct streams per pass so a
    run samples more than one loss/jitter history."""
    return seed * 1009 + pass_index


def make_inputs(workload: Workload, seed: int, leg: int,
                ncycles: int) -> list:
    """``inputs[cycle][slot]`` for ``ncycles`` cycles (warm-up included).

    The program sees only these; the same ``seed`` gives the same bytes.
    Reduction vectors hold small integers so the float64 sum is exact
    in any association order.
    """
    rng = random.Random(f"{workload.name}/{seed}/{leg}")
    n = workload.ranks
    out = []
    for _ in range(ncycles):
        row = []
        for call in workload.cycle:
            inp = Inputs()
            if call.op == "bcast":
                inp.payload = rng.randbytes(call.size).translate(_NONZERO)
                inp.crc = zlib.crc32(inp.payload)
            elif call.op in ("gather", "scatter", "allgather"):
                # the call's size is the collective's total: rank r
                # owns the r-th of n equal blocks
                blk = max(1, call.size // n)
                inp.payload = rng.randbytes(blk * n).translate(_NONZERO)
                inp.crc = zlib.crc32(inp.payload)
                inp.blocks = tuple(inp.payload[r * blk:(r + 1) * blk]
                                   for r in range(n))
                inp.block_crcs = tuple(zlib.crc32(b) for b in inp.blocks)
            elif call.op in ("reduce", "allreduce"):
                inp.vector = np.array(
                    rng.choices(range(1, 1001), k=call.size // 8),
                    dtype=np.float64)
                inp.total = inp.vector * (n * (n + 1) // 2)
            row.append(inp)
        out.append(row)
    return out


# ---------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------
def argument(call: Call, inp: Inputs, rank: int):
    """The payload argument ``rank`` passes to ``call`` (rooted ops are
    rooted at rank 0)."""
    if call.op == "bcast":
        return inp.payload if rank == 0 else None
    if call.op == "scatter":
        return list(inp.blocks) if rank == 0 else None
    if call.op in ("gather", "allgather"):
        return inp.blocks[rank]
    if call.op in ("reduce", "allreduce"):
        return inp.vector * (rank + 1)
    return None


def check(call: Call, inp: Inputs, rank: int, out) -> bool:
    """Did ``rank`` get the right answer from ``call``?"""
    op = call.op
    if op == "barrier":
        return True
    if op == "bcast":
        return (isinstance(out, (bytes, bytearray, memoryview))
                and zlib.crc32(out) == inp.crc)
    if op == "scatter":
        return (isinstance(out, (bytes, bytearray, memoryview))
                and zlib.crc32(out) == inp.block_crcs[rank])
    if op in ("gather", "reduce") and rank != 0:
        return True                 # significant at the root only
    if op in ("gather", "allgather"):
        return (out is not None and len(out) == len(inp.blocks)
                and zlib.crc32(b"".join(out)) == inp.crc)
    return out is not None and np.array_equal(out, inp.total)
