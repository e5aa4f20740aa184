"""Reduction collectives over the segmented multicast round engine.

The paper multicasts only the one-to-many side (bcast, barrier release);
its reductions stayed on MPICH's p2p trees.  This module closes that gap
with collectives built on :mod:`repro.core.rounds`, all sharing one
**turn loop** (:func:`stream_turns`): every non-root rank takes a turn
streaming its contribution through the engine (header, arm, paced
segment stream, report, decision, selective repair — exactly the
``mcast-seg-nack`` broadcast structure with the contributor as root),
the root follows each turn, and ranks that are neither the turn's
sender nor the root follow the loop as pure bystanders
(``needed=set()``): they join every arming gather and receive every
decision, staying in lockstep without posting a single descriptor — the
data frames they do not need die at their posted-only sockets.

* ``reduce`` **"mcast-seg-combine"** — the root folds the arriving
  values through the :class:`~repro.mpi.ops.Op` **in rank order**
  (``acc = op(acc, incoming)``), so non-commutative but associative
  operators see operands exactly as MPI requires, at every root.

  Many-to-one traffic gains no *frame-count* advantage from multicast
  (each contribution is needed at exactly one rank), so the payload
  frames match the p2p binomial reduce; what the engine adds is the
  PR 1/2 reliable transport — per-segment selective repair under loss,
  descriptor-budget pacing, adaptive drain timeouts — none of which the
  p2p tree has, plus the building block for:

* ``allreduce`` **"mcast-seg-nack"** — the mcast reduce composed with
  the segmented broadcast (reduce to rank 0, then
  :func:`~repro.core.segment.bcast_mcast_seg_nack`).  Here multicast
  *does* win frames outright: MPICH's reduce-then-broadcast puts
  ``2(N-1)`` copies of the payload on the wire, this puts ``N`` — the
  broadcast half is a single multicast stream.

* ``gather`` **"mcast-seg-root-follow"** lives in
  :mod:`repro.core.mcast_gather`: the same turn loop with the root
  *collecting* instead of folding.

All register in :mod:`repro.mpi.collective.registry`; switch with
``comm.use_collectives(reduce="mcast-seg-combine",
allreduce="mcast-seg-nack")`` or let the payload-, topology- and
loss-aware ``"auto"`` policy (:mod:`repro.mpi.collective.policy`) pick
per call.  On multi-segment fabrics the hierarchical family
(:mod:`repro.mpi.collective.hier`) composes these same collectives per
segment, bridged by leaders.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Generator

from ..mpi.collective.registry import register
from ..mpi.datatypes import payload_bytes
from ..mpi.ops import Op
from .rounds import follow_rounds, round_namespace, serve_rounds
from .segment import bcast_mcast_seg_nack, fragment, plan_transport

__all__ = ["stream_turns", "reduce_mcast_seg_combine",
           "allreduce_mcast_seg_nack"]


def stream_turns(comm, obj: Any, root: int, key: str,
                 consume: Callable[[int, Any], None]) -> Generator:
    """Turn-based many-to-one streaming over the round engine.

    Every rank except ``root`` serves one engine stream carrying its
    ``obj`` (turn order = ascending rank); the root follows each turn
    and hands the reassembled value — and its own ``obj``, which never
    touches the wire — to ``consume(turn, value)`` in strictly
    ascending turn order.  ``key`` namespaces the per-turn streams
    (``"red"`` for reduce, ``"gat"`` for gather) so different
    collectives can never cross-match control traffic.
    """
    channel = comm.mcast
    params = comm.host.params
    seq = channel.next_seq()
    size = comm.size

    if comm.rank != root:
        # the root's contribution never touches the wire: only the
        # ranks that will serve a turn pay the fragmentation copy
        tplan = plan_transport(payload_bytes(obj), params)
        mine = fragment(obj, tplan.segment_bytes)

    for turn in range(size):
        arm_phase, rnd_token = round_namespace(key, turn)
        if turn == root:
            # The root's own contribution never touches the wire.
            if comm.rank == root:
                consume(turn, obj)
        elif comm.rank == turn:
            yield from serve_rounds(comm, channel, seq, turn, mine,
                                    tplan.batch, arm_phase, rnd_token)
        elif comm.rank == root:
            reasm = yield from follow_rounds(comm, channel, seq, turn,
                                             arm_phase, rnd_token)
            consume(turn, reasm.result())
        else:
            # Bystander: stay in lockstep with the turn's stream (its
            # gathers, empty reports, decisions) without posting
            # descriptors — the turn's data is not for us.
            yield from follow_rounds(comm, channel, seq, turn, arm_phase,
                                     rnd_token, needed=set())


@register("reduce", "mcast-seg-combine")
def reduce_mcast_seg_combine(comm, obj: Any, op: Op,
                             root: int = 0) -> Generator:
    """Segmented NACK-repaired reduce: gather turns folded through ``op``.

    Returns the reduction at ``root``; ``None`` elsewhere.
    """
    if comm.size == 1:
        return copy.copy(obj)
    state: dict[str, Any] = {}

    def fold(turn: int, value: Any) -> None:
        # Fold strictly in ascending turn (= rank) order: MPI allows
        # reordering only for commutative ops, so never reorder.
        state["acc"] = (value if "acc" not in state
                        else op(state["acc"], value))

    yield from stream_turns(comm, obj, root, "red", fold)
    return state.get("acc") if comm.rank == root else None


@register("allreduce", "mcast-seg-nack")
def allreduce_mcast_seg_nack(comm, obj: Any, op: Op) -> Generator:
    """Segmented allreduce: mcast-seg reduce to rank 0, then the
    segmented NACK-repaired broadcast — ``N`` payload streams total
    against MPICH's ``2(N-1)`` tree copies."""
    result = yield from reduce_mcast_seg_combine(comm, obj, op, 0)
    result = yield from bcast_mcast_seg_nack(comm, result, 0)
    return result
