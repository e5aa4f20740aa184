"""Payload-, topology- and loss-aware collective selection — ``"auto"``.

The registry's static :data:`~repro.mpi.collective.registry.DEFAULTS`
table answers "which algorithm?" once per communicator; real MPI
libraries answer it **per call**, from the message size, the process
count, and the machine (MPICH's size-thresholded algorithm tables; the
topology-aware multilevel selection of Karonis & de Supinski).  This
module is that policy layer.  ``comm.use_collectives(bcast="auto")``
marks an op for per-call resolution; :func:`resolve_auto` then picks
among the op's :func:`candidates` each time the collective is invoked:
the implementations registered with a whole-call fold — its flat
segmented-multicast implementation (``"flat"``), on a multi-segment
fabric the hierarchical ``hier-mcast`` family (``"hier"``,
:mod:`repro.mpi.collective.hier`), and its p2p baseline (``"p2p"``).  A
composite op (:data:`~repro.mpi.collective.registry.COMPOSITIONS`) is
offered its parts' own picks instead of its rows.  Every registered op
not in :data:`POLICY_WAIVERS` is :func:`auto_capable`
(``use_collectives`` rejects ``"auto"`` for any other op); nothing here
names an implementation.

The decision metric generalizes the paper's §3 currency: **modeled
serializations** — closed-form Ethernet frame counts.  Every candidate
is priced by the fold its registration names,
``framecount.FOLDS[model]``, one signature for all three, summed by
:func:`_decide`: the p2p baseline by ``model_p2p_frames`` (every
message of the tree it walks), the flat segmented implementation as the
*one-group plan* and ``hier-mcast`` as the hierarchy's
(``model_flat_frames`` / ``model_hier_frames``), a composite as the sum
of its parts' minima.  On
top of host frames the metric counts

* **trunk crossings** on a tiered fabric (:func:`comm_topology` reads
  the cluster's discovery API; each crossing re-serializes the frame on
  a shared switch-to-switch link, the models live in
  :mod:`repro.analysis.framecount`), and
* **expected NACK-repair traffic** from the platform's calibrated
  multicast loss rate (``NetParams.loss``,
  :func:`~repro.analysis.framecount.expected_seg_repair_frames`) —
  lossy platforms shift the crossover back toward the p2p trees and
  toward the hierarchical variants whose repairs stay off the trunks.

Small payloads keep the p2p trees (the multicast
scout/report/decision control tax dominates); large payloads switch to
the segmented streams; multi-segment fabrics switch to ``hier-mcast``
when the trunk savings beat the extra per-segment phases.  ``reduce``
remains the documented exception on flat clusters: many-to-one traffic
gains no frame advantage from multicast at any size, so auto keeps the
binomial tree there and the segmented reduce exists for lossy-transport
scenarios and as the allreduce building block.

**Consistency.**  Every rank must dispatch the same implementation or
the collective deadlocks (paper §4 safety).  Topology and loss inputs
are rank-invariant (the shared cluster object and ``NetParams``), so
they never break the existing protocol: for ops whose payload every
rank holds — ``reduce``, and ``allreduce``, which is its parts: a
reduce and a bcast at root 0 of the contribution's size — resolution
stays local and free;
for rooted ops (``bcast``, ``scatter``) the root announces its choice
down the binomial scout tree
(:func:`~repro.core.scout.scout_scatter_binary`) — ``N-1`` scout-sized
frames, ``log2 N`` deep, independent of the payload.  ``allgather``
anchors the announcement at rank 0 so heterogeneous contribution sizes
can never split the group's decision.  A composite's parts are
called, not dispatched: a call resolves — and announces — once.

**Cost.**  The models are off the per-call path: their topology
coefficients live in a :class:`~repro.analysis.framecount.TopoDigest`
built once per ``(seg_of_rank, paths)`` — the digest
:func:`comm_topology` hands out, which is also what ``hier-mcast``
executes against — and the candidate table and pick of one call
signature are memoised process-wide (:func:`cache_info`,
:func:`clear_caches`).  The memo key is made of the rank-invariant
inputs above and nothing else, so ranks sharing an entry is the
consistency rule itself, not an exception to it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Generator, NamedTuple

from ..datatypes import payload_bytes
from .registry import DEFAULTS, PART_OPS, REGISTRY, composite_name

__all__ = ["AUTO", "POLICY_WAIVERS", "auto_capable", "candidates",
           "no_policy", "comm_topology", "auto_impl",
           "modeled_frame_costs", "resolve_auto",
           "cache_info", "clear_caches"]

#: the pseudo-implementation name accepted by ``use_collectives``
AUTO = "auto"

#: registered ops *deliberately* outside the auto policy, with the
#: reason on record.  The REG01 lint rule requires every other
#: registered op to have a ``"flat"`` implementation (or to be a
#: composition of such ops), so a future collective cannot silently
#: ship without a selection story — and flags a waiver as stale the
#: moment its op gains one (or stops being registered).
POLICY_WAIVERS: dict[str, str] = {
    "barrier": "latency-bound and payload-free: the serialization "
               "currency of modeled_frame_costs cannot rank its "
               "candidates, so selection stays static (DEFAULTS or an "
               "explicit use_collectives choice)",
}


def auto_capable(op: str) -> bool:
    """Whether ``"auto"`` resolves ``op``: registered and not waived.
    The per-call paths (``use_collectives``, :func:`auto_impl`,
    :func:`resolve_auto`) spell the test inline: it runs per rank per
    call."""
    return op in REGISTRY and op not in POLICY_WAIVERS


def candidates(op: str) -> dict[str, str]:
    """``op``'s implementations ``"auto"`` prices, name -> model: those
    registered with a whole-call fold, in the tie order of
    :data:`~repro.analysis.framecount.CALL_FOLDS` (a composite op adds
    its parts' pick).  Read off the op's registry row on every call."""
    from ...analysis.framecount import CALL_FOLDS

    row = REGISTRY.get(op, {})
    return {name: model for model in CALL_FOLDS
            for name, impl in row.items() if impl.model == model}


def comm_topology(comm):
    """The communicator's :class:`~repro.analysis.framecount.
    TopoDigest`, or ``None`` when every member shares one switch segment
    (flat cluster, or a sub-communicator confined to one leaf).

    The one topology answer: the policy's models and ``hier-mcast``'s
    :class:`~repro.mpi.collective.hier.HierState` both read it, so
    model and behaviour cannot drift.  The communicator caches only the
    discovery key — the dense ``seg_of_rank`` and the segments'
    switch-tree paths, from the cluster's discovery API — and every
    read resolves the digest through the shared cache (one lookup), so
    :func:`clear_caches` reaches long-lived communicators too.
    """
    key = comm._topo_key
    if key is False:
        cluster = comm.world.cluster
        raw = [cluster.segment_of(comm.addr_of(r)) for r in range(comm.size)]
        segs = sorted(set(raw))
        dense = {seg: i for i, seg in enumerate(segs)}
        key = comm._topo_key = None if len(segs) < 2 else (
            tuple(dense[seg] for seg in raw),
            tuple(cluster.segment_path(seg) for seg in segs))
    if key is None:
        return None
    from ...analysis.framecount import topo_digest

    return topo_digest(*key)


def no_policy(op: str) -> KeyError:
    """The error ``"auto"`` raises for an op it cannot resolve."""
    return KeyError(f"no auto selection policy for collective {op!r}; "
                    f"auto-capable ops: "
                    f"{sorted(filter(auto_capable, REGISTRY))}")


def _hier_competes(topo, hier_ok: bool) -> bool:
    """Whether ``hier-mcast`` is a candidate: the caller allows it and
    the communicator spans 2..MAX_HIER_SEGMENTS segments.  Evaluated
    ahead of the memo (an attribute of the digest), so calls that
    differ only in a ``hier_ok`` the segment count overrides share an
    entry."""
    if not hier_ok or topo is None:
        return False
    from .hier import MAX_HIER_SEGMENTS

    return 1 < topo.nsegments <= MAX_HIER_SEGMENTS


@lru_cache(maxsize=1024)
def _decide(op: str, nbytes: int, size: int, params, topo, root: int,
            hier: bool, commutative: bool = True) -> tuple[dict, str]:
    """(modeled cost of every candidate, the pick) for one call
    signature; ``hier`` is :func:`_hier_competes`, ``commutative`` the
    reduction operator's flag (a non-commutative p2p reduce at a
    nonzero root adds a forward).  A pure function of
    hashable values — ``params`` is frozen and rank-invariant, ``topo``
    the shared cached digest (hashed by identity: one digest per
    ``(seg_of_rank, paths)`` until :func:`clear_caches`) — so one memo
    serves every rank of every communicator in the
    process: a collective evaluates the models once, not once per
    rank, and a repeated call not at all.  Every rank reading the same
    entry is the §4 consistency rule (identical inputs, identical
    pick) made literal.

    Every :func:`candidates` entry costs host frames plus trunk
    crossings of its registered fold: the p2p baseline's messages, the
    flat one-group plan, the hierarchy's plan (only when ``hier``) —
    the plans with expected repair traffic at ``params.loss`` included:
    repairs never leave the losing group's switch subtree, which is
    most of the hierarchy's win under loss.
    A composite op's baseline is its parts, each at root 0 at its
    :func:`~repro.analysis.framecount.part_payloads` with its own pick,
    named as the row they make up (else joined by ``"+"``) and priced
    as the sum of those picks' costs."""
    from ...analysis.framecount import FOLDS, part_payloads

    seg_of_rank, paths = (((0,) * size, None) if topo is None
                          else (topo.seg_of_rank, topo.paths))
    costs = {name: sum(FOLDS[model](op, seg_of_rank, root, nbytes, params,
                                    paths, params.loss, commutative))
             for name, model in candidates(op).items()
             if hier or model != "hier"}
    if op in PART_OPS:
        picks, total = [], 0
        for part, m in zip(PART_OPS[op], part_payloads(op, size, nbytes)):
            part_costs, pick = _decide(part, m, size, params, topo, 0,
                                       hier, commutative)
            picks.append(pick)
            total += part_costs[pick]
        costs[composite_name(op, picks)] = total
    return costs, min(costs, key=costs.__getitem__)


def modeled_frame_costs(op: str, nbytes: int, size: int, params,
                        topo=None, root: int = 0, hier_ok: bool = True,
                        commutative: bool = True) -> dict[str, float]:
    """Modeled serializations of every candidate implementation for one
    call — the table :func:`auto_impl` takes the argmin of (and the
    fabric bench audits against the simulator)."""
    if not auto_capable(op):
        raise no_policy(op)
    return dict(_decide(op, nbytes, size, params, topo, root,
                        _hier_competes(topo, hier_ok), commutative)[0])


def auto_impl(op: str, nbytes: int, size: int, params, topo=None,
              root: int = 0, hier_ok: bool = True,
              commutative: bool = True) -> str:
    """Pick the implementation for one call: the candidate with the
    lowest modeled serialization count (``topo``: the communicator's
    :func:`comm_topology`, ``None`` on one segment).  Ties keep the
    :func:`candidates` order — segmented multicast over
    hierarchical over the p2p baseline — so on a flat, loss-free
    cluster the choice is exactly "segmented iff its frame estimate is
    at or below p2p's"."""
    if op not in REGISTRY or op in POLICY_WAIVERS:   # auto_capable(op)
        raise no_policy(op)
    if size < 2:
        return DEFAULTS[op]
    return _decide(op, nbytes, size, params, topo, root,
                   _hier_competes(topo, hier_ok), commutative)[1]


class CacheInfo(NamedTuple):
    evaluations: int   #: times the models ran (distinct call signatures)
    hits: int          #: calls answered from the memo
    size: int          #: entries held (bounded)


def cache_info() -> CacheInfo:
    """Read-only counters of the shared decision memo."""
    info = _decide.cache_info()
    return CacheInfo(info.misses, info.hits, info.currsize)


def clear_caches() -> None:
    """Drop the decision memo and the topology digests under it (the
    tests' autouse fixture calls this so counts are order-independent;
    call it after (de)registering an implementation, whose candidacy
    the memo has already read)."""
    from ...analysis import framecount

    _decide.cache_clear()
    framecount.clear_caches()


def resolve_auto(comm, op: str, args: tuple) -> Generator:
    """Resolve ``"auto"`` for one dispatch; every rank returns the same
    implementation name — a registered one, or a composite's
    ``"+"``-joined parts — (see module docstring for how consistency is
    guaranteed per op).
    """
    size = comm.size
    params = comm.host.params
    if size < 2:
        return DEFAULTS[op]
    # the topology is resolved only where a decision is evaluated
    if op in ("reduce", "allreduce"):
        # MPI requires size-matched contributions: local resolution is
        # identical everywhere and costs nothing.  The hierarchical
        # candidate is withheld when it would have to fall back anyway
        # (non-commutative operator over non-contiguous segments).
        topo = comm_topology(comm)
        commutative = getattr(args[1], "commutative", True)
        root = args[2] if op == "reduce" else 0
        hier_ok = topo is None or topo.contiguous or commutative
        return auto_impl(op, payload_bytes(args[0]), size, params,
                         topo=topo, root=root, hier_ok=hier_ok,
                         commutative=commutative)
    # Rooted (bcast, scatter, gather) or rank-0-anchored (allgather):
    # one rank announces the choice down the scout tree.  The gather's
    # anchor payload is the root's *own* contribution — heterogeneous
    # contribution sizes cannot split the decision, and equal-sized
    # contributions (the common case) make it exact.
    from ...core.scout import scout_scatter_binary

    root = args[1] if op in ("bcast", "scatter", "gather") else 0
    channel = comm.mcast
    seq = channel.next_seq()
    name = None
    if comm.rank == root:
        if op == "scatter":
            objs = args[0]
            nbytes = sum(payload_bytes(o) for o in objs) if objs else 0
        else:
            nbytes = payload_bytes(args[0])
        name = auto_impl(op, nbytes, size, params,
                         topo=comm_topology(comm), root=root)
    name = yield from scout_scatter_binary(comm, channel, seq, root,
                                           tag="impl-dec", value=name)
    return name
