"""Named registry of collective implementations.

``REGISTRY[op][impl_name] -> generator function``.  The paper's experiment
is exactly a comparison of entries in this table:

* ``bcast``: ``"p2p-binomial"`` (MPICH) vs ``"mcast-binary"`` /
  ``"mcast-linear"`` (the contribution) plus ``"mcast-ack"`` (the
  PVM-style baseline from [2]), ``"mcast-sequencer"`` (Orca-style) and
  ``"mcast-seg-nack"`` (segmented + pipelined with selective NACK
  repair, :mod:`repro.core.segment`);
* ``barrier``: ``"p2p-mpich"`` vs ``"mcast"``;
* ``allgather``: ``"p2p-gather-bcast"`` vs ``"mcast-seg-paced"``
  (rank-ordered segmented per-turn streaming, the §5 overrun cure);
* ``reduce``: ``"p2p-binomial"`` vs ``"mcast-seg-combine"``
  (NACK-repaired gather turns folded through :mod:`repro.mpi.ops`);
* ``allreduce``: ``"p2p-reduce-bcast"`` vs ``"mcast-seg-nack"``
  (mcast reduce composed with the segmented broadcast);
* ``scatter``: ``"p2p-binomial"`` vs ``"mcast-seg-root"`` (the root
  streams per-rank-addressed segments in one paced burst);
* ``gather``: ``"p2p-binomial"`` vs ``"mcast-seg-root-follow"`` (the
  root follows each contributor's engine stream) — every segmented
  entry is one row of the stream schedule in :mod:`repro.core.segment`,
  run by its ``run_streams``;
* ``bcast``/``reduce``/``allreduce``/``barrier``/``scatter``/
  ``gather``/``allgather`` additionally register ``"hier-mcast"``
  (:mod:`repro.mpi.collective.hier`): per-segment phases bridged by
  segment leaders — recursively, leaders of leaders per switch tier —
  on tiered fabrics (:mod:`repro.simnet.fabric`).

The op × impl matrix with per-entry summaries is *generated* into
``docs/collectives.md`` (``python -m repro.bench.cli registry-doc``);
a tier-1 test and the CI docs job diff it so it can never go stale.

:data:`DEFAULTS` is the *static* per-op table a fresh communicator
starts from; the per-call policy layer
(:mod:`repro.mpi.collective.policy`) supersedes it wherever an op is set
to ``"auto"`` or a selection hook is installed with
``comm.set_collective_policy``.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["REGISTRY", "register", "get_impl", "DEFAULTS"]

REGISTRY: dict[str, dict[str, Callable]] = {}

#: implementation chosen when a communicator is not configured otherwise
DEFAULTS: dict[str, str] = {
    "bcast": "p2p-binomial",
    "barrier": "p2p-mpich",
    "reduce": "p2p-binomial",
    "allreduce": "p2p-reduce-bcast",
    "gather": "p2p-binomial",
    "scatter": "p2p-binomial",
    "allgather": "p2p-gather-bcast",
    "alltoall": "p2p-pairwise",
    "scan": "p2p-linear",
}


def register(op: str, name: str) -> Callable:
    """Decorator: ``@register("bcast", "p2p-binomial")``."""

    def deco(fn: Callable) -> Callable:
        REGISTRY.setdefault(op, {})[name] = fn
        return fn

    return deco


def get_impl(op: str, name: str) -> Callable:
    try:
        impls = REGISTRY[op]
    except KeyError:
        raise KeyError(
            f"unknown collective op {op!r}; "
            f"known ops: {sorted(REGISTRY)}") from None
    try:
        return impls[name]
    except KeyError:
        raise KeyError(
            f"no implementation {name!r} for collective {op!r}; "
            f"known: {sorted(impls)}") from None
