"""Named registry of collective implementations.

``REGISTRY[op][impl_name] -> Impl(fn, model)``: the generator function
and the frame model that prices it, named where it registers
(``@register("bcast", "p2p-binomial", "p2p")``).  The model is a
:data:`~repro.analysis.framecount.FOLDS` name — ``"p2p"``, ``"flat"``
and ``"hier"`` price a whole call; ``"mcast-bcast"``,
``"mpich-barrier"`` and ``"mcast-barrier"`` the paper's closed forms;
``"parts"`` a composition — or an ``"estimate: <why>"`` marker.  Every
reader derives from this one fact: ``"auto"``'s candidates
(:func:`~repro.mpi.collective.policy.candidates`), the coverage ledger
(:func:`~repro.analysis.framecount.model_coverage`), the generated
reference and REG01.  The paper's experiment is exactly a comparison of
entries in this table:

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
  (the mcast reduce composed with the segmented broadcast);
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

Those seven ops are the whole registry, and exactly the ops the chaos
fuzzer draws (``repro.chaos.fuzz.OPS``): every registered collective is
inside its complete-or-fail contract.

**Compositions.**  A composite collective is a row of
:data:`COMPOSITIONS`: its *parts*, registered ``(op, impl)`` pairs the
op's one glue body runs in order at root 0, each looked up by name
(:func:`get_impl`) and called, never dispatched — a call logs one
resolution.  ``"auto"`` names a pick whose parts match no row by
joining them with ``"+"`` (``"p2p-binomial+mcast-seg-nack"``) and runs
it through :func:`compose`; such a name is not selectable.

The op × impl matrix with per-entry summaries is *generated* into
``docs/collectives.md`` (``python -m repro.bench.cli registry-doc``);
a tier-1 test and the CI docs job diff it so it can never go stale.

:data:`DEFAULTS` is the *static* per-op table a fresh communicator
starts from; the per-call policy layer
(:mod:`repro.mpi.collective.policy`) supersedes it wherever an op is set
to ``"auto"``.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Generator, NamedTuple

from ..datatypes import Bundle
from ..ops import Op

__all__ = ["REGISTRY", "Impl", "register", "get_impl", "DEFAULTS",
           "COMPOSITIONS", "PART_OPS", "parts_of", "compose",
           "composite_name"]


class Impl(NamedTuple):
    """One registration: the implementation and its frame model."""

    fn: Callable
    model: str


REGISTRY: dict[str, dict[str, Impl]] = {}

#: implementation chosen when a communicator is not configured otherwise
DEFAULTS: dict[str, str] = {
    "bcast": "p2p-binomial",
    "barrier": "p2p-mpich",
    "reduce": "p2p-binomial",
    "allreduce": "p2p-reduce-bcast",
    "gather": "p2p-binomial",
    "scatter": "p2p-binomial",
    "allgather": "p2p-gather-bcast",
}

#: composite (op, impl) -> its parts, the registered (op, impl) pairs
#: its glue body runs in order, every one at root 0
COMPOSITIONS: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {
    ("allreduce", "p2p-reduce-bcast"):
        (("reduce", "p2p-binomial"), ("bcast", "p2p-binomial")),
    ("allreduce", "mcast-seg-nack"):
        (("reduce", "mcast-seg-combine"), ("bcast", "mcast-seg-nack")),
    ("allreduce", "hier-mcast"):
        (("reduce", "hier-mcast"), ("bcast", "hier-mcast")),
    ("allgather", "p2p-gather-bcast"):
        (("gather", "p2p-binomial"), ("bcast", "p2p-binomial")),
}

#: composite op -> the ops of its parts, in run order
PART_OPS: dict[str, tuple[str, ...]] = {
    op: tuple(part for part, _impl in parts)
    for (op, _name), parts in COMPOSITIONS.items()}


def register(op: str, name: str, model: str) -> Callable:
    """Decorator: ``@register("bcast", "p2p-binomial", "p2p")`` — the
    implementation and the model that prices it, in one row entry."""

    def deco(fn: Callable) -> Callable:
        REGISTRY.setdefault(op, {})[name] = Impl(fn, model)
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
        return impls[name].fn
    except KeyError:
        raise KeyError(
            f"no implementation {name!r} for collective {op!r}; "
            f"known: {sorted(impls)}") from None


def parts_of(op: str, name: str) -> "tuple[tuple[str, str], ...] | None":
    """The parts composite ``name`` of ``op`` runs — its row's, or the
    ``"+"``-joined part implementations of an ``"auto"`` pick — or
    ``None`` when ``name`` names no composition."""
    parts = COMPOSITIONS.get((op, name))
    if parts is None and op in PART_OPS:
        impls = name.split("+")
        if len(impls) == len(PART_OPS[op]):
            parts = tuple(zip(PART_OPS[op], impls))
    return parts


def compose(op: str, name: str) -> Callable:
    """The glue body of composite ``op`` bound to the parts ``name``
    names (:func:`parts_of`).  Only ``"auto"`` reaches a ``"+"`` name:
    :func:`get_impl`, and so ``use_collectives``, take registered
    names only."""
    return partial(_GLUE[op], parts_of(op, name))


def composite_name(op: str, impls) -> str:
    """The name of the composition of ``op`` running ``impls``: the row
    whose parts they are, else the parts joined with ``"+"``."""
    parts = tuple(zip(PART_OPS[op], impls))
    return next((name for (row_op, name), row in COMPOSITIONS.items()
                 if row_op == op and row == parts), "+".join(impls))


# ----------------------------------------------------------------------
# the glue bodies: one per composite op, its parts called by name
# ----------------------------------------------------------------------
def _allreduce(parts, comm, obj: Any, op: Op) -> Generator:
    """The MPICH 1.x allreduce — the reduction to rank 0, broadcast
    back."""
    reduce, bcast = parts
    result = yield from get_impl(*reduce)(comm, obj, op, 0)
    result = yield from get_impl(*bcast)(comm, result, 0)
    return result


def _allgather(parts, comm, obj: Any) -> Generator:
    """The MPICH 1.x allgather — the contributions gathered to rank 0,
    broadcast back as one bundle."""
    gather, bcast = parts
    everything = yield from get_impl(*gather)(comm, obj, 0)
    bundle = yield from get_impl(*bcast)(
        comm, Bundle(enumerate(everything)) if comm.rank == 0 else None, 0)
    return list(bundle.values())


_GLUE = {"allreduce": _allreduce, "allgather": _allgather}


# a row's entry is its glue body with the parts bound, documented by
# them and priced as their sum
for (_op, _name), _parts in COMPOSITIONS.items():
    _row = compose(_op, _name)
    REGISTRY.setdefault(_op, {})[_name] = Impl(_row, "parts")
    _row.__doc__ = ("Parts " + " then ".join(
        f"{part} ``{impl}``" for part, impl in _parts) + ": "
        + _GLUE[_op].__doc__[0].lower() + _GLUE[_op].__doc__[1:])
