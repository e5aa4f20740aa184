"""Communicators: rank groups, context ids, and the user-facing MPI API.

One spelling per MPI call: ``comm.rank`` / ``comm.size`` and one
lowercase method per operation, taking any Python object or NumPy array
(sized by :func:`~repro.mpi.datatypes.payload_bytes`).  Because ranks are
simulated processes, every blocking call is a generator used with
``yield from``::

    def main(env):
        comm = env.comm
        data = {"a": 7} if comm.rank == 0 else None
        data = yield from comm.bcast(data, root=0)
        yield from comm.barrier()

User point-to-point is ``isend`` / ``irecv``, each returning a
:class:`~repro.mpi.status.Request` completed by ``yield from
req.wait()``, and ``sendrecv``.

Collective algorithms are *pluggable* (see
:mod:`repro.mpi.collective.registry`): ``comm.use_collectives(
bcast="mcast-binary", barrier="mcast")`` switches a communicator from the
MPICH baselines to the paper's IP-multicast implementations.

Each communicator owns two hidden context ids (user p2p and collective
traffic, like MPICH) and — for the multicast path — one IP multicast
group address plus data/scout sockets, wrapped in a
:class:`repro.core.channel.McastChannel`.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence

from ..simnet.host import Host
from .collective.policy import AUTO, POLICY_WAIVERS, no_policy, resolve_auto
from .collective.registry import DEFAULTS, REGISTRY, compose, get_impl
from .datatypes import payload_bytes
from .ops import Op
from .p2p import MpiEndpoint
from .status import ANY_SOURCE, ANY_TAG, Request

__all__ = ["Communicator", "UNDEFINED"]

#: color value excluding a rank from a split (MPI_UNDEFINED)
UNDEFINED = None


class Communicator:
    """One rank's view of a process group."""

    def __init__(self, world, ctx: int, rank: int, ranks: list[int]):
        self.world = world
        self.ctx = ctx
        self.rank = rank
        self.ranks = list(ranks)          #: host address per rank
        self.endpoint: MpiEndpoint = world.endpoints[ranks[rank]]
        self.host: Host = self.endpoint.host
        self.sim = self.host.sim
        self._impls = dict(DEFAULTS)
        self._mcast = None
        #: lazily-built hierarchy state (the topology digest and the
        #: per-segment/leaders multicast sub-channels) for the
        #: ``hier-mcast`` collectives; see :mod:`repro.mpi.collective.hier`
        self._hier = None
        #: topology discovery key, the digest's cache key (``False`` =
        #: not yet discovered; ``None`` = single-segment; else
        #: ``(seg_of_rank, paths)``); see
        #: :func:`~repro.mpi.collective.policy.comm_topology`
        self._topo_key = False
        self._freed = False
        #: chronological (op, resolved impl name) log, one entry per
        #: call — how the "auto" policy layer's per-call choices are
        #: observed by tests/benches
        self.impl_log: list[tuple[str, str]] = []
        #: per-collective-call metric records (plain dicts, see
        #: :mod:`repro.obs.metrics`) — populated only when a flight
        #: recorder is attached (``REPRO_TRACE=1``), one entry per
        #: dispatched collective, in completion order next to
        #: :attr:`impl_log`
        self.metrics_log: list[dict] = []
        world.register_comm(self)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.ranks)

    def addr_of(self, rank: int) -> int:
        """Host address of a rank (the device-level destination)."""
        return self.ranks[rank]

    @property
    def ctx_pt2pt(self) -> int:
        return 2 * self.ctx

    @property
    def ctx_coll(self) -> int:
        return 2 * self.ctx + 1

    # ------------------------------------------------------------------
    # collective implementation selection
    # ------------------------------------------------------------------
    def use_collectives(self, **ops: str) -> "Communicator":
        """Select implementations, e.g. ``bcast="mcast-binary"``.

        The pseudo-name ``"auto"`` defers the choice to the payload-aware
        policy layer (:mod:`repro.mpi.collective.policy`), which resolves
        the implementation per call from the payload size and the
        process count.

        Returns self for chaining.  Raises KeyError for unknown names so
        misconfiguration fails loudly.
        """
        for op, name in ops.items():
            if name != AUTO:
                get_impl(op, name)   # validate now
            elif op not in REGISTRY or op in POLICY_WAIVERS:
                raise no_policy(op)
            self._impls[op] = name
        return self

    def _dispatch(self, op: str, *args) -> Generator:
        name = self._impls[op]
        if name == AUTO:
            name = yield from resolve_auto(self, op, args)
            impl = REGISTRY[op].get(name)
            fn = compose(op, name) if impl is None else impl.fn
        else:
            fn = get_impl(op, name)
        self.impl_log.append((op, name))
        rec = self.host.stats.recorder
        if rec is None:
            result = yield from fn(self, *args)
            return result
        token = rec.collective_begin(self.sim.now, self.host.addr,
                                     self.rank, op, name)
        try:
            result = yield from fn(self, *args)
        finally:
            record = rec.collective_end(self.sim.now, token)
            if record is not None:
                self.metrics_log.append(record)
        return result

    # ------------------------------------------------------------------
    # the multicast channel (lazy; touched eagerly during comm setup)
    # ------------------------------------------------------------------
    @property
    def mcast(self):
        """The per-communicator multicast channel (group + sockets)."""
        if self._mcast is None:
            from ..core.channel import McastChannel  # avoid import cycle
            self._mcast = McastChannel(self)
        return self._mcast

    # ------------------------------------------------------------------
    # point-to-point (user context)
    # ------------------------------------------------------------------
    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        self._check_rank(dest)
        return self.endpoint.isend(self.ctx_pt2pt, self.rank,
                                   self.addr_of(dest), obj,
                                   payload_bytes(obj), tag)

    def irecv(self, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> Request:
        if source != ANY_SOURCE:
            self._check_rank(source)
        return self.endpoint.irecv(self.ctx_pt2pt, source, tag)

    def sendrecv(self, obj: Any, dest: int, sendtag: int = 0,
                 source: int = ANY_SOURCE,
                 recvtag: int = ANY_TAG) -> Generator:
        rreq = self.irecv(source, recvtag)
        sreq = self.isend(obj, dest, sendtag)
        data = yield from rreq.wait()
        yield from sreq.wait()
        return data

    # ------------------------------------------------------------------
    # collective-context p2p used by algorithm implementations
    # ------------------------------------------------------------------
    def _send_coll(self, obj: Any, dest: int, tag: int,
                   nbytes: Optional[int] = None) -> Generator:
        req = self.endpoint.isend(
            self.ctx_coll, self.rank, self.addr_of(dest), obj,
            payload_bytes(obj) if nbytes is None else nbytes, tag)
        yield from req.wait()

    def _recv_coll(self, source: int, tag: int) -> Generator:
        req = self.endpoint.irecv(self.ctx_coll, source, tag)
        data = yield from req.wait()
        return data

    def _sendrecv_coll(self, obj: Any, dest: int, tag: int,
                       nbytes: int) -> Generator:
        rreq = self.endpoint.irecv(self.ctx_coll, dest, tag)
        sreq = self.endpoint.isend(
            self.ctx_coll, self.rank, self.addr_of(dest), obj, nbytes, tag)
        data = yield from rreq.wait()
        yield from sreq.wait()
        return data

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    # Each entry returns _dispatch's generator itself: the caller's
    # ``yield from`` drives it with no frame of ours in between.
    def bcast(self, obj: Any, root: int = 0) -> Generator:
        self._check_rank(root)
        return self._dispatch("bcast", obj, root)

    def barrier(self) -> Generator:
        return self._dispatch("barrier")

    def reduce(self, obj: Any, op: Op, root: int = 0) -> Generator:
        self._check_rank(root)
        return self._dispatch("reduce", obj, op, root)

    def allreduce(self, obj: Any, op: Op) -> Generator:
        return self._dispatch("allreduce", obj, op)

    def gather(self, obj: Any, root: int = 0) -> Generator:
        self._check_rank(root)
        return self._dispatch("gather", obj, root)

    def scatter(self, objs: Optional[Sequence[Any]],
                root: int = 0) -> Generator:
        self._check_rank(root)
        return self._dispatch("scatter", objs, root)

    def allgather(self, obj: Any) -> Generator:
        return self._dispatch("allgather", obj)

    # ------------------------------------------------------------------
    # communicator construction
    # ------------------------------------------------------------------
    def dup(self) -> Generator:
        """Collective: duplicate this communicator (fresh contexts)."""
        if self.rank == 0:
            ctx = self.world.alloc_ctx()
        else:
            ctx = None
        ctx = yield from self._dispatch("bcast", ctx, 0)
        new = Communicator(self.world, ctx, self.rank, self.ranks)
        new._impls = dict(self._impls)
        yield from new._setup()
        return new

    def split(self, color: Optional[int], key: int = 0) -> Generator:
        """Collective: partition ranks by ``color``, order by ``key``.

        Ranks passing ``color=None`` (MPI_UNDEFINED) get ``None`` back.
        """
        entries = yield from self._dispatch(
            "allgather", (color, key, self.rank))
        colors = sorted({c for c, _k, _r in entries if c is not None})
        if self.rank == 0:
            base = self.world.alloc_ctx_range(max(len(colors), 1))
        else:
            base = None
        base = yield from self._dispatch("bcast", base, 0)
        if color is None:
            return None
        members = sorted(((k, r) for c, k, r in entries if c == color))
        new_ranks = [self.ranks[r] for _k, r in members]
        my_new_rank = [r for _k, r in members].index(self.rank)
        ctx = base + colors.index(color)
        new = Communicator(self.world, ctx, my_new_rank, new_ranks)
        new._impls = dict(self._impls)
        yield from new._setup()
        return new

    def _setup(self) -> Generator:
        """Join the multicast group, then sync so joins are visible.

        The barrier runs over point-to-point (always safe); when it
        completes, every member's IGMP join has traversed its uplink —
        the switch snooped it before any subsequent multicast data frame
        can arrive (FIFO per link).
        """
        _ = self.mcast  # force group join now
        from .collective.barrier_p2p import barrier_mpich
        yield from barrier_mpich(self)

    def free(self) -> None:
        """Release multicast resources (idempotent).

        Closing the channels emits one IGMP leave per joined group, so
        the switches' snooped member sets shrink and no stale group
        entry keeps forwarding frames toward this communicator.
        """
        if self._freed:
            return
        self._freed = True
        if self._mcast is not None:
            self._mcast.close()
            self._mcast = None
        if self._hier is not None:
            self._hier.close()
            self._hier = None

    # ------------------------------------------------------------------
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(
                f"rank {rank} out of range for communicator of size "
                f"{self.size}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Communicator ctx={self.ctx} rank={self.rank}/"
                f"{self.size}>")
