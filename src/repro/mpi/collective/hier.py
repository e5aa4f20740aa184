"""Hierarchical multicast collectives for tiered fabrics — ``hier-mcast``.

On a multi-segment fabric (:mod:`repro.simnet.fabric`) the flat
segmented-multicast collectives pay the trunks for *every* control
message: each NACK report, decision, and arming scout of every rank in a
remote segment crosses the backbone.  Following Karonis & de Supinski's
multilevel topology-aware collectives (MPICH-G2) and Träff's multi-lane
decomposition, this module re-expresses each collective as **per-segment
phases bridged by segment leaders — recursively**: on a fabric deeper
than two tiers, the leaders themselves are grouped by the switch
subtrees that contain them, with leaders-of-leaders bridging each higher
tier, so every phase's traffic is confined to the smallest switch
subtree that contains its participants.

* **discovery** — every rank asks the cluster's topology API
  (:meth:`~repro.simnet.topology.Cluster.segment_of` /
  :meth:`~repro.simnet.topology.Cluster.segment_path` via
  ``comm.world.cluster``) for the segment and switch-tree path of each
  communicator rank, once per communicator
  (:func:`~repro.mpi.collective.policy.comm_topology`).  The mapping is
  identical everywhere, so its digest
  (:class:`~repro.analysis.framecount.TopoDigest`, shared with the
  auto policy's models) and the whole hierarchy it carries —
  :func:`build_hier_tree`, a collapsed tree whose leaves are occupied
  segments and whose internal nodes are the switch subtrees with
  members in more than one child — are elected locally and free.  The
  **leader** of any subtree is its smallest communicator rank;
* **per-group channels** — each occupied leaf segment's members share a
  private :class:`~repro.core.channel.McastChannel`, and each internal
  node of the hierarchy carries one more for the leaders of its
  children (on a two-tier fabric this degenerates to exactly one
  "leaders' group").  Group ids and ports come from a deterministic
  world-level slab (:meth:`repro.mpi.world.MpiWorld.alloc_hier_slab`).
  IGMP snooping confines each group's frames to the switch subtree
  spanning its members;
* **engine reuse** — every phase runs the flat collectives' own turn
  loop (:func:`repro.core.segment.run_streams`; the step kinds below
  name each one's schedule row) over a
  :class:`SegmentComm` — a group-local *view* of the communicator that
  renumbers member ranks densely and carries its own channel, so the
  round engine (serve/follow, NACK repair, pacing) needs no changes and
  repairs for a loss inside a segment never touch a trunk.

Registered as ``"hier-mcast"`` for ``bcast`` / ``reduce`` /
``barrier`` / ``scatter`` / ``gather`` / ``allgather``; ``allreduce``'s
``"hier-mcast"`` is a row of the registry's compositions whose parts
are entries of this module.  On a flat cluster (or a communicator
whose members all share one segment) every entry degrades to its flat segmented counterpart, so
``hier-mcast`` is always safe to select; the payload- and
topology-aware auto policy (:mod:`repro.mpi.collective.policy`) picks
it per call whenever the modeled frame count — trunk crossings and
expected loss repairs included — beats the flat engine and the p2p
trees.

**One plan, three readers.**  Each collective *compiles*
(:func:`compile_plan`, a pure function of the hierarchy tree and the
root) to one global, ordered tuple of typed :class:`Step` s — a
``kind`` over a group (:class:`HierPhase`: members + the rank serving
or collecting).  Every rank *interprets* (:func:`run_plan`) the
restriction of that list to the groups it belongs to, so all per-rank
schedules embed in one total order and can never deadlock; the frame
model (:func:`repro.analysis.framecount.model_plan_frames`) is a cost
fold over the same list, so the policy's model and the
implementation's behaviour cannot drift; and the flight recorder's
span labels are the steps' own.  A flat segmented collective is the
same plan on the one-leaf tree — one group, the whole communicator,
one step whose engine call *is* the registered implementation — so
the fold prices it too.  The kinds are a closed set.  The five that
run engine streams name a row of the stream schedule
(:func:`repro.core.segment.step_streams`, ``(server turn,
consumer)`` per stream) that :func:`repro.core.segment.run_streams`
executes and the model folds, every kind exactly — schedule row;
payload rule; cost term (``k`` = group size; a *stream* = one
NACK-repaired engine stream: closed-form host frames, expected repairs
under loss, the trunk term of the group's own
``TopoDigest.group(members)``):

* ``serve`` — ``[(at, None)]``; the server's whole value; 1 stream.
* ``fold`` — ``[(turn, at) for the others]``; every turn's partial,
  the collector keeps the reduction; k-1 single-receiver streams.
* ``collect`` — the same row; every turn's share, the collector merges
  them; k-1 single-receiver streams.
* ``deal`` — ``[(at, "each")]``; the server's share split by member,
  less what the root's own leaf already took (a group left nothing to
  deal gets no step); 1 stream, one part per other member, each with
  one consumer.
* ``exchange`` — ``[(turn, None) for every turn]``; every turn's
  share, everyone merges; k streams.
* ``forward`` — ``TAG_HIER`` p2p send / recv; the sender's whole
  value; its frames (plus the RTS / CTS pair above the eager
  threshold) x the trunk hops between the two.
* ``sync`` / ``release`` — the barrier's ``scout_gather_binary`` and
  its :func:`~repro.core.scout.answer`, one data-less
  ``mcast-release`` control multicast, paired by group key (the
  release takes the sequence number its sync took); k-1 scouts, then
  1 frame x its multicast edges.

A member's share in the three :data:`BUNDLE_KINDS` is its bare element
inside a leaf group, as in the flat engine, and above it a
:class:`~repro.mpi.datatypes.Bundle` of its child subtree's elements,
which the wire sizes as each element plus a 4-byte length.

**Reduction order.**  The hierarchical reduce folds each group in
ascending rank order at every level, which equals MPI's canonical
absolute-rank order exactly when the recursive leader-ordered
concatenation of segments yields ``0..size-1`` (the natural layout of
``run_spmd`` on any ``tree:...`` cluster) — the digest's ``contiguous``
flag.
For non-contiguous layouts the grouping would reorder operands, so
non-commutative operators fall back to the flat (canonical-order)
segmented reduce.

Dispatch safety (paper §4): all phases derive from rank-invariant state
(topology, communicator membership), every rank enters the same phases
of the same channels in the same relative order, and the per-call
"auto" choice is announced down the scout tree before any traffic — all
ranks dispatch identically.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Generator, Optional

from ... import core        # a cycle: only called into, never at import
from ..datatypes import Bundle
from .registry import register
from .tags import TAG_HIER

__all__ = ["SegmentComm", "HierState", "HierNode", "HierPhase", "Step",
           "BUNDLE_KINDS", "build_hier_tree", "canonical_order",
           "tree_internal_nodes", "group_members", "compile_plan",
           "run_plan", "hier_state", "hier_ready", "bcast_hier",
           "reduce_hier", "barrier_hier",
           "scatter_hier", "gather_hier", "allgather_hier",
           "HIER_GROUP_BASE", "HIER_PORT_BASE", "MAX_HIER_SEGMENTS"]

#: group-id space for hierarchical sub-channels, above the
#: per-communicator ids at :data:`repro.core.channel.GROUP_ID_BASE`
HIER_GROUP_BASE = 1 << 17

#: UDP port space for hierarchical sub-channels (2 ports per group:
#: data + scout), clear of the per-ctx bases at 20000/40000; slabs are
#: reserved per communicator by :meth:`~repro.mpi.world.MpiWorld.
#: alloc_hier_slab`
HIER_PORT_BASE = 60000

#: segments one communicator may span (bounds the group/port slab)
MAX_HIER_SEGMENTS = 64


class SegmentComm:
    """A group-local *view* of a communicator.

    Renumbers ``members`` (a sorted subset of the parent's ranks) to
    dense local ranks 0..k-1 and exposes exactly the surface the round
    engine and the flat multicast collectives need (``rank`` / ``size``
    / ``addr_of`` / ``host`` / ``sim`` / ``mcast``), with its own
    :class:`~repro.core.channel.McastChannel` on a private group.  The
    channel's sequence numbers advance per-view, so phases on different
    groups never cross-match.
    """

    def __init__(self, comm, members: list[int], group: int,
                 data_port: int, scout_port: int):
        from ...core.channel import McastChannel  # avoid import cycle

        if members != sorted(members):
            raise ValueError(f"segment members must be sorted, got "
                             f"{members}")
        self.parent = comm
        self.members = list(members)
        self.rank = self.members.index(comm.rank)
        self.ranks = [comm.addr_of(r) for r in self.members]
        self.host = comm.host
        self.sim = comm.sim
        self.mcast = McastChannel(self, group=group, data_port=data_port,
                                  scout_port=scout_port)

    @property
    def size(self) -> int:
        return len(self.members)

    def addr_of(self, rank: int) -> int:
        return self.ranks[rank]

    def close(self) -> None:
        self.mcast.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SegmentComm rank={self.rank}/{self.size} "
                f"of ctx={self.parent.ctx}>")


# ----------------------------------------------------------------------
# the pure hierarchy layer (shared with the policy's frame models)
# ----------------------------------------------------------------------
class HierNode:
    """One occupied node of the collapsed hierarchy tree.

    Leaves carry a dense segment id (``seg``); internal nodes have at
    least two children (switch subtrees with members in exactly one
    child are collapsed away — they add trunk hops, not phases).
    ``members`` is the sorted tuple of communicator ranks in the
    subtree; ``leader`` its minimum.
    """

    __slots__ = ("path", "seg", "children", "members", "leader")

    def __init__(self, path: tuple, seg: Optional[int],
                 children: tuple, members: tuple):
        self.path = path
        self.seg = seg
        self.children = children
        self.members = members
        self.leader = members[0]

    @property
    def is_leaf(self) -> bool:
        return self.seg is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = f"seg {self.seg}" if self.is_leaf else \
            f"{len(self.children)} children"
        return f"<HierNode {self.path} ({kind}) members={self.members}>"


def build_hier_tree(seg_of_rank, paths=None) -> HierNode:
    """The collapsed hierarchy of a communicator: a tree whose leaves
    are the occupied (dense) segments and whose internal nodes are the
    switch subtrees holding members in more than one child.

    ``paths`` maps each dense segment id to its switch-tree path
    (:meth:`~repro.simnet.topology.Cluster.segment_path`); ``None``
    assumes the two-tier layout (every segment directly under the
    core), under which the tree is exactly PR 4's one-leaders'-group
    hierarchy.
    """
    size = len(seg_of_rank)
    if size < 1:
        raise ValueError("cannot build a hierarchy for zero ranks")
    nsegs = max(seg_of_rank) + 1
    members: list[list[int]] = [[] for _ in range(nsegs)]
    for rank in range(size):
        members[seg_of_rank[rank]].append(rank)
    if paths is None:
        paths = tuple((s,) for s in range(nsegs))

    def _build(depth: int, segs: list[int]) -> HierNode:
        if len(segs) == 1:
            s = segs[0]
            return HierNode(paths[s], s, (), tuple(members[s]))
        buckets: dict[int, list[int]] = {}
        for s in segs:
            if len(paths[s]) <= depth:
                raise ValueError(
                    f"segment paths nest: {paths[s]} is a prefix of a "
                    f"sibling's path")
            buckets.setdefault(paths[s][depth], []).append(s)
        if len(buckets) == 1:
            # pass-through switch: one occupied child, no phase here
            (only,) = buckets.values()
            return _build(depth + 1, only)
        children = tuple(_build(depth + 1, buckets[k])
                         for k in sorted(buckets))
        mem = tuple(sorted(r for c in children for r in c.members))
        return HierNode(paths[segs[0]][:depth], None, children, mem)

    return _build(0, list(range(nsegs)))


def _tree_nodes(tree: HierNode) -> tuple[list, list]:
    """One walk of the tree: its leaves by segment id, and its internal
    (group-bearing) nodes top-down — sorted by depth then path, the
    deterministic order channels are numbered in."""
    leaves: list[HierNode] = []
    internals: list[HierNode] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.children:
            internals.append(node)
            stack.extend(node.children)
        else:
            leaves.append(node)
    leaves.sort(key=attrgetter("seg"))
    internals.sort(key=lambda n: (len(n.path), n.path))
    return leaves, internals


def tree_internal_nodes(tree: HierNode) -> list[HierNode]:
    """The tree's internal (group-bearing) nodes, top-down."""
    return _tree_nodes(tree)[1]


def group_members(node: HierNode) -> tuple:
    """The leader group bridging ``node``: the subtree leader of each
    child, in ascending rank order."""
    return tuple(sorted(c.leader for c in node.children))


def canonical_order(node: HierNode) -> list[int]:
    """The operand order hierarchical folding produces: each group
    folds in ascending member (= leader) rank order, recursively."""
    if node.is_leaf:
        return list(node.members)
    out: list[int] = []
    for child in sorted(node.children, key=lambda c: c.leader):
        out.extend(canonical_order(child))
    return out


def _child_containing(node: HierNode, rank: int) -> HierNode:
    for child in node.children:
        if rank in child.members:
            return child
    raise ValueError(f"rank {rank} is not in subtree {node.path}")


@dataclass(eq=False, slots=True)
class HierPhase:
    """One group of a hierarchical plan: who takes part and who serves
    (or collects)."""

    key: tuple            #: ("leaf", seg) | ("node", path) — channel id;
                          #: ("hop", (src, dst)) for a p2p forward
    members: tuple        #: participating comm ranks, ascending
    root: int             #: the rank serving / collecting this group
    node: HierNode        #: the hierarchy node the group bridges

    @property
    def covers(self) -> list:
        """The ranks each member speaks for, in member order: itself in
        a leaf group, its child subtree in a node group."""
        if self.node.is_leaf:
            return [(member,) for member in self.members]
        return [child.members for child in sorted(
            self.node.children, key=attrgetter("leader"))]


#: step kinds that move per-rank elements: bare inside a leaf group, as
#: a :class:`~repro.mpi.datatypes.Bundle` above it
BUNDLE_KINDS = frozenset({"collect", "deal", "exchange"})


@dataclass(eq=False, slots=True)
class Step:
    """One typed step of a compiled plan (see :func:`compile_plan`)."""

    kind: str             #: serve | fold | collect | deal | exchange |
                          #: forward | sync | release
    group: HierPhase      #: who takes part, and who serves / collects
    tag: str              #: label prefix: the op, or its sweep

    @property
    def label(self) -> str:
        """Compact stable span label — ``bcast@leaf2``,
        ``gather@node0.1``, ``reduce@hop4.5`` — derived from the tag
        and the group key alone, so every rank of a step names it
        identically (formatted on demand: only a traced run reads
        it)."""
        kind, ident = self.group.key
        if kind == "leaf":
            return f"{self.tag}@leaf{ident}"
        return f"{self.tag}@{kind}" + ".".join(str(p) for p in ident)


def compile_plan(op: str, tree: HierNode, root: int = 0) -> tuple:
    """The global, rank-invariant step list of one collective on a
    hierarchy: ``hier-mcast``'s on a multi-segment tree, and on the
    one-leaf tree — the whole communicator as a single group — the
    flat segmented collective itself, one step of the kind's own
    engine entry.  A composite collective has no plan of its own: each
    of its parts compiles its own (see
    :data:`~repro.mpi.collective.registry.COMPOSITIONS`).

    * ``bcast`` — the root's leaf, then the groups on the root's
      ancestor chain bottom-up (each served by the leader of its
      root-side child), then the remaining groups top-down and the
      remaining leaves (served by their subtree leader);
    * ``reduce`` / ``gather`` — all leaves fold to their leaders, then
      the groups bottom-up to their subtree leaders; the top group is
      rooted at the *holder* — the leader of its child subtree
      containing ``root`` — so the final forward (holder → root, when
      they differ) stays inside the root's top-level subtree;
    * ``scatter`` — the reverse: the root's leaf, the forward (root →
      holder), the groups top-down (but a group whose one receiver leads
      the root's leaf), the remaining leaves;
    * ``allgather`` — every group exchanges bottom-up (leaves first),
      then every group *below the top* re-serves the full result
      top-down, then the leaves;
    * ``barrier`` — every group syncs bottom-up, then releases
      top-down (a release takes its group's sync's sequence number).

    Single-member leaves bridge nothing and get no step.
    """
    leaves, down = _tree_nodes(tree)                          # top-down
    up = sorted(down, key=lambda n: -len(n.path))             # bottom-up
    leaves = [leaf for leaf in leaves if len(leaf.members) > 1]
    # The root's chain — its leaf, then its ancestors bottom-up — with
    # the member through which its data enters each group: the root
    # itself in the leaf, the leader of the root-side child above (the
    # top group's is the *holder*).
    chain = {node: (root if node.is_leaf
                    else _child_containing(node, root).leader)
             for node in leaves + up if root in node.members}
    holder = chain[tree]
    # Every group is served by its subtree leader, except: a bcast
    # serves every chain group from where the data entered it; reduce /
    # gather / scatter root the top group at the holder, and the
    # scatter root serves its own leaf.
    serves = {node: node.leader for node in leaves + up}
    if op == "bcast":
        serves.update(chain)
    elif op in ("reduce", "gather", "scatter"):
        serves[tree] = holder
        if op == "scatter":
            serves.update({n: root for n in chain if n.is_leaf})
    group = {leaf: HierPhase(("leaf", leaf.seg), leaf.members,
                             serves[leaf], leaf) for leaf in leaves}
    group.update({node: HierPhase(("node", node.path), group_members(node),
                                  serves[node], node) for node in up})

    def steps(kind: str, nodes, tag: str = op) -> list:
        return [Step(kind, group[node], tag) for node in nodes]

    def forward(src: int, dst: int) -> list:
        if src == dst:
            return []
        return [Step("forward", HierPhase(
            ("hop", (src, dst)), tuple(sorted((src, dst))), dst, tree), op)]

    if op == "bcast":
        plan = (steps("serve", chain)
                + steps("serve", [n for n in down + leaves
                                  if n not in chain]))
    elif op in ("reduce", "gather"):
        plan = (steps("fold" if op == "reduce" else "collect", leaves + up)
                + forward(holder, root))
    elif op == "scatter":
        # a group whose one receiver leads the root's leaf, dealt first,
        # would be dealt an empty bundle: it gets no step
        dealt = [node for node in down if any(
            child.leader != serves[node]
            and not (child.is_leaf and root in child.members)
            for child in node.children)]
        plan = (steps("deal", [n for n in leaves if n in chain])
                + forward(root, holder)
                + steps("deal", dealt)
                + steps("deal", [n for n in leaves if n not in chain]))
    elif op == "allgather":
        plan = (steps("exchange", leaves + up, "allgather-up")
                + steps("serve", [n for n in down + leaves
                                  if n is not tree], "allgather-down"))
    elif op == "barrier":
        plan = (steps("sync", leaves + up, "barrier-up")
                + steps("release", down + leaves, "barrier-down"))
    else:
        raise KeyError(f"no hierarchical plan for collective {op!r}")
    return tuple(plan)


class HierState:
    """Cached per-communicator hierarchy: the topology digest and the
    group channels built from its tree.

    Built lazily on the first ``hier-mcast`` dispatch (every rank builds
    it at the same collective, so group joins pair up) and owned by the
    communicator — :meth:`repro.mpi.communicator.Communicator.free`
    closes the sub-channels, emitting the IGMP leaves that shrink the
    switches' snooped member sets.
    """

    def __init__(self, comm):
        from ...simnet.frame import mcast_mac
        from .policy import comm_topology

        #: the communicator's :class:`~repro.analysis.framecount.
        #: TopoDigest` — the same object the auto policy prices (its
        #: ``tree`` the collapsed hierarchy, its ``contiguous`` the
        #: reduce's fallback condition); ``None`` on one segment
        self.digest = digest = comm_topology(comm)
        if digest is not None and digest.nsegments > MAX_HIER_SEGMENTS:
            raise ValueError(
                f"communicator spans {digest.nsegments} segments; "
                f"hier-mcast supports at most {MAX_HIER_SEGMENTS}")
        #: whether the one-time post-creation p2p barrier has run (see
        #: :func:`hier_ready`); trivially true with no sub-channels
        self.synced = digest is None
        #: this rank's leaf channel (None on single-segment comms and
        #: for ranks alone in their leaf — no phase ever uses a one-
        #: member leaf group, so joining it would be pure setup waste)
        self.seg_comm: Optional[SegmentComm] = None
        #: channels of every group this rank is a member of, by key
        self.comms: dict[tuple, SegmentComm] = {}
        self._slab: "tuple | None" = None   # (world, ctx) to release
        if digest is not None:
            leaves, internals = _tree_nodes(digest.tree)
            keys = ([("leaf", leaf.seg) for leaf in leaves]
                    + [("node", n.path) for n in internals])
            group_base, port_base = comm.world.alloc_hier_slab(
                comm.ctx, len(keys), HIER_GROUP_BASE, HIER_PORT_BASE)
            self._slab = (comm.world, comm.ctx)
            index = {key: i for i, key in enumerate(keys)}

            def make(key, members) -> SegmentComm:
                gi = index[key]
                return SegmentComm(comm, list(members),
                                   group=mcast_mac(group_base + gi),
                                   data_port=port_base + 2 * gi,
                                   scout_port=port_base + 2 * gi + 1)

            mine = leaves[digest.seg_of_rank[comm.rank]]
            if len(mine.members) > 1:
                self.seg_comm = make(("leaf", mine.seg), mine.members)
                self.comms[("leaf", mine.seg)] = self.seg_comm
            for node in sorted(internals, key=lambda n: -len(n.path)):
                gm = group_members(node)
                if comm.rank in gm:
                    self.comms[("node", node.path)] = make(
                        ("node", node.path), gm)

    def close(self) -> None:
        for sub in self.comms.values():
            sub.close()
        self.comms = {}
        self.seg_comm = None
        if self._slab is not None:
            world, ctx = self._slab
            self._slab = None
            world.free_hier_slab(ctx)


def hier_state(comm) -> HierState:
    """The communicator's cached :class:`HierState` (built on first use
    by :func:`hier_ready` — prefer that inside collectives)."""
    if comm._hier is None:
        comm._hier = HierState(comm)
    return comm._hier


def hier_ready(comm) -> Generator:
    """Build-and-synchronize accessor used by the collectives.

    The sub-channels are created lazily on the first ``hier-mcast``
    dispatch — a *collective* moment, so every rank builds them during
    the same call.  Creation alone is not enough, though: a rank that
    enters its first phase early could unicast a scout toward a peer
    that has not yet opened its (buffered) scout socket, and the
    datagram would die as ``drops_no_listener``.  Mirroring
    ``Communicator._setup``, the building call therefore runs one p2p
    barrier after creation — afterwards every member's sockets exist
    and every IGMP join has been snooped along its uplink (FIFO per
    link), so phases may race freely.
    """
    st = hier_state(comm)
    if not st.synced:
        # Explicit flag, not "did this call build the state": a rank
        # that merely inspected hier_state() early (the discovery API)
        # must still join — and must not skip — the group's one
        # synchronization.  Every rank reaches its first hier-mcast
        # dispatch with synced=False, so the barrier is collective.
        from .barrier_p2p import barrier_mpich

        yield from barrier_mpich(comm)
        st.synced = True
    return st


@contextmanager
def _phase_span(comm, step: Step):
    """Bracket one step of a hierarchical plan for the flight recorder.

    Duck-typed through ``stats.recorder`` like every producer-side hook:
    one attribute load and a branch when tracing is off.  The span is
    attributed to the *parent* communicator's host, so it lands inside
    the collective span the dispatcher opened on the same host.
    """
    rec = comm.host.stats.recorder
    if rec is None:
        yield
        return
    token = rec.phase_begin(comm.sim.now, comm.host.addr, step.label)
    try:
        yield
    finally:
        rec.phase_end(comm.sim.now, token)


# ----------------------------------------------------------------------
# the interpreter and the collectives
# ----------------------------------------------------------------------
def _merged(group: HierPhase, parts) -> Bundle:
    """One bundle from a group's per-member shares, in member order:
    bare elements in a leaf group, bundles above it."""
    if group.node.is_leaf:
        return Bundle(zip(group.members, parts))
    merged = Bundle()
    for part in parts:
        merged.update(part)
    return merged


def run_plan(comm, st: HierState, steps, value: Any, op=None) -> Generator:
    """Execute this rank's restriction of a compiled plan: the steps
    whose group it belongs to, in plan order, each bracketed by its
    span.  ``value`` is what the rank carries from step to step — the
    message (``serve`` / ``fold``, reduced with ``op``) or a
    :class:`~repro.mpi.datatypes.Bundle` (:data:`BUNDLE_KINDS`); the
    module docstring's step-kind table states each kind's schedule row
    and payload rule.  Returns the carried value after the last step."""
    #: barrier: group key -> the sequence number its sync took
    pending: dict = {}
    for step in steps:
        kind, group = step.kind, step.group
        if comm.rank not in group.members:
            continue
        serving = comm.rank == group.root
        sub = st.comms.get(group.key)       # None for a p2p forward
        at = group.members.index(group.root)
        with _phase_span(comm, step):
            if kind == "forward":
                src, dst = group.key[1]
                if comm.rank == src:
                    yield from comm._send_coll(value, dst, TAG_HIER)
                else:       # a bundle joins what the holder has
                    got = yield from comm._recv_coll(src, TAG_HIER)
                    if isinstance(got, Bundle):
                        value.update(got)
                    else:
                        value = got
            elif kind == "sync":
                seq = pending[group.key] = sub.mcast.next_seq()
                yield from core.scout_gather_binary(sub, sub.mcast, seq, at)
            elif kind == "release":
                yield from core.answer(sub, sub.mcast,
                                       pending.pop(group.key), at,
                                       "hier-release", kind="mcast-release")
            else:                       # a row of the stream schedule
                leaf = group.node.is_leaf
                mine = value
                if kind == "deal":
                    # One part per member: the entries of its child
                    # subtree still held.  The server keeps its own part
                    # — and what it does not deal away: the scatter root
                    # at its own leaf still holds every other leaf's.
                    mine = None
                    if serving:
                        mine = [Bundle((r, value.pop(r)) for r in cover
                                       if r in value)
                                for cover in group.covers]
                        value.update(mine[at])
                        if leaf:
                            mine = [part.get(m) for part, m
                                    in zip(mine, group.members)]
                elif leaf and kind in BUNDLE_KINDS:
                    mine = value[comm.rank]
                out = yield from core.run_streams(sub, kind, at, mine, op)
                if kind == "deal":
                    if not serving:
                        value.update({comm.rank: out} if leaf else out)
                elif serving or kind in ("serve", "exchange"):
                    value = (_merged(group, out) if kind in BUNDLE_KINDS
                             else out)
    return value


def _hier_call(comm, name: str, root: int, value: Any, kind: str,
               carried: Any, finish, op=None) -> Generator:
    """The shared body of the rooted / unrooted entries: build and
    synchronize the hierarchy, then either the flat ``kind`` over the
    whole communicator with the caller's ``value`` — one segment, or a
    non-commutative ``op`` on a layout whose hierarchical fold would
    reorder operands (see *Reduction order*) — or the compiled plan
    carrying ``carried``, whose final carry ``finish`` turns into the
    collective's result."""
    st = yield from hier_ready(comm)
    digest = st.digest
    if digest is None or (op is not None and not digest.contiguous
                          and not getattr(op, "commutative", True)):
        result = yield from core.run_streams(comm, kind, root, value, op)
        return result
    carried = yield from run_plan(
        comm, st, compile_plan(name, digest.tree, root), carried, op)
    return finish(carried)


@register("bcast", "hier-mcast", "hier")
def bcast_hier(comm, obj: Any, root: int = 0) -> Generator:
    """Recursive hierarchical broadcast: the root streams to its leaf,
    the data climbs the root's leader chain (each trunk tier carries
    each payload frame once, and only per-*leader* control, not
    per-rank), then cascades down the other subtrees and leaves in
    parallel — repairs stay inside the losing group's switch
    subtree."""
    return _hier_call(comm, "bcast", root, obj, "serve", obj,
                      lambda value: value)


@register("reduce", "hier-mcast", "hier")
def reduce_hier(comm, obj: Any, op, root: int = 0) -> Generator:
    """Recursive hierarchical reduce: leaves fold to their leaders,
    leader groups fold bottom-up, and the holder forwards to the root
    point-to-point when they differ.

    Folding order is canonical (ascending absolute rank) whenever the
    hierarchy partitions the ranks into recursively contiguous blocks;
    otherwise non-commutative operators take the flat segmented reduce
    (see module docstring).  Returns the reduction at ``root``; ``None``
    elsewhere.
    """
    return _hier_call(
        comm, "reduce", root, obj, "fold", copy.copy(obj),
        lambda value: value if comm.rank == root else None, op)


@register("barrier", "hier-mcast", "hier")
def barrier_hier(comm) -> Generator:
    """Recursive hierarchical barrier: scouts gather up every group of
    this rank's chain (leaf first), the top leader — global rank 0 —
    pivots, and data-less release multicasts cascade back down."""
    st = yield from hier_ready(comm)
    if st.digest is None:
        yield from core.barrier_mcast(comm)
        return None
    yield from run_plan(comm, st, compile_plan("barrier", st.digest.tree),
                        None)
    return None


@register("scatter", "hier-mcast", "hier")
def scatter_hier(comm, objs, root: int = 0) -> Generator:
    """Hierarchical scatter: the root serves its own leaf directly,
    hands the remaining elements to the top group's server (a p2p
    forward, skipped when the root serves the top itself), and
    per-subtree *bundles* cascade down the leader groups until each
    leaf leader scatters its segment.  Returns this rank's element of
    the root's sequence."""
    core.check_scatter_root(comm, objs, root)
    bundle = (Bundle((r, objs[r]) for r in range(comm.size) if r != root)
              if comm.rank == root else Bundle())
    return _hier_call(
        comm, "scatter", root, objs, "deal", bundle,
        lambda bundle: (objs[root] if comm.rank == root
                        else bundle[comm.rank]))


@register("gather", "hier-mcast", "hier")
def gather_hier(comm, obj: Any, root: int = 0) -> Generator:
    """Hierarchical gather: the reverse of the scatter — leaves gather
    to their leaders, leader groups gather bundles bottom-up, and the
    holder forwards the assembled bundle to the root when they differ.
    Returns the rank-ordered list at ``root``; ``None`` elsewhere."""
    return _hier_call(
        comm, "gather", root, obj, "collect", Bundle({comm.rank: obj}),
        lambda bundle: ([bundle[r] for r in range(comm.size)]
                        if comm.rank == root else None))


@register("allgather", "hier-mcast", "hier")
def allgather_hier(comm, obj: Any) -> Generator:
    """Hierarchical allgather: every group allgathers its children's
    bundles bottom-up — each trunk tier carries each contribution once
    — then the groups below the top re-broadcast the assembled result
    top-down and the leaf leaders deliver it segment-locally."""
    return _hier_call(
        comm, "allgather", 0, obj, "exchange", Bundle({comm.rank: obj}),
        lambda bundle: [bundle[r] for r in range(comm.size)])
