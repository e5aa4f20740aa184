"""Differential reference for :mod:`repro.analysis.framecount`.

The trunk and hierarchy frame models exactly as they stood before the
topology digest (PR 13): every function loops over rank pairs and asks
:func:`~repro.simnet.fabric.path_trunk_hops` per pair, and
``model_hier_frames`` rebuilds the hierarchy tree and re-walks its
four phase plans (frozen below, pre-PR 16) on every call.  Slow (cubic
in the communicator size through the policy) and obviously right; ``tests/test_topo_digest.py``
holds the digest-backed models to these, value and type.  Do not
optimise this file.

Since PR 19 it also holds the *flat* segmented family as it was priced
before the one-group plan: ``seg_frame_estimate`` — the policy's
per-op ladder — and the three host-frame closed forms it composed,
beside the four trunk references that already lived here.
``tests/test_topo_digest.py`` holds the fold on the one-group plan to
them.

The ladders follow the wire rules the simulator settled on, each kept
in its own words here rather than imported: the paced allgather runs
no ready round; a batched datagram rides the frames of its bytes
(:func:`_data_frames`); a hierarchy's bundle is its elements plus a
4-byte length each, its elements bare inside a leaf phase; a p2p hop
above the eager threshold adds its RTS / CTS pair; and the scatter
deals a leader group only what the root's own leaf did not take.
"""

from dataclasses import dataclass, replace
from typing import Optional

from repro.analysis.framecount import expected_seg_repair_frames
from repro.mpi.collective.hier import (HierNode, build_hier_tree,
                                       group_members, tree_internal_nodes)
from repro.simnet.calibration import NetParams

#: bytes a hierarchy's bundle adds per element (its length prefix)
BUNDLE_PREFIX = 4

#: p2p messages above this many bytes take the RTS / CTS rendezvous
EAGER_LIMIT = 16 * 1024


def _data_frames(params, nsegs: int, nbytes: int) -> int:
    """Data frames of one stream of ``nsegs`` segments carrying
    ``nbytes``: a frame per segment, one segment per datagram — unless
    the auto plan batches them all into ONE datagram, which rides the
    frames of its bytes (each segment's 4-byte envelope and the 8-byte
    multicast header included), one fewer when a short tail fits the
    fragments' header slack."""
    from repro.core.segment import auto_batch

    if auto_batch(params, nsegs) == 1:
        return nsegs
    return params.frames_for(nbytes + 4 * nsegs + 8)

#: the public models this file is the reference for (the names
#: ``test_topo_digest`` patches into ``repro.analysis.framecount`` to
#: run the policy's estimates over the reference loops)
PUBLIC = ("multicast_trunk_edges", "model_plan_frames")


def _seg_paths(seg_of_rank, paths):
    """Resolve ``paths`` (two-tier default: segment s at path (s,))."""
    if paths is not None:
        return paths
    return tuple((s,) for s in range(max(seg_of_rank) + 1))


def multicast_trunk_edges(root_seg: int, segs, paths) -> int:
    """Trunk edges a multicast frame from ``root_seg`` serializes on to
    reach every segment in ``segs``: the edges of the switch subtree
    spanning the union of root-to-segment paths (K on a two-tier
    fabric with K occupied segments, if any is remote)."""
    edges: set[tuple] = set()
    pa = paths[root_seg]
    for seg in set(segs):
        if seg == root_seg:
            continue
        pb = paths[seg]
        common = 0
        for a, b in zip(pa, pb):
            if a != b:
                break
            common += 1
        for i in range(common + 1, len(pa) + 1):
            edges.add(pa[:i])
        for i in range(common + 1, len(pb) + 1):
            edges.add(pb[:i])
    return len(edges)


def binomial_cross_edges(seg_of_rank, root: int) -> int:
    """Edges of the binomial gather/broadcast tree rooted at ``root``
    whose endpoints sit in different segments (``seg_of_rank`` maps each
    communicator rank to its segment id)."""
    size = len(seg_of_rank)
    cross = 0
    for rel in range(1, size):
        mask = 1
        while not rel & mask:
            mask <<= 1
        parent_rel = rel & ~mask
        child = (rel + root) % size
        parent = (parent_rel + root) % size
        if seg_of_rank[child] != seg_of_rank[parent]:
            cross += 1
    return cross


def binomial_tree_trunk_hops(seg_of_rank, root: int,
                             paths=None) -> int:
    """Total trunk hops of the binomial tree's edges rooted at
    ``root``: each edge pays the switch-tree distance between its
    endpoints' segments (2 per cross edge on a two-tier fabric —
    the generalization of :func:`binomial_cross_edges`)."""
    from repro.simnet.fabric import path_trunk_hops

    paths = _seg_paths(seg_of_rank, paths)
    size = len(seg_of_rank)
    total = 0
    for rel in range(1, size):
        mask = 1
        while not rel & mask:
            mask <<= 1
        parent_rel = rel & ~mask
        child = (rel + root) % size
        parent = (parent_rel + root) % size
        total += path_trunk_hops(paths[seg_of_rank[child]],
                                 paths[seg_of_rank[parent]])
    return total


def model_p2p_tree_trunk_frames(params: NetParams, seg_of_rank,
                                root: int, m: int, paths=None) -> int:
    """Trunk serializations of a binomial tree moving an ``m``-byte
    payload across every edge once (p2p bcast/reduce): each
    cross-segment edge pays its trunk-path hops per payload frame."""
    per_msg = params.frames_for(m + params.mpi_header)
    return binomial_tree_trunk_hops(seg_of_rank, root, paths) * per_msg


def _mcast_stream_trunk_frames(seg_of_rank, root: int, nsegs: int,
                               paths=None) -> int:
    """Trunk serializations of ONE loss-free engine stream (header +
    ``nsegs`` data frames + one round of control) rooted at ``root`` on
    a fabric, re-derived from the protocol frame by frame — never from
    the closed forms it judges: every multicast (the header, each data
    frame, the round's one decision) crosses each edge of the switch
    subtree spanning the occupied segments once; the header-phase and
    arming scout gathers pay their binomial edges' trunk paths; and the
    report fold sends one merged report per non-root rank to its
    binomial parent."""
    from repro.simnet.fabric import path_trunk_hops

    if len(set(seg_of_rank)) <= 1:
        return 0
    paths = _seg_paths(seg_of_rank, paths)
    size = len(seg_of_rank)
    root_seg = seg_of_rank[root]
    spanning = multicast_trunk_edges(root_seg, seg_of_rank, paths)
    multicasts = 1 + nsegs + 1        # header, data, decision
    gathers = binomial_tree_trunk_hops(seg_of_rank, root, paths)
    fold = 0
    for rank in range(size):
        rel = (rank - root) % size
        if rel == 0:
            continue                  # the root reports to nobody
        low = rel & -rel              # lowest set bit: the fold's edge
        parent = ((rel ^ low) + root) % size
        fold += path_trunk_hops(paths[seg_of_rank[rank]],
                                paths[seg_of_rank[parent]])
    return (multicasts * spanning     # once per spanning edge each
            + 2 * gathers             # header-phase + arming gathers
            + fold)                   # one merged report per rank


def model_seg_bcast_trunk_frames(seg_of_rank, root: int, nsegs: int,
                                 paths=None) -> int:
    """Loss-free trunk serializations of the flat ``mcast-seg-nack``
    broadcast on a tiered fabric (exact; asserted by
    the ``fabric-scaling`` and ``deep-fabric`` sweep areas)."""
    return _mcast_stream_trunk_frames(seg_of_rank, root, nsegs, paths)


def model_seg_reduce_trunk_frames(seg_of_rank, root: int, nsegs: int,
                                  paths=None) -> int:
    """Loss-free trunk serializations of the flat ``mcast-seg-combine``
    reduce (and of the ``mcast-seg-root-follow`` gather, which runs the
    same turn loop): one engine stream per non-root contributor, each
    rooted at its turn's sender (every stream's data still crosses
    every occupied trunk edge — all members joined the group)."""
    size = len(seg_of_rank)
    return sum(_mcast_stream_trunk_frames(seg_of_rank, turn, nsegs,
                                          paths)
               for turn in range(size) if turn != root)


def model_seg_scatter_trunk_frames(seg_of_rank, root: int, nsegs: int,
                                   paths=None) -> int:
    """Loss-free trunk serializations of the flat ``mcast-seg-root``
    scatter: one engine stream of all ``nsegs`` per-rank-addressed
    segments (exact — the per-rank ``needed`` subsets change what
    receivers reassemble, not what crosses the wire)."""
    return _mcast_stream_trunk_frames(seg_of_rank, root, nsegs, paths)


def model_seg_allgather_trunk_frames(seg_of_rank, nsegs: int,
                                     paths=None) -> int:
    """Loss-free trunk serializations of the flat ``mcast-seg-paced``
    allgather: one engine stream per rank, each rooted at its turn's
    sender."""
    return sum(
        _mcast_stream_trunk_frames(seg_of_rank, turn, nsegs, paths)
        for turn in range(len(seg_of_rank)))


# ---------------------------------------------------------------------------
# the flat segmented family as it was priced before the one-group plan
# (PR 19): the three host-frame closed forms of
# ``repro.analysis.framecount`` and the per-op ladder of
# ``repro.mpi.collective.policy``, frozen verbatim
# ---------------------------------------------------------------------------
def model_seg_reduce_frames(n: int, nsegs: int) -> int:
    """Loss-free frames of ``mcast-seg-combine``: one engine stream per
    non-root contributor, each exactly the broadcast round structure
    (:func:`~repro.core.segment.seg_nack_frame_count`)."""
    from repro.core.segment import seg_nack_frame_count

    if n < 2:
        return 0
    return (n - 1) * seg_nack_frame_count(n, nsegs)


def model_seg_allreduce_frames(n: int, nsegs: int) -> int:
    """Loss-free frames of the segmented allreduce: the mcast reduce
    plus one segmented broadcast of the result."""
    from repro.core.segment import seg_nack_frame_count

    if n < 2:
        return 0
    return model_seg_reduce_frames(n, nsegs) + seg_nack_frame_count(
        n, nsegs)


def model_seg_scatter_frames(n: int, seg_counts) -> int:
    """Loss-free frames of ``mcast-seg-root``: one engine stream over
    the concatenation of every non-root rank's fragments
    (``seg_counts`` sums to the stream's data frames)."""
    from repro.core.segment import seg_nack_frame_count

    if n < 2:
        return 0
    return seg_nack_frame_count(n, sum(seg_counts))


def seg_frame_estimate(op: str, nbytes: int, size: int, params,
                       topo=None, root: int = 0) -> float:
    """Modeled serializations of the op's flat segmented-multicast impl:
    the shared loss-free closed forms of
    :mod:`repro.analysis.framecount` (the same ones the benches assert
    against the simulator), plus the expected repair traffic at
    ``params.loss`` and — with ``topo`` — the trunk crossings of every
    stream (multi-level distances when ``topo.paths`` is present)."""
    from repro.core.segment import plan_transport, seg_nack_frame_count

    if size < 2:
        return 0
    nsegs = plan_transport(nbytes, params).nsegs
    nframes = _data_frames(params, nsegs, nbytes)
    loss = getattr(params, "loss", 0.0)
    if op == "bcast":
        total = (seg_nack_frame_count(size, nframes)
                 + expected_seg_repair_frames(size, nsegs, loss))
        if topo is not None:
            total += model_seg_bcast_trunk_frames(topo.seg_of_rank, root,
                                                  nframes, topo.paths)
        return total
    if op in ("reduce", "gather"):
        # one engine stream per non-root contributor (the gather runs
        # the same turn loop, collecting instead of folding)
        total = (model_seg_reduce_frames(size, nframes)
                 + (size - 1) * expected_seg_repair_frames(
                     size, nsegs, loss, receivers=1))
        if topo is not None:
            total += model_seg_reduce_trunk_frames(topo.seg_of_rank,
                                                   root, nframes,
                                                   topo.paths)
        return total
    if op == "allreduce":
        total = (model_seg_allreduce_frames(size, nframes)
                 + (size - 1) * expected_seg_repair_frames(
                     size, nsegs, loss, receivers=1)
                 + expected_seg_repair_frames(size, nsegs, loss))
        if topo is not None:
            total += (model_seg_reduce_trunk_frames(topo.seg_of_rank, 0,
                                                    nframes, topo.paths)
                      + model_seg_bcast_trunk_frames(topo.seg_of_rank,
                                                     0, nframes,
                                                     topo.paths))
        return total
    if op == "scatter":
        # one global stream of every non-root rank's share
        part = -(-nbytes // size)
        share = plan_transport(part, params).nsegs
        total_segs = (size - 1) * share
        total_frames = _data_frames(params, total_segs, (size - 1) * part)
        total = (model_seg_scatter_frames(size, [total_frames])
                 + expected_seg_repair_frames(size, total_segs, loss,
                                              receivers=1))
        if topo is not None:
            total += model_seg_scatter_trunk_frames(
                topo.seg_of_rank, root, total_frames, topo.paths)
        return total
    if op == "allgather":
        # one engine stream per rank
        total = (size * seg_nack_frame_count(size, nframes)
                 + size * expected_seg_repair_frames(size, nsegs, loss))
        if topo is not None:
            total += model_seg_allgather_trunk_frames(
                topo.seg_of_rank, nframes, topo.paths)
        return total
    raise KeyError(f"no segmented frame estimate for collective {op!r}")


def model_plan_frames(op: str, tree: HierNode, digest, root: int,
                      nbytes: int, params: NetParams,
                      loss: float = 0.0) -> tuple:
    """The one fold's signature over the frozen references: the ladder
    (its total, trunk term included) for the one-leaf tree, the phase
    walk below for a hierarchy.  ``digest`` serves as the ladder's
    ``topo``: it carries ``seg_of_rank`` and ``paths``."""
    if tree.is_leaf:
        return (seg_frame_estimate(op, nbytes, digest.size,
                                   replace(params, loss=loss), digest,
                                   root), 0)
    return model_hier_frames(op, digest.seg_of_rank, root, nbytes, params,
                             digest.paths, loss)


# ---------------------------------------------------------------------------
# the hier-mcast phase plans exactly as they stood before the typed
# step list (PR 16), moved here verbatim from
# ``repro.mpi.collective.hier`` so this oracle shares no plan code with
# the ``compile_plan`` it judges — only the hierarchy tree itself
# (``build_hier_tree`` and its two public walkers) is imported
# ---------------------------------------------------------------------------
def _leaf_of(tree: HierNode, rank: int) -> HierNode:
    node = tree
    while not node.is_leaf:
        node = _child_containing(node, rank)
    return node


def _child_containing(node: HierNode, rank: int) -> HierNode:
    for child in node.children:
        if rank in child.members:
            return child
    raise ValueError(f"rank {rank} is not in subtree {node.path}")


def _is_prefix(p: tuple, q: tuple) -> bool:
    return len(p) <= len(q) and q[:len(p)] == p


@dataclass(frozen=True, eq=False)
class HierPhase:
    """One group-collective phase of a hierarchical plan."""

    key: tuple            #: ("leaf", seg) or ("node", path) — channel id
    members: tuple        #: participating comm ranks, ascending
    root: int             #: the rank serving / collecting this phase
    node: HierNode        #: the hierarchy node the phase bridges

    @property
    def size(self) -> int:
        return len(self.members)


def _leaf_phase(leaf: HierNode, root: int) -> HierPhase:
    return HierPhase(("leaf", leaf.seg), leaf.members, root, leaf)


def _node_phase(node: HierNode, root: int) -> HierPhase:
    return HierPhase(("node", node.path), group_members(node), root, node)


def bcast_phases(tree: HierNode, root: int) -> list[HierPhase]:
    """Global phase order of the hierarchical broadcast: the root's
    leaf, then the groups on the root's ancestor chain bottom-up (each
    served by the leader of its root-side child), then the remaining
    groups top-down (served by their subtree leader), then the
    remaining leaves (served by their leaf leader)."""
    phases: list[HierPhase] = []
    root_leaf = _leaf_of(tree, root)
    if len(root_leaf.members) > 1:
        phases.append(_leaf_phase(root_leaf, root))
    internals = tree_internal_nodes(tree)
    chain = [n for n in internals if _is_prefix(n.path, root_leaf.path)]
    for node in sorted(chain, key=lambda n: -len(n.path)):   # bottom-up
        phases.append(_node_phase(node, _child_containing(node,
                                                          root).leader))
    for node in internals:                                   # top-down
        if not _is_prefix(node.path, root_leaf.path):
            phases.append(_node_phase(node, node.leader))
    for leaf in _tree_leaves(tree):
        if leaf is not root_leaf and len(leaf.members) > 1:
            phases.append(_leaf_phase(leaf, leaf.leader))
    return phases


def up_phases(tree: HierNode, root: int) -> tuple[list[HierPhase], int]:
    """Global phase order of the hierarchical reduce/gather, plus the
    *holder*: all leaves fold to their leaders, then the groups fold
    bottom-up to their subtree leaders — except the top group, which is
    rooted at the leader of its child subtree containing ``root`` so
    the final point-to-point forward (holder → root, when they differ)
    stays inside the root's top-level subtree."""
    phases: list[HierPhase] = []
    for leaf in _tree_leaves(tree):
        if len(leaf.members) > 1:
            phases.append(_leaf_phase(leaf, leaf.leader))
    holder = _child_containing(tree, root).leader
    internals = tree_internal_nodes(tree)
    for node in sorted(internals, key=lambda n: -len(n.path)):
        collect = holder if node is tree else node.leader
        phases.append(_node_phase(node, collect))
    return phases, holder


@dataclass(frozen=True, eq=False)
class ScatterPlan:
    """The hierarchical scatter's plan: the root's leaf phase, an
    optional hoist (root → top-phase server p2p carrying the bundle for
    every rank outside the root's leaf), the internal distribution
    phases top-down, and the remaining leaf phases."""

    root_leaf: Optional[HierPhase]
    hoist: Optional[tuple]        #: (src rank, dst rank) or None
    internals: tuple
    leaves: tuple


def scatter_phases(tree: HierNode, root: int) -> ScatterPlan:
    root_leaf = _leaf_of(tree, root)
    first = (_leaf_phase(root_leaf, root)
             if len(root_leaf.members) > 1 else None)
    holder = _child_containing(tree, root).leader
    hoist = (root, holder) if holder != root else None
    internals = []
    for node in tree_internal_nodes(tree):                   # top-down
        serve = holder if node is tree else node.leader
        internals.append(_node_phase(node, serve))
    leaves = tuple(_leaf_phase(leaf, leaf.leader)
                   for leaf in _tree_leaves(tree)
                   if leaf is not root_leaf and len(leaf.members) > 1)
    return ScatterPlan(first, hoist, tuple(internals), leaves)


@dataclass(frozen=True, eq=False)
class AllgatherPlan:
    """Up: every group allgathers its children's bundles bottom-up
    (leaves first).  Down: every group *below the top* re-broadcasts
    the full result top-down, then the leaves."""

    up: tuple
    down: tuple


def allgather_phases(tree: HierNode) -> AllgatherPlan:
    up: list[HierPhase] = []
    for leaf in _tree_leaves(tree):
        if len(leaf.members) > 1:
            up.append(_leaf_phase(leaf, leaf.leader))
    internals = tree_internal_nodes(tree)
    for node in sorted(internals, key=lambda n: -len(n.path)):
        up.append(_node_phase(node, node.leader))
    down: list[HierPhase] = []
    for node in internals:                                   # top-down
        if node is not tree:
            down.append(_node_phase(node, node.leader))
    for leaf in _tree_leaves(tree):
        if len(leaf.members) > 1:
            down.append(_leaf_phase(leaf, leaf.leader))
    return AllgatherPlan(tuple(up), tuple(down))


def _tree_leaves(tree: HierNode) -> list[HierNode]:
    leaves: list[HierNode] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            leaves.append(node)
        else:
            stack.extend(node.children)
    leaves.sort(key=lambda n: n.seg)
    return leaves


# ---------------------------------------------------------------------------
# recursive hierarchy models (PR 5: phase-walking, any tree depth —
# superseding PR 4's two-tier closed forms, which the phase walk
# reproduces bit-for-bit on two-tier fabrics)
# ---------------------------------------------------------------------------
def _phase_stream(seg_of_rank, phase, turn: int, parts, params, paths,
                  loss: float, receivers: "int | None" = None
                  ) -> tuple[float, int]:
    """(host frames incl. expected repairs, trunk serializations) of one
    engine stream served by comm rank ``turn`` inside ``phase``'s group,
    fragmenting ``parts`` (their bytes) one by one (``receivers=1`` for
    single-consumer streams, default every other member)."""
    from repro.core.segment import plan_transport, seg_nack_frame_count

    nsegs = sum(plan_transport(part, params).nsegs for part in parts)
    nframes = _data_frames(params, nsegs, sum(parts))
    members = phase.members
    frames = (seg_nack_frame_count(len(members), nframes)
              + expected_seg_repair_frames(len(members), nsegs, loss,
                                           receivers=receivers))
    segs = tuple(seg_of_rank[m] for m in members)
    trunk = _mcast_stream_trunk_frames(segs, members.index(turn), nframes,
                                       paths)
    return frames, trunk


def model_hier_frames(op: str, seg_of_rank, root: int, nbytes: int,
                      params: NetParams, paths=None,
                      loss: float = 0.0) -> tuple[float, float]:
    """(host frames, trunk serializations) of one ``hier-mcast`` call
    on an arbitrary-depth hierarchy, by walking the *same* phase plans
    the implementation executes (:mod:`repro.mpi.collective.hier`), so
    model and behaviour cannot drift.

    Loss-free (``loss=0``) every count is **exact**: a bundle is its
    elements plus a length prefix each (bare elements inside a leaf
    phase), and the ``deep-fabric`` sweep area asserts the trunk term
    against ``NetStats.frames_trunk``.  With ``loss > 0`` every phase
    additionally carries its expected NACK-repair traffic — repairs stay
    inside the losing phase's switch subtree, which is most of the
    hierarchy's win on lossy fabrics.
    """
    from repro.simnet.fabric import path_trunk_hops

    size = len(seg_of_rank)
    if size < 2 or len(set(seg_of_rank)) < 2:
        return (0.0, 0.0)
    tree = build_hier_tree(seg_of_rank, paths)
    rpaths = _seg_paths(seg_of_rank, paths)
    frames = 0.0
    trunk = 0.0

    def stream(phase, turn, parts, receivers=None):
        nonlocal frames, trunk
        f, t = _phase_stream(seg_of_rank, phase, turn, parts, params,
                             paths, loss, receivers)
        frames, trunk = frames + f, trunk + t

    def p2p_hop(src: int, dst: int, payload_bytes: int):
        nonlocal frames, trunk
        per = params.frames_for(payload_bytes + params.mpi_header)
        if payload_bytes > EAGER_LIMIT:
            per += 2                    # the RTS and CTS control frames
        frames += per
        trunk += per * path_trunk_hops(rpaths[seg_of_rank[src]],
                                       rpaths[seg_of_rank[dst]])

    if op == "bcast":
        for phase in bcast_phases(tree, root):
            stream(phase, phase.root, [nbytes])
        return frames, trunk
    if op == "reduce":
        phases, holder = up_phases(tree, root)
        for phase in phases:
            for turn in phase.members:
                if turn != phase.root:
                    stream(phase, turn, [nbytes], receivers=1)
        if holder != root:
            p2p_hop(holder, root, nbytes)
        return frames, trunk
    if op == "allreduce":
        f1, t1 = model_hier_frames("reduce", seg_of_rank, 0, nbytes,
                                   params, paths, loss)
        f2, t2 = model_hier_frames("bcast", seg_of_rank, 0, nbytes,
                                   params, paths, loss)
        return f1 + f2, t1 + t2

    def bundle(count: int, element: int) -> int:
        return count * (element + BUNDLE_PREFIX)

    def shares(phase, element: int, leaving=frozenset()) -> dict:
        """member rank -> the bytes it stands for: its bare element on
        a leaf phase, else the bundle of its child subtree's ranks (less
        those in ``leaving``)."""
        if phase.node.is_leaf:
            return {m: element for m in phase.members}
        out = {}
        for member in phase.members:
            for child in phase.node.children:
                if member in child.members:
                    out[member] = bundle(
                        len(set(child.members) - leaving), element)
                    break
        return out

    if op == "scatter":
        share = -(-nbytes // size)
        plan = scatter_phases(tree, root)
        root_leaf_members = frozenset(
            m for m in range(size) if seg_of_rank[m] == seg_of_rank[root])
        if plan.root_leaf is not None:
            stream(plan.root_leaf, root,
                   [share] * (len(plan.root_leaf.members) - 1), 1)
        if plan.hoist is not None:
            p2p_hop(plan.hoist[0], plan.hoist[1],
                    bundle(size - len(root_leaf_members), share))
        for phase in plan.internals:
            # the root's own leaf was dealt first: a phase left only
            # that leaf's leader to deal to runs no stream
            sizes = shares(phase, share, root_leaf_members)
            parts = [sizes[m] for m in phase.members if m != phase.root]
            if any(parts):
                stream(phase, phase.root, parts, 1)
        for phase in plan.leaves:
            stream(phase, phase.root, [share] * (len(phase.members) - 1),
                   1)
        return frames, trunk
    if op == "gather":
        phases, holder = up_phases(tree, root)
        for phase in phases:
            sizes = shares(phase, nbytes)
            for turn in phase.members:
                if turn != phase.root:
                    stream(phase, turn, [sizes[turn]], receivers=1)
        if holder != root:
            p2p_hop(holder, root, bundle(size, nbytes))
        return frames, trunk
    if op == "allgather":
        plan = allgather_phases(tree)
        for phase in plan.up:
            sizes = shares(phase, nbytes)
            for turn in phase.members:
                stream(phase, turn, [sizes[turn]])
        for phase in plan.down:
            stream(phase, phase.root, [bundle(size, nbytes)])
        return frames, trunk
    raise KeyError(f"no hierarchical frame model for collective "
                   f"{op!r}")
