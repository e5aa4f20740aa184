"""Closed-form frame/message counts (paper §3) and their exact
header-aware counterparts.

The paper states costs with the idealized ``floor(M/T)+1`` fragment model
(M = message bytes, T = frame capacity).  Our stack additionally carries
protocol headers (the MPI envelope on p2p messages; the 8-byte multicast
envelope), so this module offers both:

* ``paper_*``  — the formulas exactly as printed, for documentation and
  asymptotic checks;
* ``model_*``  — header-aware counts that must match the simulator's
  frame counters *exactly* (asserted in tests and the frame-count bench).

Three folds return ``(host frames, trunk serializations)`` of one call
with one signature ``(op, seg_of_rank, root, nbytes, params, paths,
loss, commutative)``: :func:`model_flat_frames` and
:func:`model_hier_frames` over a compiled multicast plan (``commutative``
unused), :func:`model_p2p_frames` over the p2p collectives' tree edges
(``loss`` unused).  A p2p hop is priced in one place (:func:`_hop`) for
both.  A composite collective (:data:`~repro.mpi.collective.registry.
COMPOSITIONS`) is priced as the sum of its parts' folds, in one place
too (:func:`model_parts_frames`, at :func:`part_payloads`).

Every implementation names its model where it registers
(:func:`~repro.mpi.collective.registry.register`); :data:`FOLDS` maps
that name to the function here, and :func:`model_coverage` reads the
ledger off the registry.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache

from ..core.binomial import binomial_edges
from ..core.channel import MCAST_HEADER_BYTES, SEG_HEADER_BYTES
from ..mpi.collective.barrier_p2p import largest_power_of_two_leq
from ..mpi.collective.hier import (BUNDLE_KINDS, build_hier_tree,
                                   canonical_order, compile_plan)
from ..mpi.collective.registry import COMPOSITIONS, REGISTRY, parts_of
from ..mpi.datatypes import BUNDLE_LENGTH_BYTES
from ..mpi.p2p import EAGER_THRESHOLD
from ..simnet.calibration import NetParams

__all__ = [
    "paper_frames_per_message", "paper_mpich_bcast_frames",
    "paper_mcast_bcast_frames", "paper_mpich_barrier_messages",
    "paper_mcast_barrier_messages", "model_mcast_bcast_frames",
    "expected_seg_repair_frames", "multicast_trunk_edges",
    "model_p2p_frames", "model_plan_frames", "model_flat_frames",
    "model_hier_frames", "part_payloads", "model_parts_frames",
    "FOLDS", "CALL_FOLDS", "model_coverage",
]


def paper_frames_per_message(m: int, t: int = 1500) -> int:
    """The paper's ``floor(M/T) + 1`` frames for an M-byte message."""
    if m < 0:
        raise ValueError(f"message size must be >= 0, got {m}")
    if t <= 0:
        raise ValueError(f"frame size must be > 0, got {t}")
    return m // t + 1


def paper_mpich_bcast_frames(n: int, m: int, t: int = 1500) -> int:
    """MPICH broadcast: ``(floor(M/T)+1) * (N-1)`` network frames."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return paper_frames_per_message(m, t) * (n - 1)


def paper_mcast_bcast_frames(n: int, m: int, t: int = 1500) -> int:
    """Multicast broadcast: ``(N-1)`` scouts ``+ floor(M/T)+1`` data."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return 0
    return (n - 1) + paper_frames_per_message(m, t)


def paper_mpich_barrier_messages(n: int) -> int:
    """``2(N-K) + K log2 K`` point-to-point messages (paper §3.2)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k = largest_power_of_two_leq(n)
    return 2 * (n - k) + k * (k.bit_length() - 1)


def paper_mcast_barrier_messages(n: int) -> tuple[int, int]:
    """``(N-1)`` unicast scouts + one multicast release."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return (0, 0)
    return (n - 1, 1)


# ---------------------------------------------------------------------------
# header-aware counts that match the simulator exactly
# ---------------------------------------------------------------------------
def model_mcast_bcast_frames(params: NetParams, n: int,
                             m: int) -> tuple[int, int]:
    """Exact (scout, data) frames for the scouted multicast broadcast."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return (0, 0)
    scouts = n - 1
    data = params.frames_for(m + MCAST_HEADER_BYTES)
    return (scouts, data)


# ---------------------------------------------------------------------------
# loss expectation (PR 4: fold NetParams.loss into the auto estimates)
# ---------------------------------------------------------------------------
def expected_seg_repair_frames(n: int, nsegs: int, loss: float,
                               max_rounds: int = 8,
                               receivers: "int | None" = None) -> float:
    """Expected extra frames of one engine stream's NACK repair loop at
    per-receiver data-frame loss probability ``loss``.

    The root repairs the **union** of its receivers' missing sets.  A
    given receiver is still missing a given segment after ``r``
    transmissions (the original plus ``r - 1`` repairs) with
    probability exactly ``loss**r`` — every transmission is an
    independent Bernoulli drop, and the engine re-batches each round's
    repair plan into one multicast re-send of the union, so the number
    of *frames* a segment costs in round ``r`` does not depend on how
    many receivers missed it.  With ``R`` receivers a segment therefore
    lands in round ``r``'s plan with probability
    ``1 - (1 - loss**r)**R`` (~ ``R * loss**r`` for small loss), and
    round ``r`` adds that expected segment count plus the per-round
    control sweep (arming scouts, the report fold and one decision
    multicast: ``2(N-1) + 1`` frames).  An earlier version of this
    model compounded the
    *union* probability geometrically (``u**r`` with
    ``u = 1-(1-loss)**R``), which overestimates late rounds badly —
    round 2 by ~5x at n=8, loss=0.05 — because the union is over
    per-receiver misses that each thin out as ``loss**r``;
    the ``segmented-bcast`` area's ``seg_post_repair_band`` pins the
    tightened accuracy and ``deep-fabric``'s ``deep_post_repair_band``
    the legacy band (both postconditions of
    :mod:`repro.bench.sweep_areas`).

    ``receivers`` defaults to ``n - 1`` (the broadcast case: every
    non-root posts for the data); streams with a single consuming
    receiver — the reduce/gather turn loops, where bystanders post
    nothing and report empty — pass ``receivers=1``.  The sum runs
    while a round is still *expected* to happen (at least half a
    segment outstanding), so a lossless stream costs nothing.  This is
    the term the auto policy adds to every segmented-multicast
    estimate; the p2p trees ride the simulator's reliable unicast path
    and carry no such term.
    """
    if n < 2 or nsegs < 1 or loss <= 0.0:
        return 0.0
    if receivers is None:
        receivers = n - 1
    receivers = max(receivers, 1)
    p = min(loss, 0.99)
    extra = 0.0
    for r in range(1, max_rounds + 1):
        expect = nsegs * (1.0 - (1.0 - p ** r) ** receivers)
        if expect < 0.5:
            break
        extra += expect + 2 * (n - 1) + 1
    return extra


# ---------------------------------------------------------------------------
# tiered-fabric trunk accounting (PR 4 two-tier; PR 5 recursive trees)
# ---------------------------------------------------------------------------
# The models below count *trunk serializations* — every time a frame is
# re-serialized on a switch-to-switch link of a tiered fabric
# (``NetStats.frames_trunk``).  ``paths`` maps each dense segment id to
# its switch-tree path (:meth:`~repro.simnet.topology.Cluster.
# segment_path`); ``None`` keeps PR 4's two-tier geometry, where every
# segment hangs directly off the core: a multicast frame reaching K
# occupied segments crosses K trunks, a cross-segment unicast crosses 2.
# On deeper trees a multicast frame crosses every edge of the switch
# subtree spanning the interested segments once, and a unicast pays the
# up-over-down path between its endpoints' leaves.  One-time
# channel-setup IGMP traffic is excluded: these are per-call,
# steady-state counts, and the benches compare snapshots around a single
# collective.

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


@lru_cache(maxsize=64)
def _hop_matrix(paths) -> tuple:
    """``[a][b]`` trunk hops between segment paths ``a`` and ``b``."""
    from ..simnet.fabric import path_trunk_hops

    return tuple(tuple(path_trunk_hops(pa, pb) for pb in paths)
                 for pa in paths)


class TopoDigest:
    """The one description of a communicator's topology: every
    coefficient of the trunk and hierarchy models for one
    ``(seg_of_rank, paths)``, computed once (:func:`topo_digest` caches
    it) so that a model call is arithmetic on the payload terms — no
    loop over rank pairs, no ``path_trunk_hops`` call — plus the
    hierarchy tree (:attr:`tree`) and its reduction-order flag
    (:attr:`contiguous`) that ``hier-mcast`` executes against.  A live
    communicator's comes from
    :func:`~repro.mpi.collective.policy.comm_topology`.

    One loss-free engine stream rooted at rank ``r`` (header +
    ``nsegs`` data frames + one round of control) costs
    ``(2 + nsegs) * edges[seg r] + 3 * tree_hops(r)`` trunk
    serializations: the header, every data frame and the round's one
    decision multicast each cross every edge of the switch subtree
    spanning the occupied segments once; the two scout gathers and the
    report fold each pay their binomial edges' trunk paths.  With one
    occupied segment every coefficient is 0.
    """

    def __init__(self, seg_of_rank: tuple, paths: tuple):
        self.seg_of_rank = seg_of_rank
        self.paths = paths
        self.size = size = len(seg_of_rank)
        #: segment-pair trunk hops, ``hops[a][b]``
        self.hops = hops = _hop_matrix(paths)
        members = [0] * len(paths)
        for seg in seg_of_rank:
            members[seg] += 1
        #: ranks per segment
        self.members = tuple(members)
        occupied = [s for s, n in enumerate(members) if n]
        #: occupied segments; with one, nothing crosses a trunk
        self.nsegments = len(occupied)
        #: per root segment: trunk edges one multicast frame crosses
        edges = [0] * len(paths)
        for seg in occupied:
            edges[seg] = multicast_trunk_edges(seg, occupied, paths)
        self.edges = tuple(edges)
        # The stream coefficients summed over every root rank.  Rooted
        # at r, an edge of span ``child - parent`` joins ranks a and
        # a + span (mod size) for a = r + parent; over all roots every
        # a starts each of the ``terms[span]`` edges of that span once.
        terms = Counter(child - parent
                        for parent, child, _cover in binomial_edges(size))
        tree_all = sum(n * sum(
            hops[seg_of_rank[a]][seg_of_rank[(a + span) % size]]
            for a in range(size)) for span, n in terms.items())
        self.edges_all = sum(members[s] * edges[s] for s in occupied)
        self.tree_all = tree_all

    def tree_hops(self, root: int) -> int:
        """Trunk hops of the binomial tree's edges rooted at ``root``:
        each edge pays the distance between its endpoints' segments."""
        if self.nsegments < 2:
            return 0
        seg, hops, size = self.seg_of_rank, self.hops, self.size
        return sum(hops[seg[(up + root) % size]][seg[(down + root) % size]]
                   for up, down, _cover in binomial_edges(size))

    def stream(self, root: int, nsegs: int) -> int:
        """Trunk serializations of one engine stream rooted at
        ``root``."""
        seg = self.seg_of_rank[root]
        return (2 + nsegs) * self.edges[seg] + 3 * self.tree_hops(root)

    def all_streams(self, nsegs: int) -> int:
        """The same summed over one stream per rank (the turn loops)."""
        return (2 + nsegs) * self.edges_all + 3 * self.tree_all

    def group(self, members) -> "TopoDigest":
        """The digest of a sub-group of ranks (one hierarchy phase);
        the whole communicator's is this one."""
        if len(members) == self.size:
            return self
        return _digest(tuple(self.seg_of_rank[m] for m in members),
                       self.paths)

    @cached_property
    def tree(self):
        """The collapsed hierarchy the ``hier-mcast`` plans walk."""
        return build_hier_tree(self.seg_of_rank, self.paths)

    @cached_property
    def contiguous(self) -> bool:
        """Whether the hierarchy's recursive leader-ordered fold visits
        the ranks in MPI's canonical order ``0..size-1`` (see
        :mod:`repro.mpi.collective.hier`, *Reduction order*)."""
        return canonical_order(self.tree) == list(range(self.size))


@lru_cache(maxsize=512)
def _digest(seg_of_rank: tuple, paths: "tuple | None") -> TopoDigest:
    if paths is None:   # two-tier default: segment s at path (s,)
        paths = tuple((s,) for s in range(max(seg_of_rank, default=-1) + 1))
    return TopoDigest(seg_of_rank, paths)


def topo_digest(seg_of_rank, paths=None) -> TopoDigest:
    """The cached :class:`TopoDigest` of a rank→segment map."""
    return _digest(tuple(seg_of_rank),
                   None if paths is None else tuple(paths))


def clear_caches() -> None:
    """Drop every cached digest and hop matrix."""
    _hop_matrix.cache_clear()
    _digest.cache_clear()


# ---------------------------------------------------------------------------
# the p2p collectives: one fold over the messages they send
# ---------------------------------------------------------------------------
def _hop(digest: TopoDigest, params: NetParams, src: int, dst: int,
         nbytes: int) -> tuple[int, int]:
    """(frames, trunk serializations) of one p2p message of ``nbytes``
    between ranks ``src`` and ``dst``: its fragments behind the MPI
    envelope — plus the rendezvous RTS + CTS above the eager threshold
    — each crossing the trunks between the two ranks' segments."""
    frames = params.frames_for(nbytes + params.mpi_header)
    if nbytes > EAGER_THRESHOLD:
        frames += 2                          # the rendezvous RTS + CTS
    seg = digest.seg_of_rank
    return frames, frames * digest.hops[seg[src]][seg[dst]]


def model_p2p_frames(op: str, seg_of_rank, root: int, nbytes: int,
                     params: NetParams, paths=None, loss: float = 0.0,
                     commutative: bool = True) -> tuple[int, int]:
    """(host frames, trunk serializations) of one call of ``op``'s p2p
    implementation — the auto policy's baseline and the static
    table's default: a fold of :func:`_hop` over every message it sends.
    Exact (asserted against ``NetStats`` by ``tests/test_plan_model.py``).

    ``op`` is one of the rooted four
    (:mod:`repro.mpi.collective.tree_p2p`), each a fold over the
    binomial tree rooted at ``root``
    (:func:`~repro.core.binomial.binomial_edges`) — the tree whose
    per-rank restriction, :func:`~repro.core.binomial.binomial_walk`,
    they execute — one message per edge:
    ``bcast`` and ``reduce`` carry the whole ``nbytes`` message;
    ``scatter`` (``nbytes`` its *total* sequence) and ``gather``
    (``nbytes`` one rank's contribution) carry the bundle of the
    child's subtree, ``BUNDLE_LENGTH_BYTES`` per element beside it.  A
    non-``commutative`` reduce at a nonzero root runs the tree at rank
    0 and adds its forward to the root.  ``barrier`` has a closed form
    (``"mpich-barrier"``) and a composite is priced by
    :func:`model_parts_frames`."""
    digest = topo_digest(seg_of_rank, paths)
    size = digest.size
    if op not in ("bcast", "reduce", "scatter", "gather"):
        raise KeyError(f"no p2p frame model for collective {op!r}")
    top = root if commutative or op != "reduce" else 0
    hops = [(0, root, nbytes)] if top != root else []
    # one rank's element of a bundle, or None: the whole message
    unit = {"scatter": -(-nbytes // size), "gather": nbytes}.get(op)
    hops += [((parent + top) % size, (child + top) % size,
              nbytes if unit is None
              else len(cover) * (unit + BUNDLE_LENGTH_BYTES))
             for parent, child, cover in binomial_edges(size)]
    frames = trunk = 0
    for src, dst, m in hops:
        f, t = _hop(digest, params, src, dst, m)
        frames += f
        trunk += t
    return frames, trunk


# ---------------------------------------------------------------------------
# the plan model: one cost fold over a compiled step list
# ---------------------------------------------------------------------------
def model_plan_frames(op: str, tree, digest: TopoDigest, root: int,
                      nbytes: int, params: NetParams,
                      loss: float = 0.0) -> tuple[float, float]:
    """(host frames, trunk serializations) of one call of the plan
    :func:`~repro.mpi.collective.hier.compile_plan` ``(op, tree,
    root)`` on ``digest``'s fabric: a fold over the *same* step list
    the implementation interprets, so model and behaviour cannot drift.
    Each step kind contributes its engine streams — the rows of
    :func:`~repro.core.segment.step_streams`, the schedule the executor
    runs — a ``forward`` its p2p hop, the barrier's ``sync`` /
    ``release`` their scouts and release frame.

    One **stream** — header, NACK-repaired rounds — is priced in one
    place, from the *parts* the engine fragments one by one (a
    ``deal`` has one per receiving member, every other kind one):
    their segments add up; when the plan ships one segment per
    datagram (``auto_batch == 1``) each is a frame of its own,
    otherwise the whole plan is ONE batched datagram whose frames are
    those of its bytes, segment envelopes included.  The segment count
    feeds the expected repairs, the frame count :func:`~repro.core.
    segment.seg_nack_frame_count`'s data term and the trunk term of the
    group's own :meth:`TopoDigest.group`.  A turn loop whose turns all
    carry the same payload (always, on a leaf group) is priced once
    through :meth:`TopoDigest.all_streams`, never turn by turn.

    ``nbytes`` is the op's natural payload: the bcast / reduce
    message, the scatter's *total* sequence, the gather's and
    allgather's per-rank contribution; a bundle of ``c`` of them is
    ``c * (element + BUNDLE_LENGTH_BYTES)`` bytes.  Loss-free
    (``loss=0``) every plan is **exact**; with ``loss > 0`` every stream
    additionally carries its expected NACK-repair traffic — repairs
    stay inside the losing group's switch subtree, which is most of
    the hierarchy's win on lossy fabrics.
    """
    from ..core.segment import (auto_batch, plan_transport,
                                seg_nack_frame_count, step_streams)

    size, seg_of_rank = digest.size, digest.seg_of_rank
    home = seg_of_rank[root]
    steps = compile_plan(op, tree, root)
    # ``unit``: one rank's element; ``whole``: bytes of the value a
    # serve or a forward moves in one piece
    if op == "scatter":
        # the root splits nbytes among the ranks and forwards the
        # bundle of every share outside its own leaf
        unit = -(-nbytes // size)
        whole = ((size - digest.members[home])
                 * (unit + BUNDLE_LENGTH_BYTES))
    elif op in ("gather", "allgather"):     # one element per rank
        unit, whole = nbytes, size * (nbytes + BUNDLE_LENGTH_BYTES)
    else:                                   # one nbytes message
        unit = whole = nbytes

    def nsegs_of(part: int) -> int:
        return plan_transport(part, params).nsegs

    frames = 0.0
    trunk = 0.0
    for step in steps:
        kind, group = step.kind, step.group
        if kind == "forward":
            hop_frames, hop_trunk = _hop(digest, params, *group.key[1],
                                         whole)
            frames += hop_frames
            trunk += hop_trunk
            continue
        k = len(group.members)
        at = group.members.index(group.root)
        sub = digest.group(group.members)
        #: engine streams as (serving turn, parts, receivers);
        #: ``receivers=1`` where each segment has a single consumer
        streams: list = []
        if kind == "sync":                   # k-1 scouts up the tree
            frames += k - 1
            trunk += sub.tree_hops(at)
        elif kind == "release":              # one multicast
            frames += 1
            trunk += sub.edges[sub.seg_of_rank[at]]
        else:                                # a row of the schedule
            # a member's share of a bundle step: its bare element in a
            # leaf, else its child subtree's bundle (a deal's without
            # what the root's own leaf already took)
            leaf = group.node.is_leaf
            shares = [unit if leaf else (unit + BUNDLE_LENGTH_BYTES) * sum(
                kind != "deal" or seg_of_rank[r] != home for r in cover)
                for cover in group.covers]
            for turn, consumer in step_streams(kind, k, at):
                if consumer == "each":       # one part per other member
                    parts = tuple(shares[t] for t in range(k)
                                  if t != turn)
                elif kind in BUNDLE_KINDS:   # the turn's share
                    parts = (shares[turn],)
                else:                        # the value, the partial
                    parts = (whole,)
                streams.append((turn, parts,
                                None if consumer is None else 1))
        # streams add up in plan order and, inside a turn loop, in turn
        # order (host frames are floats under loss); each distinct
        # payload is priced once
        priced: dict = {}
        data = []                            # data frames per stream
        for _turn, parts, receivers in streams:
            if parts not in priced:
                nsegs = sum(map(nsegs_of, parts))
                nframes = (nsegs if auto_batch(params, nsegs) == 1
                           else params.frames_for(
                               sum(parts) + SEG_HEADER_BYTES * nsegs
                               + MCAST_HEADER_BYTES))
                priced[parts] = (
                    seg_nack_frame_count(k, nframes)
                    + expected_seg_repair_frames(k, nsegs, loss,
                                                 receivers=receivers),
                    nframes)
            host, nframes = priced[parts]
            frames += host
            data.append(nframes)
        if len(streams) > 1 and len(priced) == 1:   # a uniform turn loop
            trunk += sub.all_streams(data[0]) - (
                sub.stream(at, data[0]) if len(streams) < k else 0)
        else:
            trunk += sum(sub.stream(turn, nframes) for (turn, _p, _r),
                         nframes in zip(streams, data))
    return frames, trunk


def model_flat_frames(op: str, seg_of_rank, root: int, nbytes: int,
                      params: NetParams, paths=None, loss: float = 0.0,
                      commutative: bool = True) -> tuple[float, float]:
    """:func:`model_plan_frames` of the op's *flat* segmented
    implementation: the one-group plan — the whole communicator as a
    single leaf, elements bare — priced with the communicator's own
    digest (every trunk coefficient is 0 on a flat cluster).  Exact
    loss-free for every op: asserted against ``NetStats`` by
    ``tests/test_plan_model.py`` and the sweep areas."""
    digest = topo_digest(seg_of_rank, paths)
    if digest.size < 2:
        return (0.0, 0.0)
    return model_plan_frames(op, build_hier_tree((0,) * digest.size),
                             digest, root, nbytes, params, loss)


def model_hier_frames(op: str, seg_of_rank, root: int, nbytes: int,
                      params: NetParams, paths=None, loss: float = 0.0,
                      commutative: bool = True) -> tuple[float, float]:
    """:func:`model_plan_frames` of one ``hier-mcast`` call on an
    arbitrary-depth hierarchy.  Exact loss-free for every op (asserted
    by the ``deep-fabric`` sweep area and ``tests/test_plan_model.py``)."""
    digest = topo_digest(seg_of_rank, paths)
    if digest.nsegments < 2:
        return (0.0, 0.0)
    return model_plan_frames(op, digest.tree, digest, root, nbytes,
                             params, loss)


# ---------------------------------------------------------------------------
# the composite collectives: the sum of their parts
# ---------------------------------------------------------------------------
def part_payloads(op: str, size: int, nbytes: int) -> tuple[int, ...]:
    """The ``nbytes`` each part of composite ``op`` carries, in run
    order, for a call whose own ``nbytes`` is one rank's contribution:
    allreduce's reduce and bcast both carry it; allgather's gather
    carries it and its bcast the bundle of every rank's element."""
    bundle = size * (nbytes + BUNDLE_LENGTH_BYTES)
    return {"allgather": (nbytes, bundle)}.get(op, (nbytes, nbytes))


def model_parts_frames(op: str, impl: str, seg_of_rank, root: int,
                       nbytes: int, params: NetParams, paths=None,
                       loss: float = 0.0) -> tuple[float, float]:
    """(host frames, trunk serializations) of one call of composite
    ``impl`` of ``op`` (a row, or ``"+"``-joined parts): each part's
    registered fold at :func:`part_payloads` summed, every part at
    root 0 — ``root`` is unused.  Exact wherever they are."""
    size = len(seg_of_rank)
    frames = trunk = 0
    for (part, part_impl), m in zip(parts_of(op, impl),
                                    part_payloads(op, size, nbytes)):
        f, t = FOLDS[REGISTRY[part][part_impl].model](
            part, seg_of_rank, 0, m, params, paths, loss)
        frames += f
        trunk += t
    return frames, trunk


# ---------------------------------------------------------------------------
# the models an implementation names where it registers
# ---------------------------------------------------------------------------
#: registered model name -> the function that prices it.  The
#: :data:`CALL_FOLDS` share one signature, ``(op, seg_of_rank, root,
#: nbytes, params, paths, loss, commutative)``; the rest are the
#: paper's closed forms and the composite sum.
FOLDS = {"p2p": model_p2p_frames, "flat": model_flat_frames,
         "hier": model_hier_frames, "parts": model_parts_frames,
         "mcast-bcast": model_mcast_bcast_frames,
         "mpich-barrier": paper_mpich_barrier_messages,
         "mcast-barrier": paper_mcast_barrier_messages}

#: the folds that price one whole call, in the order ``"auto"`` breaks
#: ties between their candidates: segmented multicast over
#: hierarchical over the p2p baseline
CALL_FOLDS = ("flat", "hier", "p2p")


def model_coverage() -> dict[tuple[str, str], str]:
    """(op, impl) -> the model that prices it, read off the registry on
    every call: a :data:`FOLDS` name, or an ``"estimate: <why>"``
    marker for traffic with no asserted closed form.  A composition
    stays ``"parts"`` only while every part has a :data:`CALL_FOLDS`
    fold to sum.  ``tests/test_lint.py`` pins the ``estimate:`` set: a
    new marker is a deliberate test edit."""
    cover = {(op, name): impl.model for op, row in REGISTRY.items()
             for name, impl in row.items()}
    for row, parts in COMPOSITIONS.items():
        rough = [f"({op}, {impl})" for op, impl in parts
                 if cover.get((op, impl)) not in CALL_FOLDS]
        if rough:
            cover[row] = (f"estimate: its parts {', '.join(rough)} have "
                          f"no fold to sum")
    return cover
