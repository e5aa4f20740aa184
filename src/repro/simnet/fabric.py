"""Multi-segment switched fabrics: a recursive tree of switches joined
by trunks.

The paper's platforms are a single hub or a single switch; this module
grows the simulator past that ceiling with recursive "switch of
switches" fabrics of any depth: every **segment** is a leaf
:class:`~repro.simnet.switchdev.Switch` with its own hosts, interior
switches aggregate subtrees, and every parent-child pair is joined by a
full-duplex **trunk** that runs at the cluster's own
:class:`~repro.simnet.calibration.NetParams`.

Topology string grammar (accepted by
:func:`~repro.simnet.topology.build_cluster` alongside ``"hub"`` and
``"switch"``):

* ``"tree:SxH"`` — the classic two-tier build: S leaf switches of H
  hosts each behind one core switch (``"tree:2x4"`` = 8 hosts);
* ``"tree:B1x...xBkxH"`` — an arbitrary-depth tree: the core fans out
  to B1 switches, each fans out to B2, ..., the last tier is
  ``B1*...*Bk`` leaf switches of H hosts each (``"tree:2x2x2"`` = a
  three-tier tree of 4 leaves, 8 hosts, with host pairs up to 4 trunk
  serializations apart);
* ``"tree:[n1,n2,...]"`` — heterogeneous segment sizes: one core, one
  leaf switch per list entry, ``ni`` hosts on leaf i
  (``"tree:[4,8,2]"`` = 14 hosts in three unequal segments).

Three properties make the fabric more than wiring:

* **trunk accounting** — trunk half-links are created with
  ``is_trunk=True``, so every serialization on a switch-to-switch link
  lands in ``NetStats.frames_trunk`` / ``trunk_frames_by_kind``.  Trunks
  are the scarce, shared resource of a tiered network (Karonis &
  de Supinski's motivation for topology-aware collectives), and the
  hierarchical collectives of :mod:`repro.mpi.collective.hier` are
  judged by exactly this counter;
* **snooping across tiers** — IGMP report/leave frames are snooped at
  the ingress switch and propagated out its trunk ports (see
  :meth:`~repro.simnet.switchdev.Switch._snoop`), so membership
  knowledge diffuses through any number of trunk hops: every switch in
  the tree learns which of its ports face downstream (or upstream)
  members.  A multicast frame therefore traverses exactly the trunk
  edges that separate the sender's segment from segments with members —
  once per edge, never once per member;
* **topology discovery** — the :class:`Fabric` exposes per-host
  segment ids and per-segment tree *paths*; two paths' trunk-hop
  distance is :func:`path_trunk_hops`.
  :class:`~repro.simnet.topology.Cluster` forwards this API (degrading
  to one segment on flat topologies), and ranks query it once per
  communicator via ``comm.world.cluster``
  (:func:`~repro.mpi.collective.policy.comm_topology`) to elect
  per-segment leaders (recursively: leaders of leaders, see
  :mod:`repro.mpi.collective.hier`) and to let the auto collective
  policy weigh trunk crossings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Optional

from .calibration import NetParams
from .host import Host
from .kernel import SimError, Simulator
from .link import HalfLink
from .stats import NetStats
from .switchdev import Switch

__all__ = ["FabricSpec", "Fabric", "PartitionError", "parse_topology",
           "build_fabric", "path_trunk_hops", "wire_host"]


class PartitionError(SimError):
    """The run could not make progress because the fabric was
    partitioned: a trunk was down, a switch was dead, or a host's
    links were cut while ranks still depended on each other.

    Raised by :func:`repro.runtime.program.run_spmd` when a deadlock
    is detected *and* the cluster reports active partition faults
    (:meth:`~repro.simnet.topology.Cluster.partition_faults`) — the
    round engine itself cannot distinguish a partition from loss, but
    the launcher can, and a typed error beats a bare deadlock in every
    chaos postcondition.
    """

_TREE_RE = re.compile(r"^tree:(\d+(?:x\d+)+)$")
_TREE_LIST_RE = re.compile(r"^tree:\[(\d+(?:\s*,\s*\d+)*)\]$")


@dataclass(frozen=True)
class FabricSpec:
    """A parsed tiered-topology description.

    ``branching`` lists the per-tier fan-outs from the core down to the
    leaf-switch tier (``(S,)`` for the two-tier ``tree:SxH``);
    ``leaf_sizes`` lists hosts per leaf segment in tree (DFS) order.
    The two-field constructor ``FabricSpec(segments, hosts_per_segment)``
    still describes the uniform two-tier fabric; the extra fields
    default accordingly.
    """

    segments: int            #: leaf switches of the tree
    hosts_per_segment: int   #: hosts per leaf (0 when heterogeneous)
    branching: tuple = ()    #: per-tier fan-out, core downwards
    leaf_sizes: tuple = ()   #: hosts per leaf segment, tree order

    def __post_init__(self):
        if not self.branching:
            object.__setattr__(self, "branching", (self.segments,))
        if not self.leaf_sizes:
            object.__setattr__(
                self, "leaf_sizes",
                (self.hosts_per_segment,) * self.segments)
        prod = 1
        for b in self.branching:
            prod *= b
        if (self.segments < 1 or prod != self.segments
                or len(self.leaf_sizes) != self.segments):
            raise ValueError(
                f"inconsistent fabric spec: branching {self.branching} "
                f"and leaf sizes {self.leaf_sizes} do not describe "
                f"{self.segments} segments")
        if any(b < 1 for b in self.branching) or any(
                sz < 1 for sz in self.leaf_sizes):
            raise ValueError(
                f"fabric spec needs at least one switch per tier and "
                f"one host per segment, got branching={self.branching} "
                f"leaf_sizes={self.leaf_sizes}")

    @property
    def n(self) -> int:
        return sum(self.leaf_sizes)

    def leaf_paths(self) -> list[tuple]:
        """Tree path (child indices from the core) of every leaf, in
        segment order."""
        paths: list[tuple] = [()]
        for b in self.branching:
            paths = [p + (i,) for p in paths for i in range(b)]
        return paths


def parse_topology(spec: str) -> Optional[FabricSpec]:
    """Parse a topology string; ``None`` for the flat topologies.

    * ``"tree:SxH"`` — S segments of H hosts each behind one core;
    * ``"tree:B1x..xBkxH"`` — arbitrary-depth: per-tier branching
      factors, then hosts per leaf (``"tree:2x2x2"`` = 4 leaves of 2);
    * ``"tree:[n1,n2,...]"`` — heterogeneous two-tier: one leaf per
      entry, ``ni`` hosts on leaf i.

    Anything else that is not a known flat topology raises at the
    caller (:func:`~repro.simnet.topology.build_cluster`).
    """
    match = _TREE_LIST_RE.match(spec)
    if match is not None:
        sizes = tuple(int(tok) for tok in match.group(1).split(","))
        if any(sz < 1 for sz in sizes):
            raise ValueError(f"topology {spec!r} needs at least one "
                             f"host per segment")
        uniform = sizes[0] if len(set(sizes)) == 1 else 0
        return FabricSpec(segments=len(sizes),
                          hosts_per_segment=uniform,
                          leaf_sizes=sizes)
    match = _TREE_RE.match(spec)
    if match is None:
        return None
    nums = [int(tok) for tok in match.group(1).split("x")]
    if any(v < 1 for v in nums):
        raise ValueError(f"topology {spec!r} needs at least one switch "
                         f"per tier and one host per segment")
    branching, hosts = tuple(nums[:-1]), nums[-1]
    segments = 1
    for b in branching:
        segments *= b
    return FabricSpec(segments=segments, hosts_per_segment=hosts,
                      branching=branching)


def path_trunk_hops(pa: tuple, pb: tuple) -> int:
    """Trunk serializations between two segment tree paths: the edges
    up from ``pa`` to the lowest common ancestor and down to ``pb``
    (0 inside one segment, 2 across siblings, 4 across a three-tier
    fabric's halves, ...)."""
    common = 0
    for a, b in zip(pa, pb):
        if a != b:
            break
        common += 1
    return (len(pa) - common) + (len(pb) - common)


class Fabric:
    """A recursive switch-tree fabric plus its discovery API.

    Interior switches live at tree *paths* (tuples of child indices
    from the core, the core itself at ``()``); leaf switches carry the
    hosts.  Built by :func:`build_fabric`.
    """

    def __init__(self, sim: Simulator, params: NetParams,
                 stats: NetStats):
        self.sim = sim
        self.params = params
        self.stats = stats
        self.core = Switch(sim, params, stats=stats, name="core")
        #: every switch of the tree, keyed by its path ('()' = core)
        self.nodes: dict[tuple, Switch] = {(): self.core}
        self.leaves: list[Switch] = []
        #: both half links of every trunk, keyed by the *child* path
        #: (``(up_toward_parent, down_toward_child)``) — the handle the
        #: partition API toggles
        self.trunks: dict[tuple, tuple[HalfLink, HalfLink]] = {}
        #: per-host access links ``addr -> (up_to_leaf, down_to_host)``,
        #: the handle the host-crash API toggles
        self.host_links: dict[int, tuple[HalfLink, HalfLink]] = {}
        self._segment_of: dict[int, int] = {}
        self._paths: list[tuple] = []          # tree path per segment

    # -- chaos seams -----------------------------------------------------
    def partition_trunk(self, path: tuple):
        """Cut both directions of the trunk above the switch at
        ``path`` — the subtree below it can no longer exchange frames
        with the rest of the fabric.  Frames in flight still serialize
        (the transmitter cannot tell) but never arrive.  Returns the
        matching undo callable (== ``lambda: heal_trunk(path)``), so
        scenario code stacks it for teardown."""
        up, down = self.trunks[path]
        up.up = down.up = False
        return lambda: self.heal_trunk(path)

    def heal_trunk(self, path: tuple) -> None:
        """Restore a trunk cut by :meth:`partition_trunk`."""
        up, down = self.trunks[path]
        up.up = down.up = True

    def partition_faults(self) -> list[str]:
        """Human-readable descriptions of every active fault — downed
        trunks, dead switches — for :class:`PartitionError` messages
        and the launcher's deadlock classification."""
        faults = []
        for path in sorted(self.trunks):
            up, down = self.trunks[path]
            if not (up.up and down.up):
                faults.append(f"trunk above sw{path} down")
        for path in sorted(self.nodes):
            if not self.nodes[path].alive:
                faults.append(f"switch {self.nodes[path].name} dead")
        for addr in sorted(self.host_links):
            up, down = self.host_links[addr]
            if not (up.up and down.up):
                faults.append(f"host {addr} links down")
        return faults

    # -- discovery -------------------------------------------------------
    @property
    def nsegments(self) -> int:
        return len(self._paths)

    def segment_of(self, addr: int) -> int:
        """Segment id of a host address."""
        try:
            return self._segment_of[addr]
        except KeyError:
            raise ValueError(f"host {addr} is not attached to this "
                             f"fabric") from None

    def segment_path(self, seg_id: int) -> tuple:
        """Tree path of segment ``seg_id``'s leaf switch: the child
        indices walked from the core ('(i,)' on a two-tier build)."""
        if not 0 <= seg_id < len(self._paths):
            raise ValueError(f"no segment {seg_id} in a "
                             f"{len(self._paths)}-segment fabric")
        return self._paths[seg_id]


def build_fabric(sim: Simulator, params: NetParams, hosts: list[Host],
                 spec: FabricSpec, stats: NetStats) -> Fabric:
    """Partition ``hosts`` into consecutive segments per ``spec`` and
    wire the (possibly multi-tier) fabric, every trunk at ``params``."""
    if len(hosts) != spec.n:
        raise ValueError(
            f"fabric spec {spec.branching}x{spec.leaf_sizes} needs "
            f"exactly {spec.n} hosts, got {len(hosts)}")
    fabric = Fabric(sim, params, stats)

    def add_switch(path: tuple, name: str, seg_hosts=()) -> Switch:
        # the switch at `path`, its hosts' access links, then the
        # full-duplex trunk to its parent — keyed by `path` for the
        # partition API, both directions tallied as trunk traffic
        parent = fabric.nodes[path[:-1]]
        node = Switch(sim, params, stats=stats, name=name)
        for host in seg_hosts:
            fabric.host_links[host.addr] = wire_host(node, host, name)
        fabric.nodes[path] = node
        up = HalfLink(sim, params, stats, deliver=None,
                      name=f"{name}->{parent.name}", count_as_send=False,
                      is_trunk=True, settle_us=params.switch_latency_us)
        down = HalfLink(sim, params, stats, deliver=None,
                        name=f"{parent.name}->{name}", count_as_send=False,
                        is_trunk=True, settle_us=params.switch_latency_us)
        # each direction delivers into the port whose egress is the other
        down.deliver = partial(node.receive, node.add_port(up, trunk=True))
        up.deliver = partial(parent.receive,
                             parent.add_port(down, trunk=True))
        fabric.trunks[path] = (up, down)
        return node

    # interior tiers first (top-down), so every leaf finds its parent;
    # `paths` holds the previous tier's node paths as we descend
    paths: list[tuple] = [()]
    for branch in spec.branching[:-1]:
        paths = [p + (i,) for p in paths for i in range(branch)]
        for path in paths:
            add_switch(path, "sw" + ".".join(map(str, path)))
    off = 0
    for seg_id, (path, size) in enumerate(zip(spec.leaf_paths(),
                                              spec.leaf_sizes)):
        seg_hosts = hosts[off:off + size]
        fabric.leaves.append(add_switch(path, f"leaf{seg_id}", seg_hosts))
        for host in seg_hosts:
            fabric._segment_of[host.addr] = seg_id
        fabric._paths.append(path)
        off += size
    return fabric


def wire_host(switch: Switch, host: Host,
              via: str) -> tuple[HalfLink, HalfLink]:
    """Cable ``host`` to a new port of ``switch`` (``via`` names that end
    in the link names), each direction wired with its far end's fixed
    delay; returns the ``(up, down)`` half links."""
    sim, params, stats = switch.sim, switch.params, switch.stats
    # switch -> host direction (forwarding, not a host send)
    down = HalfLink(sim, params, stats, deliver=host.nic.deliver,
                    name=f"{via}->{host.name}", count_as_send=False,
                    settle_us=host.params.per_frame_rx_us)
    # host -> switch direction: deliver into the switch
    up = HalfLink(sim, params, stats,
                  deliver=partial(switch.receive, switch.add_port(down)),
                  name=f"{host.name}->{via}",
                  settle_us=params.switch_latency_us)
    host.nic.attach_link(up)
    return up, down
