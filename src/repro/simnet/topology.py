"""Cluster topology builders: the paper's two experimental platforms,
plus tiered multi-segment fabrics.

:func:`build_cluster` assembles ``n`` hosts connected through either

* ``"hub"``  — one CSMA/CD :class:`~repro.simnet.medium.SharedMedium`
  (the 3Com SuperStack II hub: one collision domain, natural broadcast),
* ``"switch"`` — a store-and-forward :class:`~repro.simnet.switchdev.Switch`
  with a full-duplex link per host (the HP ProCurve: no collisions,
  parallel port-to-port paths, IGMP snooping), or
* a ``"tree:..."`` string — a recursive
  :class:`~repro.simnet.fabric.Fabric` of switches joined by trunk
  links at the cluster's own :class:`NetParams`.  ``"tree:SxH"`` is
  the two-tier switch-of-switches, ``"tree:B1x..xBkxH"`` an
  arbitrary-depth tree
  (``"tree:2x2x2"`` = three switch tiers, 4 leaves of 2 hosts), and
  ``"tree:[n1,n2,...]"`` a heterogeneous two-tier build (one leaf per
  entry) — see :mod:`repro.simnet.fabric` for the grammar.

All return a :class:`Cluster` holding the simulator, hosts and shared
statistics.  The cluster also answers **topology discovery**
questions (segment membership, per-host segment id, trunk distances) so
collectives can adapt to the fabric at runtime; on the flat topologies
the answers degrade to a single segment holding every host.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .calibration import NetParams, FAST_ETHERNET_HUB, FAST_ETHERNET_SWITCH
from .fabric import Fabric, build_fabric, parse_topology, wire_host
from .host import Host
from .kernel import Simulator
from .medium import SharedMedium
from .stats import NetStats
from .switchdev import Switch

__all__ = ["Cluster", "build_cluster", "TOPOLOGIES"]

#: the flat topologies; ``"tree:SxH"`` strings are accepted alongside
TOPOLOGIES = ("hub", "switch")


@dataclass
class Cluster:
    """A ready-to-use simulated LAN."""

    sim: Simulator
    params: NetParams
    topology: str
    hosts: list[Host]
    stats: NetStats
    medium: Optional[SharedMedium] = None
    switch: Optional[Switch] = None
    fabric: Optional[Fabric] = None
    #: per-host access links ``addr -> (up, down)`` on switched
    #: topologies (the host-crash chaos seam; empty on the hub, whose
    #: shared medium has no per-host cable to cut)
    host_links: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.hosts)

    def host(self, addr: int) -> Host:
        return self.hosts[addr]

    # -- chaos seams -----------------------------------------------------
    def crash_host(self, addr: int):
        """Cut both directions of a host's access link (fail-stop crash
        as the network sees it: the host falls silent and nothing
        reaches it).  Returns the matching undo callable
        (== ``lambda: restore_host(addr)``)."""
        try:
            up, down = self.host_links[addr]
        except KeyError:
            raise ValueError(
                f"host {addr} has no access link to cut (hub topology "
                f"or unknown address)") from None
        up.up = down.up = False
        return lambda: self.restore_host(addr)

    def restore_host(self, addr: int) -> None:
        """Reconnect a host cut by :meth:`crash_host`."""
        up, down = self.host_links[addr]
        up.up = down.up = True

    def partition_faults(self) -> list[str]:
        """Descriptions of every active partition-class fault (downed
        trunks or host links, dead switches); empty when the fabric is
        whole.  :func:`~repro.runtime.program.run_spmd` consults this
        to turn a deadlock under partition into a typed
        :class:`~repro.simnet.fabric.PartitionError`."""
        faults = []
        if self.fabric is not None:
            faults.extend(self.fabric.partition_faults())
        if self.switch is not None and not self.switch.alive:
            faults.append(f"switch {self.switch.name} dead")
        if self.fabric is None:
            # flat switch build: the fabric (when present) already
            # reported its own host links
            for addr in sorted(self.host_links):
                up, down = self.host_links[addr]
                if not (up.up and down.up):
                    faults.append(f"host {addr} links down")
        return faults

    # -- topology discovery (uniform across flat and tiered builds) ------
    @property
    def nsegments(self) -> int:
        """Switch segments in the fabric (1 on hub/switch)."""
        return self.fabric.nsegments if self.fabric is not None else 1

    def segment_of(self, addr: int) -> int:
        """Segment id of a host address (0 on flat topologies)."""
        if self.fabric is not None:
            return self.fabric.segment_of(addr)
        if not 0 <= addr < len(self.hosts):
            raise ValueError(f"host {addr} is not part of this cluster")
        return 0

    def segment_path(self, seg_id: int) -> tuple:
        """Tree path of a segment's leaf switch in the fabric's switch
        tree (child indices from the core; ``(seg_id,)`` degenerate on
        flat topologies, where there is no tree)."""
        if self.fabric is not None:
            return self.fabric.segment_path(seg_id)
        if seg_id != 0:
            raise ValueError(f"no segment {seg_id} in a flat cluster")
        return (0,)


def build_cluster(n: int, topology: str = "switch",
                  params: Optional[NetParams] = None,
                  seed: int = 0) -> Cluster:
    """Build an ``n``-host cluster on the given topology.

    ``seed`` drives every stochastic element (CSMA/CD backoff, software
    jitter) through per-host substreams, so a (n, topology, params, seed)
    tuple is fully reproducible.  The switch-to-switch trunks of a
    ``"tree:..."`` build run at ``params`` like every access link.
    """
    if n < 1:
        raise ValueError(f"cluster needs at least one host, got n={n}")
    spec = None
    if topology not in TOPOLOGIES:
        spec = parse_topology(topology)
        if spec is None:
            raise ValueError(f"unknown topology {topology!r}; "
                             f"expected one of {TOPOLOGIES} or a "
                             f"'tree:...' fabric string")
        if spec.n != n:
            raise ValueError(
                f"topology {topology!r} wires exactly {spec.n} hosts, "
                f"got n={n}")
    if params is None:
        params = FAST_ETHERNET_HUB if topology == "hub" else FAST_ETHERNET_SWITCH

    sim = Simulator()
    stats = NetStats()
    master = random.Random(seed)
    hosts = [Host(sim, params, addr=i, stats=stats,
                  seed=master.randrange(2**63)) for i in range(n)]
    cluster = Cluster(sim=sim, params=params, topology=topology,
                      hosts=hosts, stats=stats)

    if spec is not None:
        cluster.fabric = build_fabric(sim, params, hosts, spec, stats)
        cluster.host_links = cluster.fabric.host_links
    elif topology == "hub":
        medium = SharedMedium(sim, params,
                              rng=random.Random(master.randrange(2**63)),
                              stats=stats)
        for host in hosts:
            host.nic.attach_medium(medium)
        cluster.medium = medium
    else:
        switch = Switch(sim, params, stats=stats)
        for host in hosts:
            cluster.host_links[host.addr] = wire_host(switch, host, "sw")
        cluster.switch = switch

    return cluster
