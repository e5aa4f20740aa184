"""Store-and-forward learning switch with IGMP snooping.

Models the paper's HP ProCurve managed switch:

* **learning** — source MACs are learned per port; unicast to a known MAC
  goes out exactly one port, unknown destinations are flooded;
* **store-and-forward** — a frame is processed only after it has been fully
  received on the ingress link (the ingress :class:`~repro.simnet.link.HalfLink`
  delivers on last-bit arrival), then pays ``switch_latency_us`` for lookup,
  then queues on each egress port, where it is serialized again.  This
  double serialization is why the paper's Fig. 11 shows the hub *beating*
  the switch for multicast traffic.  The ingress link is wired with that
  latency, so the tables are read and the frame fans out
  ``switch_latency_us`` after its last bit, in the hop's one record —
  shared with every other copy landing at that instant;
* **IGMP snooping** — the switch learns multicast group membership from
  IGMP report/leave frames and forwards a multicast frame only to member
  ports, so multicast on the switch consumes no bandwidth on uninvolved
  links (frames to groups with no snooped members are flooded, as real
  switches do for unregistered groups).

Egress ports forward in parallel with each other — the fan-out of a
multicast frame costs one serialization *per egress port* but those happen
concurrently, unlike the hub where everything shares one wire.

**Tiered fabrics** (:mod:`repro.simnet.fabric`) connect switches to each
other through **trunk ports** (``add_port(..., trunk=True)``).  Two things
distinguish a trunk port from a host port:

* membership is **refcounted** per ``(group, port)`` — a trunk aggregates
  every downstream member behind it, so the port stays in the member set
  until the *last* downstream join has been matched by a leave;
* IGMP report/leave frames are snooped *and then propagated* out every
  other trunk port (hosts never see them), so membership knowledge
  diffuses across the whole switch tree: a multicast frame pays trunk
  bandwidth only toward segments that actually contain members, and only
  **once** per interested downstream segment regardless of how many
  members live there.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .calibration import NetParams
from .frame import BROADCAST, Frame, is_multicast
from .kernel import Simulator
from .link import HalfLink
from .stats import NetStats

__all__ = ["Switch"]


class _Port:
    __slots__ = ("index", "out", "trunk", "outs")

    def __init__(self, index: int, out: HalfLink, trunk: bool):
        self.index = index
        self.out = out
        self.trunk = trunk
        self.outs = (out,)          # a unicast frame's egress set


class Switch:
    """An output-queued, store-and-forward Ethernet switch."""

    def __init__(self, sim: Simulator, params: NetParams,
                 stats: Optional[NetStats] = None, name: str = "sw0"):
        self.sim = sim
        self.params = params
        self.stats = stats if stats is not None else NetStats()
        self.name = name
        self._ports: list[_Port] = []
        self._mac_table: dict[int, int] = {}
        # group -> {port index: downstream member refcount}
        self._mcast_table: dict[int, dict[int, int]] = {}
        # (registered group, ingress port) -> egress links; cleared by
        # every snooped report and every new port
        self._egress_cache: dict[tuple[int, int], list[HalfLink]] = {}
        self.frames_switched = 0
        self.frames_flooded = 0
        #: chaos seam: a powered-off switch blackholes every ingress
        #: frame (tables intact — power_on restores forwarding exactly
        #: as a rebooted snooping switch that kept its config would)
        self.alive = True

    # -- wiring -----------------------------------------------------------
    def add_port(self, out: HalfLink, trunk: bool = False) -> int:
        """Register an egress half-link; returns the new port index.

        ``trunk=True`` marks a switch-to-switch port: IGMP traffic is
        propagated out of it and its group membership is refcounted (it
        fronts every downstream member of its segment subtree).
        """
        port = _Port(len(self._ports), out, trunk)
        self._ports.append(port)
        self._egress_cache.clear()
        return port.index

    @property
    def trunk_ports(self) -> list[int]:
        return [p.index for p in self._ports if p.trunk]

    # -- chaos seam -----------------------------------------------------
    def power_off(self):
        """Kill the switch mid-traffic (chaos injection): every frame
        arriving on any port is dropped until :meth:`power_on`.
        Returns the matching undo callable, so scenario code can stack
        it for teardown (`undo = switch.power_off(); ...; undo()`)."""
        self.alive = False
        return self.power_on

    def power_on(self) -> None:
        """Restore a powered-off switch (see :meth:`power_off`)."""
        self.alive = True

    # -- data path ------------------------------------------------------
    def receive(self, port_idx: int, frame: Frame,
                at: Optional[float] = None) -> None:
        """Ingress entry point, called by the ingress half link at the
        last bit, or ``switch_latency_us`` after the last bit ``at``."""
        if not self.alive:
            self.stats.drops_chaos += 1
            return
        self._mac_table[frame.src] = port_idx
        if frame.kind == "igmp":
            self._snoop(port_idx, frame, at)
            return
        outs = self._egress(port_idx, frame)
        self.frames_switched += 1
        rec = self.stats.recorder
        if rec is not None:
            rec.frame_switched(self.sim.now if at is None else at, frame,
                               self.name, len(outs))
        if outs:
            self._fanout(outs, frame, at)

    def _fanout(self, outs: Sequence[HalfLink], frame: Frame,
                at: Optional[float]) -> None:
        # The sends run in port order, at one instant, with no records
        # in between: now if the lookup delay has elapsed, else then.
        if at is None:
            self.sim.schedule_call(self.params.switch_latency_us,
                                   self._fanout, outs, frame, self.sim.now)
            return
        for out in outs:
            out.send(frame)

    def _egress(self, ingress: int, frame: Frame) -> Sequence[HalfLink]:
        dst = frame.dst
        if dst == BROADCAST:
            return [p.out for p in self._ports if p.index != ingress]
        if is_multicast(dst):
            outs = self._egress_cache.get((dst, ingress))
            if outs is not None:
                return outs
            members = self._mcast_table.get(dst)
            if members is None:
                # Unregistered group: flood (default switch behaviour).
                self.frames_flooded += 1
                return [p.out for p in self._ports if p.index != ingress]
            ports = self._ports
            outs = [ports[i].out for i in sorted(members)
                    if members[i] > 0 and i != ingress]
            self._egress_cache[dst, ingress] = outs
            return outs
        port = self._mac_table.get(dst)
        if port is None:
            self.frames_flooded += 1
            return [p.out for p in self._ports if p.index != ingress]
        return self._ports[port].outs if port != ingress else ()

    # -- IGMP snooping -------------------------------------------------
    def _snoop(self, port_idx: int, frame: Frame,
               at: Optional[float]) -> None:
        op, group = frame.payload
        self._egress_cache.clear()
        if op == "join":
            refs = self._mcast_table.setdefault(group, {})
            refs[port_idx] = refs.get(port_idx, 0) + 1
        elif op == "leave":
            # A leave for a never-registered group must not register it
            # (that would flip its traffic from flood to drop); for a
            # known group, keep the (possibly now empty) entry — the
            # group stays registered, so traffic to it is dropped
            # rather than flooded.
            refs = self._mcast_table.get(group)
            if refs is not None and refs.get(port_idx, 0) > 0:
                refs[port_idx] -= 1
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown IGMP op {op!r}")
        # Propagate membership knowledge across the switch tree: every
        # other *trunk* port forwards the report/leave (hosts never see
        # IGMP — report suppression, as real snooping switches do).  The
        # fabric is a tree, so propagation cannot loop.
        outs = [port.out for port in self._ports
                if port.trunk and port.index != port_idx]
        if outs:
            self._fanout(outs, frame, at)

    # -- inspection -------------------------------------------------------
    def members_of(self, group: int) -> set[int]:
        """Snooped member ports of a multicast group (empty if none)."""
        refs = self._mcast_table.get(group, {})
        return {i for i, n in refs.items() if n > 0}

    def port_of(self, mac: int) -> Optional[int]:
        return self._mac_table.get(mac)
