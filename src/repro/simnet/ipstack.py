"""Per-host IP stack: socket table, multicast membership, reassembly.

The stack sits between the NIC and the UDP sockets:

* **transmit** — fragments a :class:`~repro.simnet.ip.Datagram` and queues
  the frames on the NIC (software cost is charged by the *socket*, on the
  host CPU, before the datagram reaches the stack);
* **membership** — `join_group` programs the NIC filter immediately and
  emits an IGMP report frame so the switch can snoop the port (on a hub
  the report is harmless background traffic).  Until the report reaches
  the switch, multicast senders elsewhere cannot reach this host — the
  join-latency hazard naive multicast broadcast trips over;
* **receive** — reassembles fragments by (src, datagram id) and hands
  complete datagrams to every matching socket: for unicast, the socket
  bound to the destination port; for multicast, every socket bound to the
  port *that has joined the group*.  No matching socket ⇒ counted drop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .frame import Frame
from .ip import Datagram, Fragment, is_group_addr, make_frames
from .kernel import SimError

if TYPE_CHECKING:  # pragma: no cover
    from .host import Host
    from .udp import UdpSocket

__all__ = ["IpStack", "PortInUse"]

#: L2 payload bytes of an IGMP membership report (IP header + report)
IGMP_REPORT_SIZE = 28


class PortInUse(SimError):
    """Two sockets tried to bind the same UDP port on one host."""


class IpStack:
    """One host's network stack."""

    def __init__(self, host: "Host"):
        self.host = host
        self.sim = host.sim
        self.params = host.params
        self.stats = host.stats
        self._sockets: dict[int, "UdpSocket"] = {}
        self._memberships: dict[int, int] = {}      # group -> refcount
        self._reasm: dict[tuple[int, int], set[int]] = {}
        self._next_ephemeral = 49152

    # -- socket table ----------------------------------------------------
    def bind(self, sock: "UdpSocket", port: Optional[int]) -> int:
        if port is None:
            port = self._next_ephemeral
            self._next_ephemeral += 1
        if port in self._sockets:
            raise PortInUse(f"host {self.host.addr}: UDP port {port} in use")
        self._sockets[port] = sock
        return port

    def unbind(self, port: int) -> None:
        self._sockets.pop(port, None)

    # -- multicast membership ------------------------------------------------
    def join_group(self, group: int) -> None:
        """Join ``group``: program the NIC filter and announce via IGMP."""
        if not is_group_addr(group):
            raise ValueError(f"{group:#x} is not a multicast group address")
        refs = self._memberships.get(group, 0)
        self._memberships[group] = refs + 1
        self.host.nic.join_filter(group)
        if refs == 0:
            self._send_igmp("join", group)

    def leave_group(self, group: int) -> None:
        refs = self._memberships.get(group, 0)
        if refs <= 0:
            raise SimError(f"host {self.host.addr} left {group:#x} "
                           f"without joining")
        self.host.nic.leave_filter(group)
        if refs == 1:
            del self._memberships[group]
            self._send_igmp("leave", group)
        else:
            self._memberships[group] = refs - 1

    def member_of(self, group: int) -> bool:
        return self._memberships.get(group, 0) > 0

    def _send_igmp(self, op: str, group: int) -> None:
        self.host.nic.send(Frame(self.host.addr, group, IGMP_REPORT_SIZE,
                                 (op, group), "igmp"))

    # -- transmit ---------------------------------------------------------
    def send_datagram(self, dgram: Datagram, mcast_loop: bool = True) -> None:
        """Fragment and queue on the NIC. Loopback multicast is delivered
        locally too if this host joined the group (IP_MULTICAST_LOOP)."""
        self.stats.datagrams_sent += 1
        for frame in make_frames(self.params, dgram):
            self.host.nic.send(frame)
        if mcast_loop and is_group_addr(dgram.dst) and self.member_of(dgram.dst):
            # Local copy bypasses the wire (kernel loopback), but still
            # pays per-frame receive processing for fairness.
            delay = self.params.per_frame_rx_us
            self.sim.schedule_call(delay, self._deliver_datagram, dgram)

    # -- receive ---------------------------------------------------------
    def receive_frame(self, frame: Frame) -> None:
        if frame.kind == "igmp":
            return  # membership protocol, not user data
        frag = frame.payload
        if not isinstance(frag, Fragment):
            raise SimError(f"non-IP frame reached IP input: {frame!r}")
        if frag.nfrags == 1:
            self._deliver_datagram(frag.dgram)
            return
        key = (frag.dgram.src, frag.dgram.dgram_id)
        got = self._reasm.setdefault(key, set())
        got.add(frag.index)
        if len(got) == frag.nfrags:
            del self._reasm[key]
            self._deliver_datagram(frag.dgram)

    def _deliver_datagram(self, dgram: Datagram) -> None:
        sock = self._sockets.get(dgram.dst_port)
        if sock is None:
            self.stats.drops_no_listener += 1
            return
        # a joined group skips the address test: sockets join only groups
        if dgram.dst not in sock._groups and is_group_addr(dgram.dst):
            self.stats.drops_no_listener += 1
            return
        sock._deliver(dgram)
