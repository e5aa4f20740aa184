"""``repro.simnet`` — the discrete-event network substrate.

Everything the paper's testbed provided in hardware, rebuilt in software:
a deterministic event kernel, CSMA/CD shared Ethernet (the hub), a
store-and-forward IGMP-snooping switch, and a UDP/IP stack with the
paper's receiver-readiness semantics.  See docs/ARCHITECTURE.md,
"simnet: the wire".
"""

from .calibration import (FAST_ETHERNET_HUB, FAST_ETHERNET_SWITCH,
                          NetParams, VIA_SWITCH, quiet)
from .fabric import Fabric, FabricSpec, PartitionError, parse_topology
from .frame import BROADCAST, Frame, is_multicast, mcast_mac, wire_bytes
from .host import Host
from .ip import Datagram, fragment_sizes, is_group_addr
from .kernel import (DeadlockError, Event, Process, SimError, Simulator,
                     Timeout)
from .link import HalfLink
from .medium import ExcessiveCollisions, SharedMedium
from .nic import Nic
from .resource import Resource
from .stats import NetStats
from .switchdev import Switch
from .topology import TOPOLOGIES, Cluster, build_cluster
from .trace import RecorderHooks
from .udp import SocketClosed, UdpSocket

__all__ = [
    "BROADCAST", "Cluster", "Datagram", "DeadlockError",
    "Event", "ExcessiveCollisions", "FAST_ETHERNET_HUB",
    "FAST_ETHERNET_SWITCH", "Fabric", "FabricSpec", "Frame",
    "HalfLink", "Host", "NetParams",
    "NetStats", "Nic", "PartitionError", "Process", "RecorderHooks",
    "Resource", "SharedMedium", "SimError",
    "Simulator", "SocketClosed", "Switch", "TOPOLOGIES", "Timeout",
    "UdpSocket", "VIA_SWITCH", "build_cluster",
    "fragment_sizes", "is_group_addr", "is_multicast", "mcast_mac",
    "parse_topology", "quiet", "wire_bytes",
]
