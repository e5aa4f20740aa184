"""A simulated workstation: NIC + IP stack + CPU + private RNG.

Host addresses double as MAC and IP addresses (the cluster is one LAN,
so the distinction buys nothing).  Each host gets an RNG substream derived
from the cluster seed, so runs are reproducible and per-host jitter is
independent.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from .calibration import NetParams
from .kernel import Simulator
from .nic import Nic
from .resource import Resource
from .stats import NetStats

__all__ = ["Host"]


class Host:
    """One cluster node."""

    def __init__(self, sim: Simulator, params: NetParams, addr: int,
                 stats: Optional[NetStats] = None,
                 seed: Optional[int] = None, name: str = ""):
        from .ipstack import IpStack  # local import: stack needs Host type

        self.sim = sim
        self.params = params
        self.addr = addr
        self.name = name or f"host{addr}"
        self.stats = stats if stats is not None else NetStats()
        self.rng = random.Random(seed if seed is not None else addr)
        #: dedicated substream for probabilistic multicast-data loss
        #: (``NetParams.loss``), seeded independently of :attr:`rng` so
        #: turning loss on or off never perturbs the jitter stream of a
        #: reproducible run
        self.loss_rng = random.Random(
            ((seed if seed is not None else addr) << 16) ^ 0x105_5EED)
        #: optional stateful datagram-fate hook, the one receive-side
        #: fault seam (chaos scenarios, the sweeps' induced loss, tests):
        #: every datagram delivered to *any* socket on this host is
        #: first offered to ``frame_fate(dgram)``, which returns
        #: ``None``/``"deliver"`` to pass it through, ``"drop"`` to lose
        #: it (``NetStats.drops_chaos``) or ``"dup"`` to deliver it twice
        #: (``NetStats.dups_chaos``).  Host-level (not per-socket) so a
        #: scenario survives sockets being opened and closed under it; a
        #: hook meant for one socket checks ``dgram.dst_port``.  Stateful
        #: hooks (burst loss) keep their state in the closure.
        self.frame_fate = None
        self.cpu = Resource(sim, name=f"{self.name}.cpu")
        self.nic = Nic(sim, params, mac=addr, stats=self.stats,
                       name=f"{self.name}.nic")
        self.ipstack = IpStack(self)
        self.nic.set_receiver(self.ipstack.receive_frame)

    def jitter(self, mean_us: float) -> float:
        """A lognormally-jittered software cost around ``mean_us``.

        With ``jitter_sigma == 0`` this is exactly ``mean_us`` (used by
        the deterministic unit tests).
        """
        sigma = self.params.jitter_sigma
        if sigma <= 0.0 or mean_us <= 0.0:
            return mean_us
        return mean_us * math.exp(self.rng.gauss(0.0, sigma))

    def socket(self, port: Optional[int] = None, **kwargs):
        """Open a UDP socket on this host (see :class:`UdpSocket`)."""
        from .udp import UdpSocket

        return UdpSocket(self, port, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.addr} ({self.name})>"
