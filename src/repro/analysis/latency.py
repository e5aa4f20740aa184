"""LogP-flavoured closed-form latency predictions.

These models predict collective completion time from the calibration
constants alone — no simulation — under two idealizations: no collisions
(hub) and no cross-traffic queueing (switch).  They serve two purposes:

1. **validation** — the simulator must agree with the model within a
   tolerance on quiet (jitter-free) runs, which pins the simulator's
   timing plumbing down analytically (``tests/test_analysis.py``);
2. **explanation** — the crossover analysis (where multicast starts
   beating MPICH) can be computed in closed form and compared with the
   empirical crossover from the benchmark harness.

Model vocabulary (all µs):

* ``o_s``/``o_r`` — per-datagram software send/receive cost (TCP-ish for
  the p2p engine, UDP-ish for multicast);
* ``W(b)`` — wire time of a datagram of ``b`` user bytes on one link
  (:func:`repro.simnet.ip.datagram_wire_us`, the price the protocol's
  deadlines read too);
* ``S`` — switch store-and-forward penalty (lookup + second
  serialization of the first fragment + propagation,
  :func:`repro.simnet.ip.store_forward_us`), zero on the hub.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.binomial import binomial_walk
from ..core.channel import MCAST_HEADER_BYTES, SCOUT_BYTES
from ..mpi.collective.barrier_p2p import largest_power_of_two_leq
from ..simnet.calibration import NetParams
from ..simnet.ip import datagram_wire_us, store_forward_us

__all__ = ["LatencyModel", "PointEstimate"]


@dataclass(frozen=True)
class PointEstimate:
    """One predicted latency with its dominant components (µs)."""

    total: float
    software: float
    wire: float
    switching: float


class LatencyModel:
    """Closed-form predictor for one (params, topology) platform."""

    def __init__(self, params: NetParams, topology: str = "switch"):
        if topology not in ("hub", "switch"):
            raise ValueError(f"unknown topology {topology!r}")
        self.params = params
        self.topology = topology

    # -- primitives ----------------------------------------------------------
    def _switch(self, user_bytes: int) -> float:
        """``S``: the switch's store-and-forward of one datagram (the
        hub repeats bits, so it stores nothing)."""
        if self.topology == "hub":
            return 0.0
        return store_forward_us(self.params, user_bytes)

    def one_way(self, user_bytes: int, o_s: float, o_r: float) -> float:
        """Software + wire + delivery cost of one unicast datagram."""
        p = self.params
        nfrags = p.frames_for(user_bytes)
        return (o_s + p.per_frame_tx_us * (nfrags - 1)
                + datagram_wire_us(p, user_bytes)
                + self._switch(user_bytes)
                + p.prop_delay_us
                + p.per_frame_rx_us + p.mpi_match_us + o_r)

    def p2p_one_way(self, payload_bytes: int) -> float:
        """One MPI p2p message (TCP-ish costs + MPI envelope)."""
        p = self.params
        return self.one_way(payload_bytes + p.mpi_header,
                            p.tcp_send_us, p.tcp_recv_us)

    def scout_one_way(self) -> float:
        """One scout (UDP costs, no MPI matching)."""
        p = self.params
        return (p.udp_send_us + datagram_wire_us(p, SCOUT_BYTES)
                + self._switch(SCOUT_BYTES) + p.prop_delay_us
                + p.per_frame_rx_us + p.udp_recv_us)

    def mcast_one_way(self, payload_bytes: int,
                      control: bool = False) -> float:
        """One multicast datagram reaching the (slowest) receiver.

        ``control=True`` models the data-less barrier release, which
        skips the payload-handling extras.
        """
        p = self.params
        b = payload_bytes + MCAST_HEADER_BYTES
        nfrags = p.frames_for(b)
        extras = (0.0 if control
                  else p.mcast_send_extra_us + p.mcast_recv_extra_us)
        return (p.udp_send_us + extras
                + p.per_frame_tx_us * (nfrags - 1)
                + datagram_wire_us(p, b) + self._switch(b)
                + p.prop_delay_us + p.per_frame_rx_us + p.udp_recv_us)

    # -- collectives ---------------------------------------------------------
    def mpich_bcast(self, n: int, m: int) -> float:
        """Binomial-tree broadcast completion time.

        Completion of the slowest rank, computed by walking the binomial
        schedule: a parent sends to children sequentially (each send
        occupies it for ``o_s + gap``); the message then needs its wire +
        delivery time.  On the hub, all transmissions additionally share
        one wire, which adds full serialization of every copy.
        """
        if n <= 1:
            return 0.0
        p = self.params
        msg = m + p.mpi_header
        o_s = p.tcp_send_us + p.per_frame_tx_us * (p.frames_for(msg) - 1)
        rest = (datagram_wire_us(p, msg) + self._switch(msg)
                + p.prop_delay_us + p.per_frame_rx_us + p.mpi_match_us
                + p.tcp_recv_us)

        if self.topology == "switch":
            ready = self._binomial_schedule(n, o_s, rest)
            return max(ready.values())

        # Hub: every copy serializes on the shared wire.  The last copy
        # finishes after (n-1) wire times plus the pipeline of software
        # costs along the deepest tree path.
        depth = (n - 1).bit_length()
        return ((n - 1) * datagram_wire_us(p, msg)
                + depth * (o_s + p.per_frame_rx_us + p.mpi_match_us
                           + p.tcp_recv_us))

    def _binomial_schedule(self, n: int, o_s: float,
                           rest: float) -> dict[int, float]:
        """Exact no-contention schedule of the MPICH binomial bcast."""
        ready: dict[int, float] = {0: 0.0}
        order = [0]
        for r in order:
            t = ready[r]
            for src, child, _cover in binomial_walk(n, 0, r, True):
                if src == r:
                    t += o_s                    # sender occupies its CPU
                    ready[child] = t + rest     # then the message travels
                    order.append(child)
        return ready

    def mcast_bcast(self, n: int, m: int, variant: str = "binary") -> float:
        """Scout sync + one multicast."""
        if n <= 1:
            return 0.0
        if variant == "binary":
            steps = (n - 1).bit_length()
            sync = steps * self.scout_one_way()
        elif variant == "linear":
            p = self.params
            # Root consumes N-1 scouts; arrivals pipeline on the wire but
            # serialize in the root's receive path (recv + per-frame rx).
            per = p.udp_recv_us + p.per_frame_rx_us
            sync = (self.scout_one_way() + (n - 2) * per
                    if n > 1 else 0.0)
        else:
            raise ValueError(f"unknown variant {variant!r}")
        return sync + self.mcast_one_way(m)

    def mpich_barrier(self, n: int) -> float:
        """Three-phase barrier critical path (sync messages are empty)."""
        if n <= 1:
            return 0.0
        k = largest_power_of_two_leq(n)
        one = self.p2p_one_way(0)
        phases = (1 if n > k else 0) + k.bit_length() - 1 + (1 if n > k
                                                             else 0)
        return phases * one

    def mcast_barrier(self, n: int) -> float:
        if n <= 1:
            return 0.0
        steps = (n - 1).bit_length()
        return (steps * self.scout_one_way()
                + self.mcast_one_way(0, control=True))

    # -- crossover ---------------------------------------------------------
    def bcast_crossover_bytes(self, n: int, variant: str = "binary",
                              lo: int = 0, hi: int = 64000) -> int | None:
        """Smallest message size where multicast beats MPICH (None if
        never within [lo, hi])."""
        for m in range(lo, hi + 1, 50):
            if self.mcast_bcast(n, m, variant) < self.mpich_bcast(n, m):
                return m
        return None
