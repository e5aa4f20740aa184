"""The simulated host's IP layer swapped for real loopback UDP sockets.

:class:`LoopbackStack` replaces exactly the two places where a host's
:class:`~repro.simnet.ipstack.IpStack` touches the simulated wire:
``send_datagram`` pickles the :class:`~repro.simnet.ip.Datagram` into ONE
real datagram — unicast to the peer's loopback port, or to a 239.x.y.z
group derived from the simulated group id — and ``_send_igmp`` performs
the real ``IP_ADD_MEMBERSHIP`` / ``IP_DROP_MEMBERSHIP``.  Everything
above IP (``UdpSocket`` with its posted-only discipline, ``McastChannel``,
scouts, the round engine, p2p, dispatch, policy) runs unmodified.

:func:`run_loopback` is :func:`repro.runtime.run_spmd`'s second launcher
for the same ``main(env)`` generators: it boots the same MPI world and
pumps the event kernel against the wall clock, scheduling every datagram
the real sockets receive into the stack whose socket got it.
"""

from __future__ import annotations

import contextlib
import io
import pickle
import random
import select
import socket
import time
from typing import Any, Callable, Optional

from ..mpi.world import MpiWorld
from ..runtime import RankEnv, RunResult
from ..simnet import (Datagram, Host, NetParams, Simulator, build_cluster,
                      is_group_addr)
from ..simnet.frame import MCAST_BASE
from ..simnet.ipstack import IpStack

__all__ = ["LoopbackStack", "decode", "encode", "multicast_available",
           "run_loopback"]

LOOPBACK = "127.0.0.1"
MAGIC = b"MC"          #: guards against stray traffic on a reused port
MAX_DGRAM = 60000      #: one UDP datagram on loopback; we never fragment
#: zero-copy ``memoryview`` segment chunks leave the process as bytes
_REDUCERS = {memoryview: lambda view: (bytes, (view.tobytes(),))}

# Python's per-event cost is not in the model, so sim-µs are stretched:
# at 1 wall-µs per sim-µs a follower's drain timer (the engine's 250 µs
# seg_drain_floor_us) outruns data still queued in the kernel and NACKs
# it — docs/CHAOS.md's premature-NACK livelock.  30 loss-free runs of six
# mcast-seg collectives on 6 ranks beside two busy-loop processes
# retransmitted 623 / 22 / 0 datagrams spuriously at 1x / 5x / 20x (idle
# box: 9 / 3 / 3); none aborted with McastLost.
WALL_US_PER_SIM_US = 20.0


def encode(dgram: Datagram, mcast_loop: bool = True) -> bytes:
    """Serialize a datagram and its sending socket's ``IP_MULTICAST_LOOP``
    flag; raises if the result exceeds one UDP datagram."""
    buf = io.BytesIO()
    buf.write(MAGIC)
    pickler = pickle.Pickler(buf, pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = _REDUCERS
    pickler.dump((dgram, mcast_loop))
    raw = buf.getvalue()
    if len(raw) > MAX_DGRAM:
        raise ValueError(
            f"payload too large for one datagram: {len(raw)} bytes "
            f"(max {MAX_DGRAM}); the loopback backend does not fragment")
    return raw


def decode(raw: bytes, src_ip: str) -> tuple[Datagram, bool]:
    """Parse what :func:`encode` wrote; ``ValueError`` for anything else.

    The multicast sockets are wildcard-bound, so whoever can reach the
    port can send to it: nothing is unpickled unless the kernel says it
    came from this machine (``IP_MULTICAST_IF`` = loopback and TTL 0
    make 127.0.0.1 the source of every datagram we send).
    """
    if src_ip != LOOPBACK:
        raise ValueError(f"datagram from foreign host {src_ip}")
    if len(raw) <= len(MAGIC) or not raw.startswith(MAGIC):
        raise ValueError(f"short or foreign datagram: {raw[:8]!r}")
    return pickle.loads(raw[len(MAGIC):])


def _group_ip(group: int) -> str:
    gid = group - MCAST_BASE
    return f"239.{gid >> 16 & 255}.{gid >> 8 & 255}.{gid & 255}"


class LoopbackStack(IpStack):
    """One host's IP stack whose wire is the kernel's loopback interface.

    ``peers`` (host address -> real unicast port) is shared by every
    stack of a run; ``mcast_port`` is the run's one real multicast port.
    """

    def __init__(self, host: Host, peers: dict[int, int], mcast_port: int):
        super().__init__(host)
        self.peers = peers
        self.mcast_port = mcast_port
        #: sends everything, receives unicast
        self.uni = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        #: receives the groups this host joined
        self.mcast = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self.uni.bind((LOOPBACK, 0))
            for opt, value in ((socket.IP_MULTICAST_IF,
                                socket.inet_aton(LOOPBACK)),
                               (socket.IP_MULTICAST_LOOP, 1),
                               (socket.IP_MULTICAST_TTL, 0)):
                self.uni.setsockopt(socket.IPPROTO_IP, opt, value)
            self.mcast.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self.mcast.bind(("", mcast_port))
        except OSError:
            self.close()
            raise
        peers[host.addr] = self.uni.getsockname()[1]

    def send_datagram(self, dgram: Datagram, mcast_loop: bool = True) -> None:
        self.stats.datagrams_sent += 1
        if is_group_addr(dgram.dst):
            dest = (_group_ip(dgram.dst), self.mcast_port)
        else:
            dest = (LOOPBACK, self.peers[dgram.dst])
        self.uni.sendto(encode(dgram, mcast_loop), dest)

    def _send_igmp(self, op: str, group: int) -> None:
        self.mcast.setsockopt(
            socket.IPPROTO_IP,
            socket.IP_ADD_MEMBERSHIP if op == "join"
            else socket.IP_DROP_MEMBERSHIP,
            socket.inet_aton(_group_ip(group)) + socket.inet_aton(LOOPBACK))

    def close(self) -> None:
        self.uni.close()
        self.mcast.close()


def multicast_available(timeout_s: float = 2.0) -> bool:
    """Probe: does a two-rank multicast broadcast complete on this host?
    (Some containers and CI sandboxes drop IGMP; the ``realnet`` tests
    skip themselves where they do.)"""
    def main(env: RankEnv):
        return (yield from env.comm.bcast(b"probe", 0))

    try:
        run_loopback(2, main, {"bcast": "mcast-binary"}, timeout_s=timeout_s)
    except OSError:         # a refused join, or the TimeoutError of a
        return False        # multicast that never arrived
    return True


def run_loopback(n: int, main: Callable[[RankEnv], Any],
                 collectives: Optional[dict[str, str]] = None,
                 params: Optional[NetParams] = None,
                 seed: Optional[int] = None,
                 timeout_s: float = 30.0) -> RunResult:
    """Run ``main`` as an ``n``-rank SPMD program over real loopback UDP.

    Same ``main(env)``, ``collectives`` and result type as
    :func:`~repro.runtime.run_spmd`.  A rank's exception propagates;
    ranks still running after ``timeout_s`` raise :class:`TimeoutError`
    naming them.  The world is shut down and every real socket closed on
    every exit.
    """
    # the same hosts run_spmd(n, main, "switch", params, seed) builds; the
    # simulated switch they are wired to stays idle under the swapped stacks
    cluster = build_cluster(n, "switch", params, seed)
    sim, hosts = cluster.sim, cluster.hosts
    mcast_port = random.Random(seed).randrange(30000, 60000)
    peers: dict[int, int] = {}
    with contextlib.ExitStack() as cleanup:     # unwinds last-in first-out
        for host in hosts:
            host.ipstack = LoopbackStack(host, peers, mcast_port)
            cleanup.callback(host.ipstack.close)
        world = MpiWorld(cluster)
        cleanup.callback(world.shutdown)
        envs = []
        for rank, host in enumerate(hosts):
            comm = world.comm_world(rank).use_collectives(
                **(collectives or {}))
            envs.append(RankEnv(rank, n, comm, host, sim))

        def rank_program(env: RankEnv):
            yield from env.comm._setup()
            return (yield from main(env))

        procs = [sim.process(rank_program(env), name=f"rank{env.rank}")
                 for env in envs]
        _pump(sim, hosts, procs, timeout_s)
        return RunResult(returns=[proc.value for proc in procs],
                         records=[env.records for env in envs],
                         sim_time_us=sim.now,
                         stats=cluster.stats.snapshot(),
                         cluster=cluster, world=world)


def _pump(sim: Simulator, hosts: list[Host], procs: list,
          timeout_s: float) -> None:
    """Advance the kernel with the wall clock until every rank returned,
    scheduling each real arrival into the stack whose socket got it."""
    owner = {sock: host.ipstack for host in hosts
             for sock in (host.ipstack.uni, host.ipstack.mcast)}
    start = time.monotonic()
    while any(proc.is_alive for proc in procs):
        elapsed = time.monotonic() - start
        if elapsed > timeout_s:
            raise TimeoutError(
                f"ranks did not finish within {timeout_s:.1f}s: "
                + ", ".join(p.name for p in procs if p.is_alive))
        wall = elapsed * 1e6 / WALL_US_PER_SIM_US
        sim.run(until=wall)
        idle_s = (sim.peek() - wall) * WALL_US_PER_SIM_US / 1e6
        for sock in select.select(list(owner), [], [],
                                  min(max(idle_s, 0.0), 0.05))[0]:
            raw, (src_ip, _port) = sock.recvfrom(MAX_DGRAM)
            try:
                dgram, mcast_loop = decode(raw, src_ip)
            except ValueError:
                continue        # stray datagram on a reused port
            stack = owner[sock]
            # real IP_MULTICAST_LOOP is per machine, the model's per socket
            if mcast_loop or dgram.src != stack.host.addr:
                sim.schedule_at(wall, stack._deliver_datagram, dgram)
