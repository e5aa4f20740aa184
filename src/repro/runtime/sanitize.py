"""Deterministic-sim leak sanitizer (``REPRO_SANITIZE=1``).

The static side of the leak story lives in :mod:`repro.lint` (rule
LEAK01: every acquire needs a reachable release).  This module is the
*dynamic* side: with the environment variable ``REPRO_SANITIZE`` set,
:func:`repro.runtime.program.run_spmd` checks the cluster for leaked
transport state, in two phases:

1. **quiesce check** (non-destructive, right after the run completes):
   no socket may hold posted receive descriptors beyond its standing
   progress daemon, and the three membership ledgers — per-socket
   joined groups, the IP stack's refcounts, the NIC's hardware filter
   refcounts — must agree exactly;
2. **full teardown** (destructive, at test teardown via the autouse
   fixture in ``tests/conftest.py``): free every communicator, close
   every endpoint, run the event loop dry, then assert that no socket
   is bound, every membership ledger is empty, every switch in the
   fabric has forgotten every snooped group, and the event heap is
   drained.

Violations raise :class:`LeakError` with every finding listed, so a
leak introduced anywhere in the stack fails tier-1 loudly instead of
silently distorting later measurements.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterator, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.world import MpiWorld
    from ..simnet.topology import Cluster

__all__ = ["LeakError", "sanitize_enabled", "check_quiesced",
           "full_teardown", "forced_teardown", "register_for_teardown",
           "drain_pending", "SANITIZE_ENV"]

#: environment variable that arms the sanitizer
SANITIZE_ENV = "REPRO_SANITIZE"


class LeakError(AssertionError):
    """Leaked transport state detected by the sanitizer."""


def sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` is set to a truthy value."""
    return os.environ.get(SANITIZE_ENV, "").strip().lower() in (
        "1", "true", "yes", "on")


def _switches(cluster: "Cluster") -> Iterator:
    if cluster.switch is not None:
        yield cluster.switch
    if cluster.fabric is not None:
        yield from cluster.fabric.nodes.values()


def _membership_problems(cluster: "Cluster") -> List[str]:
    """Cross-check the three membership ledgers on every host."""
    problems: List[str] = []
    for host in cluster.hosts:
        stack = host.ipstack
        expect: dict[int, int] = {}
        for sock in stack._sockets.values():
            for group in sock._groups:
                expect[group] = expect.get(group, 0) + 1
        if expect != stack._memberships:
            problems.append(
                f"{host.name}: IP-stack membership refcounts "
                f"{stack._memberships!r} != union of socket joins "
                f"{expect!r}")
        if stack._memberships != host.nic._mcast_refs:
            problems.append(
                f"{host.name}: NIC filter refcounts "
                f"{host.nic._mcast_refs!r} != IP-stack refcounts "
                f"{stack._memberships!r}")
    return problems


def check_quiesced(cluster: "Cluster") -> None:
    """Phase 1: a *completed* run must have consumed or cancelled every
    posted receive (the MPI progress daemon's one standing descriptor
    excepted) and kept the membership ledgers consistent."""
    from ..mpi.p2p import MPI_PORT

    problems: List[str] = []
    for host in cluster.hosts:
        for port in sorted(host.ipstack._sockets):
            sock = host.ipstack._sockets[port]
            limit = 1 if port == MPI_PORT else 0
            depth = sock.posted_depth
            if depth > limit:
                problems.append(
                    f"{host.name}: socket :{port} quiesced with {depth} "
                    f"posted receive(s), expected at most {limit} — a "
                    f"collective posted descriptors it neither consumed "
                    f"nor withdrew (ring.close())")
    problems.extend(_membership_problems(cluster))
    if problems:
        raise LeakError(
            "sanitizer: leaked state at quiesce:\n  "
            + "\n  ".join(problems))


def full_teardown(cluster: "Cluster", world: "MpiWorld") -> None:
    """Phase 2: tear the job down and assert nothing survives.

    Frees every communicator the world handed out (emitting the IGMP
    leaves), closes every endpoint, runs the event loop dry, then
    checks hosts, NICs, every switch, and the event heap are empty.
    """
    world.shutdown()
    cluster.sim.run()          # drain close/leave propagation
    _assert_torn_down(cluster)


def forced_teardown(cluster: "Cluster", world: "MpiWorld") -> None:
    """Teardown for a run that *failed* (a rank raised, a deadline cut
    it off, a deadlock tripped): the same end state as
    :func:`full_teardown`, reached tolerantly.

    Shutting the world down fails the posted receives of every rank
    still blocked mid-collective, so those generators die with
    :class:`~repro.simnet.udp.SocketClosed` (or their original error)
    as the event loop drains — each such crash aborts ``sim.run()``,
    so we keep draining until the heap is empty.  The chaos fuzzer
    (:mod:`repro.chaos.fuzz`) runs this after every crisp-failure case
    before asserting the leak ledgers, so "fails crisply" still means
    "leaks nothing".  Callers must restore any injected faults first
    (heal trunks, revive switches) or the IGMP leaves cannot propagate
    and the switch ledgers legitimately fail.
    """
    from ..simnet.kernel import DeadlockError

    world.shutdown()
    for _ in range(10_000):    # bounded: each iteration kills >= 1 process
        try:
            cluster.sim.run()
            break
        except DeadlockError:
            break              # heap drained, only wedged processes left
        except Exception:
            continue           # a dying rank's last gasp; keep draining
    _assert_torn_down(cluster)


def _assert_torn_down(cluster: "Cluster") -> None:
    """The shared post-teardown ledger assertions."""
    problems: List[str] = []
    for host in cluster.hosts:
        stack = host.ipstack
        if stack._sockets:
            problems.append(
                f"{host.name}: sockets still bound after teardown: "
                f"ports {sorted(stack._sockets)}")
        if stack._memberships:
            problems.append(
                f"{host.name}: residual IP-stack memberships "
                f"{stack._memberships!r}")
        if host.nic._mcast_refs:
            problems.append(
                f"{host.name}: residual NIC filter refcounts "
                f"{host.nic._mcast_refs!r}")
    for switch in _switches(cluster):
        stale = sorted(g for g in switch._mcast_table
                       if switch.members_of(g))
        if stale:
            problems.append(
                f"switch {switch.name}: snooped members remain for "
                f"groups {stale} — somebody skipped an IGMP leave")
    pending = len(cluster.sim._heap)
    if pending:
        problems.append(
            f"event heap not drained: {pending} "
            f"entries remain after teardown")
    if problems:
        raise LeakError(
            "sanitizer: leaked state after teardown:\n  "
            + "\n  ".join(problems))


# -- deferred-teardown registry ---------------------------------------
#
# run_spmd returns the live cluster to its caller (RunResult exposes it
# for inspection), so the destructive phase cannot run inline.  Runs
# register here; the autouse fixture in tests/conftest.py drains the
# list after each test and tears every registered run down.

_pending: List[Tuple["Cluster", "MpiWorld"]] = []


def register_for_teardown(cluster: "Cluster", world: "MpiWorld") -> None:
    _pending.append((cluster, world))


def drain_pending() -> List[Tuple["Cluster", "MpiWorld"]]:
    """Hand the registered runs to the caller and clear the registry."""
    items = list(_pending)
    _pending.clear()
    return items
