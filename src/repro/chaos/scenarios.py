"""The chaos scenario registry: named, seeded, injectable fault models.

Every scenario is a :class:`ScenarioSpec` — a name, a one-line summary,
whether a crisp typed failure is an accepted outcome (``may_fail``),
and an ``inject(cluster, rng)`` hook returning *heal* callables.  The
hooks use only the simulator's first-class fault seams:

* ``Host.frame_fate`` — receive-side datagram fate (burst loss);
* ``HalfLink.fault`` — wire-level frame fate (reorder via delay,
  duplication);
* ``Fabric.partition_trunk`` / ``Switch.power_off`` /
  ``Cluster.crash_host`` — topology faults, each returning its revert
  callable.

Timed faults go through :func:`timed_fault`, which arms the fault at a
simulation time, pairs it with a ``chaos_fault_begin``/``_end`` span on
the attached flight recorder (so hang dumps can tell injected faults
from protocol bugs), and returns an idempotent heal callable the
caller *must* invoke before teardown — a partitioned trunk would
otherwise block the IGMP leaves the leak sanitizer asserts on.

Data-plane scenarios touch only the ``LOSSY_KINDS`` frames: the segmented
multicast stream is the protocol under test, and it owns loss recovery,
reordering tolerance and duplicate suppression.  Control traffic
(scouts, p2p, IGMP) rides transports the paper's protocol *assumes* —
p2p has no dedup layer and IGMP joins are refcounted, so corrupting
those would fail runs for reasons no protocol here claims to survive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..simnet.udp import LOSSY_KINDS

__all__ = ["ScenarioSpec", "SCENARIOS", "register", "get",
           "names", "timed_fault"]


@dataclass(frozen=True)
class ScenarioSpec:
    """One adversarial fault model.

    ``inject(cluster, rng)`` installs the faults (called from
    ``run_spmd``'s ``on_cluster`` seam, before any rank starts) and
    returns heal callables; ``make_skew(rng, n)`` draws the per-rank
    start delays (µs) ``run_spmd`` takes as ``skew``; ``churn`` asks
    the fuzzer to wrap the op in a dup/bcast/free membership cycle.
    ``may_fail`` scenarios accept a crisp typed failure as a passing
    outcome; the rest must complete byte-correct.  ``needs_fabric``
    restricts the scenario to tiered ``tree:...`` topologies (it faults
    trunks).
    """

    name: str
    summary: str
    may_fail: bool
    needs_fabric: bool = False
    churn: bool = False
    inject: Optional[Callable] = None
    make_skew: Optional[Callable] = None


SCENARIOS: dict = {}


def register(spec: ScenarioSpec) -> ScenarioSpec:
    if spec.name in SCENARIOS:
        raise ValueError(f"duplicate chaos scenario {spec.name!r}")
    SCENARIOS[spec.name] = spec
    return spec


def get(name: str) -> ScenarioSpec:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown chaos scenario {name!r}; "
                       f"known: {names()}") from None


def names() -> List[str]:
    return sorted(SCENARIOS)


def timed_fault(cluster, name: str, t0_us: float, apply: Callable,
                dur_us: Optional[float] = None) -> Callable:
    """Arm ``apply()`` at simulation time ``t0_us``; return the heal.

    ``apply`` must return its revert callable — exactly the contract of
    ``partition_trunk`` / ``power_off`` / ``crash_host``.  The fault
    window is bracketed with ``chaos_fault_begin``/``chaos_fault_end``
    on the cluster's recorder (when one is attached), and healed either
    at ``t0_us + dur_us`` (transient faults) or when the returned heal
    callable runs (the fuzzer calls every heal before teardown).  Heal
    is idempotent, and arming after heal is a no-op — so a fault
    scheduled past the end of a short run can never fire into the
    teardown drain.
    """
    state = {"undo": None, "token": None, "done": False}

    def arm() -> None:
        if state["done"]:
            return
        rec = cluster.stats.recorder
        if rec is not None:
            state["token"] = rec.chaos_fault_begin(cluster.sim.now, name)
        state["undo"] = apply()

    def heal() -> None:
        if state["done"]:
            return
        state["done"] = True
        if state["undo"] is not None:
            state["undo"]()
        rec = cluster.stats.recorder
        if rec is not None and state["token"] is not None:
            rec.chaos_fault_end(cluster.sim.now, state["token"])

    cluster.sim.schedule_call(t0_us, arm)
    if dur_us is not None:
        cluster.sim.schedule_call(t0_us + dur_us, heal)
    return heal


# ------------------------------------------------------------ fate hooks
def _gilbert_fate(prng: random.Random, p_enter: float, p_exit: float,
                  p_drop: float) -> Callable:
    """Stateful two-state (Gilbert) burst-loss hook for
    ``Host.frame_fate``: good state drops nothing, bad state drops
    ``p_drop`` of the multicast data stream."""
    bad = False

    def fate(dgram):
        nonlocal bad
        if dgram.kind not in LOSSY_KINDS:
            return None
        if bad:
            if prng.random() < p_exit:
                bad = False
                return None
            return "drop" if prng.random() < p_drop else None
        if prng.random() < p_enter:
            bad = True
            return "drop"
        return None

    return fate


def _stall_fate(prng: random.Random, p: float, lo_us: float,
                hi_us: float) -> Callable:
    """``HalfLink.fault`` hook: FIFO-preserving bursty latency.

    A link occasionally stalls, and every data frame behind the stall
    queues after it — a physical link never reorders its *own* traffic,
    so delayed segments stay in per-link order while still arriving
    late relative to other links, after drain timeouts, and across
    round and turn boundaries.  That cross-link interleaving is where
    the adversarial reordering comes from.
    """
    release = 0.0

    def fate(frame, link):
        nonlocal release
        if frame.kind not in LOSSY_KINDS:
            return None
        now = link.sim.now
        if prng.random() < p:
            release = max(release, now) + prng.uniform(lo_us, hi_us)
        if release <= now:
            return None
        release += 1e-3   # strictly increasing: keeps the queue FIFO
        return ("delay", release - now)

    return fate


def _dup_fate(prng: random.Random, p: float) -> Callable:
    """``HalfLink.fault`` hook: deliver a fraction of the data stream
    twice — duplicate suppression is the reassembler's job."""

    def fate(frame, link):
        if frame.kind in LOSSY_KINDS and prng.random() < p:
            return "dup"
        return None

    return fate


def _access_links(cluster) -> list:
    """Both halves of every host access link, host-address order."""
    links = []
    for addr in sorted(cluster.host_links):
        up, down = cluster.host_links[addr]
        links.extend((up, down))
    return links


# --------------------------------------------------------- injections
def _inject_burst_loss(cluster, rng: random.Random) -> list:
    sub = random.Random(rng.randrange(2 ** 63))

    def apply():
        for host in cluster.hosts:
            host.frame_fate = _gilbert_fate(
                random.Random(sub.randrange(2 ** 63)),
                p_enter=0.03, p_exit=0.3, p_drop=0.9)

        def revert():
            for host in cluster.hosts:
                host.frame_fate = None

        return revert

    return [timed_fault(cluster, "burst-loss", 0.0, apply)]


def _inject_reorder(cluster, rng: random.Random) -> list:
    sub = random.Random(rng.randrange(2 ** 63))

    def apply():
        links = _access_links(cluster)
        for link in links:
            link.fault = _stall_fate(
                random.Random(sub.randrange(2 ** 63)),
                p=0.12, lo_us=40.0, hi_us=900.0)

        def revert():
            for link in links:
                link.fault = None

        return revert

    return [timed_fault(cluster, "reorder", 0.0, apply)]


def _inject_duplicate(cluster, rng: random.Random) -> list:
    sub = random.Random(rng.randrange(2 ** 63))

    def apply():
        links = _access_links(cluster)
        for link in links:
            link.fault = _dup_fate(
                random.Random(sub.randrange(2 ** 63)), p=0.10)

        def revert():
            for link in links:
                link.fault = None

        return revert

    return [timed_fault(cluster, "duplicate", 0.0, apply)]


def _inject_trunk_flap(cluster, rng: random.Random) -> list:
    fabric = cluster.fabric
    paths = sorted(fabric.trunks)
    path = paths[rng.randrange(len(paths))]
    t0 = rng.uniform(800.0, 4000.0)
    dur = rng.uniform(1200.0, 5000.0)
    return [timed_fault(cluster, f"trunk-flap:{path}", t0,
                        lambda: fabric.partition_trunk(path), dur_us=dur)]


def _inject_trunk_partition(cluster, rng: random.Random) -> list:
    fabric = cluster.fabric
    paths = sorted(fabric.trunks)
    path = paths[rng.randrange(len(paths))]
    t0 = rng.uniform(800.0, 4000.0)
    return [timed_fault(cluster, f"trunk-partition:{path}", t0,
                        lambda: fabric.partition_trunk(path))]


def _inject_switch_death(cluster, rng: random.Random) -> list:
    if cluster.fabric is not None:
        nodes = [cluster.fabric.nodes[key]
                 for key in sorted(cluster.fabric.nodes)]
    else:
        nodes = [cluster.switch]
    victim = nodes[rng.randrange(len(nodes))]
    t0 = rng.uniform(800.0, 4000.0)
    return [timed_fault(cluster, f"switch-death:{victim.name}", t0,
                        victim.power_off)]


def _inject_host_crash(cluster, rng: random.Random) -> list:
    addrs = sorted(cluster.host_links)
    victim = addrs[rng.randrange(len(addrs))]
    t0 = rng.uniform(800.0, 4000.0)
    return [timed_fault(cluster, f"host-crash:{victim}", t0,
                        lambda: cluster.crash_host(victim))]


def _make_skew_storm(rng: random.Random, n: int) -> list[float]:
    delays = [0.0] * n
    for rank in rng.sample(range(n), max(1, n // 2)):
        delays[rank] = rng.uniform(20_000.0, 150_000.0)
    return delays


# ------------------------------------------------------------ registry
register(ScenarioSpec(
    "baseline",
    "no faults at all — the fuzzer's control group",
    may_fail=False))

register(ScenarioSpec(
    "burst-loss",
    "Gilbert bursty receive loss of the multicast data stream on "
    "every host",
    may_fail=True, inject=_inject_burst_loss))

register(ScenarioSpec(
    "reorder",
    "randomly delay data frames on the access links so segments "
    "arrive out of order and across round boundaries",
    may_fail=False, inject=_inject_reorder))

register(ScenarioSpec(
    "duplicate",
    "deliver a fraction of the data stream twice on the access links",
    may_fail=False, inject=_inject_duplicate))

register(ScenarioSpec(
    "skew-storm",
    "half the ranks start tens of milliseconds late (pathological "
    "startup skew)",
    may_fail=False, make_skew=_make_skew_storm))

register(ScenarioSpec(
    "churn",
    "membership churn: dup a communicator, run traffic on it, free "
    "it, then run the op again",
    may_fail=False, churn=True))

register(ScenarioSpec(
    "trunk-flap",
    "partition one fabric trunk mid-collective, heal it a few "
    "milliseconds later",
    may_fail=True, needs_fabric=True, inject=_inject_trunk_flap))

register(ScenarioSpec(
    "trunk-partition",
    "permanently partition one fabric trunk mid-collective",
    may_fail=True, needs_fabric=True, inject=_inject_trunk_partition))

register(ScenarioSpec(
    "switch-death",
    "a switch (leaf, spine or the flat switch) dies mid-collective",
    may_fail=True, inject=_inject_switch_death))

register(ScenarioSpec(
    "host-crash",
    "one host's access link goes silent mid-collective (fail-stop "
    "crash)",
    may_fail=True, inject=_inject_host_crash))
