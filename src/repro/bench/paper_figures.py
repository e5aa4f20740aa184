"""The ``paper-figures`` sweep area: the paper's Figs. 7–13, and this
repo's ablations around them, read off ONE measured grid.

The *measurement* is taken once with the paper's §4 protocol
(:mod:`repro.bench.harness`; 20 repetitions per point):
``curve[platform, topology, nprocs, impl]`` — one ``run_spmd`` per
curve sweeping :data:`PAPER_SIZES`, the 20 distinct curves every
latency figure is drawn from; ``barrier[impl, nprocs]`` over the hub;
``framecounts[n, m]`` — §3's closed forms beside the frames one quiet
broadcast really sends; ``overrun[payload, budget]`` / ``paced[payload]``
— §5's many-to-many receiver overrun and its rank-ordered cure.

The *figures* are the postconditions: each asserts the paper's
*qualitative* claims (who wins, where the crossover falls, what scales
with what) — absolute µs belong to the authors' testbed, shapes to the
algorithms.  Figs. 11 and 12 measure nothing of their own.  Both scales
run the same families (the paper's 20 reps × 11 sizes cost seconds), so
the committed ``BENCH_paper-figures.json`` *is* the reproduction;
``docs/BENCHMARKS.md`` maps each figure to its postcondition and series.
"""

from __future__ import annotations

from ..analysis.framecount import (model_mcast_bcast_frames,
                                   model_p2p_frames,
                                   paper_mcast_barrier_messages,
                                   paper_mcast_bcast_frames,
                                   paper_mpich_barrier_messages,
                                   paper_mpich_bcast_frames)
from ..core.mcast_allgather import allgather_mcast_unpaced
from ..runtime import run_spmd
from ..simnet import quiet
from ..simnet.calibration import FAST_ETHERNET_SWITCH, VIA_SWITCH
from .harness import measure
from .report import crossover
from .sweep import AreaSpec, Family, find_series, metric, register_area

__all__ = ["PAPER_SIZES"]

#: the paper sweeps message sizes 0..5000 bytes
PAPER_SIZES = [0, 500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000]
#: repetitions per point ("20 to 30 different experiments", §4)
REPS = 20
MPICH, LINEAR, BINARY = "p2p-binomial", "mcast-linear", "mcast-binary"
#: platform axis -> NetParams (``None``: the topology's kernel-UDP default)
PLATFORMS = {"udp": None, "via": VIA_SWITCH}
QUIET = quiet(FAST_ETHERNET_SWITCH)
OVERRUN_N = 8
OVERRUN_PAYLOADS = (100, 500, 1500)
OVERRUN_BUDGETS = (1, 2, 4, 7)


def _stat(stat: str, size: int) -> str:
    return f"latency_us_{stat}_{size:04d}"


# ---------------------------------------------------------------------------
# the measured grid
# ---------------------------------------------------------------------------
def curve_case(scale, seed, platform, topology, nprocs, impl):
    """One broadcast curve: median/min/max of the slowest rank per size."""
    series = measure("bcast", impl, topology, nprocs, PAPER_SIZES,
                     reps=REPS, seed=seed, params=PLATFORMS[platform])
    out = {}
    for size in PAPER_SIZES:
        out[_stat("median", size)] = series.median(size)
        out[_stat("min", size)], out[_stat("max", size)] = series.spread(size)
    return out


def barrier_case(scale, seed, impl, nprocs):
    series = measure("barrier", impl, "hub", nprocs, [0], reps=REPS,
                     seed=seed)
    lo, hi = series.spread(0)
    return {"latency_us_median": series.median(0),
            "latency_us_min": lo, "latency_us_max": hi}


def _bcast_frames(impl, n, m, seed) -> dict:
    """``frames_by_kind`` of ONE quiet broadcast, MPI_Init excluded."""
    def main(env):
        yield env.sim.timeout(max(0.0, 50_000.0 - env.sim.now))
        before = env.host.stats.snapshot()
        yield from env.comm.bcast(bytes(m) if env.rank == 0 else None, 0)
        return before

    result = run_spmd(n, main, params=QUIET, seed=seed,
                      collectives={"bcast": impl})
    return result.cluster.stats.diff(result.returns[0])["frames_by_kind"]


def framecounts_case(scale, seed, n, m):
    """§3's counts: the paper's idealized formulas, the header-aware
    model, and what the simulator's frame counters say."""
    scouts, data = model_mcast_bcast_frames(QUIET, n, m)
    mcast = _bcast_frames(BINARY, n, m, seed)
    return {
        "paper_mpich_bcast": paper_mpich_bcast_frames(n, m),
        "paper_mcast_bcast": paper_mcast_bcast_frames(n, m),
        "model_mpich_bcast": model_p2p_frames("bcast", (0,) * n, 0, m,
                                              QUIET)[0],
        "model_mcast_scouts": scouts,
        "model_mcast_data": data,
        "mpich_barrier_msgs": paper_mpich_barrier_messages(n),
        "mcast_barrier_msgs": sum(paper_mcast_barrier_messages(n)),
        "frames_mpich_p2p": _bcast_frames(MPICH, n, m, seed).get("p2p", 0),
        "frames_mcast_scout": mcast.get("scout", 0),
        "frames_mcast_data": mcast.get("mcast-data", 0),
    }


def overrun_case(scale, seed, payload, budget):
    """Contributions lost by an unpaced 8-rank multicast allgather with
    ``budget`` pre-posted receive descriptors per rank."""
    def main(env):
        _results, lost = yield from allgather_mcast_unpaced(
            env.comm, bytes(payload), descriptors=budget)
        return lost

    result = run_spmd(OVERRUN_N, main, params=QUIET, seed=seed)
    return {"lost": sum(result.returns)}


def paced_case(scale, seed, payload):
    """The rank-ordered cure: the registered ``mcast-seg-paced``."""
    def main(env):
        env.comm.use_collectives(allgather="mcast-seg-paced")
        t0 = env.now
        out = yield from env.comm.allgather(bytes(payload))
        assert len(out) == OVERRUN_N
        return env.now - t0

    result = run_spmd(OVERRUN_N, main, params=QUIET, seed=seed)
    return {"drops_not_posted": result.stats["drops_not_posted"],
            "latency_us": max(result.returns)}


def _families(scale):
    def curves(platform, topology, nprocs, impls):
        return Family("curve", {"platform": (platform,),
                                "topology": (topology,),
                                "nprocs": nprocs, "impl": impls}, curve_case)

    return [
        curves("udp", "hub", (4,), (MPICH, LINEAR, BINARY)),
        curves("udp", "switch", (4, 6, 9), (MPICH, LINEAR, BINARY)),
        curves("udp", "switch", (6,), ("mcast-ack", "mcast-sequencer")),
        curves("udp", "switch", (3,), (MPICH, LINEAR)),
        curves("via", "switch", (4, 9), (MPICH, BINARY)),
        Family("barrier", {"impl": ("p2p-mpich", "mcast"),
                           "nprocs": tuple(range(2, 10))}, barrier_case),
        Family("framecounts", {"n": tuple(range(2, 10)),
                               "m": (0, 1500, 3000, 5000)}, framecounts_case),
        Family("overrun", {"payload": OVERRUN_PAYLOADS,
                           "budget": OVERRUN_BUDGETS}, overrun_case),
        Family("paced", {"payload": OVERRUN_PAYLOADS}, paced_case),
    ]


# ---------------------------------------------------------------------------
# the figures: the paper's claims as postconditions over the grid
# ---------------------------------------------------------------------------
class _Curve:
    """One ``curve`` series, read the way a figure reads a
    :class:`~repro.bench.harness.Series` (so ``crossover`` applies)."""

    sizes = PAPER_SIZES

    def __init__(self, doc, topology, nprocs, impl, platform="udp"):
        self.impl = impl
        self._metrics = find_series(
            doc, "curve", platform=platform, topology=topology,
            nprocs=nprocs, impl=impl)["metrics"]

    def median(self, size: int) -> float:
        return self._metrics[_stat("median", size)]


def _mcast_wins(doc, fig, topology, nprocs, factor, xmax):
    """What Figs. 7-10 share: both multicast variants finish 5000 B
    under ``factor`` x MPICH's time and start winning by ``xmax`` B."""
    mpich, linear, binary = (_Curve(doc, topology, nprocs, impl)
                             for impl in (MPICH, LINEAR, BINARY))
    for mcast in (linear, binary):
        assert mcast.median(5000) < factor * mpich.median(5000), \
            f"{fig}: {mcast.impl} under {factor}x MPICH at 5000 B"
        x = crossover(mcast, mpich)
        assert x is not None and x <= xmax, \
            f"{fig}: {mcast.impl} crossover at or below {xmax} B, got {x}"
    return mpich, linear, binary


def fig7(doc):
    """MPI_Bcast, 4 processes, Fast Ethernet **hub**."""
    mpich, linear, binary = _mcast_wins(doc, "fig7", "hub", 4, 0.75, 2000)
    # Small messages: scout cost makes multicast slower, so the
    # crossover falls inside the paper's "about one frame" zone (0 < x).
    for mcast in (linear, binary):
        assert mpich.median(0) < mcast.median(0), \
            f"fig7: MPICH beats {mcast.impl} at 0 B (scout cost)"
    # MPICH's slope over the sweep far exceeds multicast's: it sends
    # N-1 = 3 copies of every extra byte.
    assert (mpich.median(5000) - mpich.median(0)
            > 2.0 * (binary.median(5000) - binary.median(0))), \
        "fig7: MPICH's slope over 2x mcast-binary's"


def fig8(doc):
    """The same three curves over the store-and-forward **switch**."""
    mpich, _, binary = _mcast_wins(doc, "fig8", "switch", 4, 0.8, 2000)
    assert mpich.median(0) < binary.median(0), \
        "fig8: MPICH beats mcast-binary at 0 B"


def fig9(doc):
    """6 processes, switch: the win exceeds the 4-process one (MPICH
    pays 5 copies here)."""
    mpich, _, binary = _mcast_wins(doc, "fig9", "switch", 6, 0.7, 1500)
    assert mpich.median(5000) / binary.median(5000) > 1.6, \
        "fig9: MPICH / mcast-binary over 1.6 at 5000 B"


def fig10(doc):
    """9 processes, switch (the full cluster): the gap is widest, and
    binary's log-depth sync beats linear's N-1 sequential root receives
    at every size — the ordering the paper's step counts anticipate."""
    _, linear, binary = _mcast_wins(doc, "fig10", "switch", 9, 0.55, 1000)
    for size in binary.sizes:
        assert binary.median(size) <= linear.median(size) * 1.05, \
            f"fig10: mcast-binary within 1.05x mcast-linear at {size} B"


def fig11(doc):
    """Hub vs switch, 4 processes, MPICH vs mcast-binary.  (Paper: the
    MPICH curves cross near 3000 B; here they converge near the top of
    the 5 kB sweep — a recorded quantitative deviation.)"""
    mpich_hub, mpich_sw, mcast_hub, mcast_sw = (
        _Curve(doc, topology, 4, impl) for impl in (MPICH, BINARY)
        for topology in ("hub", "switch"))
    # Multicast: a hub repeats bits with no store-and-forward penalty,
    # so it is strictly better than the switch at every size.
    for size in mcast_hub.sizes:
        assert mcast_hub.median(size) < mcast_sw.median(size), \
            f"fig11: mcast-binary faster on the hub than the switch at " \
            f"{size} B"
    # MPICH: hub clearly better at small sizes ...
    for size in (0, 1000):
        assert mpich_hub.median(size) < mpich_sw.median(size), \
            f"fig11: MPICH faster on the hub than the switch at {size} B"
    # ... but its one collision domain must serialize every copy of a
    # large message: the advantage shrinks toward the crossover.
    assert (mpich_sw.median(5000) - mpich_hub.median(5000)
            < 0.4 * (mpich_sw.median(500) - mpich_hub.median(500))), \
        "fig11: MPICH's hub advantage at 5000 B under 0.4x its 500 B one"
    # Multicast-over-hub is the best configuration overall from one
    # frame up (the paper's headline for this figure).
    for size in (1500, 3000, 5000):
        for other in (mpich_hub, mpich_sw, mcast_sw):
            assert mcast_hub.median(size) < other.median(size), \
                f"fig11: mcast-binary on the hub is the best at {size} B"


def fig12(doc):
    """Scaling 3/6/9 processes over the switch: "With the linear
    implementation, the extra cost for additional processes is nearly
    constant with respect to message size.  This is not true for
    MPICH." """
    mpich3, mpich9, lin3, lin9 = (
        _Curve(doc, "switch", n, impl) for impl in (MPICH, LINEAR)
        for n in (3, 9))
    # Linear multicast: more scouts, same single payload.
    lin_gap_small = lin9.median(0) - lin3.median(0)
    lin_gap_large = lin9.median(5000) - lin3.median(5000)
    assert lin_gap_small > 0, "fig12: mcast-linear costs more at 9 than 3"
    assert 0.5 < lin_gap_large / lin_gap_small < 1.5, \
        "fig12: mcast-linear's 9-vs-3 gap flat in message size"
    # MPICH: more payload copies per byte.
    assert (mpich9.median(5000) - mpich3.median(5000)
            > 2.5 * (mpich9.median(0) - mpich3.median(0))), \
        "fig12: MPICH's 9-vs-3 gap at 5000 B over 2.5x its 0 B one"
    for size in (500, 1000, 2500, 5000):
        assert lin9.median(size) < mpich9.median(size), \
            f"fig12: mcast-linear beats MPICH at 9 processes, {size} B"


def fig13(doc):
    """MPI_Barrier over the hub, 2-9 processes: binary scout reduction +
    one empty multicast release vs the 3-phase MPICH barrier."""
    def mpich(n):
        return metric(doc, "barrier", "latency_us_median",
                      impl="p2p-mpich", nprocs=n)

    def mcast(n):
        return metric(doc, "barrier", "latency_us_median", impl="mcast",
                      nprocs=n)

    # Multicast wins at every process count from 3 up (2 is a near-tie:
    # one sendrecv vs scout+release).
    for n in range(3, 10):
        assert mcast(n) < mpich(n), \
            f"fig13: multicast barrier beats MPICH at {n} processes"
    assert mcast(2) < mpich(2) * 1.35, \
        "fig13: multicast barrier within 1.35x MPICH at 2 processes"
    assert mpich(9) - mcast(9) > mpich(3) - mcast(3), \
        "fig13: the barrier gap grows from 3 to 9 processes"
    # ~Logarithmic scaling: 4 -> 8 procs adds one scout level, far less
    # than MPICH's added phases/messages.
    assert mcast(8) - mcast(4) < mpich(8) - mpich(4) + 120.0, \
        "fig13: multicast barrier's 4->8 growth under MPICH's + 120 us"


def ablation_reliability(doc):
    """Scouted sync vs PVM-style ack vs Orca-style sequencer (§2/§5),
    6 processes, switch.  The paper dismisses the ack approach because
    it "did not produce improvement in performance"."""
    mpich, linear, binary, ack, seq = (
        _Curve(doc, "switch", 6, impl) for impl in
        (MPICH, LINEAR, BINARY, "mcast-ack", "mcast-sequencer"))

    def best_scout(size):
        return min(binary.median(size), linear.median(size))

    for size in (1000, 2000, 4000):
        assert best_scout(size) < mpich.median(size), \
            f"ablation: scouted multicast beats MPICH at {size} B"
    # The ack scheme ties the scouts within noise at every size: its N-1
    # acks are the scout gather moved behind the multicast, not removed
    # (0.979-1.010x over base seeds 1-10).
    for size in PAPER_SIZES:
        assert 0.97 < ack.median(size) / best_scout(size) < 1.03, \
            f"ablation: mcast-ack within 3% of the best scouted " \
            f"variant at {size} B"
    # Rooted at rank 0, the sequencer IS the root: no extra hop runs and
    # it is the ack loop (its payoff, total order, is not measured here).
    assert seq.median(4000) > best_scout(4000) * 0.97, \
        "ablation: the sequencer is no faster than scouts at 4000 B"


def overrun(doc):
    """§5: "it is possible [receiver overrun] may occur in many-to-many
    communications and needs to be examined further"."""
    def lost(payload, budget):
        return metric(doc, "overrun", "lost", payload=payload,
                      budget=budget)

    assert lost(100, 1) > OVERRUN_N, \
        "overrun: 100 B with one descriptor loses over one per receiver"
    # Large payloads self-pace (serialization >= consumption cost).
    assert lost(1500, 1) < lost(500, 1) < lost(100, 1), \
        "overrun: losses fall as the payload grows"
    for payload in OVERRUN_PAYLOADS:
        losses = [lost(payload, k) for k in OVERRUN_BUDGETS]
        assert all(a >= b for a, b in zip(losses, losses[1:])), \
            f"overrun: losses non-increasing in the budget at {payload} B"
        assert lost(payload, OVERRUN_N - 1) == 0, \
            f"overrun: N-1 descriptors lose nothing at {payload} B"
        # Pacing removes the hazard entirely.
        assert metric(doc, "paced", "drops_not_posted",
                      payload=payload) == 0, \
            f"overrun: the paced schedule drops nothing at {payload} B"


def via(doc):
    """The paper's closing future work, examined: the Fig. 8/10 sweeps
    with the kernel-UDP software path replaced by VIA-like user-level
    costs (~8 µs sends, posted descriptors native)."""
    for n in (4, 9):
        udp_mpich, udp_mcast, via_mpich, via_mcast = (
            _Curve(doc, "switch", n, impl, platform)
            for platform in ("udp", "via") for impl in (MPICH, BINARY))
        # Small messages are software-bound: VIA slashes them.
        for fast, slow in ((via_mpich, udp_mpich), (via_mcast, udp_mcast)):
            assert fast.median(0) < 0.5 * slow.median(0), \
                f"via: {fast.impl} at 0 B under 0.5x kernel UDP ({n} procs)"
        # Large messages are wire-bound: a modest gain, but a gain.
        assert via_mpich.median(5000) < udp_mpich.median(5000), \
            f"via: MPICH at 5000 B still faster on VIA ({n} procs)"
        # The crossover stays in the sub-frame zone.  (At 9 procs the
        # kernel-UDP crossover of 0 relaxes to one step: with ~10 µs
        # sends MPICH's tree is extremely fast for empty messages too.)
        x = crossover(via_mcast, via_mpich)
        assert x is not None and x <= 500, \
            f"via: crossover at or below 500 B, got {x} ({n} procs)"
        # Without shared software overhead diluting it, the relative
        # multicast win at 5 kB grows.
        assert (via_mpich.median(5000) / via_mcast.median(5000)
                > udp_mpich.median(5000) / udp_mcast.median(5000)), \
            f"via: the 5000 B multicast win grows on VIA ({n} procs)"


def framecounts(doc):
    """§3's table is exact: the header-aware model equals the
    simulator's frame counters to the frame."""
    rows = [e for e in doc["series"] if e["family"] == "framecounts"]
    assert len(rows) == 8 * 4, "framecounts: n in 2..9 x four sizes"
    for entry in rows:
        row, key = entry["metrics"], entry["key"]
        for measured, model in (("frames_mpich_p2p", "model_mpich_bcast"),
                                ("frames_mcast_scout", "model_mcast_scouts"),
                                ("frames_mcast_data", "model_mcast_data")):
            assert row[measured] == row[model], \
                f"framecounts: {key} {measured} {row[measured]} != " \
                f"{model} {row[model]}"
        # Multicast saves frames exactly when (f-1)(N-2) >= 1: any
        # multi-frame message once there are 3 processes; with two it
        # pays a scout for nothing.
        if entry["axes"]["n"] >= 3 and entry["axes"]["m"] >= 1500:
            assert row["paper_mcast_bcast"] <= row["paper_mpich_bcast"], \
                f"framecounts: {key} multicast saves frames"
        if entry["axes"]["n"] == 2:
            assert row["paper_mcast_bcast"] >= row["paper_mpich_bcast"], \
                f"framecounts: {key} multicast cannot save with 2 procs"
    # The paper's idealized formulas keep the same (N-1) multiplier.
    for name, want in (("paper_mpich_bcast", 8), ("paper_mcast_bcast", 9),
                       ("mpich_barrier_msgs", 26)):
        assert metric(doc, "framecounts", name, n=9, m=0) == want, \
            f"framecounts: {name} at 9 processes, 0 B is {want}"


register_area(AreaSpec(
    name="paper-figures",
    title="The paper's Figs. 7-13, the reliability / overrun ablations "
          "and the VIA extension, read off one measured grid",
    families=_families,
    postconditions=(fig7, fig8, fig9, fig10, fig11, fig12, fig13,
                    ablation_reliability, overrun, via, framecounts),
))
