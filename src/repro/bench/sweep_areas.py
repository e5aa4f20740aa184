"""This repo's extension sweep areas (the paper's own figures are the
sixth area, :mod:`repro.bench.paper_figures`).

Five areas — four extension claims, plus the simulator's own speed:

* ``segmented-bcast``: frame counts of the segmented NACK-repair
  broadcast vs the PVM-style ``mcast-ack`` baseline under induced
  loss, the seeded-loss repair closed loop, and the latency sweep
  incl. the ``"auto"`` policy;
* ``fabric-scaling``: per-call trunk serializations of flat vs
  hierarchical broadcast on a two-tier ``tree:2x4`` fabric, the auto
  policy's picks and dispatch, and the latency sweep;
* ``deep-fabric``: exact trunk models for flat and hierarchical
  collectives on three-tier and heterogeneous trees, hierarchy trunk
  wins, auto dispatch, and the loss-model closed loop;
* ``segmented-reduce``: payload frames of the turn-based segmented
  reduce/allreduce vs the MPICH binomial trees, selective segment
  repair under induced loss, and the ``"auto"`` never-worse
  postcondition over frames and latency;
* ``sim-throughput``: kernel records, high-water mark, wall-clock and
  events/sec of 64- and 1024-host broadcasts.  Event/clock metrics
  are exact; ``wall*``/``rate*`` metrics are banded wide in
  :func:`repro.bench.sweep.diff_docs` and so are the one deliberate
  exception to gate documents being rerun-deterministic.

Every number in a document is measured on the simulator; where a
closed-form model exists, a postcondition holds the measurement to it.
Every case measures through :mod:`repro.bench.harness`: each collective
call is :func:`~repro.bench.harness.op_body` (its result asserted on
every rank), a single-shot quiet run is :func:`_run`, and every latency
is the paper's §4 windowed protocol,
:func:`~repro.bench.harness.measure` (per iteration the slowest rank's
time, median over iterations) — no case times a loop of its own.

Every reproduction criterion is either an in-runner assertion
(correctness of the collective's result) or an area **postcondition**
over the collected document, so ``run_area(..., check=True)`` fails on
a violated claim.

Two scales per area, spelled out in one table (:data:`DIMS`):
``"gate"`` is tiny and **environment-independent** (its documents are
committed under ``benchmarks/results/`` and re-run by ``make
bench-gate``); ``"full"`` is the big sweep and scales its repetition
counts with ``REPRO_BENCH_REPS``.
"""

from __future__ import annotations

import functools
import os
from dataclasses import replace
from types import SimpleNamespace

from ..analysis.framecount import (expected_seg_repair_frames,
                                   model_flat_frames, model_hier_frames,
                                   model_parts_frames, topo_digest)
from ..core.segment import (plan_segments, plan_transport,
                            seg_nack_datagram_count,
                            seg_nack_frame_count)
from ..mpi.collective.policy import candidates
from ..runtime import run_spmd
from ..simnet import quiet
from ..simnet.calibration import FAST_ETHERNET_SWITCH
from ..simnet.fabric import parse_topology
from .harness import measure, op_body
from .sweep import AreaSpec, Family, find_series, metric, register_area

FIXED = FAST_ETHERNET_SWITCH
AUTO = replace(FAST_ETHERNET_SWITCH, segment_bytes="auto")
QUIET = quiet(FIXED)
QUIET_AUTO = quiet(AUTO)


#: full-scale rep budget (gate scales never read the environment)
_FULL_REPS = int(os.environ.get("REPRO_BENCH_REPS", "20"))
_ALL_OPS = ("bcast", "reduce", "scatter", "gather", "allgather")

#: every scale-dependent sweep dimension of the five areas, in one place
DIMS = {
    "gate": SimpleNamespace(
        seg_sizes=(12_000,), seg_reps=3,
        fab_sizes=(24_000,), fab_reps=2,
        deep_size=24_000, deep_repair_size=48_000, repair_ops=2,
        deep_ops=("bcast", "scatter", "gather"),
        segred_sizes=(12_000,), segred_reps=2,
        thru_fabrics=("tree:8x8", "tree:32x32")),
    "full": SimpleNamespace(
        seg_sizes=(1000, 12_000, 48_000), seg_reps=_FULL_REPS,
        fab_sizes=(2000, 24_000, 96_000), fab_reps=max(5, _FULL_REPS // 4),
        deep_size=48_000, deep_repair_size=96_000, repair_ops=4,
        deep_ops=_ALL_OPS,
        segred_sizes=(1000, 12_000, 48_000),
        segred_reps=max(8, _FULL_REPS // 2),
        thru_fabrics=("tree:8x8", "tree:16x16", "tree:32x32")),
}


# ---------------------------------------------------------------------------
# one induced-loss filter, one quiet run
# ---------------------------------------------------------------------------
def _drop_first_copy(kind, want=None):
    """``Host.frame_fate`` dropping the first arrival of each distinct
    ``kind`` data unit: ``(sender, seq)`` — one unit per call, so a
    one-segment payload still sees loss — or, with ``want``, ``(sender,
    seq, lowest index)`` of each datagram carrying a segment whose index
    satisfies ``want``."""
    seen = set()

    def fate(dgram):
        if dgram.kind != kind:
            return None
        sender, seq, seg = dgram.payload
        unit = (sender, seq)
        if want is not None:
            index = [s.index for s in
                     (seg if isinstance(seg, tuple) else (seg,))]
            if not any(want(i) for i in index):
                return None
            unit += (min(index),)
        if unit in seen:
            return None
        seen.add(unit)
        return "drop"

    return fate


def _seg_3_mod_8(index):
    """The fixed plans' induced-loss pattern: segments ≡ 3 (mod 8)."""
    return index % 8 == 3


def _install_drop(env, drop, lossy):
    """Give each ``lossy`` rank its own ``_drop_first_copy(*drop)``."""
    if drop is not None and env.rank in lossy:
        env.host.frame_fate = _drop_first_copy(*drop)


def _run(n, op, impl, size, params=QUIET_AUTO, seed=0, topology="switch",
         n_ops=1, drop=None, lossy=()):
    """One quiet run of ``n_ops`` back-to-back ``op`` calls of ``impl``,
    each checked on every rank (:func:`op_body`); ``drop`` —
    :func:`_drop_first_copy`'s arguments — filters the datagrams of
    every ``lossy`` rank.  Each rank returns its ``impl_log``."""
    body = op_body(op, size)

    def main(env):
        env.comm.use_collectives(**{op: impl})
        _install_drop(env, drop, lossy)
        for _ in range(n_ops):
            yield from body(env)
        return list(env.comm.impl_log)

    return run_spmd(n, main, topology=topology, params=params, seed=seed)


def _seg_stream_frames(kinds) -> int:
    """Frames of the segmented engine's streams: data, headers, the
    report/decision control sweep and the arming scouts."""
    return sum(kinds.get(k, 0) for k in
               ("mcast-seg", "mcast-seg-hdr", "seg-report", "seg-dec",
                "scout"))


# ===========================================================================
# area: segmented-bcast
#
# The reproduction criteria its postconditions number:
# 1. selective NACK repair beats ``mcast-ack``'s whole-payload
#    retransmission in payload frames on the wire (and, full scale, in
#    median latency) at the many-segment end;
# 2. per-segment frame counts match ``seg_nack_frame_count`` exactly,
#    loss-free and with one repair round;
# 3. no crossover: the batched auto plan never puts more payload frames
#    on the wire than ``mcast-ack`` under symmetric loss, and its
#    datagram count matches ``seg_nack_datagram_count``;
# 4. (full scale) the auto plan's loss-free median beats the fixed
#    per-segment plan's below the batching crossover;
# 5. seeded-loss repair traffic lands in the [x/3, 1.5x] band around
#    ``expected_seg_repair_frames`` at 8 ranks and 5%, and in the
#    legacy [x/4, 2x] band at 64 ranks and 2%.
# ===========================================================================
SEG_NPROCS = 4
#: the ranks that lose data under induced loss
SEG_LOSSY = range(1, SEG_NPROCS, 2)
#: wide enough for mcast-ack's full-payload retransmission storms
SEG_WINDOW_US = 150_000.0
#: induced loss: the per-segment plans lose segments ≡ 3 mod 8, the ack
#: baseline (and, in ``frames``, the batched auto plan) the first copy
#: of each call's data
SEG_DROP = ("mcast-seg", _seg_3_mod_8)
ACK_DROP = ("mcast-data",)

#: variant -> (registry impl, NetParams, induced-loss drop or None)
_SEG_GATE_VARIANTS = {
    "seg-fixed-lossy": ("mcast-seg-nack", FIXED, SEG_DROP),
    "seg-auto-lossy": ("mcast-seg-nack", AUTO, SEG_DROP),
    "seg-fixed-clean": ("mcast-seg-nack", FIXED, None),
    "seg-auto-clean": ("mcast-seg-nack", AUTO, None),
    "ack-lossy": ("mcast-ack", FIXED, ACK_DROP),
    "p2p-clean": ("p2p-binomial", FIXED, None),
    "policy-clean": ("auto", AUTO, None),
}
_SEG_VARIANTS = {
    "gate": _SEG_GATE_VARIANTS,
    "full": {**_SEG_GATE_VARIANTS, "seg-730-lossy": (
        "mcast-seg-nack", replace(FIXED, segment_bytes=730), SEG_DROP)},
}

#: ``frames`` family impl -> (registry impl, NetParams, induced-loss drop)
_SEG_FRAMES = {
    "seg-fixed": ("mcast-seg-nack", QUIET, SEG_DROP),
    "seg-auto": ("mcast-seg-nack", QUIET_AUTO, ("mcast-seg",)),
    "ack": ("mcast-ack", QUIET, ACK_DROP),
}


def seg_frames_case(scale, seed, impl, size, loss):
    """One quiet single-shot broadcast; stream/data/datagram counts."""
    registry_impl, params, drop = _SEG_FRAMES[impl]
    result = _run(SEG_NPROCS, "bcast", registry_impl, size, params, seed,
                  drop=drop, lossy=SEG_LOSSY if loss == "induced" else ())
    kinds = result.stats["frames_by_kind"]
    if impl == "ack":
        stream = kinds.get("mcast-data", 0) + kinds.get("scout", 0)
        data = kinds.get("mcast-data", 0)
    else:
        stream = _seg_stream_frames(kinds)
        data = kinds.get("mcast-seg", 0)
    return {
        "frames_stream": stream,
        "frames_data": data,
        "datagrams_net": (result.stats["datagrams_sent"]
                          - kinds.get("p2p", 0)),
        "retransmissions": result.stats["retransmissions"],
    }


def _repair_case(size, n_ops, seed, n=8, loss=0.05):
    """Seeded probabilistic loss vs ``expected_seg_repair_frames``: the
    frames ``n_ops`` ``n``-rank broadcasts at ``loss`` multicast loss
    (default 8 ranks, 5%) add over the same broadcasts loss-free."""
    clean, lossy = (_run(n, "bcast", "mcast-seg-nack", size, params, seed,
                         n_ops=n_ops)
                    for params in (QUIET_AUTO,
                                   replace(QUIET_AUTO, loss=loss)))
    nsegs = plan_transport(size, QUIET_AUTO).nsegs
    return {
        "frames_repair": (lossy.stats["frames_sent"]
                          - clean.stats["frames_sent"]),
        "frames_repair_expected":
            n_ops * expected_seg_repair_frames(n, nsegs, loss),
        "drops_lossy": lossy.stats["drops_lossy"],
    }


def seg_repair_case(scale, seed):
    """The repair closed loop at 96 kB (band: ``seg_post_repair_band``)."""
    return _repair_case(96_000, DIMS[scale].repair_ops, seed)


def seg_repair_wide_case(scale, seed):
    """The same closed loop over four 24 kB broadcasts at 64 ranks and
    2% loss — a size where flat repair aborted with ``McastLost``
    before the folded control plane (band:
    ``seg_post_repair_band_wide``)."""
    return _repair_case(24_000, 4, seed, n=64, loss=0.02)


def seg_latency_case(scale, seed, variant, size):
    """Max-over-ranks bcast latency of one variant at one size."""
    impl, params, drop = _SEG_VARIANTS[scale][variant]
    series = measure(
        "bcast", impl, "switch", SEG_NPROCS, [size],
        reps=DIMS[scale].seg_reps, seed=seed, params=params,
        window_us=SEG_WINDOW_US, label=variant,
        setup=functools.partial(_install_drop, drop=drop, lossy=SEG_LOSSY))
    lo, hi = series.spread(size)
    return {"latency_us_median": series.median(size),
            "latency_us_min": lo, "latency_us_max": hi}


def _seg_families(scale):
    sizes = DIMS[scale].seg_sizes
    return [
        Family("frames", {"impl": ("seg-fixed", "seg-auto", "ack"),
                          "size": sizes, "loss": ("clean", "induced")},
               seg_frames_case),
        Family("repair", {}, seg_repair_case),
        Family("repair-wide", {}, seg_repair_wide_case),
        Family("latency", {"variant": tuple(_SEG_VARIANTS[scale]),
                           "size": sizes},
               seg_latency_case),
    ]


def _seg_union(nsegs: int) -> list:
    return [i for i in range(nsegs) if _seg_3_mod_8(i)]


def seg_post_frame_formula(doc):
    """Per-segment frame counts match the closed formula (criterion
    2), loss-free and with one repair round."""
    size = DIMS[doc["scale"]].seg_sizes[-1]
    nsegs = len(plan_segments(size, QUIET.segment_bytes))
    union = _seg_union(nsegs)

    def get(loss, name):
        return metric(doc, "frames", name, impl="seg-fixed",
                      size=size, loss=loss)

    assert get("clean", "frames_stream") == \
        seg_nack_frame_count(SEG_NPROCS, nsegs)
    assert get("clean", "frames_data") == nsegs
    assert get("clean", "retransmissions") == 0
    assert get("induced", "frames_stream") == \
        seg_nack_frame_count(SEG_NPROCS, nsegs, [len(union)])
    assert get("induced", "frames_data") == nsegs + len(union)
    assert get("induced", "retransmissions") == len(union)


def seg_post_beats_ack(doc):
    """Selective repair beats whole-payload retransmission on the wire
    at the many-segment end (criterion 1), in payload frames: counting
    control, the ack's N-1 acks undercut the stream's gathers up to ~16
    payload frames at 4 ranks (docs/BENCHMARKS.md)."""
    size = DIMS[doc["scale"]].seg_sizes[-1]
    seg = metric(doc, "frames", "frames_data", impl="seg-fixed",
                 size=size, loss="induced")
    ack = metric(doc, "frames", "frames_data", impl="ack",
                 size=size, loss="induced")
    assert seg < ack, (f"seg-nack sent {seg} payload frames at {size} B, "
                       f"ack only {ack}")


def seg_post_auto_plan(doc):
    """The crossover criterion (3): at every size the auto plan puts
    no more payload frames on the wire than mcast-ack under symmetric
    first-copy loss, and its loss-free datagram count matches the
    batched closed form."""
    for size in DIMS[doc["scale"]].seg_sizes:
        seg_data = metric(doc, "frames", "frames_data", impl="seg-auto",
                          size=size, loss="induced")
        ack_data = metric(doc, "frames", "frames_data", impl="ack",
                          size=size, loss="induced")
        assert seg_data <= ack_data, (
            f"auto seg-nack sent {seg_data} payload frames at {size} B, "
            f"mcast-ack only {ack_data}")
        tp = plan_transport(size, QUIET_AUTO)
        dg = metric(doc, "frames", "datagrams_net", impl="seg-auto",
                    size=size, loss="clean")
        assert dg == seg_nack_datagram_count(SEG_NPROCS, tp.nsegs,
                                             tp.batch)


def _assert_repair_band(doc, family, low, high):
    """Measured seeded-loss repair frames of ``family``'s case inside
    ``[expected / low, high * expected]``."""
    entry = find_series(doc, family)
    measured = entry["metrics"]["frames_repair"]
    expected = entry["metrics"]["frames_repair_expected"]
    assert entry["metrics"]["drops_lossy"] > 0
    assert expected / low <= measured <= high * expected, (
        f"{family}: measured {measured} repair frames outside the model "
        f"band [{expected / low:.0f}, {high * expected:.0f}]")


def seg_post_repair_band(doc):
    """Criterion 5: measured seeded-loss repair traffic inside the
    [expected/3, 1.5*expected] model band."""
    _assert_repair_band(doc, "repair", 3, 1.5)


def seg_post_repair_band_wide(doc):
    """The 64-rank, 2% closed loop inside the legacy [x/4, 2x] band
    (``deep_post_repair_band``'s): at this width one straggler needing
    a third round costs a whole extra ``2(N-1)+1``-frame control sweep
    the expectation's half-a-segment cut-off does not price, so the
    tight band's 1.5x ceiling is too low here."""
    _assert_repair_band(doc, "repair-wide", 4, 2)


def seg_post_policy_tracks(doc):
    """The payload-aware policy tracks the impl it chose per size
    (modulo the scout announcement + window jitter)."""
    from ..mpi.collective.policy import auto_impl

    for size in DIMS[doc["scale"]].seg_sizes:
        def med(variant):
            return metric(doc, "latency", "latency_us_median",
                          variant=variant, size=size)

        chosen = auto_impl("bcast", size, SEG_NPROCS, AUTO)
        ref = med("p2p-clean" if chosen == "p2p-binomial"
                  else "seg-auto-clean")
        assert med("policy-clean") <= ref * 1.35 + 400, (
            f"auto bcast median {med('policy-clean'):.0f} us at "
            f"{size} B vs chosen {chosen}'s {ref:.0f} us")


def seg_post_full_orderings(doc):
    """Full-scale-only latency orderings (criteria 1 and 4): seg-nack
    and the auto plan beat mcast-ack at the ≥32-segment end, and the
    auto plan's loss-free median beats the fixed plan's below the
    batching crossover."""
    if doc["scale"] != "full":
        return
    big = DIMS["full"].seg_sizes[-1]

    def med(variant, size):
        return metric(doc, "latency", "latency_us_median",
                      variant=variant, size=size)

    assert len(plan_segments(big, FIXED.segment_bytes)) >= 32
    assert med("seg-fixed-lossy", big) < med("ack-lossy", big)
    assert med("seg-auto-lossy", big) < med("ack-lossy", big)
    assert med("seg-auto-clean", 12_000) < med("seg-fixed-clean", 12_000)


register_area(AreaSpec(
    name="segmented-bcast",
    title="Segmented NACK-repair broadcast vs whole-payload "
          "retransmission, under loss",
    families=_seg_families,
    postconditions=(seg_post_frame_formula, seg_post_beats_ack,
                    seg_post_auto_plan, seg_post_repair_band,
                    seg_post_repair_band_wide, seg_post_policy_tracks,
                    seg_post_full_orderings),
))


# ===========================================================================
# area: fabric-scaling
# ===========================================================================
FAB_TOPOLOGY = "tree:2x4"
FAB_NPROCS = 8
FAB_SEG_OF = (0, 0, 0, 0, 1, 1, 1, 1)
FAB_IMPLS = ("p2p-binomial", "mcast-seg-nack", "hier-mcast", "auto")
_FAB_ENGINE = {"flat": "mcast-seg-nack", "hier": "hier-mcast"}


def fab_trunk_case(scale, seed, engine, size):
    """Trunk frames of ONE bcast (quiet, deterministic)."""
    return {"frames_trunk_call": _deep_per_call(
        FAB_TOPOLOGY, FAB_NPROCS, "bcast", _FAB_ENGINE[engine], size, seed)}


def fab_latency_case(scale, seed, impl, size):
    """§4 latency of one bcast impl on the jittered two-tier fabric."""
    series = measure("bcast", impl, FAB_TOPOLOGY, FAB_NPROCS, [size],
                     reps=DIMS[scale].fab_reps, seed=seed, params=AUTO,
                     window_us=SEG_WINDOW_US)
    return {"latency_us_median": series.median(size)}


def _audit(n, topo, ops, sizes, loss):
    """The policy's pick of every (op, size), loss-free and at
    ``loss`` — the ``picks`` leaf the gate holds exactly."""
    from ..mpi.collective.policy import auto_impl

    picks = []
    for params, tag in ((QUIET_AUTO, "loss-free"),
                        (replace(QUIET_AUTO, loss=loss),
                         f"{loss:.0%} loss")):
        for op in ops:
            for size in sizes:
                pick = auto_impl(op, size, n, params, topo=topo)
                picks.append(f"{tag}:{op}@{size}->{pick}")
    return {"audited": len(picks), "picks": ";".join(picks)}


def fab_audit_case(scale, seed):
    """Auto picks on the two-tier fabric."""
    return _audit(FAB_NPROCS, topo_digest(FAB_SEG_OF),
                  ("bcast", "reduce", "allreduce"), DIMS[scale].fab_sizes,
                  loss=0.10)


def _dispatch(topology, n, topo, calls, seed):
    """Every rank of a run of ``calls`` — ``(op, size)`` pairs, each op
    resolved by "auto" — dispatches the modeled argmin of each call."""
    from ..mpi.collective.policy import auto_impl

    ops = {op for op, _size in calls}

    def main(env):
        env.comm.use_collectives(**dict.fromkeys(ops, "auto"))
        for op, size in calls:
            yield from op_body(op, size)(env)
        return [name for op, name in env.comm.impl_log if op in ops]

    result = run_spmd(n, main, topology=topology, params=QUIET_AUTO,
                      seed=seed)
    expected = [auto_impl(op, _op_nbytes(op, size, n), n, QUIET_AUTO,
                          topo=topo) for op, size in calls]
    for log in result.returns:
        assert log == expected, (log, expected)
    return {"dispatch": ",".join(expected)}


def fab_dispatch_case(scale, seed):
    """Every rank of an auto bcast dispatches the modeled argmin."""
    return _dispatch(FAB_TOPOLOGY, FAB_NPROCS, topo_digest(FAB_SEG_OF),
                     [("bcast", size) for size in DIMS[scale].fab_sizes],
                     seed)


def _fab_families(scale):
    sizes = DIMS[scale].fab_sizes
    return [
        Family("trunk", {"engine": ("flat", "hier"), "size": sizes},
               fab_trunk_case),
        Family("latency", {"impl": FAB_IMPLS, "size": sizes},
               fab_latency_case),
        Family("auto-audit", {}, fab_audit_case),
        Family("auto-dispatch", {}, fab_dispatch_case),
    ]


def fab_post_trunk_models(doc):
    """Flat and hier-mcast bcast both match their closed forms exactly
    — and on this fabric's block placement they *tie* on the trunks:
    since the flat engine's reports fold up the rank tree and its
    decision is one multicast, both pay every multicast once per
    spanning edge and each gather/fold one cross edge (the hierarchy's
    strict wins — the turn loops, loss, placements that fight the
    fabric — are ``deep-fabric``'s to assert)."""
    for size in DIMS[doc["scale"]].fab_sizes:
        flat = metric(doc, "trunk", "frames_trunk_call", engine="flat",
                      size=size)
        hier = metric(doc, "trunk", "frames_trunk_call", engine="hier",
                      size=size)
        assert hier == flat, (
            f"hier-mcast bcast at {size} B crossed the trunks {hier} "
            f"times, the flat engine {flat}: block placement should tie")
        for sim, model in ((flat, model_flat_frames),
                           (hier, model_hier_frames)):
            assert sim == model("bcast", FAB_SEG_OF, 0, size,
                                QUIET_AUTO)[1]


def fab_post_latency_sanity(doc):
    """The trunk savings are not bought with pathological slowdowns."""
    for size in DIMS[doc["scale"]].fab_sizes:
        hier = metric(doc, "latency", "latency_us_median",
                      impl="hier-mcast", size=size)
        flat = metric(doc, "latency", "latency_us_median",
                      impl="mcast-seg-nack", size=size)
        assert hier < 3 * flat, (
            f"hier-mcast median {hier:.0f} us at {size} B vs flat "
            f"{flat:.0f} us")


register_area(AreaSpec(
    name="fabric-scaling",
    title="Hierarchical vs flat collectives on a two-tier switch "
          "fabric (trunk frames, auto policy, latency)",
    families=_fab_families,
    postconditions=(fab_post_trunk_models, fab_post_latency_sanity),
))


# ===========================================================================
# area: deep-fabric
# ===========================================================================
#: topology -> (n, seg_of_rank, per-segment switch-tree paths)
DEEP_FABRICS = {
    "tree:2x2x2": (8, (0, 0, 1, 1, 2, 2, 3, 3),
                   ((0, 0), (0, 1), (1, 0), (1, 1))),
    "tree:[4,8,2]": (14, (0,) * 4 + (1,) * 8 + (2,) * 2,
                     ((0,), (1,), (2,))),
}

#: op -> the flat segmented rival of ``hier-mcast``: the auto policy's own
DEEP_FLAT_IMPL = {op: name for op in _ALL_OPS
                  for name, model in candidates(op).items()
                  if model == "flat"}


def _deep_win_ops(scale: str, fabric: str) -> tuple:
    if scale == "gate":
        return ("gather",)
    ops = ["reduce", "gather", "scatter", "allgather"]
    if fabric == "tree:[4,8,2]":
        ops.append("bcast")     # few leaders vs many ranks
    return tuple(ops)


def _op_nbytes(op, size, n):
    """The plan fold's ``nbytes`` for what :func:`op_body` hands out
    of a benched ``size``: an equal ``size // n`` share per rank where
    the op takes per-rank elements (the scatter's total, the gather's
    and allgather's contribution), the whole ``size`` otherwise."""
    share = size // n
    return {"scatter": share * n, "gather": share,
            "allgather": share}.get(op, size)


def _deep_per_call(topology, n, op, impl, size, seed):
    """Per-call trunk frames measured by the simulator (two-op minus
    one-op, isolating channel-setup IGMP)."""
    two, one = (_run(n, op, impl, size, seed=seed, topology=topology,
                     n_ops=n_ops).stats["frames_trunk"]
                for n_ops in (2, 1))
    return two - one


def deep_trunk_case(scale, seed, fabric, op, impl=None):
    """Per-call trunk frames of ``op`` on a deep tree, by the flat
    segmented rival (:data:`DEEP_FLAT_IMPL`) unless ``impl`` is given."""
    return {"frames_trunk_call": _deep_per_call(
        fabric, DEEP_FABRICS[fabric][0], op, impl or DEEP_FLAT_IMPL[op],
        DIMS[scale].deep_size, seed)}


def deep_repair_case(scale, seed):
    """The loss-model closed loop at the legacy [x/4, 2x] band."""
    return _repair_case(DIMS[scale].deep_repair_size,
                        DIMS[scale].repair_ops, seed)


def deep_audit_case(scale, seed, fabric):
    """Auto picks on deep trees."""
    n, seg_of, paths = DEEP_FABRICS[fabric]
    return _audit(n, topo_digest(seg_of, paths),
                  ("bcast", "reduce", "allreduce", "scatter", "gather",
                   "allgather"),
                  (2000, DIMS[scale].deep_size), loss=0.05)


def deep_dispatch_case(scale, seed):
    """Every rank of an auto gather + bcast on the three-tier tree
    dispatches the modeled argmin."""
    fabric = "tree:2x2x2"
    n, seg_of, paths = DEEP_FABRICS[fabric]
    size = DIMS[scale].deep_size
    return _dispatch(fabric, n, topo_digest(seg_of, paths),
                     [("gather", size), ("bcast", size)], seed)


def _deep_families(scale):
    fabrics = tuple(DEEP_FABRICS)
    return [
        Family("trunk-flat", {"fabric": fabrics,
                              "op": DIMS[scale].deep_ops},
               deep_trunk_case),
        Family("trunk-hier", {"fabric": fabrics,
                              "op": DIMS[scale].deep_ops},
               functools.partial(deep_trunk_case, impl="hier-mcast")),
        Family("repair", {}, deep_repair_case),
        Family("auto-audit", {"fabric": fabrics}, deep_audit_case),
        Family("auto-dispatch", {}, deep_dispatch_case),
    ]


def _assert_trunk_model(doc, family, fabric, op, model):
    """The family's simulated per-call trunk count == the plan fold's
    (``model`` is :func:`model_flat_frames` or
    :func:`model_hier_frames`)."""
    n, seg_of, paths = DEEP_FABRICS[fabric]
    sim = metric(doc, family, "frames_trunk_call", fabric=fabric, op=op)
    want = model(op, seg_of, 0,
                 _op_nbytes(op, DIMS[doc["scale"]].deep_size, n),
                 QUIET_AUTO, paths)[1]
    assert sim == want, (
        f"{family} {op} on {fabric}: sim {sim} != model {want}")


def deep_post_flat_models(doc):
    """Flat segmented trunk counts == the one-group plan's on deep
    trees."""
    for fabric in DEEP_FABRICS:
        for op in DIMS[doc["scale"]].deep_ops:
            _assert_trunk_model(doc, "trunk-flat", fabric, op,
                                model_flat_frames)


def deep_post_hier_models_and_wins(doc):
    """Hier trunk counts == the hierarchy plan's for every op, and
    hier strictly below flat where confinement wins."""
    for fabric in DEEP_FABRICS:
        for op in DIMS[doc["scale"]].deep_ops:
            _assert_trunk_model(doc, "trunk-hier", fabric, op,
                                model_hier_frames)
        for op in _deep_win_ops(doc["scale"], fabric):
            flat = metric(doc, "trunk-flat", "frames_trunk_call",
                          fabric=fabric, op=op)
            hier = metric(doc, "trunk-hier", "frames_trunk_call",
                          fabric=fabric, op=op)
            assert hier < flat, (
                f"hier {op} on {fabric} crossed the trunks {hier} "
                f"times, the flat engine only {flat}")


def deep_post_repair_band(doc):
    """Measured repair traffic inside the legacy [x/4, 2x] band."""
    _assert_repair_band(doc, "repair", 4, 2)


register_area(AreaSpec(
    name="deep-fabric",
    title="Flat vs hierarchical collectives on three-tier and "
          "heterogeneous switch trees, with the loss closed loop",
    families=_deep_families,
    postconditions=(deep_post_flat_models,
                    deep_post_hier_models_and_wins,
                    deep_post_repair_band),
))


# ===========================================================================
# area: segmented-reduce
# ===========================================================================
SEGRED_NPROCS = 4

#: op -> {role: registry impl} — the reduction-side rivals of PR 3:
#: the reduce's auto candidates and the allreduce rows made of them
_SEGRED_IMPLS = {
    "reduce": {"p2p": "p2p-binomial", "seg": "mcast-seg-combine"},
    "allreduce": {"p2p": "p2p-reduce-bcast", "seg": "mcast-seg-nack"}}


def _segred_null_frames(seed):
    """Wireup-only frame baseline: (p2p frames, total frames) of a run
    with no collective, subtracted from the measured runs."""
    result = run_spmd(SEGRED_NPROCS, lambda env: iter(()),
                      params=QUIET_AUTO, seed=seed)
    return (result.stats["frames_by_kind"].get("p2p", 0),
            result.stats["frames_sent"])


def segred_frames_case(scale, seed, op, size):
    """Payload frames on the wire: the segmented engine vs the p2p
    default, loss-free (each contribution crosses the wire once either
    way; the broadcast half of the segmented allreduce is ONE stream
    against the tree's N-1 re-sends).  The p2p run's frames, the
    rendezvous RTS / CTS included, are the p2p fold's (the allreduce's:
    its parts')."""
    from ..analysis.framecount import model_p2p_frames

    seg_of, nbytes = (0,) * SEGRED_NPROCS, 8 * max(1, size // 8)
    if op == "allreduce":
        model = model_parts_frames(op, _SEGRED_IMPLS[op]["p2p"], seg_of, 0,
                                   nbytes, QUIET_AUTO)
    else:
        model = model_p2p_frames(op, seg_of, 0, nbytes, QUIET_AUTO)
    base_p2p, _ = _segred_null_frames(seed)
    p2p_kinds, seg_kinds = (
        _run(SEGRED_NPROCS, op, _SEGRED_IMPLS[op][role], size,
             seed=seed).stats["frames_by_kind"] for role in ("p2p", "seg"))
    p2p = p2p_kinds.get("p2p", 0) - base_p2p
    seg = seg_kinds.get("mcast-seg", 0)
    rendezvous = p2p_kinds.get("p2p-rts", 0) + p2p_kinds.get("p2p-cts", 0)
    assert p2p + rendezvous == model[0]
    return {"frames_payload_p2p": p2p, "frames_payload_seg": seg}


def segred_formulas_case(scale, seed):
    """Loss-free stream frames == the closed forms, with the fixed
    per-segment plan (the formulas count segments exactly)."""
    size = DIMS[scale].segred_sizes[-1]
    nsegs = len(plan_segments(size, QUIET.segment_bytes))

    def stream(stats):
        return _seg_stream_frames(stats["frames_by_kind"])

    def model(op):
        return model_flat_frames(op, (0,) * SEGRED_NPROCS, 0, size,
                                 QUIET)[0]

    red_stats = _run(SEGRED_NPROCS, "reduce", "mcast-seg-combine", size,
                     QUIET, seed).stats
    assert stream(red_stats) == model("reduce")
    assert red_stats["retransmissions"] == 0
    ar_stats = _run(SEGRED_NPROCS, "allreduce", "mcast-seg-nack", size,
                    QUIET, seed).stats
    assert stream(ar_stats) == model_parts_frames(
        "allreduce", "mcast-seg-nack", (0,) * SEGRED_NPROCS, 0, size,
        QUIET)[0]
    return {"nsegs": nsegs,
            "frames_stream_reduce": stream(red_stats),
            "frames_stream_allreduce": stream(ar_stats)}


def segred_repair_case(scale, seed):
    """Selective repair: induced loss at the root (the only consumer of
    reduce data) re-multicasts exactly the lost segments, never whole
    payloads."""
    size = DIMS[scale].segred_sizes[-1]
    stats = _run(SEGRED_NPROCS, "reduce", "mcast-seg-combine", size, QUIET,
                 seed, drop=SEG_DROP, lossy=(0,)).stats
    nsegs = len(plan_segments(size, QUIET.segment_bytes))
    lost_per_turn = len(_seg_union(nsegs))
    assert stats["retransmissions"] == (SEGRED_NPROCS - 1) * lost_per_turn
    assert (stats["frames_by_kind"]["mcast-seg"]
            == (SEGRED_NPROCS - 1) * (nsegs + lost_per_turn))
    return {"retransmissions": stats["retransmissions"],
            "frames_data": stats["frames_by_kind"]["mcast-seg"]}


def segred_auto_case(scale, seed, op, size):
    """The payload-aware policy: the per-call choice matches the
    closed-form prediction, measured in **total** frames on the wire
    (control traffic included — it is what makes p2p win small
    payloads)."""
    from ..mpi.collective.policy import auto_impl

    _, base_total = _segred_null_frames(seed)
    expect = auto_impl(op, size, SEGRED_NPROCS, QUIET_AUTO)
    auto = _run(SEGRED_NPROCS, op, "auto", size, seed=seed)
    log = auto.returns[0]
    chosen = [name for o, name in log if o == op]
    assert expect in chosen, (op, size, log, expect)
    best = min(_run(SEGRED_NPROCS, op, impl, size, seed=seed)
               .stats["frames_sent"]
               for impl in _SEGRED_IMPLS[op].values()) - base_total
    mine = auto.stats["frames_sent"] - base_total
    return {"frames_auto": mine, "frames_best_fixed": best,
            "pick": expect}


def segred_latency_case(scale, seed, op, size):
    """§4 latencies of the p2p default, the segmented engine and
    "auto" under the jittered platform."""
    reps = DIMS[scale].segred_reps
    return {f"latency_us_{role}":
            measure(op, impl, "switch", SEGRED_NPROCS, [size], reps=reps,
                    seed=seed, params=AUTO,
                    window_us=SEG_WINDOW_US).median(size)
            for role, impl in {**_SEGRED_IMPLS[op], "auto": "auto"}.items()}


def _segred_families(scale):
    sizes = DIMS[scale].segred_sizes
    ops = tuple(_SEGRED_IMPLS)
    return [
        Family("frames", {"op": ops, "size": sizes},
               segred_frames_case),
        Family("formulas", {}, segred_formulas_case),
        Family("repair", {}, segred_repair_case),
        Family("auto", {"op": ops, "size": sizes}, segred_auto_case),
        Family("latency", {"op": ops, "size": sizes},
               segred_latency_case),
    ]


def segred_post_payload_frames(doc):
    """Segmented reduce never exceeds p2p in payload frames; the
    composed segmented allreduce beats p2p outright at every size."""
    for size in DIMS[doc["scale"]].segred_sizes:
        red_seg = metric(doc, "frames", "frames_payload_seg",
                         op="reduce", size=size)
        red_p2p = metric(doc, "frames", "frames_payload_p2p",
                         op="reduce", size=size)
        assert red_seg <= red_p2p, (size, red_seg, red_p2p)
        ar_seg = metric(doc, "frames", "frames_payload_seg",
                        op="allreduce", size=size)
        ar_p2p = metric(doc, "frames", "frames_payload_p2p",
                        op="allreduce", size=size)
        assert ar_seg < ar_p2p, (size, ar_seg, ar_p2p)


def segred_post_auto_never_worse(doc):
    """The policy's pick is never worse than the best fixed entry in
    measured total frames — the auto-never-worse criterion."""
    for size in DIMS[doc["scale"]].segred_sizes:
        for op in _SEGRED_IMPLS:
            mine = metric(doc, "auto", "frames_auto", op=op, size=size)
            best = metric(doc, "auto", "frames_best_fixed", op=op,
                          size=size)
            assert mine <= best, (
                f"auto {op} at {size} B put {mine} frames on the "
                f"wire; the best fixed entry needs only {best}")


def segred_post_auto_latency_tracks(doc):
    """"auto" resolves reduce/allreduce locally (zero announcement
    cost): its median must track the faster fixed entry (generous
    slack — separately seeded jitter draws)."""
    for size in DIMS[doc["scale"]].segred_sizes:
        for op in _SEGRED_IMPLS:
            auto = metric(doc, "latency", "latency_us_auto", op=op,
                          size=size)
            best = min(metric(doc, "latency", "latency_us_p2p", op=op,
                              size=size),
                       metric(doc, "latency", "latency_us_seg", op=op,
                              size=size))
            assert auto <= best * 1.5, (
                f"auto {op} median {auto:.0f} us at {size} B vs best "
                f"fixed {best:.0f} us")


register_area(AreaSpec(
    name="segmented-reduce",
    title="Segmented reduce/allreduce vs the MPICH p2p trees, plus "
          "the payload-aware auto policy",
    families=_segred_families,
    postconditions=(segred_post_payload_frames,
                    segred_post_auto_never_worse,
                    segred_post_auto_latency_tracks),
))


# ===========================================================================
# area: sim-throughput
# ===========================================================================
THRU_SIZE = 24_000


def thru_workload_case(scale, seed, fabric):
    """One flat segmented broadcast across the whole fabric: exact
    event/clock counters (any increase is a kernel regression) plus
    banded wall-clock and events/sec."""
    import time

    t0 = time.perf_counter()
    result = _run(parse_topology(fabric).n, "bcast", "mcast-seg-nack",
                  THRU_SIZE, seed=seed, topology=fabric)
    wall = time.perf_counter() - t0
    sim = result.cluster.sim
    return {
        "events": sim.processed,
        "peak_live": sim.peak_live,
        "sim_clock_us": result.sim_time_us,
        "wall_s": round(wall, 3),
        "rate_events_per_s": round(sim.processed / wall, 1),
    }


def _thru_families(scale):
    return [
        Family("workload", {"fabric": DIMS[scale].thru_fabrics},
               thru_workload_case),
    ]


# No postconditions: the gate's ``diff_docs`` already holds ``events``,
# ``peak_live`` and ``sim_clock_us`` exactly and ``wall*`` / ``rate*``
# inside ``WALL_REL_TOL`` of the committed document — a second wall-clock
# assert here could only restate that band.
register_area(AreaSpec(
    name="sim-throughput",
    title="Simulator speed: kernel records, events/sec and wall-clock "
          "of thousand-host fabrics",
    families=_thru_families,
))
