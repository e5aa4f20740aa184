"""From raw pass results to the named metrics of ``BENCHMARK.json``.

Pure functions over the dicts :func:`simrun.run_pass` returns; no
simulator import, so the runner and ``compare.py`` can load it cheaply.
Two currencies, never mixed: *simulated* numbers (frames, sim-µs) and
call counts repeat exactly at equal ``--seed``; *host* numbers (ms, s,
MB) are medians over many short samples.
"""

from __future__ import annotations

import json
import math
import pathlib
import statistics

from hostclock import at_reference_speed
from layers import LAYERS
from workloads import OPS

SPEC_PATH = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: end-to-end metrics that repeat bit for bit at equal seed
EXACT = ("py_calls_per_op", "sim_us_per_op_p50", "sim_us_per_op_p90",
         "frames_per_op", "wire_frames_per_op", "ok_op_share")

_DROPS = ("drops_no_listener", "drops_buffer_full", "drops_not_posted",
          "drops_induced", "drops_chaos")


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def percentile(values, share: float) -> float:
    """Nearest-rank percentile (no interpolation, so an exact input
    gives an exact output)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def op_host_s(p) -> list:
    """Per-op host seconds of a pass, at the reference host speed."""
    return [at_reference_speed(wall, spin)
            for wall, spin in zip(p["op_wall_s"], p["op_spin_s"])]


def slot_mean(passes, nslots: int, values, statistic) -> float:
    """Mean over the cycle's op slots of ``statistic`` of that slot's
    samples (``values(pass)`` parallel to the pass's ``op_slot``).

    Every slot holds passes x cycles samples of the *same* call, so the
    statistic is taken where it means something, and the mean over
    slots is the cycle's cost per op: the cheap slots of a mixed cycle
    cannot hide the dear ones, and no percentile lands in the gap
    between two calls' distributions.  With a one-call cycle this is
    just the statistic over all samples.  0.0 if a slot has no sample.
    """
    by_slot = [[] for _ in range(nslots)]
    for p in passes:
        for slot, value in zip(p["op_slot"], values(p)):
            by_slot[slot].append(value)
    if not all(by_slot):
        return 0.0
    return statistics.fmean(statistic(s) for s in by_slot)


def setup_s(p) -> float:
    """Host seconds one pass spent setting up (all legs), at the
    reference host speed."""
    return sum(map(at_reference_speed, p["leg_setup_s"],
                   p["leg_setup_spin_s"]))


def _ratio(num, den):
    return num / den if den else 0.0


def end_to_end(workload, untraced, profiled) -> dict:
    """The nine end-to-end metrics of one workload's run.

    ``untraced``: the measurement passes in launch order (the first
    ``workload.exact_passes`` carry the simulated metrics, so those do
    not depend on how many host-time passes the budget allowed);
    ``profiled``: the one cProfile pass (``py_calls_per_op`` only).
    """
    exact = untraced[:workload.exact_passes]
    ops = sum(p["ops"] for p in exact)
    sent = sum(p["stats"].get("frames_sent", 0) for p in exact)
    trunk = sum(p["stats"].get("frames_trunk", 0) for p in exact)
    attempted = sum(p["ops"] for p in untraced) + profiled["ops"]
    failed = sum(p["failed"] for p in untraced) + profiled["failed"]
    calls = sum(b["calls"] for b in profiled["profile"].values())
    nslots = len(workload.legs) * workload.ops_per_cycle

    def sim_us(p):
        return p["op_sim_us"]

    return {
        "host_ms_per_op": 1e3 * slot_mean(untraced, nslots, op_host_s,
                                          statistics.median),
        "setup_s": statistics.median(setup_s(p) for p in untraced),
        "py_calls_per_op": _ratio(calls, profiled["ops"]),
        "peak_rss_mb": max(p["rss_kb"] for p in untraced) / 1024.0,
        "sim_us_per_op_p50": slot_mean(exact, nslots, sim_us,
                                       statistics.median),
        "sim_us_per_op_p90": slot_mean(exact, nslots, sim_us,
                                       lambda s: percentile(s, 0.9)),
        "frames_per_op": _ratio(sent, ops),
        "wire_frames_per_op": _ratio(sent + trunk, ops),
        "ok_op_share": 1.0 - _ratio(failed, attempted),
    }


def _ms_per_op(p) -> float:
    return 1e3 * _ratio(sum(op_host_s(p)), len(p["op_wall_s"]))


def per_layer(workload, setup, native, flipped, profiled) -> dict:
    """The layer ledger of one workload.

    ``setup`` ran the warm-up cycle only, ``native`` the traced-pass
    cycles unprofiled (with the GC timer), ``flipped`` the same with the
    flight recorder toggled, ``profiled`` the same under cProfile.
    Counts are deltas over the measured cycles; kernel events are the
    marginal ones (``native`` minus ``setup``), since the kernel
    publishes its counter only when a run ends.
    """
    ops = native["ops"]
    stats = native["stats"]
    kinds = stats.get("frames_by_kind", {})
    events = native["events"] - setup["events"]
    out = {}

    def per_op(name, count):
        out[name] = _ratio(count, ops)

    buckets = profiled["profile"]
    self_s = sum(b["self_s"] for b in buckets.values())
    for layer in LAYERS:
        mine = buckets.get(layer, {"self_s": 0.0, "calls": 0})
        out[f"{layer}.self_share"] = _ratio(mine["self_s"], self_s)
        out[f"{layer}.calls_per_op"] = _ratio(mine["calls"],
                                              profiled["ops"])

    per_op("simnet.kernel.events_per_op", events)
    out["simnet.kernel.peak_live"] = native["peak_live"]
    out["simnet.kernel.events_per_delivery"] = _ratio(
        events, stats.get("frames_delivered", 0))

    for key in ("frames_forwarded", "frames_delivered", "collisions",
                "backoffs"):
        per_op(f"simnet.devices.{key}_per_op", stats.get(key, 0))
    reused = stats.get("pool_frames_reused", 0)
    out["simnet.devices.pool_reuse_share"] = _ratio(
        reused, reused + stats.get("pool_frames_allocated", 0))
    per_op("simnet.fabric.trunk_frames_per_op",
           stats.get("frames_trunk", 0))

    for key in ("datagrams_sent", "datagrams_delivered"):
        per_op(f"simnet.udpip.{key}_per_op", stats.get(key, 0))
    per_op("simnet.udpip.drops_per_op",
           sum(stats.get(key, 0) for key in _DROPS))

    resent = stats.get("retransmissions", 0)
    per_op("core.retransmissions_per_op", resent)
    per_op("core.drops_lossy_per_op", stats.get("drops_lossy", 0))
    out["core.repair_frame_share"] = _ratio(
        resent, kinds.get("mcast-seg", 0) + kinds.get("mcast-data", 0))
    per_op("core.scout_frames_per_op",
           sum(n for kind, n in kinds.items() if kind.startswith("scout")))

    picks = native["picks"]
    for family in ("p2p", "flat", "hier"):
        out[f"mpi.policy.pick_share.{family}"] = _ratio(
            picks[family], sum(picks.values()))
    by_slot: dict = {}
    for slot, us in zip(native["op_slot"], native["op_sim_us"]):
        by_slot.setdefault(slot % workload.ops_per_cycle, []).append(us)
    for op in OPS:
        medians = [statistics.median(by_slot[slot])
                   for slot, call in enumerate(workload.cycle)
                   if call.op == op and slot in by_slot]
        out[f"mpi.sim_us_p50.{op}"] = (statistics.fmean(medians)
                                       if medians else 0.0)

    on, off = (native, flipped) if workload.recorder else (flipped, native)
    out["obs.events_recorded_per_op"] = _ratio(on["recorded"], on["ops"])
    out["obs.overhead_ratio"] = _ratio(_ms_per_op(on), _ms_per_op(off))

    out["runtime.import_s"] = statistics.median(
        p["import_s"] for p in (setup, native, flipped, profiled))
    out["runtime.gc_share"] = _ratio(native["gc_s"], native["wall_s"])
    per_op("runtime.gc_collections_per_op", native["gc_collections"])
    out["runtime.init_events"] = setup["events"]
    out["runtime.init_sim_us"] = setup["setup_sim_us"]
    # the profiler slows the spin too, so this one ratio is of raw walls
    out["bench.profile_overhead_ratio"] = _ratio(
        _ratio(profiled["wall_s"], len(profiled["op_wall_s"])),
        _ratio(native["wall_s"], len(native["op_wall_s"])))
    return out
