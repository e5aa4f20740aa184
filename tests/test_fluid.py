"""The analytic fluid backend and the speed-overhaul parity contracts.

Two families of guarantees:

* **fluid == DES** — for every gate-scale sweep case the backend
  claims (:func:`repro.analysis.fluid.trunk_frames_per_call` returns an
  int), re-running the discrete-event simulator must produce the same
  integer.  This is the cross-check the ISSUE requires before a model
  may stand in for the machine.
* **overhaul parity** — the batched kernel / pooled frames / zero-copy
  segments changed *how* the simulator runs, not *what* it computes:
  with ``REPRO_FLUID=0`` (every case simulated) the gate documents of
  all committed areas — frame counts, datagram counts, repair traffic
  AND final-clock-derived latencies — are bit-identical to the
  baselines under ``benchmarks/results/``.
"""

import json

import pytest

from dataclasses import replace

from repro.analysis import fluid
from repro.bench.sweep import baseline_path, run_area
from repro.bench.sweep_areas import (DEEP_FABRICS, DEEP_FLAT_IMPL,
                                     DIMS, FAB_NPROCS, FAB_SEG_OF,
                                     FAB_TOPOLOGY, QUIET_AUTO,
                                     _deep_per_call)

GATE_SIZE = DIMS["gate"].deep_size


# ---------------------------------------------------------------- eligibility
def test_exact_model_follows_the_coverage_ledger():
    # dotted closed forms qualify...
    assert fluid.exact_model("bcast", "mcast-seg-nack")
    assert fluid.exact_model("reduce", "mcast-seg-combine")
    assert fluid.exact_model("gather", "mcast-seg-root-follow")
    assert fluid.exact_model("allgather", "mcast-seg-paced")
    # ...estimate markers and unknown pairs do not
    assert not fluid.exact_model("allgather", "mcast-paced")
    assert not fluid.exact_model("bcast", "mcast-ack")
    assert not fluid.exact_model("bcast", "no-such-impl")


def test_hier_exception_drops_estimate_grade_ops():
    # the ledger derives its hier-mcast entries from the plans' step
    # kinds: exact unless a step carries a pickled bundle
    assert fluid.exact_model("bcast", "hier-mcast")
    assert fluid.exact_model("reduce", "hier-mcast")
    assert fluid.exact_model("allreduce", "hier-mcast")
    assert fluid.exact_model("barrier", "hier-mcast")
    assert not fluid.exact_model("gather", "hier-mcast")
    assert not fluid.exact_model("scatter", "hier-mcast")
    assert not fluid.exact_model("allgather", "hier-mcast")


def test_answers_declines_lossy_platforms_and_unwired_pairs():
    lossy = replace(QUIET_AUTO, loss=0.05)
    assert fluid.answers("bcast", "mcast-seg-nack", QUIET_AUTO)
    assert not fluid.answers("bcast", "mcast-seg-nack", lossy)
    # exact total-frame ledger entry, but no exact *trunk* model wired
    assert not fluid.answers("bcast", "p2p-binomial", QUIET_AUTO)
    seg_of, paths = DEEP_FABRICS["tree:2x2x2"][1:]
    assert fluid.trunk_frames_per_call(
        "bcast", "mcast-seg-nack", seg_of, 0, GATE_SIZE, lossy,
        paths) is None
    assert fluid.trunk_frames_per_call(
        "gather", "hier-mcast", seg_of, 0, GATE_SIZE, QUIET_AUTO,
        paths) is None


# ------------------------------------------------------------- fluid == DES
def _answered_deep_cases():
    """Every deep-fabric (op, impl) the backend answers, read off the
    backend itself: a pair the ledger newly marks exact is re-run
    against the DES without touching this file."""
    for fabric in DEEP_FABRICS:
        for op, flat in DEEP_FLAT_IMPL.items():
            for impl in (flat, "hier-mcast"):
                if fluid.answers(op, impl, QUIET_AUTO):
                    yield fabric, op, impl


@pytest.mark.parametrize("fabric,op,impl", list(_answered_deep_cases()))
def test_fluid_matches_des_on_every_answered_gate_case(fabric, op, impl):
    """The cross-check: the analytic answer for each deep-fabric gate
    case the backend claims equals the simulator's measurement."""
    n, seg_of, paths = DEEP_FABRICS[fabric]
    answer = fluid.trunk_frames_per_call(op, impl, seg_of, 0, GATE_SIZE,
                                         QUIET_AUTO, paths)
    assert answer is not None, f"backend must answer {op}/{impl}"
    assert answer == _deep_per_call(fabric, n, op, impl, GATE_SIZE,
                                    seed=1)


@pytest.mark.parametrize("impl", ["mcast-seg-nack", "hier-mcast"])
def test_fluid_matches_des_on_fabric_scaling_trunk(impl):
    answer = fluid.trunk_frames_per_call("bcast", impl, FAB_SEG_OF, 0,
                                         24_000, QUIET_AUTO)
    assert answer is not None
    assert answer == _deep_per_call(FAB_TOPOLOGY, FAB_NPROCS, "bcast",
                                    impl, 24_000, seed=1)


# -------------------------------------------------------- overhaul parity
@pytest.mark.parametrize("area", ["segmented-bcast", "fabric-scaling",
                                  "deep-fabric"])
def test_des_gate_documents_bit_identical_to_baselines(area, monkeypatch):
    """Full-DES parity: with the fluid backend disabled, the overhauled
    simulator reproduces every committed gate series exactly — frame
    and datagram counters (NetStats) and the latency metrics derived
    from final simulation clocks."""
    monkeypatch.setenv("REPRO_FLUID", "0")
    doc = run_area(area, scale="gate", workers=1, check=True)
    base = json.loads(baseline_path(area).read_text())
    assert doc["series"] == base["series"]


def test_fluid_gate_document_bit_identical_to_baseline(monkeypatch):
    """Fluid-on parity: analytic answers slot into the same document
    the DES produced when the baseline was committed."""
    monkeypatch.delenv("REPRO_FLUID", raising=False)
    doc = run_area("deep-fabric", scale="gate", workers=1, check=True)
    base = json.loads(baseline_path("deep-fabric").read_text())
    assert doc["series"] == base["series"]
