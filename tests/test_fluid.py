"""The plan fold against the simulator on every gate-scale trunk case,
and the gate documents against their committed baselines.

(The analytic backend this file was named for is gone: a sweep case
always simulates.  The module and its test names stay because the test
floor pins them by id; what they check now is below.)

* **fold == DES** — for every ``deep-fabric`` / ``fabric-scaling``
  trunk case whose registered model
  (:func:`~repro.analysis.framecount.model_coverage`) is the plan fold,
  the fold's trunk term equals the simulator's per-call measurement.
  The parametrization is read off the ledger: a pair it newly marks
  exact is checked without touching this file.
* **document parity** — the gate documents of the committed areas —
  frame counts, datagram counts, repair traffic AND final-clock-derived
  latencies — are bit-identical to the baselines under
  ``benchmarks/results/``, every case simulated.
"""

import json

import pytest

from repro.analysis.framecount import FOLDS, model_coverage
from repro.bench.sweep import baseline_path, run_area
from repro.bench.sweep_areas import (DEEP_FABRICS, DEEP_FLAT_IMPL,
                                     DIMS, FAB_NPROCS, FAB_SEG_OF,
                                     FAB_TOPOLOGY, QUIET_AUTO,
                                     _deep_per_call, _op_nbytes)

GATE_SIZE = DIMS["gate"].deep_size

#: the plan folds (the models that return trunk serializations beside
#: host frames of a multicast plan)
_PLAN = ("flat", "hier")


def _exact(op, impl):
    entry = model_coverage().get((op, impl))
    return entry is not None and not entry.startswith("estimate:")


# ------------------------------------------------------------------ ledger
def test_exact_model_follows_the_coverage_ledger():
    # dotted closed forms are exact...
    assert _exact("bcast", "mcast-seg-nack")
    assert _exact("reduce", "mcast-seg-combine")
    assert _exact("gather", "mcast-seg-root-follow")
    assert _exact("allgather", "mcast-seg-paced")
    # ...so is a composite whose parts all are (its reduce ships a
    # bundle, exactly sized)...
    assert _exact("reduce_scatter", "p2p-reduce-scatter")
    # ...estimate markers and unknown pairs are not
    assert not _exact("bcast", "mcast-ack")
    assert not _exact("bcast", "no-such-impl")


def test_hier_exception_drops_estimate_grade_ops():
    # no hier-mcast entry is estimate-grade any more: a bundle is priced
    # by its elements, so every plan names the hierarchy's fold — and
    # the allreduce, a composition of two plans, the sum of its parts
    hier = {op: entry for (op, impl), entry in model_coverage().items()
            if impl == "hier-mcast"}
    assert sorted(hier) == ["allgather", "allreduce", "barrier", "bcast",
                            "gather", "reduce", "scatter"]
    assert hier.pop("allreduce") == "parts"
    assert set(hier.values()) == {"hier"}


# -------------------------------------------------------------- fold == DES
def _folded_deep_cases():
    """Every deep-fabric (op, impl) the ledger prices with the plan
    fold."""
    coverage = model_coverage()
    for fabric in DEEP_FABRICS:
        for op, flat in DEEP_FLAT_IMPL.items():
            for impl in (flat, "hier-mcast"):
                if coverage[op, impl] in _PLAN:
                    yield fabric, op, impl


@pytest.mark.parametrize("fabric,op,impl", list(_folded_deep_cases()))
def test_fluid_matches_des_on_every_answered_gate_case(fabric, op, impl):
    """The cross-check: the fold's trunk term for each deep-fabric gate
    case equals the simulator's measurement."""
    n, seg_of, paths = DEEP_FABRICS[fabric]
    fold = FOLDS[model_coverage()[op, impl]]
    _frames, trunk = fold(op, seg_of, 0, _op_nbytes(op, GATE_SIZE, n),
                          QUIET_AUTO, paths)
    assert trunk == _deep_per_call(fabric, n, op, impl, GATE_SIZE, seed=1)


@pytest.mark.parametrize("impl", ["mcast-seg-nack", "hier-mcast"])
def test_fluid_matches_des_on_fabric_scaling_trunk(impl):
    fold = FOLDS[model_coverage()["bcast", impl]]
    _frames, trunk = fold("bcast", FAB_SEG_OF, 0, 24_000, QUIET_AUTO)
    assert trunk == _deep_per_call(FAB_TOPOLOGY, FAB_NPROCS, "bcast",
                                   impl, 24_000, seed=1)


# ---------------------------------------------------------- document parity
@pytest.mark.parametrize("area", ["segmented-bcast", "fabric-scaling",
                                  "deep-fabric", "segmented-reduce",
                                  "paper-figures"])
def test_des_gate_documents_bit_identical_to_baselines(area, request):
    """The simulator reproduces every committed gate series exactly —
    frame and datagram counters (NetStats) and the latency metrics
    derived from final simulation clocks."""
    doc = (request.getfixturevalue("paper_figures_doc")
           if area == "paper-figures"
           else run_area(area, scale="gate", workers=1, check=True))
    base = json.loads(baseline_path(area).read_text())
    assert doc["series"] == base["series"]
