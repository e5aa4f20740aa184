"""Analytic fluid backend: answer sweep cases without running the DES.

The closed-form frame models of :mod:`repro.analysis.framecount` are
*asserted equal* to the simulator's counters by the bench postconditions
(``deep_post_flat_models``, ``fab_post_trunk_models``, ...).  Where a
model is exact, running the discrete-event simulator to obtain the same
integer is pure wall-clock cost — thousands of scheduled events to
reproduce a number the model computes in microseconds.  This module is
the dispatch layer that decides *when the model may stand in for the
simulator* and computes the answer:

* **eligibility** is keyed off :data:`~repro.analysis.framecount.
  MODEL_COVERAGE` — only (op, impl) pairs whose ledger entry names a
  closed-form model (not an ``"estimate: ..."`` marker) qualify (the
  ``hier-mcast`` entries are derived from step-kind exactness, so
  bundle-carrying scatter/gather/allgather are out), and only at
  ``loss == 0`` — repair traffic is stochastic, the DES owns it;
* **answers** are per-call trunk serializations
  (:func:`trunk_frames_per_call`) — the steady-state metric the
  fabric-scaling and deep-fabric sweep areas persist — computed by the
  very model functions the postconditions assert against, so a fluid
  answer and a DES measurement cannot disagree without the gate
  noticing;
* **cross-check** — ``tests/test_fluid.py`` re-runs the DES for every
  gate-scale case the backend answers and asserts exact equality, so
  the shortcut never silently drifts from the machine it models.

Latency is deliberately *not* answered: :class:`~repro.analysis.
latency.LatencyModel` is validated within a tolerance, not exactly, and
only on single-tier platforms — estimate-grade numbers must come from
the simulator (or stay advisory).  The sweep runner consults this
module only for exact integer frame metrics; everything else still runs
the DES.  Setting ``REPRO_FLUID=0`` in the environment forces the
sweep areas to run the DES even for eligible cases; :func:`enabled` /
:func:`forced` are the only code that touches the variable.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Sequence

from ..core.segment import plan_transport
from ..simnet.calibration import NetParams
from .framecount import (MODEL_COVERAGE, model_hier_frames,
                         model_seg_bcast_trunk_frames,
                         model_seg_reduce_trunk_frames,
                         model_seg_scatter_trunk_frames)

__all__ = ["FLUID_ENV", "answers", "enabled", "exact_model", "forced",
           "trunk_frames_per_call"]

#: environment variable gating the backend (on unless set to ``0``)
FLUID_ENV = "REPRO_FLUID"


def enabled() -> bool:
    """May the analytic backend stand in for the DES?  On by default;
    ``REPRO_FLUID=0`` forces every sweep case to simulate (the parity
    tests use it to prove both paths produce the same document)."""
    return os.environ.get(FLUID_ENV, "1") != "0"


@contextmanager
def forced(on: bool) -> Iterator[None]:
    """Pin the backend on or off for the block, then restore the
    caller's ``REPRO_FLUID``."""
    saved = os.environ.get(FLUID_ENV)
    os.environ[FLUID_ENV] = "1" if on else "0"
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(FLUID_ENV, None)
        else:
            os.environ[FLUID_ENV] = saved


def exact_model(op: str, impl: str) -> bool:
    """True iff the (op, impl) frame model is exact per the coverage
    ledger: the entry names a closed form (no ``"estimate:"``
    marker)."""
    entry = MODEL_COVERAGE.get((op, impl))
    return entry is not None and not entry.startswith("estimate:")


def _share_nsegs(size: int, n: int, params: NetParams) -> int:
    """Segments of one rank's ``size // n`` share (the deep-fabric
    benches hand every rank an equal ``bytes(size // n)`` element)."""
    return plan_transport(size // n, params).nsegs


def _trunk_seg_bcast(seg_of, root, size, params, paths):
    nsegs = plan_transport(size, params).nsegs
    return model_seg_bcast_trunk_frames(seg_of, root, nsegs, paths)


def _trunk_seg_reduce(seg_of, root, size, params, paths):
    nsegs = plan_transport(size, params).nsegs
    return model_seg_reduce_trunk_frames(seg_of, root, nsegs, paths)


def _trunk_seg_scatter(seg_of, root, size, params, paths):
    n = len(seg_of)
    share = _share_nsegs(size, n, params)
    return model_seg_scatter_trunk_frames(seg_of, root, (n - 1) * share,
                                          paths)


def _trunk_seg_gather(seg_of, root, size, params, paths):
    share = _share_nsegs(size, len(seg_of), params)
    return model_seg_reduce_trunk_frames(seg_of, root, share, paths)


#: (op, impl) -> per-call trunk-serialization model.  ``size`` is the
#: collective's benched payload size; per-rank shares (``size // n``
#: for scatter/gather) are derived inside, matching the sweep bodies.
#: p2p-binomial is absent although its *total-frame* ledger entry is
#: exact: ``model_p2p_tree_trunk_frames`` omits the rendezvous sync
#: traffic's trunk crossings (it is a policy cost estimate), so the
#: DES keeps those cases.  ``hier-mcast`` needs no entry: its one model
#: returns the trunk count for every op.
_TRUNK_MODELS: dict[tuple[str, str], Callable] = {
    ("bcast", "mcast-seg-nack"): _trunk_seg_bcast,
    ("reduce", "mcast-seg-combine"): _trunk_seg_reduce,
    ("scatter", "mcast-seg-root"): _trunk_seg_scatter,
    ("gather", "mcast-seg-root-follow"): _trunk_seg_gather,
}


def answers(op: str, impl: str, params: NetParams) -> bool:
    """True iff the backend may answer (op, impl) on ``params``: the
    frame model is exact, a trunk model is wired, and the platform is
    loss-free (repair traffic is stochastic — DES territory)."""
    if params.loss > 0.0:
        return False
    return exact_model(op, impl) and (impl == "hier-mcast"
                                      or (op, impl) in _TRUNK_MODELS)


def trunk_frames_per_call(op: str, impl: str,
                          seg_of_rank: Sequence[int], root: int,
                          size: int, params: NetParams,
                          paths=None) -> Optional[int]:
    """Exact per-call trunk serializations of one collective, or
    ``None`` when the model may not stand in for the simulator.

    ``seg_of_rank`` / ``paths`` describe the fabric exactly as the
    sweep areas do (:data:`~repro.bench.sweep_areas.DEEP_FABRICS`);
    ``size`` is the benched payload size.  The returned value is what
    ``NetStats.frames_trunk`` grows by per steady-state call — the
    quantity the trunk sweep families measure by differencing a two-op
    and a one-op run.
    """
    if not answers(op, impl, params):
        return None
    if impl == "hier-mcast":
        _frames, trunk = model_hier_frames(op, tuple(seg_of_rank), root,
                                           size, params, paths)
        return int(round(trunk))
    model = _TRUNK_MODELS[(op, impl)]
    return int(model(tuple(seg_of_rank), root, size, params, paths))
