"""Analytic fluid backend: answer sweep cases without running the DES.

The closed-form frame models of :mod:`repro.analysis.framecount` are
*asserted equal* to the simulator's counters by the bench postconditions
(``deep_post_flat_models``, ``fab_post_trunk_models``, ...).  Where a
model is exact, running the discrete-event simulator to obtain the same
integer is pure wall-clock cost — thousands of scheduled events to
reproduce a number the model computes in microseconds.  This module is
the dispatch layer that decides *when the model may stand in for the
simulator* and computes the answer:

* **eligibility** follows from :data:`~repro.analysis.framecount.
  MODEL_COVERAGE` alone — only (op, impl) pairs whose ledger entry
  names the plan fold (:func:`~repro.analysis.framecount.
  model_flat_frames` for the flat segmented collectives,
  :func:`~repro.analysis.framecount.model_hier_frames` for
  ``hier-mcast``, whose entries are derived from step-kind exactness,
  so its bundle-carrying scatter/gather/allgather are out) qualify,
  and only at ``loss == 0`` — repair traffic is stochastic, the DES
  owns it;
* **answers** are per-call trunk serializations
  (:func:`trunk_frames_per_call`) — the steady-state metric the
  fabric-scaling and deep-fabric sweep areas persist — computed by the
  very fold the ledger names (the postconditions assert the equality
  whenever the DES does run);
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

from ..simnet.calibration import NetParams
from .framecount import (MODEL_COVERAGE, model_flat_frames,
                         model_hier_frames)

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


def _plan_model(op: str, impl: str) -> Optional[Callable]:
    """The plan fold the ledger names for (op, impl), or ``None``: the
    one model that returns trunk serializations beside host frames.
    (p2p-binomial's *total-frame* entry is exact too, but
    ``model_p2p_tree_trunk_frames`` omits the rendezvous sync
    traffic's trunk crossings, so the DES keeps those cases.)"""
    entry = MODEL_COVERAGE.get((op, impl))
    for model in (model_flat_frames, model_hier_frames):
        if entry == f"{model.__module__}.{model.__name__}":
            return model
    return None


def answers(op: str, impl: str, params: NetParams) -> bool:
    """True iff the backend may answer (op, impl) on ``params``: the
    ledger prices it with the (exact) plan fold, and the platform is
    loss-free (repair traffic is stochastic — DES territory)."""
    return params.loss <= 0.0 and _plan_model(op, impl) is not None


def trunk_frames_per_call(op: str, impl: str,
                          seg_of_rank: Sequence[int], root: int,
                          size: int, params: NetParams,
                          paths=None) -> Optional[int]:
    """Exact per-call trunk serializations of one collective, or
    ``None`` when the model may not stand in for the simulator.

    ``seg_of_rank`` / ``paths`` describe the fabric exactly as the
    sweep areas do (:data:`~repro.bench.sweep_areas.DEEP_FABRICS`);
    ``size`` is the benched payload size, of which the sweep bodies
    hand every rank an equal ``size // n`` share where the op takes
    per-rank elements.  The returned value is what
    ``NetStats.frames_trunk`` grows by per steady-state call — the
    quantity the trunk sweep families measure by differencing a two-op
    and a one-op run.
    """
    model = _plan_model(op, impl)
    if model is None or params.loss > 0.0:
        return None
    n = len(seg_of_rank)
    share = size // n
    nbytes = {"scatter": share * n, "gather": share,
              "allgather": share}.get(op, size)
    _frames, trunk = model(op, tuple(seg_of_rank), root, nbytes, params,
                           paths)
    return int(round(trunk))
