"""Wire-activity timelines: see the algorithms happen.

:func:`record_timeline` runs an SPMD program under the flight recorder
(:class:`repro.obs.FlightRecorder`) and returns the chronological list
of wire events — a view over the recorder's ``send:*`` instants;
:func:`ascii_timeline` renders them as a Gantt-like strip per frame
kind.  The scout-then-multicast structure of the paper's Fig. 3/4
becomes directly visible::

    scout        |  ##  ## ##                                         |
    mcast-data   |            ########                                |
    p2p          |                                                    |

Used by ``examples/wire_timeline.py`` and the trace-based tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..obs import FlightRecorder
from ..runtime import run_spmd
from ..simnet.calibration import NetParams

__all__ = ["WireEvent", "record_timeline", "ascii_timeline",
           "kinds_in_order"]


@dataclass(frozen=True)
class WireEvent:
    """One frame put on a wire: start time, duration, kind."""

    start_us: float
    duration_us: float
    kind: str


def record_timeline(n: int, main: Callable, *, topology: str = "switch",
                    params: Optional[NetParams] = None, seed: int = 0,
                    collectives: Optional[dict] = None,
                    skip_before_us: float = 0.0) -> list[WireEvent]:
    """Run ``main`` under the flight recorder; returns its host-originated
    transmissions (the ``send:<kind>`` instants) as wire events sorted
    by time.

    ``skip_before_us`` drops setup traffic (e.g. MPI init) from the
    result.  Wire durations are computed from frame wire sizes at the
    cluster's link rate.
    """
    recorders = []

    def attach(cluster):
        # under REPRO_TRACE=1 run_spmd has attached a recorder already
        recorders.append(cluster.stats.recorder
                         or FlightRecorder().attach(cluster))

    result = run_spmd(n, main, topology=topology, params=params, seed=seed,
                      collectives=collectives, on_cluster=attach)
    rate_mbps = result.cluster.params.rate_mbps
    out = []
    for event in recorders[0].events:
        if event[0] != "inst" or not event[3].startswith("send:"):
            continue
        _inst, _rank, _cat, name, ts, args = event
        if ts >= skip_before_us:
            out.append(WireEvent(
                start_us=ts,
                duration_us=dict(args)["bytes"] / (rate_mbps / 8.0),
                kind=name[len("send:"):]))
    out.sort(key=lambda e: e.start_us)
    return out


def kinds_in_order(events: list[WireEvent]) -> list[str]:
    """Frame kinds in chronological order (for protocol-order tests)."""
    return [e.kind for e in sorted(events, key=lambda e: e.start_us)]


def ascii_timeline(events: list[WireEvent], width: int = 72,
                   title: str = "") -> str:
    """Render events as one strip per kind (# marks wire occupancy)."""
    if not events:
        return "(no wire activity)"
    t0 = min(e.start_us for e in events)
    t1 = max(e.start_us + e.duration_us for e in events)
    span = max(t1 - t0, 1e-9)
    kinds = sorted({e.kind for e in events})
    strips = {k: [" "] * width for k in kinds}
    for e in events:
        a = int((e.start_us - t0) / span * (width - 1))
        b = int((e.start_us + e.duration_us - t0) / span * (width - 1))
        for x in range(a, max(b, a) + 1):
            strips[e.kind][x] = "#"
    label_w = max(len(k) for k in kinds)
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'':>{label_w}}  {t0:.0f} us "
                 f"{'-' * max(width - 24, 1)} {t1:.0f} us")
    for k in kinds:
        lines.append(f"{k:>{label_w}} |{''.join(strips[k])}|")
    return "\n".join(lines)
