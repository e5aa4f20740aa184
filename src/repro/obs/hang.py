"""Hang diagnostics: what was everything doing when the run stalled?

:func:`build_hang_dump` renders the flight-recorder tail plus the live
simulation state into one deterministic text block: every live process
with its wait reason, every socket still holding posted receive
descriptors, and every open NACK round with the segment indices its
reassembler is still missing.  ``run_spmd`` calls it on four paths —
a ``max_sim_us`` deadline expiring with processes still live, a
:class:`~repro.simnet.kernel.DeadlockError`, a ``REPRO_SANITIZE``
quiesce failure, and a rank program raising (``McastLost``, ...; the
reason is the exception's type name) — and parks the text on
``recorder.hang_report``.
"""

from __future__ import annotations

from .export import format_event

__all__ = ["build_hang_dump"]

#: how many trailing recorder events the dump includes
TAIL_EVENTS = 40


def build_hang_dump(cluster, reason: str, tail: int = TAIL_EVENTS) -> str:
    sim = cluster.sim
    rec = cluster.stats.recorder
    lines = [f"== flight-recorder hang dump ({reason}) "
             f"at t={sim.now:.1f}us =="]

    lines.append("-- live processes --")
    snapshot = sim.process_snapshot()
    if not snapshot:
        lines.append("  (none)")
    for name, daemon, waiting in snapshot:
        tag = " [daemon]" if daemon else ""
        lines.append(f"  {name}{tag}: {waiting}")

    lines.append("-- posted receive descriptors --")
    posted_any = False
    for host in cluster.hosts:
        socks = host.ipstack._sockets
        for port in sorted(socks):
            depth = socks[port].posted_depth
            if depth:
                posted_any = True
                lines.append(f"  {host.name} port {port}: {depth} posted")
    if not posted_any:
        lines.append("  (none)")

    open_rounds = getattr(rec, "open_rounds", None)
    lines.append("-- open rounds --")
    entries = open_rounds() if open_rounds is not None else []
    if not entries:
        lines.append("  (none)")
    for rank, addr, label, missing in entries:
        who = f"rank{rank}" if rank >= 0 else f"host{addr}"
        lines.append(f"  {who} {label}: missing={missing}")

    events = getattr(rec, "events", None)
    if events:
        shown = min(tail, len(events))
        lines.append(f"-- last {shown} of {len(events)} events --")
        # One fid map across the tail: frame ids come from a counter
        # that keeps counting across simulations, so rebasing them to
        # first-seen order makes the dump byte-identical across reruns
        # of the same seeded case — the chaos fuzzer's replay contract.
        fid_map: dict = {}
        for ev in events[-shown:]:
            lines.append("  " + format_event(ev, fid_map))
    return "\n".join(lines) + "\n"
