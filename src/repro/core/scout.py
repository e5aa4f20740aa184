"""Scout synchronization — the heart of the paper's contribution.

Before a root may multicast, it must *know* every receiver has posted its
receive.  The paper proposes two ways to gather that knowledge with
data-less scout messages:

* :func:`scout_gather_binary` — the **binary tree algorithm** (paper
  Fig. 3): scouts propagate up a binomial/binary tree rooted at the
  broadcast root; ``ceil(log2 N)`` sequential steps, ``N-1`` scouts.
  A parent's scout tells the root "my whole subtree is ready", because a
  parent only sends *after* hearing all of its children;
* :func:`scout_gather_linear` — the **linear algorithm** (paper Fig. 4):
  every rank scouts the root directly; the root consumes the ``N-1``
  scouts one at a time (its single receive path makes this ``N-1``
  sequential steps, which is why the paper expects binary to win).

Both return only when the caller may proceed; the *invariant* that makes
the following multicast safe is established by the caller posting its
multicast receive **before** invoking the gather (checked by the
property-based tests in ``tests/test_core_properties.py``).

The tree layout is the textbook binomial gather (MPICH's reduce tree).
The paper's Fig. 3 draws a slightly different edge layout, but the text
only requires "binary tree, height log2(K)+1, N-1 scout messages", which
this satisfies; the observable behaviour the paper reports — including
two inner nodes racing to send to the root at once on 6 nodes (its Fig. 9
discussion) — emerges identically.  DESIGN.md §7 records the choice.
"""

from __future__ import annotations

from typing import Generator

from .binomial import binomial_children, binomial_parent

__all__ = ["scout_gather_binary", "scout_gather_linear",
           "scout_scatter_binary", "report_fold_binary",
           "binary_tree_steps", "scout_count"]


def scout_count(n: int) -> int:
    """Scouts sent by either gather for ``n`` ranks (the paper's N-1)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return n - 1


def binary_tree_steps(n: int) -> int:
    """Sequential steps of the binary gather: ``ceil(log2 n)``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return (n - 1).bit_length()


def scout_gather_binary(comm, channel, seq: int,
                        root: int = 0, phase: str = "up") -> Generator:
    """Binomial-tree scout gather toward ``root``.

    Non-root ranks return once their scout is sent (their subtree is
    ready); the root returns once all ``N-1`` scouts are accounted for.
    """
    size = comm.size
    if size == 1:
        return
    rel = (comm.rank - root) % size
    mask = 1
    while mask < size:
        if rel & mask:
            parent = ((rel & ~mask) + root) % size
            yield from channel.send_scout(parent, seq, phase)
            return
        child_rel = rel | mask
        if child_rel < size:
            child = (child_rel + root) % size
            missing = yield from channel.wait_scouts({child}, seq, phase)
            if missing:  # pragma: no cover - no timeout passed
                raise AssertionError("scout gather timed out")
        mask <<= 1


def scout_scatter_binary(comm, channel, seq: int, root: int = 0,
                         tag: str = "scval", value=None) -> Generator:
    """Binomial top-down scatter of one small ``value`` from ``root`` —
    the mirror of :func:`scout_gather_binary`, riding the buffered scout
    socket as ``(tag, 0, value)`` tagged messages (scout-sized frames,
    ``N-1`` of them, ``ceil(log2 N)`` sequential steps).

    Every rank returns the root's value.  The "auto" collective-selection
    layer uses this to announce the root's per-call implementation
    choice before any rank commits to an algorithm's traffic pattern.
    """
    from .channel import SCOUT_BYTES

    size = comm.size
    if size == 1:
        return value
    rel = (comm.rank - root) % size
    if rel != 0:
        mask = 1
        while not rel & mask:
            mask <<= 1
        parent = ((rel & ~mask) + root) % size
        got = yield from channel.wait_tagged({parent}, seq, tag, 0)
        value = got[parent]
    for child in binomial_children(rel, size):
        dst = (child + root) % size
        yield from channel.send_tagged(dst, seq, tag, 0, value,
                                       SCOUT_BYTES, kind="scout-dec")
    return value


def report_fold_binary(comm, channel, seq: int, root: int, rnd,
                       missing, budget, nsegs: int) -> Generator:
    """Binomial bottom-up fold of one round's NACK reports toward
    ``root`` — :func:`scout_scatter_binary` run backwards over the tree
    :func:`scout_gather_binary` arms the round on, riding the buffered
    scout socket as ``("seg-report", rnd, (missing, budget))`` tagged
    messages (``N-1`` of them, ``ceil(log2 N)`` sequential steps).

    Every rank — pure bystanders included — hears each child's report,
    unions the child's missing set into its own ``missing``, keeps the
    smallest finite descriptor ``budget`` and sends ONE merged report
    to its parent, so the root hears ``ceil(log2 N)`` reports instead
    of ``N-1``.  Returns the folded ``(missing, budget)`` of the
    caller's subtree: the whole group's at the root.

    The fold doubles as the scout gather of the decision multicast that
    answers it: a rank reports only after its whole subtree has, and
    then blocks on the decision, so the root's fold completing *is*
    "every follower is waiting".
    """
    size = comm.size
    rel = (comm.rank - root) % size
    missing = set(missing)
    children = {(child + root) % size
                for child in binomial_children(rel, size)}
    reports = yield from channel.wait_tagged(children, seq, "seg-report",
                                             rnd)
    rec = comm.host.stats.recorder
    for child in sorted(reports):
        heard, ring = reports[child]
        if rec is not None:
            rec.nack_report(comm.sim.now, comm.host.addr, child, rnd,
                            heard, ring)
        missing.update(heard)
        if ring is not None and (budget is None or ring < budget):
            budget = ring
    if rel:
        parent = (binomial_parent(rel) + root) % size
        yield from channel.send_report(parent, seq, rnd, missing, budget,
                                       nsegs)
    return missing, budget


def scout_gather_linear(comm, channel, seq: int,
                        root: int = 0, phase: str = "up") -> Generator:
    """Linear scout gather: everyone scouts the root directly."""
    size = comm.size
    if size == 1:
        return
    if comm.rank == root:
        others = {r for r in range(size) if r != root}
        missing = yield from channel.wait_scouts(others, seq, phase)
        if missing:  # pragma: no cover - no timeout passed
            raise AssertionError("scout gather timed out")
    else:
        yield from channel.send_scout(root, seq, phase)
