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

**One walk.**  A gather is a tree walked upward — hear every child,
then tell the parent — and :func:`_walk_up` writes that once over the
channel's one control message and the rank's up-walk of
:func:`~repro.core.binomial.binomial_walk`: with no value it is the
scout gather (on the binomial tree or the star), with a value and a
merge it is the round engine's NACK report fold
(:func:`report_fold_binary`).
:func:`scout_scatter_binary` is the same tree walked downward, and
:func:`answer` is the one step that closes a gather: the root's ONE
control multicast, which every other rank waits for.

The tree layout is the textbook binomial gather (MPICH's reduce tree).
The paper's Fig. 3 draws a slightly different edge layout, but the text
only requires "binary tree, height log2(K)+1, N-1 scout messages", which
this satisfies; the observable behaviour the paper reports — including
two inner nodes racing to send to the root at once on 6 nodes (its Fig. 9
discussion) — emerges identically, so the scouts keep the one binomial
tree the p2p collectives use: both read their walks off
``core/binomial.py``, and nothing here spells the tree itself.
"""

from __future__ import annotations

from typing import Generator

from .binomial import binomial_walk
from .channel import SCOUT_BYTES

__all__ = ["answer", "scout_gather_binary", "scout_gather_linear",
           "scout_scatter_binary", "report_fold_binary",
           "binary_tree_steps"]


def binary_tree_steps(n: int) -> int:
    """Sequential steps of the binary gather: ``ceil(log2 n)``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return (n - 1).bit_length()


def _walk_up(comm, channel, seq: int, root: int, key, value=None,
             merge=None, nbytes: int = SCOUT_BYTES, kind: str = "scout",
             star: bool = False) -> Generator:
    """The up-walk: hear every child's ``(seq, key)`` message, merge
    their values into ``value`` in ascending child order, send ONE
    message to the parent; returns the subtree's value — the group's at
    ``root``, whose return therefore means "every rank got here".  The
    tree is the binomial one rooted at ``root`` or, ``star``, the
    paper's linear algorithm: everyone's parent is the root."""
    size = comm.size
    rank = comm.rank
    if star:
        children = set(range(size)) - {root} if rank == root else None
        parent = root
    else:
        children = []
        for src, dst, _cover in binomial_walk(size, root, rank, False):
            if dst == rank:
                children.append(src)
            else:
                parent = dst
    if children:
        heard = yield from channel.wait_ctrl(children, seq, key)
        if merge is not None:
            value = merge(comm, key, value, sorted(heard.items()))
    if rank != root:
        yield from channel.send_ctrl(parent, seq, key, value, nbytes, kind)
    return value


def scout_gather_binary(comm, channel, seq: int,
                        root: int = 0, phase: str = "up") -> Generator:
    """Binomial-tree scout gather toward ``root``: a non-root rank
    returns once its scout is sent (its subtree is ready), the root once
    all ``N-1`` scouts are accounted for."""
    return _walk_up(comm, channel, seq, root, phase)


def scout_gather_linear(comm, channel, seq: int,
                        root: int = 0, phase: str = "up") -> Generator:
    """Linear scout gather: everyone scouts the root directly."""
    return _walk_up(comm, channel, seq, root, phase, star=True)


def _merge_reports(comm, key, missing, heard):
    """Union of the subtree's missing sets."""
    missing = set(missing)
    rec = comm.host.stats.recorder
    for child, lost in heard:
        if rec is not None:
            rec.nack_report(comm.sim.now, comm.host.addr, child, key[1], lost)
        missing.update(lost)
    return frozenset(missing)


def report_fold_binary(comm, channel, seq: int, root: int, rnd,
                       missing, nsegs: int) -> Generator:
    """Fold round ``rnd``'s NACK reports toward ``root`` up the tree
    :func:`scout_gather_binary` armed it on.  Every rank — bystanders
    included — merges its children's missing sets into its own and
    sends ONE ``seg-report``, so the root hears ``ceil(log2 N)`` of them
    instead of ``N-1``.  Returns the caller's subtree's missing set (a
    ``frozenset``).

    The fold doubles as the scout gather of the decision multicast that
    answers it: a rank reports only after its whole subtree has, then
    blocks on the decision, so the root's fold completing *is* "every
    follower is waiting".
    """
    return _walk_up(comm, channel, seq, root, ("seg-report", rnd),
                    frozenset(missing), _merge_reports,
                    SCOUT_BYTES + (nsegs + 7) // 8, "seg-report")


def answer(comm, channel, seq: int, root: int, key, value=None,
           nbytes: int = SCOUT_BYTES, kind: str = "scout") -> Generator:
    """The gather's answer: ``root`` sends ONE ``(seq, key)`` control
    multicast carrying ``value`` and returns it; every other rank
    returns the root's value.  Every downward control multicast is one
    — the engine's stream header and per-round decision, the barrier's
    release — and each answers an up-walk of the same ``seq``, so the
    root sends only once every rank is waiting (or has the answer
    stashed: a rank running late finds it on the channel)."""
    if comm.rank == root:
        yield from channel.send_ctrl(None, seq, key, value, nbytes, kind)
        return value
    return (yield from channel.wait_ctrl({root}, seq, key))[root]


def scout_scatter_binary(comm, channel, seq: int, root: int = 0,
                         tag: str = "scval", value=None) -> Generator:
    """Binomial top-down scatter of one small ``value`` from ``root`` —
    the up-walk's mirror: ``N-1`` scout-sized ``scout-dec`` messages
    keyed ``tag``; every rank returns the root's value.  The "auto"
    selection layer announces the root's per-call implementation choice
    with it before any rank commits to a traffic pattern."""
    rank = comm.rank
    for src, dst, _cover in binomial_walk(comm.size, root, rank, True):
        if dst == rank:
            value = (yield from channel.wait_ctrl({src}, seq, tag))[src]
        else:
            yield from channel.send_ctrl(dst, seq, tag, value,
                                         kind="scout-dec")
    return value
