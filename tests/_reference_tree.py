"""The binomial tree as plain bit arithmetic on root-relative ranks — an
oracle written apart from :mod:`repro.core.binomial`, so the walks the
collectives and the scouts issue are not checked against themselves.

A rank's parent clears its lowest set bit; its children are
``rel + 2**k`` for every ``2**k`` below that bit (every power of two,
for the root) that stays inside the group.
"""


def parent(rel: int) -> int:
    """The parent of non-root relative rank ``rel``."""
    return rel & (rel - 1)


def children(rel: int, size: int) -> list:
    """The children of ``rel``, smallest subtree first."""
    out, bit = [], 1
    while rel + bit < size and not rel & bit:
        out.append(rel + bit)
        bit <<= 1
    return out


def walk(size: int, root: int, rank: int, down: bool) -> list:
    """``rank``'s messages as ``("recv" | "send", peer)`` in issue
    order: down, the parent's then the children biggest subtree first;
    up, the children smallest subtree first, then the parent."""
    rel = (rank - root) % size
    kids = [(c + root) % size for c in children(rel, size)]
    up = [(parent(rel) + root) % size] if rel else []
    if down:
        return ([("recv", p) for p in up]
                + [("send", c) for c in reversed(kids)])
    return [("recv", c) for c in kids] + [("send", p) for p in up]
