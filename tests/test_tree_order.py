"""Message order on the binomial tree: every rank of the four MPICH tree
collectives and of the scout scatter sends and receives exactly its
oracle messages, in the oracle's order — every size from 1 to 17 and
every root.  Frame totals (``test_plan_model``) and the sweeps' few
sizes cannot see a walk that sends the right messages in the wrong
order; this can."""

import pytest

import _reference_tree as tree

from repro.core.scout import scout_scatter_binary
from repro.mpi import SUM, Op
from repro.runtime import run_spmd
from repro.simnet import quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH

QUIET = quiet(FAST_ETHERNET_SWITCH)
SIZES = range(1, 18)

#: associative, not commutative: the reduce runs at rank 0 and forwards
CONCAT = Op("concat", lambda a, b: a + b, commutative=False)


def calls(comm, root):
    """One call per case, keyed as :func:`expected` keys them."""
    size = comm.size
    shares = list(range(size)) if comm.rank == root else None
    yield "bcast", comm.bcast(comm.rank, root)
    yield "scatter", comm.scatter(shares, root)
    yield "gather", comm.gather(comm.rank, root)
    yield "reduce", comm.reduce(comm.rank, SUM, root)
    yield "reduce-noncomm", comm.reduce([comm.rank], CONCAT, root)


def expected(case, size, root, rank):
    if case in ("bcast", "scatter"):
        return tree.walk(size, root, rank, True)
    if case == "reduce-noncomm" and root != 0:
        forward = ([("send", root)] if rank == 0
                   else [("recv", 0)] if rank == root else [])
        return tree.walk(size, 0, rank, False) + forward
    return tree.walk(size, root, rank, False)


def recorded(n, main_of):
    """Run ``main_of(env, log)`` on ``n`` ranks; ``log`` collects this
    rank's ``(direction, peer)`` messages in issue order."""
    def main(env):
        log = []
        return (yield from main_of(env, log))

    return run_spmd(n, main, params=QUIET).returns


@pytest.mark.parametrize("n", SIZES)
def test_tree_collectives_issue_the_oracle_order(n):
    def main_of(env, log):
        comm = env.comm
        comm.use_collectives(bcast="p2p-binomial", scatter="p2p-binomial",
                             gather="p2p-binomial", reduce="p2p-binomial")
        send, recv = comm._send_coll, comm._recv_coll

        def send_coll(obj, dest, tag, nbytes=None):
            log.append(("send", dest))
            return send(obj, dest, tag, nbytes)

        def recv_coll(source, tag):
            log.append(("recv", source))
            return recv(source, tag)

        comm._send_coll, comm._recv_coll = send_coll, recv_coll
        out = {}
        for root in range(n):
            for case, call in calls(comm, root):
                del log[:]
                yield from call
                out[case, root] = list(log)
        return out

    for rank, out in enumerate(recorded(n, main_of)):
        for (case, root), got in out.items():
            assert got == expected(case, n, root, rank), (case, root, rank)


@pytest.mark.parametrize("n", SIZES)
def test_scout_scatter_issues_the_oracle_order(n):
    def main_of(env, log):
        channel = env.comm.mcast
        send, wait = channel.send_ctrl, channel.wait_ctrl

        def send_ctrl(dst, *args, **kw):
            log.append(("send", dst))
            return send(dst, *args, **kw)

        def wait_ctrl(srcs, *args, **kw):
            log.extend(("recv", src) for src in sorted(srcs))
            return wait(srcs, *args, **kw)

        channel.send_ctrl, channel.wait_ctrl = send_ctrl, wait_ctrl
        out = {}
        for root in range(n):
            del log[:]
            value = yield from scout_scatter_binary(
                env.comm, channel, channel.next_seq(), root,
                value=root if env.rank == root else None)
            assert value == root
            out[root] = list(log)
        return out

    for rank, out in enumerate(recorded(n, main_of)):
        for root, got in out.items():
            assert got == tree.walk(n, root, rank, True), (root, rank)
