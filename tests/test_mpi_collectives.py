"""MPICH-style (p2p) collective algorithm correctness tests."""

import operator

import numpy as np
import pytest

from repro.mpi import MAX, Op, SUM
from repro.analysis.framecount import paper_mpich_barrier_messages
from repro.mpi.collective.barrier_p2p import largest_power_of_two_leq
from repro.core.binomial import binomial_edges, binomial_walk
from repro.runtime import run_spmd
from repro.simnet import quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH

QUIET = quiet(FAST_ETHERNET_SWITCH)
SIZES = [1, 2, 3, 4, 5, 7, 8, 9]


# ---------------------------------------------------------------- tree shape
def test_binomial_tree_matches_paper_figure2():
    """7 processes: root 0 sends to 4, 2, 1; 2 -> 3; 4 -> 6, 5 — each
    rank's down-walk is its parent's message, then its sends."""
    def walk(rank):
        return [(src, dst) for src, dst, _cover
                in binomial_walk(7, 0, rank, True)]

    assert walk(0) == [(0, 4), (0, 2), (0, 1)]
    assert walk(2) == [(0, 2), (2, 3)]
    assert walk(4) == [(0, 4), (4, 6), (4, 5)]
    assert walk(1) == [(0, 1)]
    assert walk(3) == [(2, 3)]
    # the up-walk is the same messages reversed, each the other way
    assert [(src, dst) for src, dst, _cover
            in binomial_walk(7, 0, 4, False)] == [(5, 4), (6, 4), (4, 0)]


def test_binomial_tree_is_a_spanning_tree():
    """Every rank but the root receives exactly one message down, and
    the walks of every root are the tree's edges rotated — covers
    included."""
    for n in range(2, 33):
        for root in (0, n // 2, n - 1):
            edges = {(src, dst, cover) for rank in range(n)
                     for src, dst, cover in binomial_walk(n, root, rank,
                                                          True)}
            assert len(edges) == n - 1
            assert {dst for _src, dst, _cover in edges} == (
                set(range(n)) - {root})
            assert edges == {((p + root) % n, (c + root) % n, cover)
                             for p, c, cover in binomial_edges(n)}


def test_largest_power_of_two():
    assert largest_power_of_two_leq(1) == 1
    assert largest_power_of_two_leq(7) == 4
    assert largest_power_of_two_leq(8) == 8
    assert largest_power_of_two_leq(9) == 8
    with pytest.raises(ValueError):
        largest_power_of_two_leq(0)


def test_barrier_message_count_formula():
    # paper: 2(N-K) + K log2 K
    assert paper_mpich_barrier_messages(7) == 2 * 3 + 4 * 2
    assert paper_mpich_barrier_messages(8) == 8 * 3
    assert paper_mpich_barrier_messages(9) == 2 * 1 + 8 * 3


# ---------------------------------------------------------------- bcast
@pytest.mark.parametrize("n", SIZES)
def test_bcast_binomial_delivers_everywhere(n):
    def main(env):
        obj = {"v": 42} if env.rank == 0 else None
        obj = yield from env.comm.bcast(obj, root=0)
        return obj["v"]

    result = run_spmd(n, main, params=QUIET)
    assert result.returns == [42] * n


@pytest.mark.parametrize("root", [0, 1, 3, 6])
def test_bcast_nonzero_root(root):
    def main(env):
        obj = "payload" if env.rank == root else None
        obj = yield from env.comm.bcast(obj, root=root)
        return obj

    result = run_spmd(7, main, params=QUIET)
    assert result.returns == ["payload"] * 7


# ---------------------------------------------------------------- barrier
@pytest.mark.parametrize("n", SIZES)
def test_barrier_synchronizes(n):
    """No rank may leave the barrier before the last rank has entered."""

    def main(env):
        yield env.sim.timeout(100.0 * env.rank)   # staggered entry
        entered = env.sim.now
        yield from env.comm.barrier()
        left = env.sim.now
        return (entered, left)

    result = run_spmd(n, main, params=QUIET)
    last_entry = max(e for e, _l in result.returns)
    for _entered, left in result.returns:
        assert left >= last_entry


# ---------------------------------------------------------------- reduce & co
@pytest.mark.parametrize("n", SIZES)
def test_reduce_sum(n):
    def main(env):
        total = yield from env.comm.reduce(env.rank + 1, SUM, root=0)
        return total

    result = run_spmd(n, main, params=QUIET)
    assert result.returns[0] == n * (n + 1) // 2
    assert all(r is None for r in result.returns[1:])


def test_reduce_respects_operand_order():
    """Non-commutative op: operands must combine in rank order."""
    concat = SUM  # string + is associative, not commutative

    def main(env):
        out = yield from env.comm.reduce(str(env.rank), concat, root=0)
        return out

    result = run_spmd(6, main, params=QUIET)
    assert result.returns[0] == "012345"


def test_reduce_non_commutative_nonzero_root_canonical_order():
    """Regression (ROADMAP PR 3 follow-up): the binomial tree rooted at
    a nonzero rank folded operands in *root-relative* order, so a
    non-commutative op at root=2 on 6 ranks produced "234501".  MPI
    requires canonical absolute-rank order; the fixed tree reduces to
    rank 0 and forwards, like MPICH."""
    concat = Op("CONCAT", lambda a, b: a + b, commutative=False)

    def main(env):
        out = yield from env.comm.reduce(str(env.rank), concat, root=2)
        return out

    result = run_spmd(6, main, params=QUIET)
    assert result.returns[2] == "012345"
    assert all(r is None for i, r in enumerate(result.returns) if i != 2)


def test_reduce_non_commutative_matches_seg_combine_at_nonzero_root():
    """The p2p tree and the segmented multicast reduce must agree on
    operand order for non-commutative ops at any root."""
    concat = Op("CONCAT", lambda a, b: a + b, commutative=False)

    def main(env):
        env.comm.use_collectives(reduce="mcast-seg-combine")
        seg = yield from env.comm.reduce(str(env.rank), concat, root=3)
        env.comm.use_collectives(reduce="p2p-binomial")
        p2p = yield from env.comm.reduce(str(env.rank), concat, root=3)
        return seg, p2p

    result = run_spmd(5, main, params=QUIET)
    assert result.returns[3] == ("01234", "01234")


@pytest.mark.parametrize("op,expect", [
    (MAX, 8), (Op("MIN", min), 0), (Op("PROD", operator.mul), 0),
])
def test_reduce_various_ops(op, expect):
    """The built-in MAX and two user-defined ops (``MPI_Op_create``)."""

    def main(env):
        return (yield from env.comm.reduce(env.rank, op, root=0))

    result = run_spmd(9, main, params=QUIET)
    assert result.returns[0] == expect


def test_maxloc_finds_rank():
    """MAXLOC as a user-defined op over ``(value, rank)`` pairs."""
    maxloc = Op("MAXLOC", max)

    def main(env):
        value = 100 - abs(env.rank - 3)     # peak at rank 3
        return (yield from env.comm.reduce((value, env.rank), maxloc,
                                           root=0))

    result = run_spmd(7, main, params=QUIET)
    assert result.returns[0] == (100, 3)


@pytest.mark.parametrize("n", SIZES)
def test_allreduce(n):
    def main(env):
        return (yield from env.comm.allreduce(env.rank, SUM))

    result = run_spmd(n, main, params=QUIET)
    assert result.returns == [n * (n - 1) // 2] * n


@pytest.mark.parametrize("n", SIZES)
def test_gather(n):
    def main(env):
        return (yield from env.comm.gather(env.rank * 10, root=0))

    result = run_spmd(n, main, params=QUIET)
    assert result.returns[0] == [r * 10 for r in range(n)]
    assert all(r is None for r in result.returns[1:])


def test_gather_nonzero_root():
    def main(env):
        return (yield from env.comm.gather(chr(65 + env.rank), root=2))

    result = run_spmd(5, main, params=QUIET)
    assert result.returns[2] == ["A", "B", "C", "D", "E"]


@pytest.mark.parametrize("n", SIZES)
def test_scatter(n):
    def main(env):
        objs = [f"item{r}" for r in range(n)] if env.rank == 0 else None
        return (yield from env.comm.scatter(objs, root=0))

    result = run_spmd(n, main, params=QUIET)
    assert result.returns == [f"item{r}" for r in range(n)]


def test_scatter_wrong_length_raises():
    def main(env):
        objs = ["only-one"] if env.rank == 0 else None
        with pytest.raises(ValueError):
            yield from env.comm.scatter(objs, root=0)

    # Other ranks would block forever; bound the run.
    run_spmd(3, main, params=QUIET, max_sim_us=1e6)


@pytest.mark.parametrize("n", SIZES)
def test_allgather(n):
    def main(env):
        return (yield from env.comm.allgather(env.rank ** 2))

    result = run_spmd(n, main, params=QUIET)
    assert result.returns == [[r * r for r in range(n)]] * n


# ---------------------------------------------------------------- ndarrays
def test_Bcast_numpy():
    def main(env):
        buf = np.arange(50, dtype=np.float64) if env.rank == 0 else None
        buf = yield from env.comm.bcast(buf, root=0)
        return float(buf.sum())

    result = run_spmd(4, main, params=QUIET)
    assert result.returns == [float(np.arange(50).sum())] * 4


def test_Reduce_Allreduce_numpy_elementwise():
    def main(env):
        send = np.full(8, env.rank, dtype=np.int64)
        top = yield from env.comm.reduce(send + 1, MAX, root=0)
        total = yield from env.comm.allreduce(send, SUM)
        return (None if top is None else top.tolist()), total.tolist()

    n = 5
    result = run_spmd(n, main, params=QUIET)
    assert result.returns[0][0] == [n] * 8
    assert [top for top, _ in result.returns[1:]] == [None] * (n - 1)
    assert [total for _, total in result.returns] == \
        [[n * (n - 1) // 2] * 8] * n


def test_Gather_Scatter_numpy():
    def main(env):
        send = np.full(4, env.rank, dtype=np.int32)
        rows = yield from env.comm.gather(send, root=0)
        if env.rank == 0:
            rows = list(np.stack(rows) * 2)
        out = yield from env.comm.scatter(rows, root=0)
        return out.tolist()

    result = run_spmd(3, main, params=QUIET)
    assert result.returns == [[2 * r] * 4 for r in range(3)]


# ---------------------------------------------------------------- dup/split
def test_split_into_even_odd():
    def main(env):
        sub = yield from env.comm.split(color=env.rank % 2, key=env.rank)
        val = yield from sub.allgather(env.rank)
        return (sub.rank, sub.size, val)

    result = run_spmd(6, main, params=QUIET)
    for rank, (sub_rank, sub_size, members) in enumerate(result.returns):
        assert sub_size == 3
        assert members == ([0, 2, 4] if rank % 2 == 0 else [1, 3, 5])
        assert sub_rank == rank // 2


def test_split_undefined_returns_none():
    def main(env):
        color = 0 if env.rank < 2 else None
        sub = yield from env.comm.split(color=color, key=env.rank)
        if sub is None:
            return "excluded"
        return (yield from sub.allgather(env.rank))

    result = run_spmd(4, main, params=QUIET)
    assert result.returns[0] == [0, 1]
    assert result.returns[2] == "excluded"
    assert result.returns[3] == "excluded"


def test_split_key_reorders_ranks():
    def main(env):
        sub = yield from env.comm.split(color=0, key=-env.rank)
        return (yield from sub.gather(env.rank, root=0))

    result = run_spmd(4, main, params=QUIET)
    # key = -rank: new rank 0 is old rank 3
    assert result.returns[3] == [3, 2, 1, 0]
