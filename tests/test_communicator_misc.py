"""Communicator plumbing: contexts, dup nesting, validation."""

import pytest

from repro.mpi.collective.registry import REGISTRY, get_impl, register
from repro.runtime import run_spmd
from repro.simnet import quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH

QUIET = quiet(FAST_ETHERNET_SWITCH)


def test_ctx_split_pt2pt_vs_collective():
    """User p2p and collective-internal traffic use different contexts,
    so a user recv can never match a collective-internal message."""

    def main(env):
        assert env.comm.ctx_pt2pt != env.comm.ctx_coll
        if env.rank == 0:
            # a user message with the same tag a collective would use
            yield from env.comm.isend("user", dest=1, tag=1).wait()
        else:
            data = yield from env.comm.irecv(source=0, tag=1).wait()
            # interleave a collective to stress the separation
            yield from env.comm.barrier()
            return data
        yield from env.comm.barrier()

    result = run_spmd(2, main, params=QUIET)
    assert result.returns[1] == "user"


def test_nested_dup_contexts_unique():
    def main(env):
        a = yield from env.comm.dup()
        b = yield from a.dup()
        c = yield from env.comm.dup()
        ctxs = {env.comm.ctx, a.ctx, b.ctx, c.ctx}
        return len(ctxs)

    result = run_spmd(3, main, params=QUIET)
    assert result.returns == [4] * 3


def test_nested_split_of_split():
    def main(env):
        half = yield from env.comm.split(color=env.rank // 2,
                                         key=env.rank)
        solo = yield from half.split(color=half.rank, key=0)
        return (half.size, solo.size)

    result = run_spmd(4, main, params=QUIET)
    assert result.returns == [(2, 1)] * 4


def test_dup_inherits_collective_config():
    def main(env):
        env.comm.use_collectives(bcast="mcast-binary")
        dup = yield from env.comm.dup()
        # the dup uses the multicast broadcast too — verify via frame mix
        obj = "inherit" if env.rank == 0 else None
        out = yield from dup.bcast(obj, root=0)
        return out

    result = run_spmd(3, main, params=QUIET)
    assert result.returns == ["inherit"] * 3
    assert result.stats["frames_by_kind"].get("mcast-data", 0) >= 1


def test_use_collectives_unknown_name_raises():
    def main(env):
        with pytest.raises(KeyError):
            env.comm.use_collectives(bcast="warp-speed")
        yield env.sim.timeout(0.0)

    run_spmd(1, main, params=QUIET)


def test_use_collectives_returns_self_for_chaining():
    def main(env):
        same = env.comm.use_collectives(bcast="mcast-linear")
        assert same is env.comm
        yield env.sim.timeout(0.0)

    run_spmd(1, main, params=QUIET)


def test_addr_of_maps_ranks_to_hosts():
    def main(env):
        yield env.sim.timeout(0.0)
        return [env.comm.addr_of(r) for r in range(env.size)]

    result = run_spmd(3, main, params=QUIET)
    assert result.returns == [[0, 1, 2]] * 3


def test_split_subcomm_rank_addressing():
    """A sub-communicator's rank 0 can live on any host."""

    def main(env):
        # reversed key: sub rank 0 = old rank 2
        sub = yield from env.comm.split(color=0, key=-env.rank)
        data = "from-sub-root" if sub.rank == 0 else None
        data = yield from sub.bcast(data, root=0)
        return (sub.rank, data)

    result = run_spmd(3, main, params=QUIET)
    assert result.returns[2][0] == 0
    assert all(d == "from-sub-root" for _r, d in result.returns)


def test_registry_register_and_lookup():
    @register("bcast", "test-noop", "estimate: a test double")
    def _noop(comm, obj, root=0):
        yield comm.sim.timeout(0.0)
        return obj

    assert get_impl("bcast", "test-noop") is _noop
    with pytest.raises(KeyError, match="no implementation"):
        get_impl("bcast", "not-there")
    # an unknown *op* lists the valid op names, not an empty impl list
    with pytest.raises(KeyError, match=r"known ops: .*'bcast'"):
        get_impl("frobnicate", "x")
    del REGISTRY["bcast"]["test-noop"]


def test_rank_range_checks_on_collectives():
    def main(env):
        with pytest.raises(ValueError):
            env.comm.bcast("x", root=9).send(None)  # prime the generator
        yield env.sim.timeout(0.0)

    run_spmd(2, main, params=QUIET)


def test_sixtyfour_rank_world_smoke():
    """The stack holds up well beyond the paper's nine machines."""

    def main(env):
        total = yield from env.comm.allreduce(1, __import__(
            "repro.mpi", fromlist=["SUM"]).SUM)
        return total

    result = run_spmd(32, main, params=QUIET)
    assert result.returns == [32] * 32
