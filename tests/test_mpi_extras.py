"""exscan, reduce_scatter, iprobe, waitall."""

import pytest

from repro.mpi import SUM, waitall
from repro.runtime import run_spmd
from repro.simnet import quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH

QUIET = quiet(FAST_ETHERNET_SWITCH)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_exscan(n):
    def main(env):
        return (yield from env.comm.exscan(env.rank + 1, SUM))

    result = run_spmd(n, main, params=QUIET)
    assert result.returns[0] is None
    for r in range(1, n):
        assert result.returns[r] == sum(range(1, r + 1))


def test_exscan_string_order():
    def main(env):
        return (yield from env.comm.exscan(str(env.rank), SUM))

    result = run_spmd(5, main, params=QUIET)
    assert result.returns == [None, "0", "01", "012", "0123"]


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_reduce_scatter(n):
    def main(env):
        # rank r contributes the vector [r*n + j for j in range(n)]
        objs = [env.rank * 10 + j for j in range(n)]
        return (yield from env.comm.reduce_scatter(objs, SUM))

    result = run_spmd(n, main, params=QUIET)
    # block j = sum over ranks of (rank*10 + j)
    ranks_sum = sum(range(n)) * 10
    assert result.returns == [ranks_sum + j * n for j in range(n)]


def test_reduce_scatter_wrong_length():
    def main(env):
        with pytest.raises(ValueError):
            yield from env.comm.reduce_scatter([1], SUM)

    run_spmd(3, main, params=QUIET, max_sim_us=1e6)


def test_iprobe_sees_unexpected_then_recv_consumes():
    def main(env):
        if env.rank == 0:
            yield from env.comm.send("probe-me", dest=1, tag=7)
            return None
        # Give the message time to arrive unexpected.
        yield env.sim.timeout(2000.0)
        status = env.comm.iprobe(source=0, tag=7)
        empty = env.comm.iprobe(source=0, tag=99)
        data = yield from env.comm.recv(source=0, tag=7)
        after = env.comm.iprobe(source=0, tag=7)
        return (status.source, status.count > 0, empty,
                data, after)

    result = run_spmd(2, main, params=QUIET)
    src, has_count, empty, data, after = result.returns[1]
    assert src == 0 and has_count and empty is None
    assert data == "probe-me" and after is None



def test_waitall_returns_data_in_request_order():
    def main(env):
        if env.rank == 0:
            reqs = [env.comm.irecv(source=1, tag=t) for t in (1, 2, 3)]
            return (yield from waitall(reqs))
        yield from env.comm.send("second", dest=0, tag=2)   # tag 2 first
        yield from env.comm.send("first", dest=0, tag=1)
        yield from env.comm.send("third", dest=0, tag=3)

    result = run_spmd(2, main, params=QUIET)
    assert result.returns[0] == ["first", "second", "third"]
