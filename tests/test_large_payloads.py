"""Large payloads: rendezvous in collectives, multi-fragment multicast."""

import numpy as np

from repro.mpi import SUM
from repro.runtime import run_spmd
from repro.simnet import quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH

QUIET = quiet(FAST_ETHERNET_SWITCH)


def test_bcast_p2p_rendezvous_path():
    """A 64 kB broadcast rides RTS/CTS on every tree edge."""

    def main(env):
        data = (np.arange(8192, dtype=np.float64) if env.rank == 0
                else None)
        data = yield from env.comm.bcast(data, root=0)
        return float(data.sum())

    result = run_spmd(5, main, params=QUIET)
    expected = float(np.arange(8192).sum())
    assert result.returns == [expected] * 5
    kinds = result.stats["frames_by_kind"]
    assert kinds.get("p2p-rts", 0) == 4       # one per tree edge
    assert kinds.get("p2p-cts", 0) == 4


def test_mcast_bcast_many_fragments():
    """100 kB through one multicast: ~69 fragments, all reassembled."""
    size = 100_000

    def main(env):
        data = bytes(size) if env.rank == 0 else None
        data = yield from env.comm.bcast(data, root=0)
        return len(data)

    result = run_spmd(4, main, params=QUIET,
                      collectives={"bcast": "mcast-binary"})
    assert result.returns == [size] * 4
    kinds = result.stats["frames_by_kind"]
    assert kinds.get("mcast-data", 0) == QUIET.frames_for(size + 8)
    assert result.stats["drops_not_posted"] == 0


def test_gather_large_subtree_payloads():
    def main(env):
        arr = np.full(2048, env.rank, dtype=np.float64)   # 16 kB each
        parts = yield from env.comm.gather(arr, root=0)
        if env.rank == 0:
            return [int(p[0]) for p in parts]

    result = run_spmd(6, main, params=QUIET)
    assert result.returns[0] == list(range(6))


def test_reduce_large_arrays_elementwise():
    def main(env):
        arr = np.full(4096, float(env.rank), dtype=np.float64)  # 32 kB
        out = yield from env.comm.reduce(arr, SUM, root=0)
        if env.rank == 0:
            return float(out[0])

    n = 5
    result = run_spmd(n, main, params=QUIET)
    assert result.returns[0] == float(sum(range(n)))
