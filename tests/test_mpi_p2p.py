"""MPI point-to-point engine tests: matching, wildcards, protocols."""

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, MpiWorld
from repro.runtime import run_spmd
from repro.simnet import build_cluster, quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH

QUIET = quiet(FAST_ETHERNET_SWITCH)


def test_send_recv_roundtrip():
    def main(env):
        if env.rank == 0:
            yield from env.comm.isend({"x": 1}, dest=1, tag=7).wait()
            reply = yield from env.comm.irecv(source=1, tag=8).wait()
            return reply
        else:
            data = yield from env.comm.irecv(source=0, tag=7).wait()
            yield from env.comm.isend(data["x"] + 1, dest=0, tag=8).wait()
            return None

    result = run_spmd(2, main, params=QUIET)
    assert result.returns[0] == 2


def test_tag_matching_out_of_order():
    """A recv for tag 2 must skip an earlier tag-1 message."""

    def main(env):
        if env.rank == 0:
            yield from env.comm.isend("first", dest=1, tag=1).wait()
            yield from env.comm.isend("second", dest=1, tag=2).wait()
        else:
            two = yield from env.comm.irecv(source=0, tag=2).wait()
            one = yield from env.comm.irecv(source=0, tag=1).wait()
            return (one, two)

    result = run_spmd(2, main, params=QUIET)
    assert result.returns[1] == ("first", "second")


def test_any_source_any_tag():
    def main(env):
        if env.rank == 0:
            got = []
            for _ in range(2):
                req = env.comm.irecv(source=ANY_SOURCE, tag=ANY_TAG)
                data = yield from req.wait()
                got.append((data, req.status.source, req.status.tag))
            return sorted(got)
        else:
            yield env.sim.timeout(env.rank * 50.0)
            yield from env.comm.isend(f"from{env.rank}", dest=0,
                                      tag=env.rank * 10).wait()

    result = run_spmd(3, main, params=QUIET)
    assert result.returns[0] == [("from1", 1, 10), ("from2", 2, 20)]


def test_non_overtaking_same_pair_same_tag():
    def main(env):
        if env.rank == 0:
            for i in range(10):
                yield from env.comm.isend(i, dest=1, tag=0).wait()
        else:
            got = []
            for _ in range(10):
                req = env.comm.irecv(source=0, tag=0)
                got.append((yield from req.wait()))
            return got

    result = run_spmd(2, main, params=QUIET)
    assert result.returns[1] == list(range(10))


def test_isend_irecv_overlap():
    def main(env):
        if env.rank == 0:
            reqs = [env.comm.isend(i, dest=1, tag=i) for i in range(4)]
            for req in reqs:
                yield from req.wait()
        else:
            reqs = [env.comm.irecv(source=0, tag=i) for i in range(4)]
            out = []
            for req in reqs:
                out.append((yield from req.wait()))
            return out

    result = run_spmd(2, main, params=QUIET)
    assert result.returns[1] == [0, 1, 2, 3]


def test_posted_receives_complete_in_request_order():
    """Three receives posted for tags 1, 2, 3; tag 2 arrives first and
    must complete the second request, not the first."""

    def main(env):
        if env.rank == 0:
            reqs = [env.comm.irecv(source=1, tag=t) for t in (1, 2, 3)]
            out = []
            for req in reqs:
                out.append((yield from req.wait()))
            return out
        for data, tag in (("second", 2), ("first", 1), ("third", 3)):
            yield from env.comm.isend(data, dest=0, tag=tag).wait()

    result = run_spmd(2, main, params=QUIET)
    assert result.returns[0] == ["first", "second", "third"]


def test_sendrecv_exchanges_without_deadlock():
    def main(env):
        partner = 1 - env.rank
        data = yield from env.comm.sendrecv(f"hi-{env.rank}", dest=partner,
                                            sendtag=0, source=partner,
                                            recvtag=0)
        return data

    result = run_spmd(2, main, params=QUIET)
    assert result.returns == ["hi-1", "hi-0"]


def test_rendezvous_protocol_for_large_messages():
    """Messages above the eager threshold travel via RTS/CTS."""

    def main(env):
        big = np.arange(8192, dtype=np.float64)    # 64 KB > 16 KB threshold
        if env.rank == 0:
            yield from env.comm.isend(big, dest=1).wait()
        else:
            data = yield from env.comm.irecv(source=0).wait()
            return float(data.sum())

    result = run_spmd(2, main, params=QUIET)
    assert result.returns[1] == float(np.arange(8192).sum())
    kinds = result.stats["frames_by_kind"]
    assert kinds.get("p2p-rts", 0) == 1
    assert kinds.get("p2p-cts", 0) == 1


def test_eager_below_threshold_has_no_handshake():
    def main(env):
        if env.rank == 0:
            yield from env.comm.isend(b"x" * 1000, dest=1).wait()
        else:
            yield from env.comm.irecv(source=0).wait()

    result = run_spmd(2, main, params=QUIET)
    kinds = result.stats["frames_by_kind"]
    assert "p2p-rts" not in kinds
    assert "p2p-cts" not in kinds


def test_unexpected_message_queue_holds_early_sends():
    def main(env):
        if env.rank == 0:
            yield from env.comm.isend("early", dest=1, tag=5).wait()
        else:
            yield env.sim.timeout(3000.0)   # receive long after arrival
            data = yield from env.comm.irecv(source=0, tag=5).wait()
            return data

    result = run_spmd(2, main, params=QUIET)
    assert result.returns[1] == "early"


def test_buffer_api_send_recv():
    def main(env):
        if env.rank == 0:
            buf = np.arange(100, dtype=np.int32)
            yield from env.comm.isend(buf, dest=1, tag=3).wait()
        else:
            buf = yield from env.comm.irecv(source=0, tag=3).wait()
            return int(buf.sum())

    result = run_spmd(2, main, params=QUIET)
    assert result.returns[1] == sum(range(100))


def test_context_isolation_between_communicators():
    """p2p on a dup'ed communicator must not match COMM_WORLD traffic."""

    def main(env):
        comm2 = yield from env.comm.dup()
        if env.rank == 0:
            yield from env.comm.isend("world", dest=1, tag=0).wait()
            yield from comm2.isend("dup", dest=1, tag=0).wait()
        else:
            on_dup = yield from comm2.irecv(source=0, tag=0).wait()
            on_world = yield from env.comm.irecv(source=0, tag=0).wait()
            return (on_world, on_dup)

    result = run_spmd(2, main, params=QUIET)
    assert result.returns[1] == ("world", "dup")


def test_send_to_invalid_rank_raises():
    def main(env):
        if env.rank == 0:
            with pytest.raises(ValueError):
                env.comm.isend("x", dest=5)
        yield env.sim.timeout(1.0)

    run_spmd(2, main, params=QUIET)


def test_world_endpoint_counters():
    cluster = build_cluster(2, "switch", params=QUIET)
    world = MpiWorld(cluster)

    def main0():
        comm = world.comm_world(0)
        yield from comm._setup()
        yield from comm.isend("m", dest=1).wait()

    def main1():
        comm = world.comm_world(1)
        yield from comm._setup()
        yield from comm.irecv(source=0).wait()

    cluster.sim.process(main0())
    cluster.sim.process(main1())
    cluster.sim.run()
    assert world.endpoints[0].sent_messages >= 1
    assert world.endpoints[1].received_messages >= 1
