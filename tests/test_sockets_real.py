"""The registered collectives over real loopback multicast (skipped where
loopback multicast is off): one ``main(env)``, two launchers."""

import gc
import warnings
from dataclasses import replace

import pytest

from repro import run_spmd
from repro.core.rounds import Segment
from repro.mpi import ops
from repro.simnet import FAST_ETHERNET_SWITCH, Datagram
from repro.sockets import (LoopbackStack, decode, encode,
                           multicast_available, run_loopback)

pytestmark = pytest.mark.realnet

HAVE_MCAST = multicast_available()
needs_mcast = pytest.mark.skipif(
    not HAVE_MCAST, reason="UDP multicast on loopback unavailable")

CONCAT = ops.Op("concat", lambda a, b: a + b, commutative=False)
PAPER = {"bcast": "mcast-binary", "barrier": "mcast"}


# ---------------------------------------------------------------- framing
def test_framing_roundtrip():
    chunk = memoryview(b"0123456789")[2:7]
    dgram = Datagram(src=2, src_port=20003, dst=1, dst_port=40003,
                     payload=(2, 9, Segment(1, 4, 5, chunk)), size=17,
                     kind="mcast-seg")
    got, mcast_loop = decode(encode(dgram, mcast_loop=False), "127.0.0.1")
    assert mcast_loop is False
    assert got == replace(dgram, payload=(2, 9, Segment(1, 4, 5, b"23456")))
    assert type(got.payload[2].chunk) is bytes


def test_framing_rejects_garbage():
    with pytest.raises(ValueError):
        decode(b"\x00\x01", "127.0.0.1")        # short
    with pytest.raises(ValueError):
        decode(b"MC", "127.0.0.1")              # magic and nothing else
    with pytest.raises(ValueError):
        decode(b"\xff" * 32, "127.0.0.1")       # foreign magic


def test_framing_rejects_oversize():
    dgram = Datagram(0, 1, 1, 1, b"x" * 100_000, 100_000)
    with pytest.raises(ValueError, match="too large"):
        encode(dgram)


def test_framing_rejects_foreign_source_before_unpickling():
    """A wildcard-bound port is reachable from off-host: nothing from
    there may reach pickle, however well-formed it looks."""
    raw = encode(Datagram(0, 1, 1, 1, "hello", 5))
    assert decode(raw, "127.0.0.1")[0].payload == "hello"
    with pytest.raises(ValueError, match="foreign host 10.1.2.3"):
        decode(raw, "10.1.2.3")
    # an off-host sender's "pickle" is never loaded: this one is not
    # even a pickle, and the source check must win
    with pytest.raises(ValueError, match="foreign host"):
        decode(b"MC" + b"\x80not a pickle", "192.168.0.9")


@needs_mcast
def test_real_sender_does_not_hear_its_own_multicast():
    """Real ``IP_MULTICAST_LOOP`` is per machine and every rank lives on
    this one, the model's is per socket and the channel turns it off: the
    driver drops a host's own echo, so the root's unposted data socket
    sees nothing to drop."""
    def main(env):
        data = yield from env.comm.bcast("x" if env.rank == 0 else None, 0)
        yield from env.comm.barrier()
        return data

    result = run_loopback(3, main, PAPER)
    assert result.returns == ["x"] * 3
    assert result.stats["drops_not_posted"] == 0
    assert result.stats["drops_no_listener"] == 0


# ---------------------------------------------------------------- p2p
@needs_mcast
def test_real_send_recv():
    def main(env):
        comm = env.comm
        if comm.rank == 0:
            yield from comm.isend({"n": 41}, dest=1, tag=9).wait()
            return (yield from comm.irecv(source=1, tag=10).wait())
        data = yield from comm.irecv(source=0, tag=9).wait()
        yield from comm.isend(data["n"] + 1, dest=0, tag=10).wait()

    assert run_loopback(2, main).returns[0] == 42


@needs_mcast
def test_real_tag_matching():
    def main(env):
        comm = env.comm
        if comm.rank == 0:
            yield from comm.isend("first", dest=1, tag=1).wait()
            yield from comm.isend("second", dest=1, tag=2).wait()
            return None
        two = yield from comm.irecv(source=0, tag=2).wait()
        one = yield from comm.irecv(source=0, tag=1).wait()
        return (one, two)

    assert run_loopback(2, main).returns[1] == ("first", "second")


# ---------------------------------------------------------------- bcast
BINARY = pytest.param("mcast-binary", id="binary")
LINEAR = pytest.param("mcast-linear", id="linear")
P2P = pytest.param("p2p-binomial", id="p2p")
ACK = pytest.param("mcast-ack", id="ack")


@pytest.mark.parametrize("impl", [BINARY, LINEAR, P2P, ACK])
@needs_mcast
def test_real_bcast_impls(impl):
    expected = {"payload": list(range(200))}

    def main(env):
        obj = expected if env.rank == 0 else None
        return (yield from env.comm.bcast(obj, root=0))

    assert run_loopback(5, main, {"bcast": impl}).returns == [expected] * 5


@pytest.mark.parametrize("impl", [BINARY, LINEAR])
@needs_mcast
def test_real_bcast_nonzero_root(impl):
    def main(env):
        obj = f"from-{env.rank}" if env.rank == 2 else None
        return (yield from env.comm.bcast(obj, root=2))

    assert run_loopback(4, main, {"bcast": impl}).returns == ["from-2"] * 4


@needs_mcast
def test_real_bcast_large_payload_single_datagram():
    blob = bytes(range(256)) * 150       # 38.4 kB, one UDP datagram

    def main(env):
        obj = blob if env.rank == 0 else None
        return (yield from env.comm.bcast(obj, root=0))

    assert run_loopback(3, main, PAPER).returns == [blob] * 3


@needs_mcast
def test_real_bcast_sequence_order_preserved():
    """The paper's §4 scenario on real sockets: successive broadcasts
    from different roots arrive in program order everywhere."""
    roots = [1, 2, 3, 0, 2]

    def main(env):
        out = []
        for i, root in enumerate(roots):
            obj = (root, i) if env.rank == root else None
            out.append((yield from env.comm.bcast(obj, root=root)))
        return out

    expected = [(root, i) for i, root in enumerate(roots)]
    result = run_loopback(4, main, PAPER)
    assert result.returns == [expected] * 4


@needs_mcast
def test_real_bcast_many_iterations_no_crosstalk():
    def main(env):
        acc = []
        for i in range(30):
            obj = i if env.rank == 0 else None
            acc.append((yield from env.comm.bcast(obj, root=0)))
        return acc

    result = run_loopback(4, main, {"bcast": "mcast-linear"})
    assert result.returns == [list(range(30))] * 4


# ---------------------------------------------------------------- barrier
@pytest.mark.parametrize("impl", [pytest.param("mcast", id="mcast"),
                                  pytest.param("p2p-mpich", id="p2p")])
@needs_mcast
def test_real_barrier_synchronizes(impl):
    def main(env):
        yield env.sim.timeout(200 * env.rank)      # staggered entry
        entered = env.sim.now
        yield from env.comm.barrier()
        return (entered, env.sim.now)

    returns = run_loopback(5, main, {"barrier": impl}).returns
    last_entry = max(entered for entered, _left in returns)
    assert all(left >= last_entry for _entered, left in returns)


@needs_mcast
def test_real_mixed_collectives():
    def main(env):
        comm = env.comm
        a = yield from comm.bcast("x" if comm.rank == 0 else None, root=0)
        yield from comm.barrier()
        b = yield from comm.allreduce(comm.rank, ops.SUM)
        comm.use_collectives(barrier="p2p-mpich")
        yield from comm.barrier()
        g = yield from comm.gather(comm.rank * 2, root=0)
        return (a, b, g)

    n = 4
    returns = run_loopback(n, main, PAPER).returns
    total = n * (n - 1) // 2
    assert returns[0] == ("x", total, [0, 2, 4, 6])
    assert returns[1:] == [("x", total, None)] * (n - 1)


@needs_mcast
def test_real_reduce_rank_order():
    def main(env):
        return (yield from env.comm.reduce(str(env.rank), CONCAT, root=0))

    assert run_loopback(5, main).returns[0] == "01234"


@needs_mcast
def test_real_invalid_rank_raises():
    def main(env):
        with pytest.raises(ValueError):
            yield from env.comm.isend("x", dest=99).wait()
        return "ok"

    assert run_loopback(2, main).returns == ["ok", "ok"]


# ------------------------------------ what only one transport story checks
@needs_mcast
def test_real_seg_nack_repairs_loss():
    """The NACK-repair round engine over real UDP at 5 % data loss."""
    blob = bytes(range(256)) * 94        # 24 kB: 17 frame-sized segments

    def main(env):
        comm = env.comm
        data = yield from comm.bcast(blob if comm.rank == 0 else None, 0)
        total = yield from comm.allreduce(bytes([comm.rank]) * 1000, CONCAT)
        return (data, total)

    result = run_loopback(
        6, main, {"bcast": "mcast-seg-nack", "allreduce": "mcast-seg-nack"},
        params=replace(FAST_ETHERNET_SWITCH, loss=0.05), seed=7)
    expected = b"".join(bytes([r]) * 1000 for r in range(6))
    assert result.returns == [(blob, expected)] * 6
    assert result.stats["drops_lossy"] > 0
    assert result.stats["retransmissions"] > 0


@needs_mcast
def test_real_acked_multicast_repairs_a_late_receiver():
    """The paper's loss mode on a real stack: the data socket is
    posted-only above the swapped IP layer, so the first multicast lands
    before the late rank posts and is gone — ``mcast-ack``'s
    retransmission is what delivers it."""
    late = 2

    def main(env):
        comm = env.comm
        if comm.rank == late:
            yield env.sim.timeout(5_000)
        return (yield from comm.bcast("x" if comm.rank == 0 else None, 0))

    result = run_loopback(4, main, {"bcast": "mcast-ack"})
    assert result.returns == ["x"] * 4
    assert result.stats["drops_not_posted"] >= 1
    assert result.stats["retransmissions"] >= 1


def _tour(env):
    """A split and its sub-collectives, then one of everything."""
    comm = env.comm
    sub = yield from comm.split(color=comm.rank % 2, key=-comm.rank)
    out = [sub.rank, (yield from sub.bcast(
        ("sub", comm.rank) if sub.rank == 0 else None, 0))]
    out.append((yield from sub.allreduce(comm.rank, ops.SUM)))
    sub.free()
    blob = bytes(range(250)) * 36        # 9 kB
    out.append((yield from comm.bcast(blob if comm.rank == 3 else None, 3)))
    out.append((yield from comm.allgather(comm.rank * comm.rank)))
    parts = [f"part-{r}" for r in range(comm.size)]
    out.append((yield from comm.scatter(parts if comm.rank == 1 else None, 1)))
    out.append((yield from comm.reduce(str(comm.rank), CONCAT, root=2)))
    yield from comm.barrier()
    return out + [comm.impl_log]


AUTO_OPS = ("bcast", "allreduce", "reduce", "gather", "scatter", "allgather")
HIER_OPS = AUTO_OPS + ("barrier",)


@pytest.mark.parametrize("collectives", [
    pytest.param(PAPER, id="paper"),
    pytest.param(dict.fromkeys(AUTO_OPS, "auto"), id="auto"),
    pytest.param(dict.fromkeys(HIER_OPS, "hier-mcast"), id="hier-mcast"),
])
@needs_mcast
def test_real_equals_simulated(collectives):
    """One ``main``, two launchers, identical per-rank values and
    per-rank resolved implementations (``_tour`` returns the impl log)."""
    simulated = run_spmd(6, _tour, "switch", collectives=collectives)
    real = run_loopback(6, _tour, collectives)
    assert real.returns == simulated.returns


@needs_mcast
def test_real_teardown_leaves_nothing_open():
    """After a completed and after a crashing run: no real socket open,
    no simulated socket bound, no membership held."""
    def main(env, crash=False):
        hosts.append(env.host)
        sub = yield from env.comm.split(color=env.rank % 2)   # never freed
        yield from sub.barrier()
        if crash and env.rank == 1:
            raise RuntimeError("rank 1 exploded")
        yield from env.comm.barrier()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for crash in (False, True):
            hosts = []
            if crash:
                with pytest.raises(RuntimeError, match="rank 1 exploded"):
                    run_loopback(4, lambda env: main(env, crash=True), PAPER)
            else:
                run_loopback(4, main, PAPER)
            assert len(hosts) == 4
            for host in hosts:
                stack = host.ipstack
                assert isinstance(stack, LoopbackStack)
                assert stack._sockets == {} and stack._memberships == {}
                assert stack.uni.fileno() == stack.mcast.fileno() == -1
            gc.collect()
        assert [w for w in caught
                if issubclass(w.category, ResourceWarning)] == []
