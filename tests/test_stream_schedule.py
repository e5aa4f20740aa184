"""The stream schedule (:func:`repro.core.segment.step_streams`) and
its one executor :func:`~repro.core.segment.run_streams`, driven directly
over a flat communicator: every step kind at every group size and every
serving / collecting turn puts exactly the frames the plan fold prices
on the wire, keeps its bystanders descriptor-free and returns the
kind's result — and a row added to the schedule moves the executor and
the fold by the same amount."""

from dataclasses import replace

import pytest

from repro import run_spmd
from repro.analysis.framecount import model_flat_frames
from repro.core import segment
from repro.core.segment import run_streams
from repro.mpi.ops import Op
from repro.simnet import quiet
from repro.simnet.calibration import FAST_ETHERNET_SWITCH

AUTO = replace(quiet(FAST_ETHERNET_SWITCH), segment_bytes="auto")

#: stream kind -> the op whose one-group plan is that one step
OP_OF = {"serve": "bcast", "fold": "reduce", "collect": "gather",
         "deal": "scatter", "exchange": "allgather"}

#: every frame kind an engine stream (or the ready round) sends
ENGINE_KINDS = ("scout", "mcast-seg-hdr", "mcast-seg", "seg-report",
                "seg-dec")

CONCAT = Op("CONCAT", lambda a, b: a + b, commutative=False)

SHARE = 3000        # bytes per rank: three segments, above one MTU


def _part(rank):
    return bytes([rank + 1]) * SHARE


def _run(kind, k, at):
    """One quiet one-group run of ``kind`` at turn ``at``: (engine
    frames on the wire, per-rank results, per-rank posted high water)."""
    def main(env):
        if kind == "serve":
            mine = _part(at) if env.rank == at else None
        elif kind == "deal":
            mine = [_part(r) for r in range(k)] if env.rank == at else None
        else:
            mine = _part(env.rank)
        out = yield from run_streams(env.comm, kind, at, mine, CONCAT)
        return out, env.comm.mcast.data_sock.posted_high_water

    result = run_spmd(k, main, params=AUTO)
    kinds = result.stats["frames_by_kind"]
    return (sum(kinds.get(name, 0) for name in ENGINE_KINDS),
            [out for out, _hw in result.returns],
            [hw for _out, hw in result.returns])


def _modeled(kind, k, at):
    nbytes = SHARE * k if kind == "deal" else SHARE
    return model_flat_frames(OP_OF[kind], (0,) * k, at, nbytes, AUTO)[0]


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("kind", sorted(OP_OF))
def test_every_kind_at_every_turn_matches_the_fold(kind, k):
    everyone = [_part(r) for r in range(k)]
    for at in range(k):
        frames, outs, high_water = _run(kind, k, at)
        assert frames == _modeled(kind, k, at), at
        if kind == "serve":
            assert outs == [_part(at)] * k
        elif kind == "deal":
            assert outs == everyone
        elif kind == "exchange":
            assert outs == [everyone] * k
        else:
            want = b"".join(everyone) if kind == "fold" else everyone
            assert outs == [want if r == at else None for r in range(k)]
            # a contributor serves its own turn and stands by in every
            # other: it never posts a data descriptor
            assert [hw for r, hw in enumerate(high_water) if r != at] \
                == [0] * (k - 1)


def test_a_non_commutative_fold_keeps_rank_order_at_every_root():
    def main(env):
        outs = []
        for root in range(5):
            out = yield from run_streams(env.comm, "fold", root,
                                         f"<{env.rank}>", CONCAT)
            outs.append(out)
        return outs

    result = run_spmd(5, main, params=AUTO)
    for rank, outs in enumerate(result.returns):
        assert outs == ["<0><1><2><3><4>" if root == rank else None
                        for root in range(5)]


def test_one_sequence_number_per_call_at_size_one():
    def main(env):
        seqs = [env.comm.mcast.seq]
        for kind in sorted(OP_OF):
            mine = [b"x"] if kind == "deal" else b"x"
            out = yield from run_streams(env.comm, kind, 0, mine, CONCAT)
            assert out == ([b"x"] if kind in ("collect", "exchange")
                           else b"x")
            seqs.append(env.comm.mcast.seq)
        return seqs

    (seqs,) = run_spmd(1, main, params=AUTO).returns
    assert [b - a for a, b in zip(seqs, seqs[1:])] == [1] * len(OP_OF)


def test_a_schedule_row_moves_executor_and_fold_alike(monkeypatch):
    """The "cannot drift" claim: a ``collect`` whose collector also
    serves its own contribution (to itself; everyone else stands by) is
    one more stream on the wire and one more in the fold."""
    k, at = 4, 1
    wire, _outs, _hw = _run("collect", k, at)
    modeled = _modeled("collect", k, at)
    rows = segment.step_streams
    monkeypatch.setattr(
        segment, "step_streams", lambda kind, k, at: rows(kind, k, at) + (
            [(at, at)] if kind == "collect" else []))
    wire2, outs, _hw = _run("collect", k, at)
    assert outs[at] == [_part(r) for r in range(k)]
    assert wire2 - wire == _modeled("collect", k, at) - modeled > 0
