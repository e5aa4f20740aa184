"""Benchmark harness and reporting tests (small sweeps, fast)."""

import json

import pytest

from repro import run_spmd
from repro.bench import (Sample, Series, ascii_plot, crossover,
                         load_areas, measure, op_body)
from repro.bench.sweep import baseline_path
from repro.bench.sweep_areas import (DEEP_FLAT_IMPL, deep_trunk_case,
                                     thru_workload_case)
from repro.mpi.collective.registry import REGISTRY, Impl, get_impl

SIZES = [0, 2000]


def small_series():
    ser = Series(label="demo", impl="x", topology="hub", nprocs=4)
    for size, lat in [(0, 100.0), (0, 120.0), (0, 110.0),
                      (1000, 300.0), (1000, 310.0)]:
        ser.samples.append(Sample(size=size, iteration=0, latency_us=lat))
    return ser


@pytest.mark.parametrize("fabric", ["tree:2x2x2", "tree:[4,8,2]"])
def test_throughput_case_runs_on_any_tree_topology(fabric):
    """The ``sim-throughput`` case sizes its run from the parsed fabric,
    so deep and heterogeneous trees run too."""
    assert thru_workload_case("gate", 1, fabric)["events"] > 0


def test_series_median_and_spread():
    ser = small_series()
    assert ser.median(0) == 110.0
    assert ser.spread(0) == (100.0, 120.0)
    assert ser.sizes == [0, 1000]
    assert ser.medians() == {0: 110.0, 1000: 305.0}


def test_series_missing_size_raises():
    with pytest.raises(KeyError):
        small_series().median(999)


def test_measure_bcast_produces_full_grid():
    ser = measure("bcast", "p2p-binomial", "switch", 3, SIZES, reps=4,
                  seed=5)
    assert ser.sizes == SIZES
    for size in SIZES:
        assert len(ser.latencies(size)) == 4
        assert all(lat > 0 for lat in ser.latencies(size))


def test_measure_bcast_reproducible():
    a = measure("bcast", "mcast-binary", "hub", 3, SIZES, reps=3, seed=7)
    b = measure("bcast", "mcast-binary", "hub", 3, SIZES, reps=3, seed=7)
    assert a.medians() == b.medians()


def test_measure_barrier():
    ser = measure("barrier", "mcast", "hub", 4, [0], reps=5, seed=2)
    assert ser.sizes == [0]
    assert len(ser.latencies(0)) == 5


def test_measure_fails_an_iteration_that_overruns_its_window():
    # a 5 kB three-rank bcast takes well over 100 us: the next window
    # would open late, so the run fails instead of timing it
    with pytest.raises(AssertionError,
                       match=r"rank \d: iteration 0 overran its 100 us "
                             r"window"):
        measure("bcast", "p2p-binomial", "switch", 3, [5000], reps=2,
                window_us=100.0)


@pytest.mark.parametrize("op", ["bcast", "reduce", "allreduce", "scatter",
                                "gather", "allgather", "barrier"])
def test_op_body_runs_and_checks_every_op(op):
    def main(env):
        yield from op_body(op, 3000)(env)
        return True

    assert run_spmd(3, main).returns == [True] * 3


def test_op_body_catches_a_scatter_that_rotates_shares():
    """Every rank's share is its own: a scatter that hands rank r the
    share of rank r + 1 fails the check."""
    def main(env):
        honest = env.comm.scatter

        def rotated(objs, root):
            return honest(objs and objs[1:] + objs[:1], root)

        env.comm.scatter = rotated
        yield from op_body("scatter", 3000)(env)

    with pytest.raises(AssertionError, match="scatter share"):
        run_spmd(3, main)


def test_deep_trunk_case_checks_the_gather_result(monkeypatch):
    """Every trunk run asserts its result on every rank: a gather whose
    root returns one wrong element fails the gate case."""
    real = get_impl("gather", DEEP_FLAT_IMPL["gather"])

    def wrong_at_root(comm, obj, root=0):
        out = yield from real(comm, obj, root)
        return [b"wrong", *out[1:]] if comm.rank == root else out

    monkeypatch.setitem(REGISTRY["gather"], "test-wrong-root",
                        Impl(wrong_at_root, "flat"))
    with pytest.raises(AssertionError, match="rank 0: gather result"):
        deep_trunk_case("gate", 1, "tree:2x2x2", "gather",
                        impl="test-wrong-root")


def test_crossover_finder():
    fast = Series(label="fast", impl="f", topology="hub", nprocs=2)
    slow = Series(label="slow", impl="s", topology="hub", nprocs=2)
    for size in (0, 100, 200):
        # fast is worse at 0, better from 100 up
        fast.samples.append(Sample(size, 0, 50.0 + size * 0.1))
        slow.samples.append(Sample(size, 0, 40.0 + size * 0.3))
    assert crossover(fast, slow) == 100
    assert crossover(slow, fast) == 0


def test_crossover_never():
    a, b = small_series(), small_series()
    assert crossover(a, b) is None   # identical medians: never strictly <


def test_ascii_plot_smoke():
    out = ascii_plot([small_series()], width=40, height=8, title="p")
    assert "p" in out and "demo" in out


def test_figure_registry_complete():
    """Every figure of the paper (and each ablation the old scripts
    carried) is a named postcondition of the ``paper-figures`` area."""
    posts = {p.__name__ for p in load_areas()["paper-figures"].postconditions}
    assert {"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
            "framecounts", "ablation_reliability", "overrun",
            "via"} <= posts


@pytest.mark.slow
def test_fig7_smoke_tiny():
    mpich, linear, binary = (
        measure("bcast", impl, "hub", 4, [0, 4000], reps=3)
        for impl in ("p2p-binomial", "mcast-linear", "mcast-binary"))
    # even a tiny run shows the large-message multicast win
    assert binary.median(4000) < mpich.median(4000)
    assert linear.median(4000) < mpich.median(4000)


def test_framecounts_figure_rows():
    """The committed §3 table: multicast saves frames exactly when
    (f-1)(N-2) >= 1, i.e. for any multi-frame message once there are at
    least 3 processes."""
    doc = json.loads(baseline_path("paper-figures").read_text())
    rows = [dict(e["axes"], **e["metrics"]) for e in doc["series"]
            if e["family"] == "framecounts"]
    assert len(rows) == 8 * 4
    for r in rows:
        if r["n"] >= 3 and r["m"] >= 1500:
            assert r["paper_mcast_bcast"] <= r["paper_mpich_bcast"], r
        if r["n"] == 2:
            # two processes: multicast pays a scout for nothing
            assert r["paper_mcast_bcast"] >= r["paper_mpich_bcast"], r


def test_cli_requires_target():
    from repro.bench.cli import main

    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("flag", [["--all"], ["--reps", "3"],
                                  ["--seed", "1"], ["--markdown"]])
def test_cli_has_no_figure_mode(flag):
    from repro.bench.cli import main

    with pytest.raises(SystemExit):
        main(["sweep", "synthtest-none", *flag])


def test_profile_records_tally_sums_to_the_documents_events(capsys):
    """``profile --records`` names every kernel record of a case by the
    callable it schedules; the tally is the committed ``events`` count,
    and the three push methods are restored afterwards."""
    from repro.bench.cli import main
    from repro.simnet.kernel import Simulator

    def current():
        return (Simulator.schedule_call, Simulator.schedule_at,
                Simulator.schedule_fanout)

    pushes = current()
    case = "workload[fabric=tree:8x8]"
    assert main(["profile", "sim-throughput", case, "--records"]) == 0
    assert current() == pushes
    rows = [line.split(None, 1)
            for line in capsys.readouterr().out.splitlines()[1:]]
    tally = {name: int(n.replace(",", "")) for n, name in rows[:-1]}
    doc = json.loads(baseline_path("sim-throughput").read_text())
    events = next(e["metrics"]["events"] for e in doc["series"]
                  if e["key"] == case)
    assert sum(tally.values()) == events
    assert rows[-1][1].startswith(
        f"records pushed; sim.processed = {events:,} over 1 simulator")
    # receive completions, every one a ring's charge: told apart from
    # the Timeout of a send's or a match's CPU hold
    assert tally["DescriptorRing._charged"] > tally["Timeout._dispatch"] > 0
    assert tally["HalfLink._arrive"] > 0 and tally["Timer._pop"] > 0
