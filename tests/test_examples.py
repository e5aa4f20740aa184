"""Every example must run clean — examples are documentation."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def _run(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=300)


def test_quickstart_runs():
    proc = _run("quickstart.py")
    assert proc.returncode == 0, proc.stderr
    assert "mcast-binary" in proc.stdout
    assert "p2p-binomial" in proc.stdout


@pytest.mark.slow
def test_compare_broadcast_runs():
    proc = _run("compare_broadcast.py", "--reps", "4")
    assert proc.returncode == 0, proc.stderr
    assert "beats mpich from" in proc.stdout
    assert "hub" in proc.stdout and "switch" in proc.stdout


@pytest.mark.slow
def test_barrier_scaling_runs():
    proc = _run("barrier_scaling.py")
    assert proc.returncode == 0, proc.stderr
    assert "speedup" in proc.stdout
    # 8 process counts = 8 table rows with an 'x' speedup column
    assert proc.stdout.count("x") >= 8


def test_ordered_groups_runs():
    proc = _run("ordered_groups.py")
    assert proc.returncode == 0, proc.stderr
    assert "ORDER VIOLATION" not in proc.stdout
    assert "unsafe schedule rejected" in proc.stdout


def test_wire_timeline_runs():
    proc = _run("wire_timeline.py")
    assert proc.returncode == 0, proc.stderr
    assert "mcast-data" in proc.stdout
    assert "scout" in proc.stdout


@pytest.mark.slow
def test_parallel_jacobi_runs():
    proc = _run("parallel_jacobi.py")
    assert proc.returncode == 0, proc.stderr
    assert "numerics identical" in proc.stdout


def test_hier_cluster_runs():
    proc = _run("hier_cluster.py")
    assert proc.returncode == 0, proc.stderr
    assert "2 segments" in proc.stdout
    assert "leader: rank 4" in proc.stdout
    # the example prints flat-vs-hier per-call trunk frames (PR 18:
    # was one bcast row, hier 44 < flat 56).  The folded control plane
    # ties the hierarchy on block placement; the hierarchy must still
    # win where the rank tree fights the fabric, and on the turn loop
    rows = {ln.split(":")[0].strip(): ln.split()
            for ln in proc.stdout.splitlines() if " placement:" in ln}
    counts = {case: (int(row[-3]), int(row[-1]))
              for case, row in rows.items()}         # (flat, hier)
    assert counts["bcast, block placement"] == (44, 44)
    flat, hier = counts["bcast, round-robin placement"]
    assert hier < flat
    flat, hier = counts["reduce, block placement"]
    assert hier < flat


def test_deep_fabric_runs():
    proc = _run("deep_fabric.py")
    assert proc.returncode == 0, proc.stderr
    assert "4 segments, 3 switch tiers" in proc.stdout
    assert "leaders of leaders" in proc.stdout
    # the recursive hierarchy: a core group and one per mid switch
    assert "group at core: leader ranks [0, 4]" in proc.stdout
    assert "group at switch (1,): leader ranks [4, 6]" in proc.stdout
    # flat-vs-hier per-call trunk frames; the hierarchy must win
    lines = [ln.split() for ln in proc.stdout.splitlines()
             if "mcast-seg-root-follow" in ln or "hier-mcast" in ln]
    counts = {name: int(n) for name, n, *_rest in lines}
    assert counts["hier-mcast"] < counts["mcast-seg-root-follow"]


@pytest.mark.realnet
def test_real_multicast_runs():
    proc = _run("real_multicast.py")
    assert proc.returncode == 0, proc.stderr
    # either it validated, or it politely skipped
    assert ("validated against the real network stack" in proc.stdout
            or "skipping demo" in proc.stdout)
