"""Tier-1 smoke test of the perf benchmark (``--smoke`` scale).

Tiny fabrics, one pass per workload; passes run in-process except where
a fresh interpreter is the point (exact repeatability, the CLI).  What
is pinned: the result schema against ``BENCHMARK.json``, exactness of
the simulated metrics and call counts, the ledger's reconciliation, the
oracle catching a wrong payload, and the benchmark's independence from
``repro.bench`` / ``benchmarks/_common.py`` / environment switches.
"""

import ast
import json
import pathlib
import re

import pytest

import compare
import metrics
import run
import simrun
import workloads

HERE = pathlib.Path(__file__).resolve().parent
SPEC = metrics.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke_runs():
    return run.measure(NAMES, 1, 0.0, None, is_smoke=True,
                       launch=simrun.run_pass)


def test_spec_matches_the_workloads_and_contract():
    assert NAMES == list(workloads.WORKLOADS)
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 <= b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert set(metrics.EXACT) <= set(bounds)
    for layer in metrics.LAYERS:
        assert {f"{layer}.self_share", f"{layer}.calls_per_op"} <= {
            m["name"] for m in SPEC["per_layer"]}


def test_result_schema_matches_benchmark_json(smoke_runs):
    doc = run.document(smoke_runs, 1, 0.0, None,
                       run.cross_check(smoke_runs))
    assert doc["problems"] == []
    assert list(doc["workloads"]) == NAMES
    for key in ("commit", "dirty", "python", "nproc", "seed",
                "noisy_host", "hosts"):
        assert key in doc["provenance"]
    for entry in doc["workloads"].values():
        assert entry["failed"] == 0 and entry["attempted"] > 0
        assert sorted(entry["end_to_end"]) == sorted(
            m["name"] for m in SPEC["end_to_end"])
        assert sorted(entry["per_layer"]) == sorted(
            m["name"] for m in SPEC["per_layer"])
        assert entry["end_to_end"]["ok_op_share"] == 1.0
    line = run.result_line(doc, SPEC)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    json.dumps(doc)         # the document is plain JSON


def test_ledger_reconciles_with_the_whole(smoke_runs):
    for name, r in smoke_runs.items():
        ledger, whole = r.per_layer(), r.end_to_end()
        shares = [ledger[f"{layer}.self_share"] for layer in metrics.LAYERS]
        assert sum(shares) == pytest.approx(1.0, abs=1e-6), name
        profiled = r.traced["profiled"]
        calls = sum(b["calls"] for b in profiled["profile"].values())
        assert calls == round(whole["py_calls_per_op"] * profiled["ops"])
        assert sum(ledger[f"{layer}.calls_per_op"]
                   for layer in metrics.LAYERS) == pytest.approx(
            whole["py_calls_per_op"], rel=1e-12), name
        # the bypass predictions that hold at any scale
        if not r.w.recorder:
            assert ledger["obs.calls_per_op"] == 0, name
        if name != "hier-auto":
            assert ledger["mpi.policy.calls_per_op"] == 0, name
    auto = smoke_runs["hier-auto"].per_layer()
    assert auto["mpi.policy.calls_per_op"] > 0
    assert auto["analysis.calls_per_op"] > 0
    lossy = smoke_runs["hier-lossy"].per_layer()
    assert lossy["mpi.policy.pick_share.hier"] == 1.0


def test_tracing_leaves_the_simulation_unchanged(smoke_runs):
    plain = smoke_runs["fabric-bcast"].end_to_end()
    traced = smoke_runs["fabric-bcast-traced"].end_to_end()
    for key in metrics.EXACT:
        if key != "py_calls_per_op":
            assert plain[key] == traced[key], key
    assert traced["py_calls_per_op"] > plain["py_calls_per_op"]


def test_corrupted_payload_counts_as_failed_op():
    w = workloads.smoke(workloads.WORKLOADS["hier-lossy"])
    spec = {"workload": w.name, "seed": 3, "pass_index": 0, "cycles": 1,
            "recorder": False, "smoke": True}
    inputs = [workloads.make_inputs(
        w, workloads.pass_seed(3, 0), 0, 2)]
    assert simrun.run_pass(spec, inputs)["failed"] == 0
    slot = next(i for i, c in enumerate(w.cycle) if c.op == "allgather")
    inputs[0][1][slot].crc ^= 1             # measured cycle, one call
    result = simrun.run_pass(spec, inputs)
    assert result["failed"] == 1 and result["ops"] == w.ops_per_cycle
    assert result["errors"] == []


def test_typed_error_fails_the_rest_of_the_pass(monkeypatch):
    def lost(*_args, **_kwargs):
        raise simrun.McastLost(0, 0, "injected")
    monkeypatch.setattr(simrun, "run_spmd", lost)
    result = simrun.run_pass({"workload": "lan-paper", "seed": 1,
                              "pass_index": 0, "cycles": 1,
                              "recorder": False, "smoke": True})
    # both legs: the hub leg raised, the switch leg never ran
    assert result["failed"] == result["ops"] == 48
    assert len(result["errors"]) == 1
    assert result["errors"][0].startswith("McastLost")


def test_children_never_see_an_environment_switch(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    env = run.child_env()
    assert not [k for k in env if k.startswith("REPRO")]
    assert env["PYTHONHASHSEED"] == "0"


def test_exact_counts_repeat_in_fresh_processes():
    """The same profiled pass in two fresh interpreters: simulated cost
    and per-layer call counts match bit for bit (in one process they
    need not — the collector's schedule depends on the heap it finds)."""
    spec = {"workload": "hier-lossy", "seed": 5, "pass_index": 0,
            "cycles": 1, "recorder": False, "smoke": True,
            "profile": True}
    a, b = run.launch_subprocess(spec), run.launch_subprocess(spec)
    assert a["ops"] == 14 and a["failed"] == 0
    assert a["import_s"] > 0
    for key in ("op_sim_us", "op_slot", "stats", "events", "peak_live",
                "picks", "setup_sim_us"):
        assert a[key] == b[key], key
    for layer in metrics.LAYERS:
        assert a["profile"][layer]["calls"] \
            == b["profile"][layer]["calls"], layer
    assert a["profile"]["core"]["calls"] > 0


def test_cli_prints_the_contract_line_and_compare_reads_it(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "launch_subprocess", simrun.run_pass)
    out = tmp_path / "runs.json"
    argv = ["--smoke", "--workload", "fabric-bcast", "--seed", "5",
            "--seconds", "0", "--trace", "0", "--out", str(out)]
    assert run.main(argv) == 0 and run.main(argv) == 0
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] == 2
    assert sorted(line["metrics"]) == sorted(
        m["name"] for m in SPEC["end_to_end"])
    assert all(set(v) == {"value", "unit"}
               for v in line["metrics"].values())
    docs = json.loads(out.read_text())
    assert len(docs) == 2 and docs[0]["provenance"]["seed"] == 5
    assert compare.main(["compare.py", str(out), str(out)]) == 0
    worse = json.loads(out.read_text())
    for doc in worse:
        doc["workloads"]["fabric-bcast"]["end_to_end"][
            "frames_per_op"] += 1
    bad = tmp_path / "worse.json"
    bad.write_text(json.dumps(worse))
    assert compare.main(["compare.py", str(out), str(bad)]) == 1
    rows = compare.compare(docs, worse, SPEC)
    assert len(rows) == len(SPEC["end_to_end"])
    assert [r[1] for r in rows if r[-1] == "worse"] == ["frames_per_op"]


def test_compare_verdicts():
    assert compare.verdict([100.0], [104.0], 0.10, True)[0] == "ok"
    assert compare.verdict([100.0], [120.0], 0.10, True)[0] == "worse"
    assert compare.verdict([100.0], [80.0], 0.10, True)[0] == "better"
    assert compare.verdict([1.0], [0.9], 0.0, False)[0] == "worse"
    noisy = [80.0, 100.0, 120.0, 140.0]
    assert compare.verdict(noisy, [90.0, 110.0, 130.0], 0.1,
                           True)[0] == "unresolved"
    assert compare.verdict(noisy, [60.0, 70.0], 0.1, True)[0] == "better"


def test_benchmark_depends_on_nothing_slated_for_deletion():
    """No ``repro.bench`` / ``_common`` import and no named environment
    switch anywhere in the benchmark's own files."""
    switch = re.compile("REPRO" + "_[A-Z]")
    for path in sorted(HERE.glob("*.py")):
        text = path.read_text()
        if path.name != pathlib.Path(__file__).name:
            assert not switch.search(text), path.name
        for node in ast.walk(ast.parse(text)):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            for name in names:
                assert not name.startswith("repro.bench"), path.name
                assert name != "_common", path.name
                assert name != "repro" or path.name == "simrun.py"
