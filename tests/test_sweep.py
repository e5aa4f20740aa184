"""The sweep engine's contracts: cartesian expansion, per-case seed
determinism (same JSON bit-for-bit across reruns and worker counts),
schema round-trip, and the baseline-diff edge cases behind
``make bench-gate`` (new series, removed series, regression,
improvement).  A synthetic area registered at module level keeps the
engine tests independent of the real benchmark areas (and visible to
forked worker processes)."""

import copy
import json
import multiprocessing
import zlib

import pytest

from repro import run_spmd
from repro.core.channel import McastLost
from repro.bench.cli import main
from repro.bench.sweep import (AreaSpec, Family, baseline_path,
                               case_key, case_seed, diff_docs,
                               dumps_canonical, default_workers,
                               expand, find_series, load_areas, metric,
                               register_area, run_area, run_meta,
                               SCHEMA)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


# ---------------------------------------------------------------------------
# synthetic areas (module level: fork workers re-resolve by name)
# ---------------------------------------------------------------------------
def synth_grid_runner(scale, seed, size, mode):
    return {
        "frames_total": size // 100 + (7 if mode == "lossy" else 0),
        "latency_us_median": 500.0 + (seed % 97),
        "note": f"{mode}:{size}",
    }


def synth_single_runner(scale, seed):
    return {"frames_total": 1}


def _synth_families(scale):
    sizes = (100, 200) if scale == "gate" else (100, 200, 400)
    return [
        Family("grid", {"size": sizes, "mode": ("clean", "lossy")},
               synth_grid_runner),
        Family("single", {}, synth_single_runner),
    ]


def synth_post_lossy_costs_more(doc):
    for size in (100, 200):
        clean = metric(doc, "grid", "frames_total",
                       size=size, mode="clean")
        lossy = metric(doc, "grid", "frames_total",
                       size=size, mode="lossy")
        assert lossy > clean, (size, clean, lossy)


register_area(AreaSpec(
    name="synthtest",
    title="synthetic area exercising the sweep engine",
    families=_synth_families,
    postconditions=(synth_post_lossy_costs_more,),
))


def synth_failing_post(doc):
    raise AssertionError("reproduction criterion violated (on purpose)")


register_area(AreaSpec(
    name="synthtest-bad",
    title="synthetic area whose postcondition always fails",
    families=lambda scale: [Family("single", {}, synth_single_runner)],
    postconditions=(synth_failing_post,),
))


register_area(AreaSpec(
    name="synthtest-dup",
    title="synthetic area with colliding case keys",
    families=lambda scale: [
        Family("single", {}, synth_single_runner),
        Family("single", {}, synth_single_runner),
    ],
))


def synth_bad_metric_runner(scale, seed):
    return {"flag": True}


register_area(AreaSpec(
    name="synthtest-types",
    title="synthetic area returning a non-scalar metric",
    families=lambda scale: [
        Family("single", {}, synth_bad_metric_runner),
    ],
))


def synth_rank_failure_runner(scale, seed, n):
    """A rank program failing an assertion: the exception ``run_spmd``
    re-raises carries the cluster, which a worker cannot pickle."""
    def main(env):
        yield env.sim.timeout(1.0)
        assert env.rank == 0, f"rank {env.rank} disagrees (on purpose)"

    run_spmd(n, main)
    return {"frames_total": 1}


register_area(AreaSpec(
    name="synthtest-rank-failure",
    title="synthetic area whose rank programs fail an assertion",
    families=lambda scale: [
        Family("grid", {"n": (2, 3)}, synth_rank_failure_runner),
    ],
))


def synth_typed_failure_runner(scale, seed):
    """A typed error whose constructor takes more than a message."""
    raise McastLost(1, 7, reason="gave up (on purpose)")


register_area(AreaSpec(
    name="synthtest-typed-failure",
    title="synthetic area raising a multi-argument typed error",
    families=lambda scale: [
        Family("single", {}, synth_typed_failure_runner),
    ],
))


# ---------------------------------------------------------------------------
# expansion, keys, seeds
# ---------------------------------------------------------------------------
def test_expand_cartesian_product():
    cases = expand({"a": (1, 2), "b": ("x", "y", "z")})
    assert len(cases) == 6
    assert cases[0] == {"a": 1, "b": "x"}
    assert {frozenset(c.items()) for c in cases} == {
        frozenset({("a", i), ("b", s)})
        for i in (1, 2) for s in ("x", "y", "z")}


def test_expand_empty_axes_is_one_case():
    assert expand({}) == [{}]


def test_case_key_sorts_axes():
    assert case_key("fam", {"b": 2, "a": 1}) == "fam[a=1,b=2]"
    assert case_key("fam", {}) == "fam"


def test_case_seed_formula_and_distinctness():
    key = case_key("grid", {"size": 100, "mode": "clean"})
    expected = zlib.crc32(f"area:1:{key}".encode()) & 0x7FFFFFFF
    assert case_seed("area", 1, key) == expected
    assert 0 <= case_seed("area", 1, key) < 2 ** 31
    # distinct per area, base seed and key
    assert case_seed("area", 1, key) != case_seed("other", 1, key)
    assert case_seed("area", 1, key) != case_seed("area", 2, key)
    assert case_seed("area", 1, key) != case_seed("area", 1, "grid")


def test_default_workers_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.delenv("REPRO_SWEEP_WORKERS")
    assert default_workers() >= 1


# ---------------------------------------------------------------------------
# run_area: document shape, determinism, validation
# ---------------------------------------------------------------------------
def test_run_area_document_shape():
    doc = run_area("synthtest", workers=1)
    assert doc["schema"] == SCHEMA
    assert doc["area"] == "synthtest"
    assert doc["scale"] == "gate"
    assert doc["base_seed"] == 1
    assert set(doc["meta"]) == {"python", "platform", "git_commit",
                                "git_branch", "git_dirty"}
    keys = [s["key"] for s in doc["series"]]
    assert keys == sorted(keys)
    assert len(keys) == 5          # 2 sizes x 2 modes + 1 axis-free
    entry = find_series(doc, "grid", size=100, mode="lossy")
    assert entry["axes"] == {"size": 100, "mode": "lossy"}
    assert entry["seed"] == case_seed("synthtest", 1, entry["key"])
    assert entry["metrics"]["note"] == "lossy:100"


def test_run_area_full_scale_widens_grid():
    doc = run_area("synthtest", scale="full", workers=1)
    assert doc["scale"] == "full"
    assert len(doc["series"]) == 7  # 3 sizes x 2 modes + 1


def test_run_area_unknown_scale_rejected():
    with pytest.raises(ValueError, match="unknown scale"):
        run_area("synthtest", scale="huge")


def test_run_area_duplicate_keys_rejected():
    with pytest.raises(ValueError, match="duplicate case keys"):
        run_area("synthtest-dup", workers=1)


def test_run_area_rejects_non_scalar_metric():
    with pytest.raises(TypeError, match="must be int, float or str"):
        run_area("synthtest-types", workers=1)


def test_run_area_postconditions_gate_the_document():
    with pytest.raises(AssertionError, match="on purpose"):
        run_area("synthtest-bad", workers=1)
    # check=False collects the document without judging it
    doc = run_area("synthtest-bad", workers=1, check=False)
    assert doc["series"][0]["metrics"] == {"frames_total": 1}


@pytest.mark.parametrize("area", ["deep-fabric", "fabric-scaling"])
def test_trunk_model_postconditions_measure_the_simulator(area,
                                                          monkeypatch):
    """Every trunk case is simulated, so a simulator that miscounts a
    single trunk frame per call cannot pass the areas' model == sim
    postconditions (a model-answered case would compare the model with
    itself)."""
    from repro.bench import sweep_areas

    real = sweep_areas._deep_per_call
    monkeypatch.setattr(sweep_areas, "_deep_per_call",
                        lambda *args, **kw: real(*args, **kw) + 1)
    with pytest.raises(AssertionError):
        run_area(area, workers=1)


@pytest.mark.parametrize("workers", [
    1, pytest.param(2, marks=pytest.mark.skipif(
        not HAVE_FORK, reason="needs fork start method"))])
def test_failing_case_reports_its_key_and_assertion(workers):
    """A case failing inside a rank program surfaces as its own
    exception type and text, prefixed with the area and case key — from
    a worker process too, where the original (carrying the cluster it
    died in) cannot be pickled."""
    with pytest.raises(AssertionError,
                       match=r"^synthtest-rank-failure/grid\[n=2\]: "
                             r"rank 1 disagrees \(on purpose\)"):
        run_area("synthtest-rank-failure", workers=workers)


def test_failing_case_with_a_typed_error_keeps_its_name():
    """``McastLost(rank, seq, reason)`` cannot be rebuilt from a message;
    the case still surfaces as a ``RuntimeError`` (its base) naming it."""
    with pytest.raises(RuntimeError,
                       match=r"^synthtest-typed-failure/single: McastLost: "
                             r".*gave up \(on purpose\)"):
        run_area("synthtest-typed-failure", workers=1)


def test_rerun_is_bit_for_bit_identical():
    a = dumps_canonical(run_area("synthtest", workers=1))
    b = dumps_canonical(run_area("synthtest", workers=1))
    assert a == b


@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
def test_worker_pool_matches_inline_bit_for_bit():
    inline = dumps_canonical(run_area("synthtest", workers=1))
    pooled = dumps_canonical(run_area("synthtest", workers=2))
    assert inline == pooled


def test_base_seed_changes_every_case_seed():
    one = run_area("synthtest", base_seed=1, workers=1)
    two = run_area("synthtest", base_seed=2, workers=1)
    seeds1 = {s["key"]: s["seed"] for s in one["series"]}
    seeds2 = {s["key"]: s["seed"] for s in two["series"]}
    assert seeds1.keys() == seeds2.keys()
    assert all(seeds1[k] != seeds2[k] for k in seeds1)


# ---------------------------------------------------------------------------
# serialization round-trip + helpers
# ---------------------------------------------------------------------------
def test_schema_round_trip():
    doc = run_area("synthtest", workers=1)
    assert json.loads(dumps_canonical(doc)) == doc
    assert dumps_canonical(doc).endswith("\n")


def test_run_meta_has_no_timestamps():
    meta = run_meta()
    assert meta == run_meta()      # stable within a session
    assert not any("time" in k or "date" in k for k in meta)


def test_find_series_and_metric_errors():
    doc = run_area("synthtest", workers=1)
    with pytest.raises(KeyError, match="no series"):
        find_series(doc, "grid", size=999, mode="clean")
    with pytest.raises(KeyError, match="no metric"):
        metric(doc, "single", "nonexistent")


def test_registered_real_areas_present():
    areas = load_areas()
    assert {"segmented-bcast", "fabric-scaling",
            "deep-fabric"} <= set(areas)
    assert baseline_path("deep-fabric").name == "BENCH_deep-fabric.json"


# ---------------------------------------------------------------------------
# diff_docs: the bench-gate edge cases
# ---------------------------------------------------------------------------
@pytest.fixture()
def base_doc():
    return run_area("synthtest", workers=1)


def test_diff_identical_docs_ok(base_doc):
    report = diff_docs(base_doc, copy.deepcopy(base_doc))
    assert report.ok
    assert report.errors == []
    assert report.matched == len(base_doc["series"])


def test_diff_identity_mismatch(base_doc):
    fresh = copy.deepcopy(base_doc)
    fresh["scale"] = "full"
    report = diff_docs(base_doc, fresh)
    assert any("scale mismatch" in e for e in report.errors)


def test_diff_removed_series_is_error(base_doc):
    fresh = copy.deepcopy(base_doc)
    del fresh["series"][0]
    report = diff_docs(base_doc, fresh)
    assert not report.ok
    assert any("removed series" in e for e in report.errors)


def test_diff_new_series_is_error(base_doc):
    fresh = copy.deepcopy(base_doc)
    extra = copy.deepcopy(fresh["series"][0])
    extra["key"] = "grid[mode=clean,size=9999]"
    fresh["series"].append(extra)
    report = diff_docs(base_doc, fresh)
    assert not report.ok
    assert any("new series" in e for e in report.errors)


def test_diff_frame_regression_is_exact(base_doc):
    fresh = copy.deepcopy(base_doc)
    fresh["series"][0]["metrics"]["frames_total"] += 1
    report = diff_docs(base_doc, fresh)
    assert not report.ok
    assert any("regressed exactly" in e for e in report.errors)


def test_diff_frame_improvement_is_note_not_error(base_doc):
    fresh = copy.deepcopy(base_doc)
    fresh["series"][0]["metrics"]["frames_total"] -= 1
    report = diff_docs(base_doc, fresh)
    assert report.ok
    assert any("improved" in n for n in report.improvements)


def test_diff_latency_is_exact(base_doc):
    # the simulation is deterministic: a 10 % slower latency is a
    # regression, not drift
    fresh = copy.deepcopy(base_doc)
    entry = find_series(fresh, "grid", size=100, mode="clean")
    entry["metrics"]["latency_us_median"] *= 1.10
    report = diff_docs(base_doc, fresh)
    assert not report.ok and not report.improvements
    assert any("latency_us_median regressed exactly" in e
               for e in report.errors)


def test_diff_artificially_slowed_run_fails(base_doc):
    fresh = copy.deepcopy(base_doc)
    entry = find_series(fresh, "grid", size=100, mode="clean")
    entry["metrics"]["latency_us_median"] *= 3.0
    report = diff_docs(base_doc, fresh)
    assert not report.ok
    assert any("latency_us_median regressed exactly" in e
               for e in report.errors)


def test_diff_latency_big_improvement_is_note(base_doc):
    fresh = copy.deepcopy(base_doc)
    entry = find_series(fresh, "grid", size=100, mode="clean")
    entry["metrics"]["latency_us_median"] *= 0.2
    report = diff_docs(base_doc, fresh)
    assert report.ok
    assert any("improved" in n for n in report.improvements)


def test_diff_string_metric_compares_exactly(base_doc):
    fresh = copy.deepcopy(base_doc)
    find_series(fresh, "grid", size=100,
                mode="clean")["metrics"]["note"] = "tampered"
    report = diff_docs(base_doc, fresh)
    assert any("changed" in e for e in report.errors)


def test_diff_vanished_and_new_metric(base_doc):
    fresh = copy.deepcopy(base_doc)
    metrics = fresh["series"][0]["metrics"]
    del metrics["frames_total"]
    metrics["frames_other"] = 2
    report = diff_docs(base_doc, fresh)
    assert any("vanished" in e for e in report.errors)
    assert any("new metric" in e for e in report.errors)


# ---------------------------------------------------------------------------
# the CLI: write -> check round trip (what make bench-gate runs)
# ---------------------------------------------------------------------------
def test_cli_sweep_write_then_check_round_trip(tmp_path, capsys):
    argv = ["sweep", "synthtest", "--results-dir", str(tmp_path),
            "--workers", "1"]
    assert main(argv) == 0
    json_path = tmp_path / "BENCH_synthtest.json"
    md_path = tmp_path / "synthtest.md"
    assert json_path.exists() and md_path.exists()
    doc = json.loads(json_path.read_text())
    assert doc["schema"] == SCHEMA

    assert main(argv + ["--check"]) == 0
    out = capsys.readouterr().out
    assert "5 series within tolerance" in out


def test_cli_sweep_check_missing_baseline_fails(tmp_path, capsys):
    assert main(["sweep", "synthtest", "--results-dir",
                 str(tmp_path), "--workers", "1", "--check"]) == 1
    assert "no committed baseline" in capsys.readouterr().err


def test_cli_sweep_check_catches_tampered_baseline(tmp_path, capsys):
    argv = ["sweep", "synthtest", "--results-dir", str(tmp_path),
            "--workers", "1"]
    assert main(argv) == 0
    json_path = tmp_path / "BENCH_synthtest.json"
    doc = json.loads(json_path.read_text())
    # pretend history was cheaper: the fresh run now "regresses"
    entry = find_series(doc, "grid", size=100, mode="clean")
    entry["metrics"]["frames_total"] -= 1
    entry["metrics"]["latency_us_median"] = 10.0
    json_path.write_text(dumps_canonical(doc))
    assert main(argv + ["--check"]) == 1
    err = capsys.readouterr().err
    assert "frames_total regressed exactly" in err
    assert "latency_us_median regressed exactly" in err


def test_cli_sweep_check_flags_stale_markdown(tmp_path, capsys):
    argv = ["sweep", "synthtest", "--results-dir", str(tmp_path),
            "--workers", "1"]
    assert main(argv) == 0
    md_path = tmp_path / "synthtest.md"
    md_path.write_text(md_path.read_text() + "\nstale edit\n")
    assert main(argv + ["--check"]) == 1
    assert "does not match the committed baseline" in \
        capsys.readouterr().err


def test_cli_full_scale_never_lands_among_the_gate_baselines(
        tmp_path, capsys, monkeypatch):
    """``sweep --scale full`` used to overwrite the committed gate
    baselines in place (after which ``--check`` failed on the scale
    mismatch).  A non-gate document is summarised, never written into
    ``results_dir()`` — not even when ``--results-dir`` names it."""
    from repro.bench import sweep

    baselines = tmp_path / "results"
    monkeypatch.setattr(sweep, "results_dir", lambda: baselines)
    gate = ["sweep", "synthtest", "--workers", "1"]
    assert main(gate) == 0
    committed = (baselines / "BENCH_synthtest.json").read_bytes()
    capsys.readouterr()

    for argv in (gate + ["--scale", "full"],
                 gate + ["--scale", "full", "--results-dir",
                         str(baselines)]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "7 cases at scale 'full'" in out
        assert "all postconditions hold" in out and "wrote" not in out
    assert (baselines / "BENCH_synthtest.json").read_bytes() == committed
    assert main(gate + ["--check"]) == 0

    # a violated full-scale postcondition still fails the run
    with pytest.raises(AssertionError, match="on purpose"):
        main(["sweep", "synthtest-bad", "--scale", "full"])

    # ... and an explicit other directory does get the document
    elsewhere = tmp_path / "elsewhere"
    assert main(gate + ["--scale", "full", "--results-dir",
                        str(elsewhere)]) == 0
    kept = json.loads((elsewhere / "BENCH_synthtest.json").read_text())
    assert kept["scale"] == "full" and len(kept["series"]) == 7


def test_cli_sweep_unknown_area_exits_2(capsys):
    assert main(["sweep", "no-such-area"]) == 2
    assert "unknown area" in capsys.readouterr().err


def test_cli_stray_positional_rejected():
    with pytest.raises(SystemExit):
        main(["not-a-command"])
