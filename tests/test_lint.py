"""repro.lint: every rule code fires on a trigger fixture and stays
quiet on the matching clean fixture — plus the repo itself must lint
clean (the same gate ``make lint-deep`` / CI enforce)."""

import textwrap
from pathlib import Path

from repro.lint.engine import lint_paths, module_name, run_cli
from repro.lint.registry_check import check_tables

REPO = Path(__file__).resolve().parents[1]


def lint_tree(tmp_path, files):
    """Write ``{relpath: source}`` under tmp_path and lint the tree."""
    for rel, text in files.items():
        f = tmp_path / rel
        f.parent.mkdir(parents=True, exist_ok=True)
        f.write_text(textwrap.dedent(text))
    violations, _ = lint_paths([str(tmp_path)])
    return violations


def codes(violations):
    return {v.code for v in violations}


# ------------------------------------------------------------- harness
def test_module_name_resolution():
    assert module_name(Path("src/repro/core/segment.py")) == \
        "repro.core.segment"
    assert module_name(Path("x/repro/mpi/__init__.py")) == "repro.mpi"
    assert module_name(Path("tests/test_lint.py")) is None


def test_parse_error_is_reported_not_fatal(tmp_path):
    v = lint_tree(tmp_path, {"repro/core/bad.py": "def broken(:\n"})
    assert codes(v) == {"PARSE"}


def test_explain_known_and_unknown_codes(capsys):
    assert run_cli(["--explain", "LEAK01"]) == 0
    assert "post_ring" in capsys.readouterr().out
    assert run_cli(["--explain", "NOPE99"]) == 2


# -------------------------------------------------------------- LEAK01
def test_leak01_triggers_on_a_dropped_join(tmp_path):
    v = lint_tree(tmp_path, {"repro/core/x.py": """\
        def collect(sock, group):
            sock.join(group)
            return 1
    """})
    assert "LEAK01" in codes(v)


def test_leak01_triggers_on_a_ring_posted_with_no_close(tmp_path):
    v = lint_tree(tmp_path, {"repro/core/x.py": """\
        def drain(sock, take):
            ring = sock.post_ring(3, take)
            return 1

        def drain_and_close(sock, take):
            ring = sock.post_ring(3, take)
            try:
                use(ring)
            finally:
                ring.close()
    """})
    assert [(x.code, x.line) for x in v] == [("LEAK01", 2)]


def test_leak01_clean_with_try_finally_release(tmp_path):
    v = lint_tree(tmp_path, {"repro/core/x.py": """\
        def collect(sock, take):
            try:
                ring = sock.post_ring(1, take)
                use(ring)
            finally:
                ring.close()
    """})
    assert "LEAK01" not in codes(v)


def test_leak01_clean_when_result_is_transferred(tmp_path):
    v = lint_tree(tmp_path, {"repro/core/x.py": """\
        def post(sock, take):
            return sock.post_ring(1, take)
    """})
    assert "LEAK01" not in codes(v)


def test_leak01_clean_with_paired_method_in_class(tmp_path):
    v = lint_tree(tmp_path, {"repro/core/x.py": """\
        class Chan:
            def open(self):
                self.sock.join_group(self.group)
            def close(self):
                self.sock.leave_group(self.group)
    """})
    assert "LEAK01" not in codes(v)


def test_leak01_triggers_on_dropped_fault_injection(tmp_path):
    # a partitioned trunk is an acquired resource: its heal callable
    # dropped on the floor means teardown's IGMP leaves cannot cross
    v = lint_tree(tmp_path, {"repro/chaos/x.py": """\
        def cut(fabric, path):
            fabric.partition_trunk(path)
            return 1
    """})
    assert "LEAK01" in codes(v)


def test_leak01_clean_when_fault_heal_is_kept_or_released(tmp_path):
    v = lint_tree(tmp_path, {"repro/chaos/x.py": """\
        def cut_and_heal(cluster, fabric, path, addr):
            undo = fabric.partition_trunk(path)
            try:
                run(cluster)
            finally:
                undo()
                fabric.heal_trunk(path)

        def cut_for_caller(switch):
            return switch.power_off()

        def crash(cluster, addr, undos):
            undos.append(cluster.crash_host(addr))
    """})
    assert "LEAK01" not in codes(v)


# --------------------------------------------------------------- OBS01
def test_obs01_triggers_on_unpaired_span_begin(tmp_path):
    v = lint_tree(tmp_path, {"repro/core/x.py": """\
        def dispatch(rec, now, addr):
            token = rec.collective_begin(now, addr, 0, "bcast", "mcast")
            return run(token)
    """})
    assert "OBS01" in codes(v)


def test_obs01_clean_with_try_finally_end(tmp_path):
    v = lint_tree(tmp_path, {"repro/core/x.py": """\
        def dispatch(rec, now, addr):
            token = rec.phase_begin(now, addr, "up0")
            try:
                return run(token)
            finally:
                rec.phase_end(now, token)
    """})
    assert "OBS01" not in codes(v)


def test_obs01_clean_with_context_manager_form(tmp_path):
    v = lint_tree(tmp_path, {"repro/core/x.py": """\
        def dispatch(rec, now, addr):
            with rec.span_begin(now, addr):
                return run()
    """})
    assert "OBS01" not in codes(v)


def test_obs01_clean_with_paired_method_in_class(tmp_path):
    v = lint_tree(tmp_path, {"repro/core/x.py": """\
        class Meter:
            def start(self, rec, now):
                self.tok = rec.round_begin(now, 1, "serve", 0, 0, 4)
            def stop(self, rec, now):
                rec.round_end(now, self.tok)
    """})
    assert "OBS01" not in codes(v)


def test_obs01_triggers_on_unpaired_chaos_fault_begin(tmp_path):
    v = lint_tree(tmp_path, {"repro/chaos/x.py": """\
        def arm(rec, now):
            token = rec.chaos_fault_begin(now, "cut")
            return token
    """})
    assert "OBS01" in codes(v)


def test_obs01_clean_with_chaos_end_in_nested_closure(tmp_path):
    # the timed_fault idiom: begin fires inside the arm closure, end
    # inside the heal closure — both within one enclosing function
    v = lint_tree(tmp_path, {"repro/chaos/x.py": """\
        def timed(cluster, name, t0):
            state = {}

            def arm():
                rec = cluster.stats.recorder
                state["tok"] = rec.chaos_fault_begin(cluster.sim.now, name)

            def heal():
                rec = cluster.stats.recorder
                rec.chaos_fault_end(cluster.sim.now, state["tok"])

            cluster.sim.schedule_call(t0, arm)
            return heal
    """})
    assert "OBS01" not in codes(v)


def test_obs01_mismatched_end_name_still_triggers(tmp_path):
    v = lint_tree(tmp_path, {"repro/core/x.py": """\
        def dispatch(rec, now, addr):
            token = rec.phase_begin(now, addr, "up0")
            try:
                return run(token)
            finally:
                rec.round_end(now, token)
    """})
    assert "OBS01" in codes(v)


# --------------------------------------------------------------- DET01
def test_det01_triggers_on_wall_clock_and_set_iteration(tmp_path):
    v = lint_tree(tmp_path, {"repro/simnet/x.py": """\
        import time

        def stamp():
            return time.time()

        def fanout(members):
            members = set(members)
            for m in members:
                ping(m)
    """})
    det = [x for x in v if x.code == "DET01"]
    assert len(det) >= 2


def test_det01_clean_with_sorted_iteration_and_no_wall_clock(tmp_path):
    v = lint_tree(tmp_path, {"repro/simnet/x.py": """\
        def fanout(members):
            members = set(members)
            for m in sorted(members):
                ping(m)
            return sum(x for x in members)
    """})
    assert "DET01" not in codes(v)


def test_det01_triggers_on_registry_dict_iteration(tmp_path):
    v = lint_tree(tmp_path, {"repro/simnet/x.py": """\
        class Switch:
            def flood(self, group, ingress):
                refs = self._mcast_table.setdefault(group, {})
                for port in refs:
                    self.push(port)
                for mac, port in self._mac_table.items():
                    self.learn(mac, port)
    """})
    det = [x for x in v if x.code == "DET01"]
    assert len(det) == 2
    assert all("registry" in x.message for x in det)


def test_det01_clean_registry_iteration_when_sorted_or_setcomp(tmp_path):
    v = lint_tree(tmp_path, {"repro/simnet/x.py": """\
        class Switch:
            def members_of(self, group):
                refs = self._mcast_table.get(group, {})
                return {i for i, n in refs.items() if n > 0}

            def flood(self, group, ingress):
                members = self._mcast_table.get(group)
                return [i for i in sorted(members)
                        if members[i] > 0 and i != ingress]

            def census(self):
                return sum(n for n in self._mcast_refs.values())
    """})
    assert "DET01" not in codes(v)


def test_det01_triggers_on_environment_reads_models_included(tmp_path):
    """A simulated or modeled number may not depend on the process
    environment: the one DET01 check that also covers repro.analysis
    (whose set iteration stays out of scope)."""
    backend = """\
        import os
        from os import getenv

        def enabled():
            return os.environ.get("REPRO_FAST", "1") != "0"

        def level():
            return os.getenv("REPRO_LEVEL") or getenv("LEVEL")

        def edges(segs):
            return [s for s in set(segs)]
    """
    v = lint_tree(tmp_path, {"repro/analysis/backend.py": backend,
                             "repro/simnet/backend.py": backend,
                             "repro/obs/switch.py": backend})
    det = [x for x in v if x.code == "DET01"]
    env = [x for x in det if "process environment" in x.message]
    assert sorted((Path(x.path).parent.name, x.line) for x in env) == [
        ("analysis", 2), ("analysis", 5), ("analysis", 8),
        ("simnet", 2), ("simnet", 5), ("simnet", 8)]
    # the set iteration is flagged in the simulation layer only
    assert [Path(x.path).parent.name for x in det if x not in env] == [
        "simnet"]


def test_det01_ignores_modules_outside_sim_layers(tmp_path):
    v = lint_tree(tmp_path, {"repro/bench/x.py": """\
        import time

        def stamp():
            return time.time()
    """})
    assert "DET01" not in codes(v)


# --------------------------------------------------------------- LAY01
def test_lay01_triggers_on_substrate_importing_mpi(tmp_path):
    v = lint_tree(tmp_path, {"repro/simnet/x.py": """\
        from repro.mpi.world import MpiWorld
    """})
    assert "LAY01" in codes(v)


def test_lay01_triggers_on_core_importing_p2p_algorithms(tmp_path):
    v = lint_tree(tmp_path, {"repro/core/x.py": """\
        from repro.mpi.collective.tree_p2p import bcast_binomial
    """})
    assert "LAY01" in codes(v)


def test_lay01_allowlist_and_deferred_imports_are_clean(tmp_path):
    v = lint_tree(tmp_path, {
        "repro/core/x.py": """\
            from repro.mpi.collective.registry import register
            from repro.mpi.datatypes import type_size
        """,
        "repro/mpi/pol.py": """\
            def pick():
                from repro.analysis import framecount
                return framecount
        """})
    assert "LAY01" not in codes(v)


def test_lay01_resolves_relative_imports(tmp_path):
    v = lint_tree(tmp_path, {"repro/simnet/x.py": """\
        from ..mpi import world
    """})
    assert "LAY01" in codes(v)


# --------------------------------------------------------------- TAG01
def test_tag01_triggers_on_duplicate_tag_values(tmp_path):
    v = lint_tree(tmp_path, {"repro/mpi/collective/tags.py": """\
        TAG_A = 1
        TAG_B = 1
    """})
    assert "TAG01" in codes(v)


def test_tag01_triggers_on_round_namespace_key_collision(tmp_path):
    v = lint_tree(tmp_path, {
        "repro/core/a.py": 'ns = round_namespace("sc")\n',
        "repro/core/b.py": 'ns = round_namespace("sc")\n'})
    assert "TAG01" in codes(v)


def test_tag01_clean_with_distinct_tags_and_keys(tmp_path):
    v = lint_tree(tmp_path, {
        "repro/mpi/collective/tags.py": "TAG_A = 1\nTAG_B = 2\n",
        "repro/core/a.py": 'ns = round_namespace("sc")\n',
        "repro/core/b.py": 'ns = round_namespace("ag", turn)\n'})
    assert "TAG01" not in codes(v)


def test_tag01_triggers_on_control_key_minted_by_two_modules(tmp_path):
    v = lint_tree(tmp_path, {
        "repro/core/a.py": 'def f(ch):\n'
                           '    yield from ch.send_ctrl(0, 1, "ack")\n',
        "repro/core/b.py": 'def g(ch):\n'
                           '    yield from ch.wait_ctrl({1}, 1, ("ack", 0))'
                           '\n'})
    assert [x.path.rsplit("/", 1)[-1] for x in v if x.code == "TAG01"] \
        == ["b.py"]
    v = lint_tree(tmp_path / "answers", {
        "repro/core/a.py": 'a = answer(c, ch, 1, 0, "release", kind="x")\n',
        "repro/mpi/b.py": 'a = answer(c, ch, 1, 0, key="release")\n'})
    assert "TAG01" in codes(v)
    v = lint_tree(tmp_path / "walks", {
        "repro/core/a.py": 'g = scout_gather_binary(c, ch, 1, 0, "go")\n',
        "repro/mpi/b.py": 'g = scout_scatter_binary(c, ch, 1, tag="go")\n'})
    assert "TAG01" in codes(v)


def test_tag01_clean_with_one_module_per_control_key(tmp_path):
    v = lint_tree(tmp_path, {
        # both sides of one protocol, and a variable key, in one module
        "repro/core/a.py": 'def f(ch, key):\n'
                           '    yield from ch.send_ctrl(0, 1, "ack")\n'
                           '    yield from ch.wait_ctrl({1}, 1, "ack")\n'
                           '    yield from ch.wait_ctrl({1}, 1, key)\n',
        "repro/core/b.py": 'def g(ch, key):\n'
                           '    yield from ch.send_ctrl(None, 1, ("dec", 0))\n'
                           '    yield from ch.wait_ctrl({1}, 1, key=key)\n'})
    assert "TAG01" not in codes(v)


# --------------------------------------------------------------- SUP01
# (the magic comment is assembled at runtime so the scanner doesn't
# read these fixture strings as suppressions *in this file*)
_SKIP = "# repro-" + "lint: skip=LEAK01"


def test_sup01_unjustified_suppression_is_flagged(tmp_path):
    v = lint_tree(tmp_path, {"repro/core/x.py": f"""\
        def collect(sock, take):
            ring = sock.post_ring(1, take)  {_SKIP}
            return 1
    """})
    # the LEAK01 finding is silenced, but the naked skip becomes SUP01
    assert codes(v) == {"SUP01"}


def test_justified_suppression_silences_and_is_clean(tmp_path):
    v = lint_tree(tmp_path, {"repro/core/x.py": f"""\
        def collect(sock, take):
            ring = sock.post_ring(1, take)  {_SKIP} -- closed by caller
            return 1
    """})
    assert v == []


# --------------------------------------------------------------- REG01
def _doc(name):
    def fn():
        pass
    fn.__doc__ = f"the {name} algorithm"
    fn.__name__ = name
    return fn


def _toy_tables():
    registry = {"bcast": {"fast": (_doc("fast"), "flat"),
                          "slow": (_doc("slow"),
                                   "estimate: store-and-forward chain"),
                          "tree": (_doc("tree"), "hier")},
                "scan": {"lin": (_doc("lin"), "p2p")}}
    defaults = {"bcast": "slow", "scan": "lin"}
    waivers = {"scan": "inherently serial"}
    folds = {"flat", "hier", "p2p"}
    return registry, defaults, waivers, folds


def _check(**overrides):
    tables = dict(zip(("registry", "defaults", "waivers", "folds"),
                      _toy_tables()))
    tables.update(overrides)
    return check_tables(tables["registry"], tables["defaults"],
                        tables["waivers"], tables["folds"],
                        tables.get("compositions"))


def test_reg01_consistent_toy_tables_are_clean():
    assert _check() == []


def test_reg01_flags_missing_docstring():
    registry, *_ = _toy_tables()
    registry["bcast"]["fast"][0].__doc__ = "   "
    assert any("docstring" in v.message
               for v in _check(registry=registry))


def test_reg01_flags_missing_default_and_policy_gap():
    assert any("DEFAULTS" in v.message
               for v in _check(defaults={"scan": "lin"}))
    assert any("DEFAULTS" in v.message
               for v in _check(defaults={"bcast": "gone", "scan": "lin"}))
    assert any("no auto policy" in v.message
               for v in _check(waivers={}))


def test_reg01_flags_stale_waivers():
    """A waiver outlives its reason once its op gains a ``flat``
    implementation, or stops being registered."""
    assert any("stale waiver" in v.message for v in _check(
        waivers={"scan": "x", "bcast": "already has a policy"}))
    assert any("stale POLICY_WAIVERS" in v.message for v in _check(
        waivers={"scan": "x", "gather": "gone"}))


def test_reg01_flags_dangling_model_and_bare_estimate():
    registry, *_ = _toy_tables()
    registry["scan"]["lin"] = (_doc("lin"), "models.scan_lin")
    assert any("neither a FOLDS name" in v.message
               for v in _check(registry=registry))
    registry["scan"]["lin"] = (_doc("lin"), "estimate:")
    assert any("no rationale" in v.message
               for v in _check(registry=registry))


def test_reg01_flags_an_auto_op_without_a_plan():
    """``scan`` is registered and waived; giving it a flat and a
    hierarchical implementation without teaching ``compile_plan`` its
    steps is flagged — once per model."""
    registry, *_ = _toy_tables()
    registry["scan"].update(seg=(_doc("seg"), "flat"),
                            hier=(_doc("hier"), "hier"))
    found = _check(registry=registry, waivers={})
    assert sorted(v.message.split(" but ")[0] for v in found
                  if "no plan" in v.message) == [
        "op 'scan' has a 'flat' implementation",
        "op 'scan' has a 'hier' implementation"]


def test_reg01_flags_a_plan_step_kind_outside_the_schedule(monkeypatch):
    """A step kind that is neither a row of the stream schedule nor
    forward / sync / release has no executor and no cost term: dropping
    the ``exchange`` row orphans the allgather's plans (toy ``bcast``
    compiles to ``serve`` steps only and stays clean)."""
    from repro.core import segment

    registry, defaults, *_ = _toy_tables()
    registry["allgather"] = {"seg": (_doc("seg"), "flat"),
                             "hier": (_doc("hier"), "hier")}
    defaults["allgather"] = "seg"
    assert _check(registry=registry, defaults=defaults) == []
    rows = segment.step_streams
    monkeypatch.setattr(
        segment, "step_streams", lambda kind, k, at: rows(
            "no-such-row" if kind == "exchange" else kind, k, at))
    assert sorted(v.message.split(" holds ")[0] for v in _check(
        registry=registry, defaults=defaults)) == [
        "op 'allgather' has a 'flat' implementation but its plan on a "
        "1-leaf tree",
        "op 'allgather' has a 'hier' implementation but its plan on a "
        "2-leaf tree"]


def test_reg01_live_tables_are_consistent():
    import repro  # noqa: F401 - registers every implementation
    from repro.analysis.framecount import FOLDS
    from repro.mpi.collective import policy, registry

    assert check_tables(registry.REGISTRY, registry.DEFAULTS,
                        policy.POLICY_WAIVERS, FOLDS,
                        registry.COMPOSITIONS) == []


def _composite_tables():
    """The toy tables plus a composite ``allreduce`` of two toy parts."""
    registry, defaults, waivers, folds = _toy_tables()
    registry["reduce"] = {"tree": (_doc("tree"), "flat")}
    defaults["reduce"] = "tree"
    registry["allreduce"] = {"both": (_doc("both"), "parts")}
    defaults["allreduce"] = "both"
    return dict(registry=registry, defaults=defaults, waivers=waivers,
                folds=folds | {"parts"},
                compositions={("allreduce", "both"): (("reduce", "tree"),
                                                      ("bcast", "fast"))})


def _check_composite(**overrides):
    return _check(**{**_composite_tables(), **overrides})


def test_reg01_composite_auto_capable_through_its_parts_is_clean():
    """``allreduce`` has no flat implementation and no waiver: its one
    row is a composition of ops that have one, which is its policy."""
    assert _check_composite() == []
    # ... but not once a part's op has no flat implementation
    tables = _composite_tables()
    tables["registry"]["reduce"]["tree"] = (_doc("tree"), "p2p")
    found = _check_composite(registry=tables["registry"],
                             waivers={"scan": "serial", "reduce": "toy"})
    assert [v.message.split(" has ")[0] for v in found] == [
        "op 'allreduce'"]


def test_reg01_flags_a_composition_with_an_unregistered_part():
    found = _check_composite(compositions={
        ("allreduce", "both"): (("reduce", "gone"), ("bcast", "fast"))})
    assert any("unregistered part (reduce, gone)" in v.message
               for v in found), found


def test_estimate_markers_are_a_ratchet():
    """The ``estimate:`` debt is exactly these pairs: pricing another
    pair exactly shrinks the set here, and a new marker needs a
    deliberate edit of this test."""
    from repro.analysis.framecount import model_coverage

    assert sorted(pair for pair, entry in model_coverage().items()
                  if entry.startswith("estimate:")) == [
        ("bcast", "mcast-ack"), ("bcast", "mcast-sequencer")]


def test_netparams_fields_are_a_ratchet():
    """The platform's knobs are exactly these: a value the code can
    derive from them is not a new field, and adding one needs a
    deliberate edit of this test."""
    from dataclasses import fields

    from repro.simnet.calibration import NetParams

    assert [f.name for f in fields(NetParams)] == [
        "rate_mbps", "mtu", "prop_delay_us",
        "slot_time_us", "jam_time_us", "max_attempts", "backoff_limit",
        "switch_latency_us",
        "udp_send_us", "udp_recv_us", "tcp_send_us", "tcp_recv_us",
        "mpi_match_us", "per_frame_rx_us", "per_frame_tx_us",
        "mcast_send_extra_us", "mcast_recv_extra_us",
        "ip_header", "udp_header", "mpi_header",
        "jitter_sigma", "socket_buffer_bytes",
        "max_repair_rounds",
        "segment_bytes", "seg_auto_crossover", "seg_drain_timeout_us",
        "seg_drain_floor_us", "loss",
        "label"]


# ------------------------------------------------------------ the repo
def test_repo_lints_clean():
    """The gate itself: the real tree has zero findings."""
    paths = [str(REPO / d)
             for d in ("src", "tests", "benchmarks", "examples")]
    violations, nfiles = lint_paths(paths)
    assert violations == [], "\n".join(str(v) for v in violations)
    assert nfiles > 100
