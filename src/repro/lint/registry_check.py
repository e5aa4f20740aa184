"""REG01 — registry cross-consistency, executed against the live tables.

Parsing cannot see decorator side effects, so this rule *imports* the
package and checks the real registry against the real policy and model
tables.  Gaps become tracked waivers instead of silence: an op with no
auto policy must carry a ``POLICY_WAIVERS`` entry, an implementation
with no closed-form frame model must carry an ``estimate:`` marker in
``MODEL_COVERAGE``.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from .engine import SourceFile, Violation

CODE = "REG01"
SUMMARY = "registry / policy / frame-model tables are inconsistent"

EXPLAIN = """\
Executed (not parsed) against the imported package; for every
registered (op, implementation) pair the rule requires:

* a nonempty docstring on the implementation (docs/collectives.md is
  generated from them — an empty one ships an empty row);
* a DEFAULTS entry for the op naming a registered implementation;
* policy coverage: the op appears in policy.AUTO_CHOICES (and its
  choices are registered names), is auto-capable through its parts
  (every row a composition of AUTO_CHOICES ops: allreduce) or carries a
  justified policy.POLICY_WAIVERS entry.  An op in both, or a waiver
  for an unregistered op, is *stale* and flagged;
* model coverage: the pair appears in
  analysis.framecount.MODEL_COVERAGE, mapping to a resolvable frame-
  model function (dotted path) or an explicit "estimate: <why>" marker.
  Entries for unregistered pairs, and dangling function paths, are
  flagged;
* compositions: every part of a registry.COMPOSITIONS row is
  registered, and the row's MODEL_COVERAGE entry is the one derived
  from its parts' (a hand entry is flagged);
* a plan: every op in AUTO_CHOICES must compile (``hier.compile_plan``)
  on the one-leaf tree — the flat segmented candidate *is* that plan —
  and every op in HIER_AUTO on a two-leaf tree: the plan's step kinds
  are the only cost terms there are, so each must be a row of the
  stream schedule (``core.segment.step_streams``, which executor,
  interpreter and model all read) or one of ``forward`` / ``sync`` /
  ``release``.

This turns the ROADMAP's alltoall/scan/exscan/reduce_scatter gaps into
tracked waivers: deleting the waiver without adding the real policy or
model brings the lint gate down.
"""


def _resolvable(dotted: str) -> bool:
    mod, _, attr = dotted.rpartition(".")
    if not mod:
        return False
    try:
        return callable(getattr(importlib.import_module(mod), attr))
    except (ImportError, AttributeError):
        return False


#: step kinds that run no engine stream: the p2p hop, the barrier's pair
_STREAMLESS = frozenset({"forward", "sync", "release"})


def _plan_gap(op: str, seg_of_rank: tuple) -> "str | None":
    """What is wrong with ``op``'s plan on that tree, or ``None``."""
    from repro.core.segment import step_streams
    from repro.mpi.collective.hier import build_hier_tree, compile_plan

    leaves = len(set(seg_of_rank))
    try:
        plan = compile_plan(op, build_hier_tree(seg_of_rank), 0)
    except KeyError:
        return (f"hier.compile_plan has no plan for it on a {leaves}-leaf "
                f"tree — without step kinds it has no cost term")
    for kind in sorted({step.kind for step in plan} - _STREAMLESS):
        try:
            step_streams(kind, 2, 0)
        except KeyError:
            return (f"its plan on a {leaves}-leaf tree holds step kind "
                    f"{kind!r}: neither a row of core.segment.step_streams "
                    f"nor forward / sync / release — nothing can run or "
                    f"price it")
    return None


def check_tables(registry, defaults, auto_choices, hier_auto, waivers,
                 coverage, compositions=None, where="registry",
                 resolvable=_resolvable) -> list[Violation]:
    """The pure consistency check (unit-testable with toy tables).

    ``where`` anchors violations that have no better file; entries are
    ``(op -> {impl -> fn})``, fn objects may be plain callables;
    ``compositions`` maps a composite ``(op, impl)`` to its parts.
    """
    from repro.analysis.framecount import composite_coverage

    compositions = compositions or {}
    out: list[Violation] = []

    def flag(msg: str, path: str = where, line: int = 1) -> None:
        out.append(Violation(CODE, path, line, msg))

    def anchor(fn) -> tuple[str, int]:
        code = getattr(fn, "__code__", None)
        if code is not None:
            return code.co_filename, code.co_firstlineno
        return where, 1

    for op in sorted(registry):
        impls = registry[op]
        for name in sorted(impls):
            fn = impls[name]
            doc = (getattr(fn, "__doc__", None) or "").strip()
            path, line = anchor(fn)
            if not doc:
                flag(f"({op}, {name}) has no docstring — "
                     f"docs/collectives.md is generated from these",
                     path, line)
            if (op, name) not in coverage:
                flag(f"({op}, {name}) has no MODEL_COVERAGE entry "
                     f"(analysis/framecount.py): name a frame model or "
                     f"an explicit 'estimate: <why>' marker",
                     path, line)
        if op not in defaults:
            flag(f"op {op!r} is registered but has no DEFAULTS entry")
        elif defaults[op] not in impls:
            flag(f"DEFAULTS[{op!r}] = {defaults[op]!r} is not a "
                 f"registered implementation of {op!r}")
        in_auto = op in auto_choices
        in_waivers = op in waivers
        # auto-capable through its parts: every row a composition of
        # auto-capable ops
        rows = [compositions.get((op, name)) for name in impls]
        by_parts = all(rows) and all(part in auto_choices for parts in rows
                                     for part, _impl in parts)
        if not in_auto and not in_waivers and not by_parts:
            flag(f"op {op!r} has no auto policy (AUTO_CHOICES) and no "
                 f"POLICY_WAIVERS entry — gaps must be tracked, not "
                 f"silent")
        if in_auto and in_waivers:
            flag(f"stale waiver: op {op!r} is in both AUTO_CHOICES and "
                 f"POLICY_WAIVERS")
        if in_auto:
            for impl in auto_choices[op]:
                if impl not in impls:
                    flag(f"AUTO_CHOICES[{op!r}] names unregistered "
                         f"implementation {impl!r}")
        if op in hier_auto and hier_auto[op] not in impls:
            flag(f"HIER_AUTO[{op!r}] names unregistered implementation "
                 f"{hier_auto[op]!r}")
        for table, name, seg_of_rank in (
                (auto_choices, "AUTO_CHOICES", (0, 0)),
                (hier_auto, "HIER_AUTO", (0, 0, 1, 1))):
            gap = _plan_gap(op, seg_of_rank) if op in table else None
            if gap:
                flag(f"op {op!r} is in {name} but {gap}")
    for (op, name), parts in sorted(compositions.items()):
        for part, impl in parts:
            if impl not in registry.get(part, {}):
                flag(f"composition ({op}, {name}) names unregistered "
                     f"part ({part}, {impl})")
        derived = composite_coverage(parts, coverage)
        if (op, name) in coverage and coverage[op, name] != derived:
            flag(f"MODEL_COVERAGE[({op}, {name})] is a hand entry for a "
                 f"composition: its entry derives from its parts "
                 f"({derived!r})")
    for op in sorted(set(defaults) - set(registry)):
        flag(f"stale DEFAULTS entry for unregistered op {op!r}")
    for op in sorted(set(waivers) - set(registry)):
        flag(f"stale POLICY_WAIVERS entry for unregistered op {op!r}")
    for op, impl in sorted(coverage):
        if op not in registry or impl not in registry[op]:
            flag(f"stale MODEL_COVERAGE entry for unregistered pair "
                 f"({op}, {impl})")
            continue
        value = coverage[(op, impl)]
        if value.startswith("estimate:"):
            if not value[len("estimate:"):].strip():
                flag(f"MODEL_COVERAGE[({op}, {impl})] estimate marker "
                     f"has no rationale")
        elif not resolvable(value):
            flag(f"MODEL_COVERAGE[({op}, {impl})] = {value!r} does not "
                 f"resolve to a callable frame model")
    return out


def finalize(files: list[SourceFile]) -> list[Violation]:
    reg_src = next((f for f in files
                    if f.module == "repro.mpi.collective.registry"),
                   None)
    if reg_src is None:
        return []
    try:
        import repro  # noqa: F401  (registers every implementation)
        from repro.analysis.framecount import MODEL_COVERAGE
        from repro.mpi.collective import policy, registry
    except Exception as exc:  # pragma: no cover - import breakage
        return [Violation(CODE, str(reg_src.path), 1,
                          f"could not import the package for the "
                          f"executed registry check: {exc!r}")]
    live = Path(registry.__file__).resolve()
    if reg_src.path.resolve() != live:
        # linting a fixture tree that merely *looks* like the repo —
        # the executed check only applies to the importable package
        return []
    return check_tables(registry.REGISTRY, registry.DEFAULTS,
                        policy.AUTO_CHOICES, policy.HIER_AUTO,
                        policy.POLICY_WAIVERS, MODEL_COVERAGE,
                        registry.COMPOSITIONS, where=str(reg_src.path))
