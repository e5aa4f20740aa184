"""REG01 — registry cross-consistency, executed against the live tables.

Parsing cannot see decorator side effects, so this rule *imports* the
package and checks the real registry — every implementation registered
beside the frame model that prices it — against the few tables it cannot
derive.  Gaps become tracked waivers instead of silence: an op with no
``flat`` implementation must carry a ``POLICY_WAIVERS`` entry, an
implementation with no closed-form model an ``estimate:`` marker.
"""

from __future__ import annotations

from pathlib import Path

from .engine import SourceFile, Violation

CODE = "REG01"
SUMMARY = "registry / policy / frame-model tables are inconsistent"

EXPLAIN = """\
Executed (not parsed) against the imported package.  Every
implementation names its frame model where it registers
(``@register(op, name, model)``), and "auto"'s candidates and the
coverage ledger are read off that one fact; the rule checks what the
fact cannot say itself:

* every registered (op, implementation) pair has a nonempty docstring
  (docs/collectives.md is generated from them — an empty one ships an
  empty row), and its model is an analysis.framecount.FOLDS name or an
  "estimate: <why>" marker with its reason;
* registry.DEFAULTS names a registered implementation of every
  registered op, and of no other op;
* policy coverage: an op outside policy.POLICY_WAIVERS has a "flat"
  implementation, or is a composition of such ops (allreduce: its
  reduce and bcast).  A waiver is *stale* once its op has a "flat"
  implementation or is no longer registered;
* every part of a registry.COMPOSITIONS row is registered;
* a plan: the op of every "flat" implementation must compile
  (``hier.compile_plan``) on the one-leaf tree — the flat candidate
  *is* that plan — and the op of every "hier" implementation on a
  two-leaf tree: the plan's step kinds are the only cost terms there
  are, so each must be a row of the stream schedule
  (``core.segment.step_streams``, which executor, interpreter and model
  all read) or one of ``forward`` / ``sync`` / ``release``.

So an op without a selection story ships only as a tracked waiver
(``barrier``'s is the one left): deleting the waiver without adding the
real policy or model brings the lint gate down.
"""


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


def check_tables(registry, defaults, waivers, folds, compositions=None,
                 where="registry") -> list[Violation]:
    """The pure consistency check (unit-testable with toy tables).

    ``registry`` maps ``op -> {impl -> (fn, model)}`` (fn objects may be
    plain callables), ``folds`` holds the model names, ``compositions``
    maps a composite ``(op, impl)`` to its parts; ``where`` anchors
    violations that have no better file.
    """
    compositions = compositions or {}
    out: list[Violation] = []

    def flag(msg: str, path: str = where, line: int = 1) -> None:
        out.append(Violation(CODE, path, line, msg))

    def models(op: str) -> set:
        return {model for _fn, model in registry.get(op, {}).values()}

    for op in sorted(registry):
        impls = registry[op]
        for name in sorted(impls):
            fn, model = impls[name]
            code = getattr(fn, "__code__", None)
            path, line = ((code.co_filename, code.co_firstlineno)
                          if code is not None else (where, 1))
            if not (getattr(fn, "__doc__", None) or "").strip():
                flag(f"({op}, {name}) has no docstring — "
                     f"docs/collectives.md is generated from these",
                     path, line)
            if model.startswith("estimate:"):
                if not model[len("estimate:"):].strip():
                    flag(f"({op}, {name}) estimate marker has no "
                         f"rationale", path, line)
            elif model not in folds:
                flag(f"({op}, {name}) names model {model!r}: neither a "
                     f"FOLDS name nor an 'estimate: <why>' marker",
                     path, line)
        if op not in defaults:
            flag(f"op {op!r} is registered but has no DEFAULTS entry")
        elif defaults[op] not in impls:
            flag(f"DEFAULTS[{op!r}] = {defaults[op]!r} is not a "
                 f"registered implementation of {op!r}")
        part_ops = {part for (row_op, _name), parts in compositions.items()
                    if row_op == op for part, _impl in parts}
        if op in waivers:
            if "flat" in models(op):
                flag(f"stale waiver: op {op!r} has a 'flat' "
                     f"implementation and a POLICY_WAIVERS entry")
        elif "flat" not in models(op) and not (
                part_ops and all("flat" in models(part) for part in part_ops)):
            flag(f"op {op!r} has no auto policy (a 'flat' implementation, "
                 f"or parts that all have one) and no POLICY_WAIVERS "
                 f"entry — gaps must be tracked, not silent")
        for model, seg_of_rank in (("flat", (0, 0)), ("hier", (0, 0, 1, 1))):
            gap = _plan_gap(op, seg_of_rank) if model in models(op) else None
            if gap:
                flag(f"op {op!r} has a {model!r} implementation but {gap}")
    for (op, name), parts in sorted(compositions.items()):
        for part, impl in parts:
            if impl not in registry.get(part, {}):
                flag(f"composition ({op}, {name}) names unregistered "
                     f"part ({part}, {impl})")
    for op in sorted(set(defaults) - set(registry)):
        flag(f"stale DEFAULTS entry for unregistered op {op!r}")
    for op in sorted(set(waivers) - set(registry)):
        flag(f"stale POLICY_WAIVERS entry for unregistered op {op!r}")
    return out


def finalize(files: list[SourceFile]) -> list[Violation]:
    reg_src = next((f for f in files
                    if f.module == "repro.mpi.collective.registry"),
                   None)
    if reg_src is None:
        return []
    try:
        import repro  # noqa: F401  (registers every implementation)
        from repro.analysis.framecount import FOLDS
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
                        policy.POLICY_WAIVERS, FOLDS,
                        registry.COMPOSITIONS, where=str(reg_src.path))
