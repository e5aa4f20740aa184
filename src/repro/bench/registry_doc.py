"""Generator for ``docs/collectives.md`` — the op × impl reference.

The collective registry (:mod:`repro.mpi.collective.registry`) is the
repo's experiment surface: every paper claim is a comparison of its
entries, and every PR grows it.  Hand-written tables of it rot, so this
module *derives* the reference — one row per registered implementation
with the first line of its docstring, plus the static defaults and the
``"auto"`` policy's candidate table — and a tier-1 test regenerates and
diffs it (``tests/test_registry_doc.py``; ``make docs-check`` and the
CI docs job run the same check), so the document can never go stale.

Regenerate with::

    python -m repro.bench.cli registry-doc            # rewrite the doc
    python -m repro.bench.cli registry-doc --check    # diff, exit 1 if stale
"""

from __future__ import annotations

import inspect
import pathlib

__all__ = ["collective_registry_doc", "default_doc_path"]

HEADER = """\
# Collective operations × implementations

<!-- AUTO-GENERATED by `python -m repro.bench.cli registry-doc`.
     Do not edit by hand: `make docs-check` (and the CI docs job)
     regenerate this file and fail on any diff. -->

Every collective is dispatched through the named registry in
`repro.mpi.collective.registry`; switch per communicator with
`comm.use_collectives(bcast="mcast-seg-nack")`, or pass `"auto"` to let
the payload-, topology- and loss-aware policy
(`repro.mpi.collective.policy`) resolve the implementation per call.
See `docs/ARCHITECTURE.md` for how the layers fit together.

The **frame model** column shows the model each implementation names
where it registers (`repro.analysis.framecount.model_coverage()`; rule
REG01 of `make lint-deep` checks every name is a known fold): *exact*
entries name the closed form that benchmarks assert against the
simulator's counters frame-for-frame; *estimate* entries say why only
a bound or asymptotic model exists.

A *composite* implementation (`registry.COMPOSITIONS`) runs the parts
its summary names, in order at root 0; its frame model is their sum,
and under `"auto"` its op is offered its parts' own picks.
"""


def default_doc_path() -> pathlib.Path:
    """``docs/collectives.md`` at the repository root."""
    return (pathlib.Path(__file__).resolve().parents[3]
            / "docs" / "collectives.md")


def _first_doc_line(fn) -> str:
    """First sentence of the first docstring paragraph (role markup
    and rank-name periods inside backticks do not end the sentence)."""
    doc = inspect.getdoc(fn)
    if not doc:
        return "(undocumented)"
    para = doc.strip().split("\n\n")[0]
    text = " ".join(line.strip() for line in para.splitlines())
    in_ticks = False
    for i, ch in enumerate(text):
        if ch == "`":
            in_ticks = not in_ticks
        if (ch == "." and not in_ticks
                and (i + 1 == len(text) or text[i + 1] == " ")):
            return text[:i + 1]
    return text


def collective_registry_doc() -> str:
    """Render the registry reference as Markdown (deterministic)."""
    # Importing these populates the registry: the p2p baselines and
    # hier-mcast via the collective package, the mcast-* families via
    # repro.core.
    import repro.core  # noqa: F401  (registration side effect)
    from repro.analysis.framecount import FOLDS, model_coverage
    from repro.mpi.collective import registry
    from repro.mpi.collective.policy import auto_capable, candidates

    coverage = model_coverage()

    def frame_model(op: str, name: str) -> str:
        entry = coverage[op, name]
        if entry.startswith("estimate:"):
            return "estimate — " + entry[len("estimate:"):].strip()
        fold = FOLDS[entry]
        return f"exact: `{fold.__module__}.{fold.__name__}`"

    lines = [HEADER]
    lines.append("## The matrix\n")
    lines.append("| op | implementations | default | auto candidates |")
    lines.append("|---|---|---|---|")
    for op in sorted(registry.REGISTRY):
        impls = ", ".join(f"`{name}`"
                          for name in sorted(registry.REGISTRY[op]))
        default = registry.DEFAULTS.get(op, "—")
        auto = "—"
        if auto_capable(op):
            models = candidates(op)
            # the baseline first: the p2p candidate or the parts' picks
            cand = [f"`{name}`" for name in
                    sorted(models, key=lambda name: models[name] != "p2p")]
            if op in registry.PART_OPS:
                cand.insert(0, " + ".join(
                    f"{part} pick" for part in registry.PART_OPS[op]))
            auto = ", ".join(cand)
        lines.append(f"| {op} | {impls} | `{default}` | {auto} |")
    lines.append("")
    for op in sorted(registry.REGISTRY):
        lines.append(f"## {op}\n")
        lines.append("| implementation | summary | frame model |")
        lines.append("|---|---|---|")
        for name in sorted(registry.REGISTRY[op]):
            summary = _first_doc_line(registry.REGISTRY[op][name].fn)
            summary = summary.replace("|", "\\|")
            model = frame_model(op, name).replace("|", "\\|")
            lines.append(f"| `{name}` | {summary} | {model} |")
        lines.append("")
    return "\n".join(lines)
