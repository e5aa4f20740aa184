"""LAY01 — the enforced layering of the reproduction's import graph.

The stack mirrors the paper's Fig. 1 and the multilevel design of
Karonis et al.: the network substrate knows nothing of MPI, the
multicast engine knows MPI only through a handful of leaf modules, and
the closed-form models must stay importable without dragging in the
launcher or benches.  ``docs/ARCHITECTURE.md`` §"Enforced layering"
documents the same table this module executes.
"""

from __future__ import annotations

import ast
from typing import Optional

from .astutil import attach_parents, in_function
from .engine import SourceFile, Violation

CODE = "LAY01"
SUMMARY = "import crosses the simnet/core/mpi/analysis layering"

#: layer prefix -> repro prefixes it may import (any position)
ALLOWED: dict[str, tuple[str, ...]] = {
    "repro.simnet": ("repro.simnet",),
    "repro.obs": ("repro.simnet", "repro.obs"),
    "repro.core": ("repro.simnet", "repro.core"),
    "repro.mpi": ("repro.simnet", "repro.core", "repro.mpi"),
    "repro.analysis": ("repro.simnet", "repro.core", "repro.mpi",
                       "repro.analysis"),
}

#: exact extra modules a layer may import (the documented exceptions):
#: core's collectives register themselves and share the datatype/op
#: vocabulary, but never call into the p2p algorithm modules
ALLOWLIST: dict[str, frozenset[str]] = {
    "repro.core": frozenset({
        "repro.mpi.datatypes",
        "repro.mpi.ops",
        "repro.mpi.collective.registry",
        "repro.mpi.collective.tags",
    }),
}

#: extra prefixes allowed only for *deferred* (inside-function) imports:
#: the policy layer resolves its frame models at call time, which keeps
#: `import repro.analysis` from dragging the whole MPI stack in reverse
DEFERRED: dict[str, tuple[str, ...]] = {
    "repro.mpi": ("repro.analysis",),
}

EXPLAIN = """\
Layer table (module prefix -> repro imports it may make):

    repro.simnet    -> repro.simnet only (the substrate is MPI-blind)
    repro.obs       -> repro.simnet, repro.obs (the flight recorder
                       consumes the substrate's hook vocabulary; the
                       producer layers reach it only duck-typed through
                       stats.recorder, never by import)
    repro.core      -> repro.simnet, repro.core
                       + allowlist: repro.mpi.datatypes, repro.mpi.ops,
                         repro.mpi.collective.registry,
                         repro.mpi.collective.tags
                       (registration + shared vocabulary; never the p2p
                        algorithm modules)
    repro.mpi       -> repro.simnet, repro.core, repro.mpi
                       + repro.analysis *deferred only* (the policy
                         layer's call-time frame-model lookups)
    repro.analysis  -> repro.simnet, repro.core, repro.mpi,
                       repro.analysis (pure models: never the runtime
                       launcher, benches, or sockets backends)

repro.runtime / repro.bench / repro.sockets / repro.lint sit above the
table and are unrestricted (repro.sockets is a second launcher beside
repro.runtime's: it subclasses simnet's IpStack and boots the same MPI
world; the wall-clock reads DET01 forbids below live only there).
Relative imports are resolved before checking; a "deferred" import is
one inside a function body, paid at call time.  The same table is
documented in docs/ARCHITECTURE.md — keep the two in sync.
"""


def _layer(module: str) -> Optional[str]:
    for prefix in ALLOWED:
        if module == prefix or module.startswith(prefix + "."):
            return prefix
    return None


def _resolve(src_module: str, is_init: bool, node: ast.AST) -> list[str]:
    """Absolute dotted targets of an Import/ImportFrom node."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    assert isinstance(node, ast.ImportFrom)
    if node.level == 0:
        base = node.module or ""
        return [base] if base else []
    pkg = src_module.split(".")
    if not is_init:
        pkg = pkg[:-1]                      # the containing package
    pkg = pkg[:len(pkg) - (node.level - 1)]
    if node.module:
        return [".".join(pkg + node.module.split("."))]
    # ``from . import x, y`` — each name is a candidate submodule
    return [".".join(pkg + [alias.name]) for alias in node.names]


def check_file(src: SourceFile) -> list[Violation]:
    if src.module is None:
        return []
    layer = _layer(src.module)
    if layer is None:
        return []
    attach_parents(src.tree)
    is_init = src.path.name == "__init__.py"
    allowed = ALLOWED[layer]
    allowlist = ALLOWLIST.get(layer, frozenset())
    deferred_ok = DEFERRED.get(layer, ())
    out: list[Violation] = []
    for node in ast.walk(src.tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        deferred = in_function(node)
        for target in _resolve(src.module, is_init, node):
            if not (target == "repro" or target.startswith("repro.")):
                continue
            if any(target == p or target.startswith(p + ".")
                   for p in allowed):
                continue
            if target in allowlist:
                continue
            if deferred and any(target == p or target.startswith(p + ".")
                                for p in deferred_ok):
                continue
            out.append(Violation(
                CODE, str(src.path), node.lineno,
                f"{src.module} ({layer} layer) may not import {target}"
                + ("" if deferred else " at module level")
                + f"; allowed: {', '.join(allowed)}"
                + (f" + allowlist {sorted(allowlist)}" if allowlist
                   else "")))
    return out
