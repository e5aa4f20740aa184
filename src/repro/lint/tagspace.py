"""TAG01 — tag-, round-namespace and control-key collision check.

Three independent namespaces keep concurrent protocol traffic apart:

* the collective-context p2p tags of ``repro/mpi/collective/tags.py``
  (``TAG_*`` constants) — two collectives sharing a tag value could
  cross-match envelopes;
* the multicast round-engine namespaces minted by
  ``repro.core.rounds.round_namespace(*key)`` — two *different* call
  sites minting the same key would collide in the per-sequence
  scout/report/decision tag space when their streams interleave;
* the control keys of ``McastChannel.send_ctrl`` / ``wait_ctrl`` (and
  of ``core.scout.answer``, which sends or waits for one) — one key
  space per sequence for scouts, acks, reports and decisions: a
  literal minted by two modules could cross-match.
"""

from __future__ import annotations

import ast
from collections import defaultdict

from .engine import SourceFile, Violation

CODE = "TAG01"
SUMMARY = "tag value, round_namespace key or control key collision"

EXPLAIN = """\
Checked over the whole linted tree:

* every ``TAG_* = <int>`` constant in a ``mpi/collective/tags.py``
  module must be pairwise distinct — the collective context relies on
  tags alone to demultiplex concurrent algorithms;
* every ``round_namespace(...)`` call site is reduced to a key
  signature: constant arguments keep their values, variable arguments
  become ``*``.  Two *distinct* call sites with the same signature are
  flagged unless the signature is all-variable (statically
  incomparable).  Give each engine user its own constant prefix —
  ``round_namespace("sc")``, ``round_namespace("ag", turn)`` — so
  interleaved streams can never mint the same (arm, round) tags;
* every constant control key — the ``key`` of a ``send_ctrl`` /
  ``wait_ctrl`` / ``answer`` call or the ``phase`` / ``tag`` handed to
  a scout walk;
  a string, or the leading string of a tuple (``("seg-dec", token)``) —
  belongs to one module: the same literal at call sites in two
  *modules* is flagged (a send and its wait live in one).
"""

#: callee -> (keyword, position) of its control-key argument
KEY_ARG = {"send_ctrl": ("key", 2), "wait_ctrl": ("key", 2),
           "answer": ("key", 4), "_walk_up": ("key", 4), "scout_gather_binary": ("phase", 4),
           "scout_gather_linear": ("phase", 4),
           "scout_scatter_binary": ("tag", 4)}


def _tag_violations(src: SourceFile) -> list[Violation]:
    values: dict[object, tuple[str, int]] = {}
    out: list[Violation] = []
    for node in src.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if not (isinstance(target, ast.Name)
                    and target.id.startswith("TAG_")):
                continue
            if not isinstance(node.value, ast.Constant):
                continue
            val = node.value.value
            if val in values:
                first, line = values[val]
                out.append(Violation(
                    CODE, str(src.path), node.lineno,
                    f"{target.id} = {val!r} collides with {first} "
                    f"(line {line}) — collective tags must be pairwise "
                    f"distinct"))
            else:
                values[val] = (target.id, node.lineno)
    return out


def _signature(call: ast.Call) -> tuple:
    sig = []
    for arg in call.args:
        if isinstance(arg, ast.Constant):
            sig.append(repr(arg.value))
        elif isinstance(arg, ast.Starred):
            sig.append("**")     # unknown arity: compare as opaque
        else:
            sig.append("*")
    return tuple(sig)


def _key_literal(call: ast.Call, name: str):
    """The constant string a call site mints as its control key, or
    ``None`` when the key is variable."""
    keyword, index = KEY_ARG[name]
    arg = next((kw.value for kw in call.keywords if kw.arg == keyword),
               call.args[index] if len(call.args) > index else None)
    if isinstance(arg, ast.Tuple) and arg.elts:
        arg = arg.elts[0]
    return (arg.value if isinstance(arg, ast.Constant)
            and isinstance(arg.value, str) else None)


def finalize(files: list[SourceFile]) -> list[Violation]:
    out: list[Violation] = []
    sites: dict[tuple, list[tuple[str, int]]] = defaultdict(list)
    keys: dict[str, list[tuple[str, int]]] = defaultdict(list)
    for src in files:
        if src.module is None or not src.module.startswith("repro"):
            continue
        if src.module.endswith("mpi.collective.tags"):
            out.extend(_tag_violations(src))
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            name = (fn.id if isinstance(fn, ast.Name)
                    else fn.attr if isinstance(fn, ast.Attribute)
                    else None)
            if name == "round_namespace":
                sites[_signature(node)].append((str(src.path), node.lineno))
            elif name in KEY_ARG:
                literal = _key_literal(node, name)
                if literal is not None:
                    keys[literal].append((str(src.path), node.lineno))
    for sig, where in sorted(sites.items()):
        if len(where) < 2:
            continue
        if sig and all(s == "*" for s in sig):
            continue          # all-variable: statically incomparable
        first_path, first_line = where[0]
        for path, line in where[1:]:
            out.append(Violation(
                CODE, path, line,
                f"round_namespace key {sig!r} already minted at "
                f"{first_path}:{first_line} — interleaved engine "
                f"streams need distinct constant key prefixes"))
    for literal, where in sorted(keys.items()):
        first_path, first_line = where[0]
        for path, line in where[1:]:
            if path != first_path:
                out.append(Violation(
                    CODE, path, line,
                    f"control key {literal!r} already minted at "
                    f"{first_path}:{first_line} — one key space, one "
                    f"minting module per literal"))
    return out
