"""LEAK01 — resource-pairing dataflow for the transport acquire APIs.

The transport layer's acquire/release pairs (posted receive descriptors,
IGMP group joins, hierarchical group/port slabs) caused every teardown
bug this repo has had: a descriptor left posted swallows the *next*
delivery on the socket, a membership left joined keeps the switch
forwarding to a dead communicator.  This rule flags an acquire whose
result is visibly dropped on the floor with no release in sight.
"""

from __future__ import annotations

import ast

from .astutil import ancestors, attach_parents, enclosing, parent
from .engine import SourceFile, Violation

CODE = "LEAK01"
SUMMARY = "acquired transport resource with no reachable release"

#: method names that acquire a resource needing an eventual release —
#: including the chaos fault injectors, whose "resource" is a broken
#: fabric: a partitioned trunk or crashed host left unhealed blocks the
#: IGMP leaves every teardown depends on
ACQUIRE = {"post_ring", "join", "join_group",
           "alloc_hier_slab", "partition_trunk", "power_off", "crash_host"}

#: method names that release (any of them anywhere in the same function
#: or a sibling method of the same class counts as the pairing)
RELEASE = {"leave", "leave_group", "free", "free_hier_slab",
           "close", "shutdown", "unbind", "heal_trunk", "power_on",
           "restore_host"}

EXPLAIN = """\
Calls to the transport acquire APIs (post_ring, join, join_group,
alloc_hier_slab) and the chaos fault injectors
(partition_trunk, power_off, crash_host) must have a reachable release
(a descriptor ring's close, leave/leave_group,
free/free_hier_slab, close/shutdown, heal_trunk/power_on/restore_host)
on the same object.  The rule accepts any of:

* a release-name call anywhere in the same function (try/finally and
  straight-line cleanup both qualify);
* a release-name call in any method of the same class — the paired-
  method idiom (e.g. a channel that joins in __init__ and leaves in
  close());
* *ownership transfer*: the acquired value is returned, yielded, passed
  into another call, stored into a container/attribute, or bound to a
  name that is used again — whoever receives the handle owns it.

What it flags is the dangerous shape: an acquire whose result is
discarded (expression statement, or bound and never used) in a scope
with no release anywhere — the exact shape of the PR 1 transport leaks.
The runtime twin of this rule is REPRO_SANITIZE=1, which asserts at
teardown that no descriptor or membership actually leaked.
"""

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_TRANSFER = (ast.Return, ast.Yield, ast.YieldFrom, ast.Await)
_TRANSPARENT = (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                ast.DictComp, ast.comprehension, ast.BinOp, ast.BoolOp,
                ast.IfExp, ast.Tuple, ast.List, ast.Set, ast.Dict,
                ast.Starred, ast.NamedExpr, ast.Compare)


def _is_acquire(node: ast.Call) -> bool:
    fn = node.func
    if not isinstance(fn, ast.Attribute) or fn.attr not in ACQUIRE:
        return False
    if fn.attr == "join":
        # weed out str.join / thread.join lookalikes: group joins take
        # exactly one positional argument on a non-literal receiver
        if isinstance(fn.value, ast.Constant):
            return False
        if node.keywords or len(node.args) != 1:
            return False
    return True


def _scope_releases(scope: ast.AST) -> bool:
    for node in ast.walk(scope):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in RELEASE):
            return True
    return False


def _class_releases(cls: ast.ClassDef) -> bool:
    return _scope_releases(cls)


def _name_used_again(scope: ast.AST, names: set[str],
                     skip: ast.AST) -> bool:
    for node in ast.walk(scope):
        if (isinstance(node, ast.Name) and node.id in names
                and isinstance(node.ctx, ast.Load)
                and node is not skip
                and not any(a is skip for a in ancestors(node))):
            return True
    return False


def _transferred(call: ast.Call, scope: ast.AST) -> bool:
    """True when the acquired value's ownership visibly moves on."""
    cur: ast.AST = call
    while True:
        p = parent(cur)
        if p is None:
            return False
        if isinstance(p, ast.Call):
            return cur is not p.func       # value handed to another call
        if isinstance(p, _TRANSFER):
            return True
        if isinstance(p, ast.keyword) or isinstance(p, _TRANSPARENT):
            cur = p
            continue
        if isinstance(p, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (p.targets if isinstance(p, ast.Assign)
                       else [p.target])
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            if len(names) != len(targets):
                return True   # stored into an attribute/subscript/tuple
            return _name_used_again(scope, names, skip=p)
        if isinstance(p, ast.Expr):
            return False                   # result dropped on the floor
        if isinstance(p, ast.stmt):
            return False
        cur = p


def check_file(src: SourceFile) -> list[Violation]:
    if src.module is None or not src.module.startswith("repro"):
        return []
    if src.module.startswith("repro.lint"):
        return []
    attach_parents(src.tree)
    out: list[Violation] = []
    for node in ast.walk(src.tree):
        if not (isinstance(node, ast.Call) and _is_acquire(node)):
            continue
        scope = enclosing(node, _FUNCS) or src.tree
        if any(_scope_releases(s) for s in _scopes(node, src.tree)):
            continue
        cls = enclosing(node, ast.ClassDef)
        if cls is not None and _class_releases(cls):
            continue
        if _transferred(node, scope):
            continue
        out.append(Violation(
            CODE, str(src.path), node.lineno,
            f"{node.func.attr}() acquires a transport resource but no "
            f"release ({'/'.join(sorted(RELEASE))}) is reachable from "
            f"this scope and its result is discarded"))
    return out


def _scopes(node: ast.AST, tree: ast.AST):
    """The function scopes enclosing ``node``, innermost first (a
    release in an enclosing closure counts); module-level acquires are
    checked against the module's top-level statements only."""
    found = False
    for anc in ancestors(node):
        if isinstance(anc, _FUNCS):
            found = True
            yield anc
    if not found:
        yield tree
