"""DET01 — the simulation must be bit-reproducible from its seed.

The predicted-vs-measured repair loop (expected_seg_repair_frames vs
``NetStats.drops_lossy``) and every frame-count assertion in the benches
only mean something if a (topology, params, seed) tuple replays the same
run.  Five things silently break that: unseeded randomness, wall-clock
reads, reads of the process environment, iteration order of hash-based
sets, and iteration order of the frame-path registry dicts
(MAC/multicast tables, membership refcounts, reassembly state) whose
insertion order tracks traffic rather than any canonical order.
"""

from __future__ import annotations

import ast

from .astutil import attach_parents, parent, walk_functions
from .engine import SourceFile, Violation

CODE = "DET01"
SUMMARY = "nondeterminism hazard inside the simulation layers"

EXPLAIN = """\
Inside repro.simnet / repro.core / repro.mpi the rule flags:

* unseeded RNGs: `random.Random()` with no seed argument, or the
  module-level `random.random()` / `randint` / `choice` / `shuffle` /
  `sample` / `uniform` / `randrange` / `gauss` functions (they draw from
  the shared, unseeded global RNG).  Seeded `random.Random(seed)`
  substreams are the sanctioned pattern (see simnet.topology);
* wall-clock and entropy reads: `time.time` / `time_ns` /
  `perf_counter` / `monotonic`, `os.urandom`, `uuid.uuid4` — simulation
  time comes from the event kernel (`sim.now`), never the host;
* process-environment reads: `os.environ` / `os.getenv` (or importing
  either from `os`) — a simulated or modeled number is a function of
  (topology, params, seed), never of a variable somebody exported.
  This one check also covers repro.analysis, whose closed forms the
  simulator is held to; switches that only choose what is *observed*
  (`REPRO_TRACE`, `REPRO_SANITIZE`) live in repro.obs / repro.runtime;
* iterating a `set` (literal, `set()` / `frozenset()` call, set
  comprehension, set-operator expression, `.union`/`.intersection`/
  `.difference` result, or a local name bound to one) in a `for` loop
  or comprehension without `sorted()` — hash order varies with
  PYTHONHASHSEED and insertion history.  Order-insensitive reductions
  (`sum`, `min`, `max`, `len`, `all`, `any`, `sorted`, `set`,
  `frozenset`) over a generator are accepted;
* iterating a frame-path registry dict — an attribute whose name ends
  in `_table`, `_refs` or `_reasm` (switch MAC/multicast tables, NIC
  membership refcounts, IP reassembly state), its `.keys()` /
  `.values()` / `.items()` view, or a local name bound from one via
  `.get()` / `.setdefault()` — without `sorted()`.  Dicts preserve
  insertion order, but for these registries insertion order is a
  trace of traffic (who joined, sent or fragmented first), not a
  canonical order: code whose output depends on it changes with any
  edit that reorders two same-instant kernel records.  The same
  order-insensitive consumers as for sets are accepted, plus set
  comprehensions (building a set erases the order again).

The regression test this rule protects is
tests/test_determinism.py::test_lossy_tree_allreduce_reproducible: the
same seeded lossy tree:2x2x2 allreduce twice, identical NetStats.
"""

_SCOPES = ("repro.simnet", "repro.core", "repro.mpi")
#: the environment-read check alone also covers the closed-form models
#: (their other hazards stay out of scope: framecount.
#: multicast_trunk_edges iterates a set into a set)
_ENV_SCOPES = _SCOPES + ("repro.analysis",)
_ENV_READS = {"environ", "getenv"}

_GLOBAL_RANDOM_FNS = {"random", "randint", "choice", "shuffle",
                      "sample", "uniform", "randrange", "gauss",
                      "betavariate", "expovariate", "normalvariate"}
_TIME_FNS = {"time", "time_ns", "perf_counter", "perf_counter_ns",
             "monotonic", "monotonic_ns"}
_SET_METHODS = {"union", "intersection", "difference",
                "symmetric_difference"}
#: attribute-name suffixes of the frame-path registry dicts whose
#: insertion order tracks traffic history (switchdev._mac_table,
#: switchdev._mcast_table, nic._mcast_refs, ipstack._reasm, ...)
_REGISTRY_SUFFIXES = ("_table", "_refs", "_reasm")
_DICT_VIEWS = {"keys", "values", "items"}
_DICT_LOOKUPS = {"get", "setdefault"}
_ORDER_FREE = {"sorted", "sum", "min", "max", "len", "all", "any",
               "set", "frozenset"}
_DESETTERS = {"sorted", "list", "tuple"}     # rebinding launders a set
_COMPS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def _in_scope(src: SourceFile, scopes: tuple = _SCOPES) -> bool:
    return (src.module is not None
            and any(src.module == s or src.module.startswith(s + ".")
                    for s in scopes))


def _is_setlike(node: ast.AST, set_names: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id in ("set", "frozenset"):
            return True
        if isinstance(fn, ast.Attribute) and fn.attr in _SET_METHODS:
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return (_is_setlike(node.left, set_names)
                or _is_setlike(node.right, set_names))
    return False


def _is_registrylike(node: ast.AST, reg_names: set[str]) -> bool:
    """A frame-path registry dict, one of its views, or a name bound to
    a (sub-)registry fetched out of one."""
    if isinstance(node, ast.Attribute):
        return node.attr.endswith(_REGISTRY_SUFFIXES)
    if isinstance(node, ast.Name):
        return node.id in reg_names
    if isinstance(node, ast.Call):
        fn = node.func
        if isinstance(fn, ast.Attribute) and fn.attr in (
                _DICT_VIEWS | _DICT_LOOKUPS):
            return _is_registrylike(fn.value, reg_names)
    return False


def _registry_names(scope: ast.AST) -> set[str]:
    """Names bound to a registry dict somewhere in ``scope`` (e.g.
    ``refs = self._mcast_table.setdefault(group, {})``) and never
    laundered through sorted()/list()/tuple()."""
    names: set[str] = set()
    laundered: set[str] = set()
    for node in ast.walk(scope):
        if not isinstance(node, ast.Assign):
            continue
        targets = [t.id for t in node.targets
                   if isinstance(t, ast.Name)]
        if not targets:
            continue
        if _is_registrylike(node.value, names):
            names.update(targets)
        elif (isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Name)
              and node.value.func.id in _DESETTERS):
            laundered.update(targets)
    return names - laundered


def _set_names(scope: ast.AST) -> set[str]:
    """Names bound to a set-like value somewhere in ``scope`` (and never
    laundered through sorted()/list()/tuple())."""
    names: set[str] = set()
    laundered: set[str] = set()
    for node in ast.walk(scope):
        if not isinstance(node, ast.Assign):
            continue
        targets = [t.id for t in node.targets
                   if isinstance(t, ast.Name)]
        if not targets:
            continue
        if _is_setlike(node.value, names | {t for t in targets}):
            names.update(targets)
        elif (isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Name)
              and node.value.func.id in _DESETTERS):
            laundered.update(targets)
    return names - laundered


def _ordered_consumer(comp: ast.AST) -> bool:
    """True when the comprehension's result is consumed by an
    order-insensitive builtin (``sum(x for x in s)`` etc.)."""
    p = parent(comp)
    return (isinstance(p, ast.Call)
            and isinstance(p.func, ast.Name)
            and p.func.id in _ORDER_FREE)


def check_file(src: SourceFile) -> list[Violation]:
    if not _in_scope(src, _ENV_SCOPES):
        return []
    out: list[Violation] = []

    def flag(node: ast.AST, msg: str) -> None:
        out.append(Violation(CODE, str(src.path), node.lineno, msg))

    for node in ast.walk(src.tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            if name in _ENV_READS:
                flag(node, f"os.{name} reads the process environment — "
                           f"a simulated or modeled number depends "
                           f"only on (topology, params, seed)")
    if not _in_scope(src):
        return out
    attach_parents(src.tree)

    for node in ast.walk(src.tree):
        if isinstance(node, ast.Call):
            fn = node.func
            if (isinstance(fn, ast.Attribute)
                    and isinstance(fn.value, ast.Name)):
                mod, attr = fn.value.id, fn.attr
                if mod == "random" and attr == "Random" and not (
                        node.args or node.keywords):
                    flag(node, "unseeded random.Random() — pass a seed "
                               "(derive per-host substreams from the "
                               "run seed)")
                elif mod == "random" and attr in _GLOBAL_RANDOM_FNS:
                    flag(node, f"random.{attr}() draws from the global "
                               f"unseeded RNG — use a seeded "
                               f"random.Random instance")
            elif (isinstance(fn, ast.Name) and fn.id == "Random"
                    and not (node.args or node.keywords)):
                flag(node, "unseeded Random() — pass a seed")
        elif isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name):
            mod, attr = node.value.id, node.attr
            if mod == "time" and attr in _TIME_FNS:
                flag(node, f"time.{attr} reads the wall clock — "
                           f"simulation time is sim.now")
            elif mod == "os" and attr == "urandom":
                flag(node, "os.urandom is nondeterministic entropy")
            elif mod == "uuid" and attr == "uuid4":
                flag(node, "uuid.uuid4 is nondeterministic entropy")

    # unordered set / registry-dict iteration
    scopes = [src.tree] + list(walk_functions(src.tree))
    for scope in scopes:
        names = _set_names(scope)
        reg_names = _registry_names(scope)
        for node in ast.walk(scope):
            iters = []
            if isinstance(node, ast.For):
                iters.append((node, node.iter))
            elif isinstance(node, _COMPS):
                if _ordered_consumer(node):
                    continue
                for gen in node.generators:
                    iters.append((node, gen.iter))
            for where, it in iters:
                if _is_setlike(it, names):
                    flag(where, "iteration over a set without sorted() "
                                "— hash order is not reproducible "
                                "across runs/interpreters")
                elif _is_registrylike(it, reg_names):
                    # Building a set erases the order again, so a set
                    # comprehension over a registry is fine.
                    if isinstance(where, ast.SetComp):
                        continue
                    flag(where, "iteration over a frame-path registry "
                                "dict without sorted() — its insertion "
                                "order is a trace of traffic, not a "
                                "canonical order")
    # de-dup (nested scopes see the same For nodes)
    seen = set()
    unique = []
    for v in out:
        key = (v.line, v.message)
        if key not in seen:
            seen.add(key)
            unique.append(v)
    return unique
