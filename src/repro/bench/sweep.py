"""Declarative cartesian sweep runner + the persisted perf trajectory.

An **area** is a named set of case *families*; a family is a cartesian
product of axes (topology, payload size, loss regime, op, impl, ...)
plus a runner that measures one case on the simulator.  Cases fan out
across worker processes, each seeded deterministically from the area
name, the base seed and the case key — so the resulting document is
bit-for-bit identical across reruns and across worker counts (results
are collected in case order, never completion order).  The one
sanctioned exception: metrics named ``wall*`` / ``rate*`` measure the
host machine (wall seconds, events/sec) and vary run to run — the
gate bands them wide (:data:`WALL_REL_TOL`) instead of exactly.

:func:`run_area` collects every case into one canonical, versioned
``BENCH_<area>.json`` document (frame / trunk-frame / latency / repair
series plus env + git metadata) and then runs the area's
**postconditions** — the reproduction criteria (for the
``paper-figures`` area, the paper's Figs. 7–13 themselves).

:func:`diff_docs` is the regression gate behind ``make bench-gate``:
exact metrics (frame counts, retransmissions, dispatch strings) must
match the committed baseline bit-for-bit, latency and wall/rate
metrics may drift inside documented bands (:data:`REL_TOL` /
:data:`ABS_TOL_US` / :data:`WALL_REL_TOL`), and new or removed series
fail outright.  ``docs/BENCHMARKS.md`` documents
the schema and the gate contract field by field.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing
import os
import pathlib
import platform
import subprocess
import sys
import zlib
from concurrent import futures
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

__all__ = [
    "SCHEMA", "SCALES", "REL_TOL", "ABS_TOL_US", "WALL_REL_TOL",
    "Family", "AreaSpec",
    "AREAS", "register_area", "load_areas", "expand", "case_key",
    "case_seed", "run_area", "run_meta", "dumps_canonical",
    "sweep_markdown",
    "find_series", "metric", "DiffReport", "diff_docs", "results_dir",
    "baseline_path",
]

#: bump on any backwards-incompatible change to the document layout
SCHEMA = "repro.bench.sweep/v1"

#: "gate" — the tiny, environment-independent sweep whose document is
#: committed under benchmarks/results/ and re-run by `make bench-gate`;
#: "full" — the big sweep (`make bench-full`): postconditions checked,
#: document summarised but never written beside the gate baselines.
SCALES = ("gate", "full")

#: metrics whose names start with this prefix are latency samples:
#: the gate compares them within the band below instead of exactly
LATENCY_PREFIX = "latency"

#: relative latency tolerance of the gate (fraction of the baseline)
REL_TOL = 0.25
#: absolute latency slack of the gate, microseconds
ABS_TOL_US = 100.0

#: ``wall*`` metrics are host wall-clock seconds (higher is worse) and
#: ``rate*`` metrics are throughput rates (lower is worse).  Unlike
#: simulated latencies they measure the machine running the gate, so
#: their band is deliberately huge — it exists to catch order-of-
#: magnitude performance collapses (an accidental O(n^2) kernel), not
#: scheduler jitter.
WALL_PREFIX = "wall"
RATE_PREFIX = "rate"
WALL_REL_TOL = 3.0          # fail only past 4x the committed value

#: the base seed every committed baseline was generated with
DEFAULT_BASE_SEED = 1


@dataclass(frozen=True)
class Family:
    """One cartesian case family inside an area.

    ``axes`` maps axis name to its ordered value tuple (insertion
    order fixes the expansion order); an empty dict yields a single
    case with no axes.  ``runner(scale=..., seed=..., **axes)`` must
    be a module-level callable (workers re-resolve it by family name)
    returning a flat ``{metric_name: int | float | str}`` dict.
    """

    name: str
    axes: dict
    runner: Callable


@dataclass(frozen=True)
class AreaSpec:
    """A sweep area: families per scale + postconditions over the doc."""

    name: str
    title: str
    families: Callable[[str], Sequence[Family]]
    postconditions: tuple = ()


AREAS: dict[str, AreaSpec] = {}


def register_area(spec: AreaSpec) -> AreaSpec:
    if spec.name in AREAS:
        raise ValueError(f"area {spec.name!r} registered twice")
    AREAS[spec.name] = spec
    return spec


def load_areas() -> dict[str, AreaSpec]:
    """The registry with the in-tree areas imported (side effect)."""
    from . import paper_figures, sweep_areas  # noqa: F401  (registration)

    return AREAS


# ---------------------------------------------------------------------------
# case expansion and deterministic per-case seeds
# ---------------------------------------------------------------------------
def expand(axes: dict) -> list[dict]:
    """Cartesian product of ``axes`` as a list of per-case dicts."""
    if not axes:
        return [{}]
    names = list(axes)
    return [dict(zip(names, values))
            for values in itertools.product(*(axes[n] for n in names))]


def case_key(family: str, axes: dict) -> str:
    """Canonical series key: ``family[a=1,b=x]`` with axes sorted."""
    if not axes:
        return family
    inner = ",".join(f"{name}={axes[name]}" for name in sorted(axes))
    return f"{family}[{inner}]"


def case_seed(area: str, base_seed: int, key: str) -> int:
    """Deterministic per-case seed: stable across runs, machines and
    worker counts; distinct per (area, base seed, case key)."""
    text = f"{area}:{base_seed}:{key}"
    return zlib.crc32(text.encode("utf-8")) & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# execution — optionally fanned out across worker processes
# ---------------------------------------------------------------------------
def default_workers() -> int:
    """``REPRO_SWEEP_WORKERS`` env override, else cpu count capped at 8."""
    env = os.environ.get("REPRO_SWEEP_WORKERS")
    if env is not None:
        return max(int(env), 0)
    return min(os.cpu_count() or 1, 8)


def _run_case(area: str, scale: str, family: str, axes: dict,
              seed: int) -> dict:
    spec = AREAS[area]
    fam = next(f for f in spec.families(scale) if f.name == family)
    where = f"{area}/{case_key(family, axes)}"
    try:
        metrics = fam.runner(scale=scale, seed=seed, **axes)
    except Exception as exc:
        # a rank program's exception carries the cluster it died in
        # (``repro_cluster``), which a worker cannot pickle back: keep
        # the type and the text, drop the rest
        try:
            err = type(exc)(f"{where}: {exc}")
        except Exception:       # a typed error with its own signature
            err = RuntimeError(f"{where}: {type(exc).__name__}: {exc}")
        raise err from None
    for name, value in metrics.items():
        if not isinstance(value, (int, float, str)) \
                or isinstance(value, bool):
            raise TypeError(
                f"{where}: metric {name!r} must be int, float or str, "
                f"got {type(value).__name__}")
    return metrics


def run_area(area: str, scale: str = "gate",
             base_seed: int = DEFAULT_BASE_SEED,
             workers: Optional[int] = None,
             check: bool = True) -> dict:
    """Run one area's sweep and return its canonical document.

    Worker processes are forked (the registry — including any areas a
    test registered — is inherited); pass ``workers=0``/``1`` or set
    ``REPRO_SWEEP_WORKERS=1`` to run inline.  With ``check=True`` the
    area's postconditions run on the collected document and raise
    ``AssertionError`` on any violated reproduction criterion.
    """
    spec = load_areas()[area]
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; known: {SCALES}")
    cases = []
    for fam in spec.families(scale):
        for axes in expand(fam.axes):
            key = case_key(fam.name, axes)
            cases.append((fam.name, axes, key,
                          case_seed(area, base_seed, key)))
    keys = [key for _f, _a, key, _s in cases]
    if len(set(keys)) != len(keys):
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise ValueError(f"{area}: duplicate case keys {dupes}")

    args = [(area, scale, fam, axes, seed)
            for fam, axes, key, seed in cases]
    if workers is None:
        workers = default_workers()
    use_pool = (workers > 1 and len(cases) > 1
                and "fork" in multiprocessing.get_all_start_methods())
    if use_pool:
        ctx = multiprocessing.get_context("fork")
        with futures.ProcessPoolExecutor(
                max_workers=min(workers, len(cases)),
                mp_context=ctx) as pool:
            results = list(pool.map(_run_case, *zip(*args)))
    else:
        results = [_run_case(*a) for a in args]

    series = [{"key": key, "family": fam, "axes": axes, "seed": seed,
               "metrics": metrics}
              for (fam, axes, key, seed), metrics in zip(cases, results)]
    series.sort(key=lambda s: s["key"])
    doc = {
        "schema": SCHEMA,
        "area": area,
        "title": spec.title,
        "scale": scale,
        "base_seed": base_seed,
        "meta": run_meta(),
        "series": series,
    }
    if check:
        for post in spec.postconditions:
            post(doc)
    return doc


# ---------------------------------------------------------------------------
# provenance metadata
# ---------------------------------------------------------------------------
def _repo_root() -> pathlib.Path:
    return pathlib.Path(__file__).resolve().parents[3]


def _git_output(*args: str) -> Optional[str]:
    try:
        proc = subprocess.run(["git", *args], cwd=_repo_root(),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def run_meta() -> dict:
    """Env + git provenance of one sweep run.  Deliberately excludes
    wall-clock timestamps so reruns stay bit-for-bit identical; the
    gate (:func:`diff_docs`) never compares this block.  Asked of git
    once per process: three subprocess spawns are ~0.1 s of wall, which
    the six ``run_area`` calls of one gate run must not keep paying."""
    return dict(_run_meta())


@functools.lru_cache(maxsize=None)
def _run_meta() -> dict:
    status = _git_output("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "platform": sys.platform,
        "git_commit": _git_output("rev-parse", "HEAD"),
        "git_branch": _git_output("rev-parse", "--abbrev-ref", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


# ---------------------------------------------------------------------------
# canonical serialization + lookup helpers
# ---------------------------------------------------------------------------
def dumps_canonical(doc: dict) -> str:
    """The one true byte representation of a sweep document."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _sweep_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value).replace("|", "\\|")


def sweep_markdown(doc: dict) -> str:
    """Render one sweep document (`BENCH_<area>.json`) as Markdown.

    The committed tables under ``benchmarks/results/`` are generated from
    the canonical JSON, one section per case family.  Long string
    metrics (dispatch logs, audit trails) render as footnotes below
    their family's table.
    """
    area = doc["area"]
    lines = [
        f"# {area}", "",
        f"_{doc['title']}_", "",
        f"_sweep_: schema `{doc['schema']}`, scale `{doc['scale']}`, "
        f"base seed {doc['base_seed']}, {len(doc['series'])} cases — "
        f"generated from `BENCH_{area}.json` by "
        f"`python -m repro.bench.cli sweep {area}` "
        f"(see `docs/BENCHMARKS.md`)", "",
    ]
    families: dict[str, list] = {}
    for entry in doc["series"]:
        families.setdefault(entry["family"], []).append(entry)
    for family in sorted(families):
        entries = families[family]
        axes = sorted({name for e in entries for name in e["axes"]})
        metrics = sorted({name for e in entries
                          for name in e["metrics"]})
        short = [m for m in metrics
                 if not any(isinstance(e["metrics"].get(m), str)
                            and len(e["metrics"][m]) > 60
                            for e in entries)]
        long = [m for m in metrics if m not in short]
        lines.append(f"## {family}")
        lines.append("")
        header = axes + short
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join(
            "---" if h in axes else "---:" for h in header) + "|")
        for entry in entries:
            cells = [_sweep_cell(entry["axes"].get(a, "—"))
                     for a in axes]
            cells += [_sweep_cell(entry["metrics"][m])
                      if m in entry["metrics"] else "—"
                      for m in short]
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
        for m in long:
            for entry in entries:
                if m in entry["metrics"]:
                    lines.append(f"* **{entry['key']}** `{m}`: "
                                 f"{entry['metrics'][m]}")
            lines.append("")
    return "\n".join(lines)


def results_dir() -> pathlib.Path:
    """``benchmarks/results/`` at the repository root."""
    return _repo_root() / "benchmarks" / "results"


def baseline_path(area: str,
                  results: Optional[pathlib.Path] = None) -> pathlib.Path:
    return (results or results_dir()) / f"BENCH_{area}.json"


def find_series(doc: dict, family: str, **axes) -> dict:
    """The unique series entry of ``family`` matching ``axes`` exactly."""
    key = case_key(family, axes)
    for entry in doc["series"]:
        if entry["key"] == key:
            return entry
    raise KeyError(f"{doc.get('area')}: no series {key!r}")


def metric(doc: dict, family: str, name: str, **axes) -> Any:
    """One metric value of one case (postcondition workhorse)."""
    entry = find_series(doc, family, **axes)
    try:
        return entry["metrics"][name]
    except KeyError:
        raise KeyError(f"{entry['key']}: no metric {name!r} "
                       f"(have {sorted(entry['metrics'])})") from None


# ---------------------------------------------------------------------------
# the regression gate
# ---------------------------------------------------------------------------
@dataclass
class DiffReport:
    """Outcome of one baseline-vs-fresh comparison."""

    area: str
    errors: list = field(default_factory=list)
    improvements: list = field(default_factory=list)
    matched: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors


def diff_docs(baseline: dict, fresh: dict, rel_tol: float = REL_TOL,
              abs_tol_us: float = ABS_TOL_US) -> DiffReport:
    """Gate a fresh sweep document against the committed baseline.

    * document identity fields (schema, area, scale, base seed) must
      match — a gate run at the wrong scale is meaningless;
    * a series present only in the baseline ("removed") or only in the
      fresh run ("new") is an error: baselines update intentionally,
      via ``make bench-baselines``;
    * ``latency*`` metrics fail only when the fresh value exceeds
      ``baseline * (1 + rel_tol) + abs_tol_us``; a fresh value below
      ``baseline * (1 - rel_tol) - abs_tol_us`` is recorded as an
      improvement (not an error — but refresh the baseline);
    * ``wall*`` metrics (host wall-clock seconds, higher worse) and
      ``rate*`` metrics (throughput, lower worse) use the deliberately
      huge :data:`WALL_REL_TOL` band — they gate against performance
      collapses, not scheduler jitter;
    * every other numeric metric is exact: any increase is an error,
      any decrease an improvement note;
    * string metrics (e.g. auto-dispatch sequences) compare exactly.

    The ``meta`` block (env + git provenance) is never compared.
    """
    report = DiffReport(area=str(fresh.get("area", "?")))
    for name in ("schema", "area", "scale", "base_seed"):
        if baseline.get(name) != fresh.get(name):
            report.errors.append(
                f"{name} mismatch: baseline {baseline.get(name)!r} vs "
                f"fresh {fresh.get(name)!r}")
    base = {s["key"]: s for s in baseline.get("series", [])}
    new = {s["key"]: s for s in fresh.get("series", [])}
    for key in sorted(base.keys() - new.keys()):
        report.errors.append(
            f"removed series {key!r}: in the committed baseline but "
            f"not produced by this run")
    for key in sorted(new.keys() - base.keys()):
        report.errors.append(
            f"new series {key!r}: not in the committed baseline — "
            f"refresh intentionally with 'make bench-baselines'")
    for key in sorted(base.keys() & new.keys()):
        bm = base[key]["metrics"]
        fm = new[key]["metrics"]
        for name in sorted(set(bm) - set(fm)):
            report.errors.append(f"{key}: metric {name!r} vanished")
        for name in sorted(set(fm) - set(bm)):
            report.errors.append(f"{key}: new metric {name!r} — "
                                 f"refresh the baseline")
        for name in sorted(set(bm) & set(fm)):
            bv, fv = bm[name], fm[name]
            if isinstance(bv, str) or isinstance(fv, str):
                if bv != fv:
                    report.errors.append(
                        f"{key}: {name} changed: {bv!r} -> {fv!r}")
            elif name.startswith(LATENCY_PREFIX):
                ceiling = bv * (1.0 + rel_tol) + abs_tol_us
                floor = bv * (1.0 - rel_tol) - abs_tol_us
                if fv > ceiling:
                    report.errors.append(
                        f"{key}: {name} regressed beyond band: "
                        f"{fv:.1f} > {bv:.1f} * {1 + rel_tol:.2f} + "
                        f"{abs_tol_us:.0f}")
                elif fv < floor:
                    report.improvements.append(
                        f"{key}: {name} improved {bv:.1f} -> {fv:.1f}")
            elif name.startswith(WALL_PREFIX):
                if fv > bv * (1.0 + WALL_REL_TOL):
                    report.errors.append(
                        f"{key}: {name} collapsed: {fv:.3f} > "
                        f"{bv:.3f} * {1 + WALL_REL_TOL:.0f}")
                elif fv < bv * 0.5:
                    report.improvements.append(
                        f"{key}: {name} improved {bv:.3f} -> {fv:.3f}")
            elif name.startswith(RATE_PREFIX):
                if fv < bv / (1.0 + WALL_REL_TOL):
                    report.errors.append(
                        f"{key}: {name} collapsed: {fv:.0f} < "
                        f"{bv:.0f} / {1 + WALL_REL_TOL:.0f}")
                elif fv > bv * 2.0:
                    report.improvements.append(
                        f"{key}: {name} improved {bv:.0f} -> {fv:.0f}")
            else:
                if fv > bv:
                    report.errors.append(
                        f"{key}: {name} regressed exactly: "
                        f"{bv} -> {fv}")
                elif fv < bv:
                    report.improvements.append(
                        f"{key}: {name} improved {bv} -> {fv}")
        report.matched += 1
    return report
