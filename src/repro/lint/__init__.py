"""``repro.lint`` — protocol-invariant static analysis for this repo.

Generic linters check style; this package checks the invariants the
reproduction's correctness actually rests on, as a custom AST /
import-graph pass plus one executed cross-consistency check:

* **LEAK01** — resource pairing: posted receive descriptors, multicast
  group joins and hier slabs must be released (or ownership handed off)
  on every path (:mod:`repro.lint.leak`);
* **DET01** — determinism: no unseeded randomness, wall-clock reads, or
  unordered set iteration inside the simulation layers
  (:mod:`repro.lint.determinism`);
* **LAY01** — layering: the simnet → core → mpi → analysis import
  discipline, with an explicit allowlist (:mod:`repro.lint.layering`);
* **TAG01** — collisions among ``mpi/collective/tags.py`` tags,
  ``round_namespace`` keys and control keys (:mod:`repro.lint.tagspace`);
* **REG01** — registry cross-consistency, *executed* against the live
  registry/policy/model tables (:mod:`repro.lint.registry_check`);
* **SUP01** — a ``# repro-lint: skip=CODE`` suppression without a
  ``-- justification`` trailer (:mod:`repro.lint.engine`).

CLI: ``python -m repro.lint src tests benchmarks examples`` (exit 1 on
violations), ``--explain CODE`` for the full rationale of a rule.
Suppress a finding with ``# repro-lint: skip=CODE -- why it is safe`` on
the offending line.  ``docs/lint.md`` is the rule catalog; ``make
lint-deep`` and the CI ``lint-deep`` job gate the repo on a clean run.

The runtime half of the same contract is ``REPRO_SANITIZE=1``
(:mod:`repro.runtime.sanitize`): every ``run_spmd`` then asserts the
teardown invariants LEAK01 approximates statically — zero leaked posted
descriptors, zero residual group memberships, a drained event heap.
"""

from .engine import Violation, lint_paths, run_cli

__all__ = ["Violation", "lint_paths", "run_cli"]
