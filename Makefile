# Developer entry points.  `make smoke` is the CI gate: tier-1 tests plus
# every sweep area run once through the one benchmark entry point
# (`repro.bench.cli sweep`, gate scale, postconditions checked, documents
# written to a scratch directory — the tree stays clean), so it cannot
# silently rot, then two cases traced end to end — a deep-fabric
# hierarchical bcast and a flat lossy segmented bcast with repair
# rounds, NACKs and decisions (`cli trace`: flight
# recorder -> `events` view -> exporters; exits non-zero unless the
# per-call frame attribution equals NetStats).  `make bench-gate` is
# the perf gate: the same sweeps —
# the paper's own Figs. 7-13 (area `paper-figures`) and this repo's
# extension areas — diffed against the committed
# benchmarks/results/BENCH_*.json baselines (every simulated metric
# exactly, host wall/rate metrics within the band documented in
# docs/BENCHMARKS.md); refresh
# baselines intentionally with `make bench-baselines`.  `make
# docs-check` is the docs gate: the generated docs/collectives.md and
# docs/benchmarks-index.md must be current and every relative Markdown
# link under README.md / docs/ / benchmarks/results/ must resolve.
# `make lint-deep` is the protocol-invariant gate: the in-tree
# `repro.lint` analyzer (resource leaks, sim determinism, layering, tag
# namespaces, registry consistency — see docs/lint.md) plus the tier-1
# suite re-run with REPRO_SANITIZE=1, which makes every run_spmd
# teardown assert that no sockets, group memberships or events leak.
#
# CI: .github/workflows/ci.yml runs `make smoke` on every push and PR
# across Python 3.10-3.12 (and asserts it left benchmarks/results/
# untouched), plus `make bench-gate`, `make lint`, `make lint-deep`,
# `make fuzz`, `make docs-check` and `make unreached` as separate jobs.  Locally, `make lint` runs
# ruff when it is on PATH (pip install ruff); otherwise it runs
# scripts/lint_fallback.py, a stdlib check of ruff's E9, F401, F63,
# F821 and F822 classes only — CI always installs ruff, so the rest
# cannot slip through.  `make
# lint-deep` has no dependencies beyond the repo itself.

PY := PYTHONPATH=src python

.PHONY: test smoke lint lint-deep fuzz bench-segmented bench-gate \
	bench-baselines bench-full perf-compare loc unreached docs docs-check

test:
	$(PY) -m pytest -x -q

smoke: test
	$(PY) -m repro.bench.cli sweep --results-dir .bench_build/smoke
	$(PY) -m repro.bench.cli trace deep-fabric \
		'trunk-hier[fabric=tree:2x2x2,op=bcast]' \
		--output .bench_build/trace
	$(PY) -m repro.bench.cli trace segmented-bcast \
		'frames[impl=seg-fixed,loss=induced,size=12000]' \
		--output .bench_build/trace-flat

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed (CI installs it): stdlib stand-in"; \
		python3 scripts/lint_fallback.py src tests benchmarks examples; \
	fi

# Protocol-invariant static analysis + the leak-sanitized tier-1 run.
# Stdlib-only: works everywhere the tests work.
lint-deep:
	$(PY) -m repro.lint src tests benchmarks examples
	REPRO_SANITIZE=1 $(PY) -m pytest -x -q

# The chaos gate: 200 seeded property-fuzz cases over every registered
# fault scenario (docs/CHAOS.md).  Fixed seed, so the run is a
# regression test, not a lottery; any failure prints a one-line replay
# command and writes its flight-recorder dump under chaos-artifacts/.
# Every case's verdict (outcome + error type) is then held to the
# committed docs/chaos-verdicts.txt, so a change that flips a case
# fails here even when the flipped case still honours the contract.
fuzz:
	REPRO_SANITIZE=1 $(PY) -m repro.chaos.fuzz --budget 200 --seed 1 \
		--workers 2 --artifacts chaos-artifacts
	diff -u docs/chaos-verdicts.txt chaos-artifacts/verdicts.txt

bench-segmented:
	$(PY) -m repro.bench.cli sweep segmented-bcast --scale full

# The perf regression gate CI runs: re-sweep every area at gate scale
# and diff against the committed BENCH_*.json baselines (every simulated
# metric exactly; only wall*/rate* within a band — docs/BENCHMARKS.md).
bench-gate:
	$(PY) -m repro.bench.cli sweep --check

# Intentionally refresh the committed baselines (BENCH_*.json + the
# rendered markdown + the generated benchmarks index).
bench-baselines:
	$(PY) -m repro.bench.cli sweep
	$(PY) -m repro.bench.cli bench-doc

# The big sweeps: postconditions checked, a summary line per area,
# nothing written (benchmarks/results/ holds gate baselines only; add
# `--results-dir DIR` by hand to keep the documents).  Honours
# REPRO_BENCH_REPS.
bench-full:
	$(PY) -m repro.bench.cli sweep --scale full

# A/B the end-to-end perf benchmark (benchmarks/perf, BENCHMARK.json):
# the working tree against BASE, one base/head pair of runs per seed,
# alternating which side runs first; see docs/BENCHMARKS.md.
#   make perf-compare BASE=HEAD~1 WORKLOAD=hier-auto SEEDS="1 2 3"
perf-compare:
	@test -n "$(BASE)" || { echo 'usage: make perf-compare BASE=<rev>' \
		'[WORKLOAD=<name>] [SEEDS="1 2 3"]'; exit 2; }
	python3 scripts/perf_compare.py $(BASE) \
		$(if $(WORKLOAD),--workload $(WORKLOAD)) \
		$(if $(SEEDS),--seeds $(SEEDS))

# Net line count of a change, per directory (ROADMAP: "net line count
# is reported per PR"): the working tree against BASE, generated
# baselines and the self-contained perf benchmark left out.  Stage new
# files first (`git add -A`) or they are not counted.  The last lines
# are src/'s and tests/' code-only counts (scripts/loc_code.py: no
# blanks, comments or docstrings) at BASE and now.
#   make loc BASE=HEAD~1
loc:
	@test -n "$(BASE)" || { echo 'usage: make loc BASE=<rev>'; exit 2; }
	@git rev-parse --verify --quiet "$(BASE)^{commit}" >/dev/null || { \
		echo 'make loc: BASE=$(BASE) is not a commit'; exit 2; }
	@for dir in src benchmarks tests examples; do \
		printf '%-11s%s\n' "$$dir:" "$$(git diff --shortstat $(BASE) -- \
			$$dir ':!benchmarks/results' ':!benchmarks/perf')"; \
	done
	@python3 scripts/loc_code.py $(BASE) src tests

# The traffic-map ratchet (~3.5 min, its own CI job): every CI
# command but the test suites runs under a profile hook, and the
# src/repro functions none of them enters must equal docs/unreached.txt
# — a newly unreached function or a stale line fails.  Regenerate the
# file, reasons kept, with `python3 scripts/traffic_map.py --write`.
unreached:
	python3 scripts/traffic_map.py --check

# Regenerate the derived docs (the collective registry reference and
# the benchmarks index).
docs:
	$(PY) -m repro.bench.cli registry-doc
	$(PY) -m repro.bench.cli bench-doc

# The docs gate CI runs: the generated references must be current and
# every relative Markdown link in README.md / docs/ /
# benchmarks/results/ must resolve.
docs-check:
	$(PY) -m repro.bench.cli registry-doc --check
	$(PY) -m repro.bench.cli bench-doc --check
	$(PY) scripts/check_links.py README.md docs benchmarks/results
