"""``repro.bench`` — one harness: the paper's windowed timed loop
(:mod:`.harness`), the declarative sweep runner behind
``BENCH_<area>.json`` (:mod:`.sweep`), and the sweep areas it gates —
the paper's own figures (:mod:`.paper_figures`) beside this repo's
extensions (:mod:`.sweep_areas`)."""

from .harness import Sample, Series, measure, op_body
from .paper_figures import PAPER_SIZES
from .report import ascii_plot, crossover
from .sweep import (diff_docs, dumps_canonical, load_areas, run_area,
                    sweep_markdown)

__all__ = [
    "PAPER_SIZES", "Sample", "Series", "ascii_plot", "crossover",
    "diff_docs", "dumps_canonical", "load_areas", "measure", "op_body",
    "run_area", "sweep_markdown",
]
