"""Shape-checking and sketching of benchmark series.

``crossover`` finds where one series starts beating another — the
quantity the paper's Figs. 7–10 discussion revolves around (the
``paper-figures`` postconditions assert it); ``ascii_plot`` sketches
the median curves in a terminal.  Tables are rendered from the sweep
documents (``repro.bench.sweep.sweep_markdown``).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .harness import Series

__all__ = ["ascii_plot", "crossover"]


def crossover(a: Series, b: Series) -> Optional[int]:
    """Smallest common size where median(a) < median(b), None if never.

    Usage: ``crossover(mcast_series, mpich_series)`` returns where the
    multicast implementation starts winning.
    """
    common = sorted(set(a.sizes) & set(b.sizes))
    for size in common:
        if a.median(size) < b.median(size):
            return size
    return None


def ascii_plot(series_list: Sequence[Series], width: int = 72,
               height: int = 20, title: str = "") -> str:
    """Median-latency curves as ASCII art (size on x, latency on y)."""
    sizes = sorted({s for ser in series_list for s in ser.sizes})
    if not sizes:
        return "(no data)"
    all_meds = [ser.median(s) for ser in series_list for s in ser.sizes]
    y_max = max(all_meds) * 1.05
    y_min = 0.0
    x_min, x_max = min(sizes), max(sizes)
    span_x = max(x_max - x_min, 1)
    grid = [[" "] * width for _ in range(height)]
    marks = "ox+*#@%&"
    for idx, ser in enumerate(series_list):
        mark = marks[idx % len(marks)]
        for size in ser.sizes:
            x = int((size - x_min) / span_x * (width - 1))
            y = int((ser.median(size) - y_min) / (y_max - y_min)
                    * (height - 1))
            grid[height - 1 - y][x] = mark
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_max:>8.0f} us ┤" )
    for row in grid:
        lines.append("            │" + "".join(row))
    lines.append("          0 └" + "─" * width)
    lines.append(f"             {x_min:<10d}"
                 + f"{x_max:>{max(width - 10, 1)}d} bytes")
    for idx, ser in enumerate(series_list):
        lines.append(f"   {marks[idx % len(marks)]} = {ser.label}")
    return "\n".join(lines)
