"""Asynchrony between ranks.

"The asynchronous nature of cluster computing makes it impossible for the
sender to know the receive status of the receiver" (paper §2) — skew is
*the* reason naive multicast loses messages and scout sync exists.  Two
seams inject it reproducibly: startup skew is
:func:`~repro.runtime.program.run_spmd`'s ``skew`` (per-rank start delays
in µs), and :func:`compute_phase` is an in-loop pseudo-work delay so
successive collective iterations don't enter in lockstep (what the
benchmark harness uses between repetitions).
"""

from __future__ import annotations

from typing import Generator

__all__ = ["compute_phase"]


def compute_phase(env, mean_us: float, jitter_frac: float = 0.5) -> Generator:
    """Simulate a local computation of roughly ``mean_us`` µs.

    The actual duration is uniform in ``mean ± mean*jitter_frac`` drawn
    from the rank's host RNG, so it is reproducible per seed.  Usage:
    ``yield from compute_phase(env, 100.0)``.
    """
    if mean_us < 0:
        raise ValueError(f"mean_us must be >= 0, got {mean_us}")
    lo = mean_us * (1.0 - jitter_frac)
    hi = mean_us * (1.0 + jitter_frac)
    duration = env.host.rng.uniform(lo, hi)
    yield env.sim.timeout(duration)
