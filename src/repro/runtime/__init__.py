"""``repro.runtime`` — launch SPMD rank programs on the simulated cluster."""

from .env import RankEnv
from .program import RunResult, run_spmd
from .skew import compute_phase

__all__ = ["RankEnv", "RunResult", "compute_phase", "run_spmd"]
