"""MPI reduction operations.

Each :class:`Op` carries one binary callable: it combines whole Python
objects, and NumPy arrays elementwise.  Two are built in, the two the
benchmarks and the fuzzer reduce with: :data:`SUM` and :data:`MAX`.
Any other associative callable makes a user-defined op
(``Op("MIN", min)``, MPI's ``MPI_Op_create``); commutativity is
flagged because tree reductions may only reorder operands for
commutative ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = ["Op", "SUM", "MAX"]


@dataclass(frozen=True)
class Op:
    """A reduction operator."""

    name: str
    fn: Callable[[Any, Any], Any]
    commutative: bool = True

    def __call__(self, a: Any, b: Any) -> Any:
        return self.fn(a, b)

    def __repr__(self) -> str:
        return f"MPI.{self.name}"


def _sum(a, b):
    return a + b


def _max(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


SUM = Op("SUM", _sum)
MAX = Op("MAX", _max)
