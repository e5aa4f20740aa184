"""MPI reduction operations.

Each :class:`Op` carries one binary callable: it combines whole Python
objects, and NumPy arrays elementwise.  All built-in ops are
associative (MPI requirement); commutativity is flagged because tree
reductions may only reorder operands for commutative ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = ["Op", "SUM", "PROD", "MAX", "MIN", "LAND", "LOR",
           "BAND", "BOR", "MAXLOC", "MINLOC"]


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


def _prod(a, b):
    return a * b


def _max(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


def _min(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return min(a, b)


def _land(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.logical_and(a, b)
    return bool(a) and bool(b)


def _lor(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.logical_or(a, b)
    return bool(a) or bool(b)


def _band(a, b):
    return a & b


def _bor(a, b):
    return a | b


def _maxloc(a, b):
    """Operands are (value, index) pairs; ties resolve to the lower index."""
    (av, ai), (bv, bi) = a, b
    if av > bv or (av == bv and ai <= bi):
        return (av, ai)
    return (bv, bi)


def _minloc(a, b):
    (av, ai), (bv, bi) = a, b
    if av < bv or (av == bv and ai <= bi):
        return (av, ai)
    return (bv, bi)


SUM = Op("SUM", _sum)
PROD = Op("PROD", _prod)
MAX = Op("MAX", _max)
MIN = Op("MIN", _min)
LAND = Op("LAND", _land)
LOR = Op("LOR", _lor)
BAND = Op("BAND", _band)
BOR = Op("BOR", _bor)
MAXLOC = Op("MAXLOC", _maxloc)
MINLOC = Op("MINLOC", _minloc)
