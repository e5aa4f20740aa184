"""MPI datatypes and message-size accounting.

Follows the mpi4py convention the guides describe: **lowercase** methods
move generic Python objects (sized by their pickle), **uppercase** methods
move buffer-like objects (NumPy arrays) with an explicit
:class:`Datatype`.  Inside the simulator neither path serializes real
bytes — only the *size* matters for timing — but sizes are computed
exactly the way a real implementation would see them.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "Datatype", "BYTE", "CHAR", "INT", "LONG", "FLOAT", "DOUBLE",
    "COMPLEX", "BOOL", "Bundle", "BUNDLE_LENGTH_BYTES", "payload_bytes",
    "datatype_of",
]

#: the length prefix each element of a :class:`Bundle` carries
BUNDLE_LENGTH_BYTES = 4


@dataclass(frozen=True)
class Datatype:
    """An MPI basic datatype: a name and an element size in bytes."""

    name: str
    size: int
    np_dtype: str

    def __repr__(self) -> str:
        return f"MPI.{self.name}"


BYTE = Datatype("BYTE", 1, "u1")
CHAR = Datatype("CHAR", 1, "S1")
INT = Datatype("INT", 4, "i4")
LONG = Datatype("LONG", 8, "i8")
FLOAT = Datatype("FLOAT", 4, "f4")
DOUBLE = Datatype("DOUBLE", 8, "f8")
COMPLEX = Datatype("COMPLEX", 16, "c16")
BOOL = Datatype("BOOL", 1, "?")

_NP_TO_DT = {
    "uint8": BYTE, "int32": INT, "int64": LONG,
    "float32": FLOAT, "float64": DOUBLE, "complex128": COMPLEX,
    "bool": BOOL,
}


def datatype_of(array: np.ndarray) -> Datatype:
    """Automatic datatype discovery for a NumPy array (mpi4py-style)."""
    dt = _NP_TO_DT.get(array.dtype.name)
    if dt is None:
        raise TypeError(f"no MPI datatype for NumPy dtype {array.dtype}")
    return dt


class Bundle(dict):
    """``{rank: element}`` — what a hierarchical collective carries for
    several ranks at once: on the wire its elements back to back, each
    behind a :data:`BUNDLE_LENGTH_BYTES` length prefix."""


def payload_bytes(obj: Any) -> int:
    """Wire size of a Python object / buffer, as an MPI library sees it.

    * NumPy arrays: ``nbytes`` (buffer path, no pickling);
    * ``bytes``/``bytearray``/``memoryview``: raw length;
    * a :class:`Bundle`: its elements' sizes plus a length prefix each;
    * anything else: length of its pickle (object path).
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, Bundle):
        return (sum(map(payload_bytes, obj.values()))
                + BUNDLE_LENGTH_BYTES * len(obj))
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
