"""Message-size accounting.

Inside the simulator no payload is serialized — only the *size* matters
for timing — but sizes are computed exactly the way a real MPI library
would see them: NumPy arrays by their buffer, anything else by its
pickle.
"""

from __future__ import annotations

import pickle
from typing import Any

import numpy as np

__all__ = ["Bundle", "BUNDLE_LENGTH_BYTES", "payload_bytes"]

#: the length prefix each element of a :class:`Bundle` carries
BUNDLE_LENGTH_BYTES = 4


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
