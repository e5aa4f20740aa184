"""``repro.sockets`` — the same code over real UDP, IP layer swapped.

:func:`run_loopback` runs the registered collectives over genuine BSD
sockets with IP multicast on loopback.  Its timings are Python's and mean
nothing; it validates that the measured code survives a real stack.
"""

from .loopback import (LoopbackStack, decode, encode, multicast_available,
                       run_loopback)

__all__ = ["LoopbackStack", "decode", "encode", "multicast_available",
           "run_loopback"]
