"""Time and data-size units used throughout the simulator.

The simulator clock is a ``float`` measured in **microseconds** — the unit
the paper's graphs use.  Byte times are derived from the link rate in
megabits per second, so ``bytes_to_us(1500, rate_mbps=100)`` is the exact
serialization delay of a 1500-byte payload on Fast Ethernet.
"""

from __future__ import annotations

#: microseconds per second (simulation clock unit is the microsecond)
US_PER_S = 1_000_000.0

#: bits per byte on the wire
BITS_PER_BYTE = 8


def rate_bytes_per_us(rate_mbps: float) -> float:
    """Bytes serialized per microsecond at ``rate_mbps`` megabits/second.

    >>> rate_bytes_per_us(100)
    12.5
    """
    if rate_mbps <= 0:
        raise ValueError(f"rate_mbps must be positive, got {rate_mbps!r}")
    return rate_mbps / BITS_PER_BYTE


def bytes_to_us(nbytes: int | float, rate_mbps: float) -> float:
    """Serialization time in µs of ``nbytes`` at ``rate_mbps``.

    >>> bytes_to_us(1250, 100)
    100.0
    """
    if nbytes < 0:
        raise ValueError(f"nbytes must be non-negative, got {nbytes!r}")
    return nbytes / rate_bytes_per_us(rate_mbps)
