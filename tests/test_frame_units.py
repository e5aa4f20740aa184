"""Unit tests for wire-format constants, frames and unit helpers."""

import pytest

from repro.simnet.frame import (BROADCAST, ETH_MIN_PAYLOAD, ETH_OVERHEAD,
                                Frame, is_multicast, mcast_mac, wire_bytes)
from repro.simnet.units import bytes_to_us, rate_bytes_per_us


def test_rate_bytes_per_us_fast_ethernet():
    assert rate_bytes_per_us(100) == 12.5


def test_bytes_to_us_round_trip():
    assert bytes_to_us(1250, 100) == 100.0
    assert bytes_to_us(0, 100) == 0.0


def test_bad_rate_rejected():
    with pytest.raises(ValueError):
        rate_bytes_per_us(0)
    with pytest.raises(ValueError):
        bytes_to_us(10, -5)


def test_negative_bytes_rejected():
    with pytest.raises(ValueError):
        bytes_to_us(-1, 100)


def test_wire_bytes_pads_small_frames():
    # a 1-byte payload still occupies min-payload + overhead on the wire
    assert wire_bytes(1) == ETH_MIN_PAYLOAD + ETH_OVERHEAD
    assert wire_bytes(0) == ETH_MIN_PAYLOAD + ETH_OVERHEAD


def test_wire_bytes_large_frames_linear():
    assert wire_bytes(1500) == 1500 + ETH_OVERHEAD


def test_wire_bytes_rejects_negative():
    with pytest.raises(ValueError):
        wire_bytes(-1)


def test_multicast_space_disjoint_from_unicast_and_broadcast():
    grp = mcast_mac(7)
    assert is_multicast(grp)
    assert not is_multicast(5)          # host address
    assert not is_multicast(BROADCAST)  # broadcast is its own thing


def test_mcast_mac_rejects_negative_group():
    with pytest.raises(ValueError):
        mcast_mac(-1)


def test_frame_wire_time():
    f = Frame(src=0, dst=1, size=1462, payload=None)
    # 1462 + 38 overhead = 1500 wire bytes = 120 µs at 100 Mbps
    assert f.wire_time_us(100) == pytest.approx(120.0)


def test_frame_rejects_negative_size():
    with pytest.raises(ValueError):
        Frame(src=0, dst=1, size=-1, payload=None)


def test_frame_ids_unique():
    a = Frame(src=0, dst=1, size=10, payload=None)
    b = Frame(src=0, dst=1, size=10, payload=None)
    assert a.frame_id != b.frame_id
