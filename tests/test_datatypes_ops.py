"""Payload sizing and reduction operators."""

import numpy as np

from repro.mpi import (BAND, BOR, LAND, LOR, MAX, MAXLOC, MIN, MINLOC, PROD,
                       SUM, payload_bytes)


def test_payload_bytes_buffers_exact():
    assert payload_bytes(b"12345") == 5
    assert payload_bytes(bytearray(10)) == 10
    assert payload_bytes(memoryview(b"abc")) == 3
    assert payload_bytes(np.zeros(100, dtype=np.float64)) == 800


def test_payload_bytes_objects_pickle_sized():
    small = payload_bytes({"k": 1})
    large = payload_bytes({"k": list(range(1000))})
    assert 0 < small < large


def test_sum_prod_numbers_and_arrays():
    assert SUM(2, 3) == 5
    assert PROD(2, 3) == 6
    out = SUM(np.array([1, 2]), np.array([10, 20]))
    assert out.tolist() == [11, 22]


def test_max_min_scalars_and_arrays():
    assert MAX(2, 9) == 9
    assert MIN(2, 9) == 2
    assert MAX(np.array([1, 9]), np.array([5, 2])).tolist() == [5, 9]
    assert MIN(np.array([1, 9]), np.array([5, 2])).tolist() == [1, 2]


def test_logical_ops():
    assert LAND(1, 0) is False
    assert LAND(1, 2) is True
    assert LOR(0, 0) is False
    assert LOR(0, 3) is True
    assert LAND(np.array([True, True]),
                np.array([True, False])).tolist() == [True, False]


def test_bitwise_ops():
    assert BAND(0b1100, 0b1010) == 0b1000
    assert BOR(0b1100, 0b1010) == 0b1110


def test_maxloc_minloc_tie_breaks_to_lower_index():
    assert MAXLOC((5, 2), (5, 7)) == (5, 2)
    assert MAXLOC((5, 7), (5, 2)) == (5, 2)
    assert MAXLOC((9, 7), (5, 2)) == (9, 7)
    assert MINLOC((3, 4), (3, 1)) == (3, 1)
    assert MINLOC((1, 4), (3, 1)) == (1, 4)


def test_ops_repr():
    assert repr(SUM) == "MPI.SUM"


def test_ops_are_associative_spotcheck():
    for op in (SUM, PROD, MAX, MIN, BAND, BOR):
        a, b, c = 5, 9, 12
        assert op(op(a, b), c) == op(a, op(b, c))
