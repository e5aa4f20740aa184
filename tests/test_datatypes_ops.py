"""Payload sizing and reduction operators."""

import numpy as np

from repro.mpi import MAX, SUM, payload_bytes


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
    out = SUM(np.array([1, 2]), np.array([10, 20]))
    assert out.tolist() == [11, 22]


def test_max_min_scalars_and_arrays():
    assert MAX(2, 9) == 9
    assert MAX(np.array([1, 9]), np.array([5, 2])).tolist() == [5, 9]


def test_ops_repr():
    assert repr(SUM) == "MPI.SUM"


def test_ops_are_associative_spotcheck():
    for op in (SUM, MAX):
        a, b, c = 5, 9, 12
        assert op(op(a, b), c) == op(a, op(b, c))
