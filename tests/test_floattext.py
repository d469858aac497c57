"""floattext.cells prints every float64 with exactly the bytes of repr."""

import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stagemix.floattext import cells

MAX = sys.float_info.max
MIN_NORMAL = sys.float_info.min


def reprs(values) -> list[bytes]:
    return [repr(v).encode() for v in values]


def printed(values) -> list[bytes]:
    return [row.tobytes().rstrip(b"\0") for row in cells(np.array(values, dtype=np.float64))]


def with_neighbours(values) -> list[float]:
    """Each value, one ulp below and one above, and all of them negated."""
    x = np.array(values, dtype=np.float64)
    near = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    return np.concatenate([near, -near]).tolist()


def assert_repr(values):
    want = reprs(values)
    got = printed(values)
    wrong = [(v, g, w) for v, g, w in zip(values, got, want) if g != w]
    assert wrong == [], f"{len(wrong)} of {len(values)} differ, first {wrong[:3]}"


def test_powers_of_two():
    assert_repr(with_neighbours([2.0**e for e in range(-1074, 1024)]))


def test_powers_of_ten():
    assert_repr(with_neighbours([float(f"1e{n}") for n in range(-323, 309)]))


def test_subnormal_normal_boundary():
    below = np.nextafter(MIN_NORMAL, 0.0)
    assert_repr(with_neighbours([MIN_NORMAL, below, 2 * MIN_NORMAL, MIN_NORMAL + below]))


def test_integers_near_two_to_the_53():
    assert_repr(with_neighbours([float(2**53 + i) for i in range(-64, 65)] + [float(2**54 + 4 * i) for i in range(9)]))


@pytest.mark.parametrize(
    "value, text",
    [
        (0.0, b"0.0"),
        (-0.0, b"-0.0"),
        (5e-324, b"5e-324"),
        (MAX, b"1.7976931348623157e+308"),
        (-MAX, b"-1.7976931348623157e+308"),
        (1e-4, b"0.0001"),
        (9.999999999999999e-05, b"9.999999999999999e-05"),
        (1e16, b"1e+16"),
        (9999999999999998.0, b"9999999999999998.0"),
        (123.0, b"123.0"),
        (0.001234, b"0.001234"),
        (1.5e300, b"1.5e+300"),
        (float("inf"), b"inf"),
        (float("-inf"), b"-inf"),
        (float("nan"), b"nan"),
    ],
)
def test_edges_and_layout_switches(value, text):
    assert printed([value]) == [text] == reprs([value])


def test_random_bit_patterns():
    bits = np.random.default_rng(20201).integers(0, 2**64, size=200_000, dtype=np.uint64, endpoint=False)
    assert_repr(bits.view(np.float64).tolist())


def test_rows_are_nul_padded_to_the_longest():
    matrix = cells(np.array([1.0, -2.5e-300, 0.5]))
    assert matrix.dtype == np.uint8 and matrix.shape == (3, len("-2.5e-300"))
    assert matrix[0].tobytes() == b"1.0" + b"\0" * 6
    assert cells(np.zeros(0)).shape[0] == 0


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
def test_hypothesis_floats(values):
    assert_repr(values)
