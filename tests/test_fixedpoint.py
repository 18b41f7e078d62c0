import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nn2logic.fixedpoint import (
    FixedPointFormat,
    dequantize,
    from_int,
    quantize,
    quantize_array,
)

from oracles import quantize_reference

FMT42 = FixedPointFormat(4, 2)


def test_format_validation():
    FixedPointFormat(1, 0)
    FixedPointFormat(64, 63)
    with pytest.raises(ValueError):
        FixedPointFormat(0, 0)
    with pytest.raises(ValueError):
        FixedPointFormat(65, 0)
    with pytest.raises(ValueError):
        FixedPointFormat(8, 8)
    with pytest.raises(ValueError):
        FixedPointFormat(8, -1)


def test_quantize_examples():
    assert quantize(0.0, FixedPointFormat(8, 6)) == "00000000"
    assert quantize(1.0, FMT42) == "0100"
    assert quantize(10.0, FMT42) == "0111"
    assert quantize(-0.5, FMT42) == "1110"


def test_quantize_rejects_non_finite():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            quantize(bad, FMT42)


def test_dequantize_examples():
    assert dequantize("0000", FMT42) == 0.0
    assert dequantize("0100", FMT42) == 1.0
    assert dequantize("1110", FMT42) == -0.5


def test_dequantize_width_mismatch():
    with pytest.raises(ValueError):
        dequantize("010", FMT42)


@st.composite
def value_and_format(draw):
    m = draw(st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
    i = draw(st.integers(min_value=0, max_value=m - 1))
    x = draw(
        st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
        )
    )
    return x, FixedPointFormat(m, i)


@given(value_and_format())
def test_matches_reference(case):
    x, fmt = case
    assert quantize(x, fmt) == quantize_reference(x, fmt.total_bits, fmt.fractional_bits)


@given(value_and_format())
def test_idempotence(case):
    x, fmt = case
    once = quantize(x, fmt)
    again = quantize(dequantize(once, fmt), fmt)
    assert again == once


@given(value_and_format())
def test_bounded_error_in_range(case):
    x, fmt = case
    k = fmt.total_bits - fmt.fractional_bits  # integer bits, sign included
    resolution = 2.0 ** -fmt.fractional_bits
    lo = -(2.0 ** (k - 1))
    hi = 2.0 ** (k - 1) - resolution
    if not lo <= x <= hi:
        return
    err = abs(dequantize(quantize(x, fmt), fmt) - x)
    assert err < resolution


@given(value_and_format())
def test_clipping_patterns(case):
    x, fmt = case
    k = fmt.total_bits - fmt.fractional_bits
    if x > 2.0 ** (k - 1):
        assert quantize(x, fmt) == "0" + "1" * (fmt.total_bits - 1)
    elif x < -(2.0 ** (k - 1)):
        assert quantize(x, fmt) == "1" + "0" * (fmt.total_bits - 1)


@settings(max_examples=2000)
@given(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    st.sampled_from([4, 8, 16, 32]),
    st.data(),
)
def test_reference_agreement_wide(x, m, data):
    i = data.draw(st.integers(min_value=0, max_value=m - 1))
    fmt = FixedPointFormat(m, i)
    assert quantize(x, fmt) == quantize_reference(x, m, i)


def test_huge_magnitude_clips():
    fmt = FixedPointFormat(8, 6)
    assert quantize(1e300, fmt) == "01111111"
    assert quantize(-1e300, fmt) == "10000000"
    assert math.isclose(dequantize(quantize(1e300, fmt), fmt), 127 / 64)


def assert_array_matches_reference(values, fmt):
    m, i = fmt.total_bits, fmt.fractional_bits
    got = quantize_array(values, fmt)
    assert got.dtype == np.int64 and got.shape == np.shape(values)
    assert [from_int(int(v), m) for v in got.ravel()] == [
        quantize_reference(float(x), m, i) for x in np.ravel(values)
    ]


def test_quantize_array_matches_reference_at_every_format():
    """Every (m, i) with m in 1..64, on values at and past the range edges."""
    for m in range(1, 65):
        for i in range(m):
            edge, step = 2.0 ** (m - 1 - i), 2.0**-i
            probes = [0.0, step, -step, 1.0, -1.0, edge, -edge, edge - step, -edge - step,
                      float(np.nextafter(edge, 0.0)), 3.0, -3.0, 1e308, -1e308, 5e-324]
            assert_array_matches_reference(probes, FixedPointFormat(m, i))


@st.composite
def format_and_values(draw):
    m = draw(st.integers(1, 64))
    i = draw(st.integers(0, m - 1))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(st.lists(st.one_of(st.floats(-8.0, 8.0), finite), min_size=1, max_size=8))
    return FixedPointFormat(m, i), values


@given(format_and_values())
@example((FixedPointFormat(64, 62), [1e308, -1e308, 3.0, -3.0]))
@example((FixedPointFormat(56, 54), [3.0, -3.0, 1.7976931348623157e308]))
def test_quantize_array_matches_reference(case):
    """Scaled products that overflow to +-inf still saturate like the exact oracle."""
    fmt, values = case
    assert_array_matches_reference(values, fmt)
