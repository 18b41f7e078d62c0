import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nn2logic.fixedpoint import (
    FixedPointFormat,
    dequantize,
    quantize,
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
