"""Signed two's-complement fixed-point quantization shared by all pipelines.

A format (m, i) has m total bits of which i are fractional; one sign bit is
always implied, so the integer part carries k = m - i bits including sign.
``quantize_array`` is the one quantization rule: scale by 2**i, truncate
toward zero and saturate to the signed m-bit range, giving signed integers.
``quantize`` and ``dequantize`` write and read a single value as an m-bit
string, most significant bit first.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FixedPointFormat:
    total_bits: int
    fractional_bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.total_bits <= 64:
            raise ValueError(f"total_bits must be in [1, 64], got {self.total_bits}")
        if not 0 <= self.fractional_bits <= self.total_bits - 1:
            raise ValueError(
                "fractional_bits must be in [0, total_bits - 1], got "
                f"{self.fractional_bits} for {self.total_bits} total bits"
            )

    @property
    def max_int(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @property
    def min_int(self) -> int:
        return -(1 << (self.total_bits - 1))


def from_int(value: int, width: int) -> str:
    """Two's-complement bit string of ``value`` at the given width."""
    return format(value & ((1 << width) - 1), "b").zfill(width)


def signed_value(word: int, width: int) -> int:
    """Reinterpret an unsigned ``width``-bit word as a signed integer."""
    if word & (1 << (width - 1)):
        word -= 1 << width
    return word


def quantize_array(values, fmt: FixedPointFormat):
    """Signed int64 words of ``values``: scaled by 2**i, truncated, saturated.

    Scaling by a power of two is exact in binary floating point, so the
    truncation sees the exact product unless it overflows to infinity, which
    saturates anyway.  Saturation is decided on the float, against the exact
    power of two 2**(m-1), before the cast: ``max_int`` itself is not a
    float64 from m = 55 on.
    """
    import numpy as np  # not at import time: ``cli`` pins BLAS threads before NumPy loads

    x = np.asarray(values, dtype=float)
    bad = ~np.isfinite(x)
    if bad.any():
        pos = np.argwhere(bad)[0]
        at = f" at row {pos[0]}, column {pos[1]}" if x.ndim == 2 else ""
        raise ValueError(f"cannot quantize non-finite value {x[tuple(pos)].item()!r}{at}")
    with np.errstate(over="ignore"):
        scaled = np.trunc(x * float(1 << fmt.fractional_bits))
    limit = float(1 << (fmt.total_bits - 1))
    over = scaled >= limit
    ints = np.where(over, 0.0, np.maximum(scaled, -limit)).astype(np.int64)
    ints[over] = fmt.max_int
    return ints


def quantize_int(x: float, fmt: FixedPointFormat) -> int:
    """``quantize_array`` of one value, as a Python int."""
    return int(quantize_array(x, fmt))


def quantize(x: float, fmt: FixedPointFormat) -> str:
    """Quantize a real number to a width-m two's-complement bit string."""
    return from_int(quantize_int(x, fmt), fmt.total_bits)


def dequantize(bits: str, fmt: FixedPointFormat) -> float:
    """Interpret a width-m two's-complement bit string as a real number."""
    if len(bits) != fmt.total_bits:
        raise ValueError(
            f"width mismatch: got {len(bits)} bits for a {fmt.total_bits}-bit format"
        )
    return signed_value(int(bits, 2), len(bits)) / (1 << fmt.fractional_bits)
