"""Signed two's-complement fixed-point quantization shared by all pipelines.

A format (m, i) has m total bits of which i are fractional; one sign bit is
always implied, so the integer part carries k = m - i bits including sign.
Quantized values are carried around as bit strings, most significant bit
first, exactly as produced by ``format(v, "b").zfill(m)``.
"""

from __future__ import annotations

import math
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


def to_signed(bits: str) -> int:
    return signed_value(int(bits, 2), len(bits))


def from_int(value: int, width: int) -> str:
    """Two's-complement bit string of ``value`` at the given width."""
    return format(value & ((1 << width) - 1), "b").zfill(width)


def signed_value(word: int, width: int) -> int:
    """Reinterpret an unsigned ``width``-bit word as a signed integer."""
    if word & (1 << (width - 1)):
        word -= 1 << width
    return word


def quantize_int(x: float, fmt: FixedPointFormat) -> int:
    """Scaled, truncated, and clipped integer representation of ``x``.

    Scaling by a power of two is exact in binary floating point, so the
    truncation below sees the mathematically exact product unless it
    overflows the float range, in which case the value clips anyway.
    """
    if not math.isfinite(x):
        raise ValueError(f"cannot quantize non-finite value {x!r}")
    scaled = x * (1 << fmt.fractional_bits)
    if isinstance(scaled, float) and math.isinf(scaled):
        return fmt.max_int if scaled > 0 else fmt.min_int
    v = int(scaled)  # truncation toward zero
    if v > fmt.max_int:
        return fmt.max_int
    if v < fmt.min_int:
        return fmt.min_int
    return v


def quantize(x: float, fmt: FixedPointFormat) -> str:
    """Quantize a real number to a width-m two's-complement bit string."""
    return from_int(quantize_int(x, fmt), fmt.total_bits)


def dequantize(bits: str, fmt: FixedPointFormat) -> float:
    """Interpret a width-m two's-complement bit string as a real number."""
    if len(bits) != fmt.total_bits:
        raise ValueError(
            f"width mismatch: got {len(bits)} bits for a {fmt.total_bits}-bit format"
        )
    return to_signed(bits) / (1 << fmt.fractional_bits)

