"""Signed two's-complement fixed-point quantization shared by all pipelines.

A format (m, i) has m total bits of which i are fractional; one sign bit is
always implied, so the integer part carries k = m - i bits including sign.
``quantize_array`` is the one quantization rule: scale by 2**i, truncate
toward zero and saturate to the signed m-bit range, giving signed integers.
A word is that integer; its real value is ``word / 2**i``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def quantize_array(values, fmt: FixedPointFormat):
    """Signed int64 words of ``values``: scaled by 2**i, truncated, saturated.

    Scaling by a power of two is exact in binary floating point, so the
    truncation sees the exact product unless it overflows to infinity, which
    saturates anyway.  Saturation is decided on the float, against the exact
    power of two 2**(m-1), before the cast: ``max_int`` itself is not a
    float64 from m = 55 on.
    """
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

