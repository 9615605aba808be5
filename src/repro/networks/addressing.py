"""Address arithmetic shared by every topology in the library.

The paper's networks all address :math:`N` processing elements with either

* a flat binary address of ``n = log2(N)`` bits (hypercube, data-flow graph
  rows), or
* a mixed-radix tuple of digits (meshes, tori, base-``b`` hypermeshes).

This module collects the bit- and digit-level primitives those views need:
bit reversal (the permutation the FFT flow graph ends with), bit extraction
and assembly, Gray codes (used by embedding tests), and mixed-radix
encoding/decoding in row-major digit order.

Conventions
-----------
* Bit 0 is the least-significant bit.
* Mixed-radix digit 0 is the *most*-significant digit, so that for a 2D
  row-major layout ``digits = (row, col)`` — this matches the paper's
  "embed the flow graph onto the mesh in row-major order".
* All functions are pure and operate on Python ints (arbitrary precision),
  with NumPy vectorized counterparts where bulk operation matters
  (``bit_reverse_array``, ``to_mixed_radix_array``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "is_power_of_two",
    "ilog2",
    "bit",
    "set_bit",
    "flip_bit",
    "bit_reverse",
    "bit_reverse_array",
    "bit_reversal_permutation",
    "swap_bits",
    "hamming_distance",
    "gray_code",
    "gray_decode",
    "to_mixed_radix",
    "to_mixed_radix_array",
    "from_mixed_radix",
    "digit",
    "with_digit",
    "digit_distance",
]


def is_power_of_two(value: int) -> bool:
    """Return True when ``value`` is a positive integral power of two."""
    return value > 0 and (value & (value - 1)) == 0


def ilog2(value: int) -> int:
    """Exact integer base-2 logarithm.

    Raises
    ------
    ValueError
        If ``value`` is not a power of two; this guards every call site that
        assumes radix-2 structure (hypercube dimensions, FFT sizes).
    """
    if not is_power_of_two(value):
        raise ValueError(f"{value!r} is not a positive power of two")
    return value.bit_length() - 1


def bit(value: int, index: int) -> int:
    """Bit ``index`` (LSB = 0) of ``value`` as 0 or 1."""
    if index < 0:
        raise ValueError("bit index must be non-negative")
    return (value >> index) & 1


def set_bit(value: int, index: int, bit_value: int) -> int:
    """Return ``value`` with bit ``index`` forced to ``bit_value`` (0 or 1)."""
    if bit_value not in (0, 1):
        raise ValueError("bit_value must be 0 or 1")
    mask = 1 << index
    return (value | mask) if bit_value else (value & ~mask)


def flip_bit(value: int, index: int) -> int:
    """Return ``value`` with bit ``index`` complemented."""
    if index < 0:
        raise ValueError("bit index must be non-negative")
    return value ^ (1 << index)


def bit_reverse(value: int, width: int) -> int:
    """Reverse the low ``width`` bits of ``value``.

    This is the address permutation that converts the natural-order output of
    a decimation-in-frequency butterfly network into DFT order — the final
    stage of the paper's Fig. 3 flow graph.
    """
    if width < 0:
        raise ValueError("width must be non-negative")
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} out of range for width {width}")
    result = 0
    for _ in range(width):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


def bit_reverse_array(width: int) -> np.ndarray:
    """Vectorized table ``r`` with ``r[i] = bit_reverse(i, width)``.

    Built by the standard doubling recurrence so it costs O(N) rather than
    O(N log N): the reversal table of width ``w+1`` interleaves the width-``w``
    table doubled with itself shifted by one.
    """
    if width < 0:
        raise ValueError("width must be non-negative")
    table = np.zeros(1, dtype=np.int64)
    for _ in range(width):
        table = np.concatenate((table * 2, table * 2 + 1))
    # ``table`` currently maps natural order -> natural order through the
    # radix-2 split recursion; the concatenation order above *is* the
    # bit-reversal permutation.
    return table


def bit_reversal_permutation(n: int) -> np.ndarray:
    """The bit-reversal permutation on ``n`` points (``n`` a power of two).

    ``perm[i]`` is the destination of the datum at position ``i``.  Because
    bit reversal is an involution, the permutation equals its own inverse.
    """
    return bit_reverse_array(ilog2(n))


def swap_bits(value: int, i: int, j: int) -> int:
    """Return ``value`` with bits ``i`` and ``j`` exchanged."""
    if bit(value, i) == bit(value, j):
        return value
    return value ^ ((1 << i) | (1 << j))


def hamming_distance(a: int, b: int) -> int:
    """Number of bit positions in which ``a`` and ``b`` differ.

    Equals the hypercube graph distance between nodes ``a`` and ``b``.
    """
    return (a ^ b).bit_count()


def gray_code(value: int) -> int:
    """Binary-reflected Gray code of ``value``."""
    if value < 0:
        raise ValueError("value must be non-negative")
    return value ^ (value >> 1)


def gray_decode(code: int) -> int:
    """Inverse of :func:`gray_code`."""
    if code < 0:
        raise ValueError("code must be non-negative")
    value = 0
    while code:
        value ^= code
        code >>= 1
    return value


def to_mixed_radix(value: int, radices: Sequence[int]) -> tuple[int, ...]:
    """Decompose ``value`` into digits under ``radices`` (MSD first).

    ``radices = (b0, b1, ..., b_{k-1})`` addresses ``b0*b1*...*b_{k-1}``
    points; digit 0 varies slowest.  For a 2D row-major mesh of side ``s``
    use ``radices = (s, s)`` and get ``(row, col)``.
    """
    if any(r <= 0 for r in radices):
        raise ValueError("all radices must be positive")
    total = 1
    for r in radices:
        total *= r
    if value < 0 or value >= total:
        raise ValueError(f"value {value} out of range for radices {tuple(radices)}")
    digits = []
    for r in reversed(radices):
        digits.append(value % r)
        value //= r
    return tuple(reversed(digits))


def to_mixed_radix_array(values, radices: Sequence[int]) -> np.ndarray:
    """Vectorized :func:`to_mixed_radix`: a ``(len(radices), len(values))``
    int64 array whose row ``d`` holds digit ``d`` (MSD first) of every
    value.  No range check — callers pass in-range values."""
    values = np.asarray(values, dtype=np.int64)
    strides = np.ones(len(radices), dtype=np.int64)
    for d in range(len(radices) - 2, -1, -1):
        strides[d] = strides[d + 1] * radices[d + 1]
    radix = np.asarray(radices, dtype=np.int64).reshape(-1, 1)
    return (values // strides.reshape(-1, 1)) % radix


def from_mixed_radix(digits: Sequence[int], radices: Sequence[int]) -> int:
    """Inverse of :func:`to_mixed_radix` (MSD-first digit order)."""
    if len(digits) != len(radices):
        raise ValueError("digits and radices must have equal length")
    value = 0
    for d, r in zip(digits, radices):
        if not 0 <= d < r:
            raise ValueError(f"digit {d} out of range for radix {r}")
        value = value * r + d
    return value


def digit(value: int, index: int, radices: Sequence[int]) -> int:
    """Digit ``index`` (MSD = 0) of ``value`` under ``radices``."""
    return to_mixed_radix(value, radices)[index]


def with_digit(value: int, index: int, new_digit: int, radices: Sequence[int]) -> int:
    """Return ``value`` with mixed-radix digit ``index`` replaced."""
    digits = list(to_mixed_radix(value, radices))
    if not 0 <= new_digit < radices[index]:
        raise ValueError(f"digit {new_digit} out of range for radix {radices[index]}")
    digits[index] = new_digit
    return from_mixed_radix(digits, radices)


def digit_distance(a: int, b: int, radices: Sequence[int]) -> int:
    """Number of digit positions in which ``a`` and ``b`` differ.

    Equals the hypermesh graph distance: one net traversal corrects one
    digit, so the distance between any two nodes is the count of differing
    digits — at most the number of dimensions.
    """
    da = to_mixed_radix(a, radices)
    db = to_mixed_radix(b, radices)
    return sum(1 for x, y in zip(da, db) if x != y)
