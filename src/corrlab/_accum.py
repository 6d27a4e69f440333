"""Exact and compensated accumulation primitives.

Integer paths return Python ints and are exact regardless of magnitude:
a dot product runs as one ``np.dot`` when a conservative bound proves the
whole reduction fits in int64; otherwise the products are formed in int64
when they fit and summed in rows short enough that no row total overflows;
otherwise the wider operand is split into high/low digits until they do.

Float paths bound the relative error of long reductions by combining
blockwise ``numpy`` kernels with ``math.fsum`` across block totals.
"""

from __future__ import annotations

import math

import numpy as np

# An int64 reduction is proven safe when its terms and their count satisfy
# max|term| * len < 2**62, leaving a guard bit under the 2**63 signed limit.
_SAFE_PRODUCT_BITS = 62

# Top-level chunk for exact_dot: bounds the int64 product and digit
# temporaries of the blocked reduction.
_EXACT_CHUNK = 1 << 19

# Digit width for the high/low split of oversized operands.
_SPLIT_BITS = 20

# Block length over which a single np.dot / np.cumsum is accumulated before
# the block result is handed to math.fsum.
_FLOAT_BLOCK = 4096


def _bits(a: np.ndarray) -> int:
    """Bit length of max|a| (0 for an empty or all-zero array)."""
    if a.size == 0:
        return 0
    return max(int(a.max()), -int(a.min())).bit_length()


def _sum_int64(p: np.ndarray, bits: int) -> int:
    """Exact sum of an int64 array whose entries satisfy |p| < 2**bits.

    Rows of 2**(62 - bits) terms cannot overflow, so each row is summed in
    int64 and the row totals, plus the tail, in Python ints.
    """
    row = 1 << max(_SAFE_PRODUCT_BITS - bits, 0)
    if p.size <= row:
        return int(p.sum())
    full = p.size - p.size % row
    totals = p[:full].reshape(-1, row).sum(axis=1).tolist()
    return sum(totals) + int(p[full:].sum())


def _dot_exact_core(a: np.ndarray, b: np.ndarray) -> int:
    """Exact dot product of two int64 arrays as a Python int."""
    ba, bb = _bits(a), _bits(b)
    if ba == 0 or bb == 0:
        return 0
    if ba + bb + a.size.bit_length() <= _SAFE_PRODUCT_BITS:
        return int(np.dot(a, b))
    if ba + bb <= _SAFE_PRODUCT_BITS:
        return _sum_int64(a * b, ba + bb)
    # Split the wider operand into high/low digits and recurse: both digits
    # are strictly narrower, so ba + bb drops and the recursion terminates.
    if ba < bb:
        a, b = b, a
    hi = a >> _SPLIT_BITS
    lo = a & ((1 << _SPLIT_BITS) - 1)
    return (_dot_exact_core(hi, b) << _SPLIT_BITS) + _dot_exact_core(lo, b)


def exact_dot(a: np.ndarray, b: np.ndarray) -> int:
    """Return ``sum(a[i] * b[i])`` exactly as a Python int.

    Args:
        a, b: equal-length integer arrays (any integer dtype).

    Returns:
        The exact dot product, free of overflow.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.dtype == object or b.dtype == object:
        return int(np.dot(a.astype(object), b.astype(object))) if a.size else 0
    a64 = np.asarray(a, dtype=np.int64)
    b64 = np.asarray(b, dtype=np.int64)
    total = 0
    for start in range(0, a64.size, _EXACT_CHUNK):
        stop = start + _EXACT_CHUNK
        total += _dot_exact_core(a64[start:stop], b64[start:stop])
    return total


def exact_sum(a: np.ndarray) -> int:
    """Return ``sum(a)`` exactly as a Python int."""
    if a.dtype == object:
        return int(a.sum())
    a64 = np.asarray(a, dtype=np.int64)
    return _sum_int64(a64, _bits(a64))


def exact_cumsum(a: np.ndarray) -> np.ndarray:
    """Exact running sums of an integer array.

    Returns an int64 array when every partial sum provably fits, otherwise
    an object-dtype array of Python ints.
    """
    if a.dtype != object:
        a64 = np.asarray(a, dtype=np.int64)
        if _bits(a64) + a64.size.bit_length() <= _SAFE_PRODUCT_BITS:
            return np.cumsum(a64)
        a = a64.astype(object)
    return np.cumsum(a)


def compensated_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of float arrays with compensated cross-block summation.

    Each block of ``_FLOAT_BLOCK`` terms is reduced by ``np.dot``; the block
    totals are then combined by ``math.fsum``, so the error of the final
    reduction does not grow with the number of blocks.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    af = np.ascontiguousarray(a, dtype=np.float64)
    bf = np.ascontiguousarray(b, dtype=np.float64)
    partials = [
        float(np.dot(af[s : s + _FLOAT_BLOCK], bf[s : s + _FLOAT_BLOCK]))
        for s in range(0, af.size, _FLOAT_BLOCK)
    ]
    return math.fsum(partials)


def compensated_cumsum(a: np.ndarray) -> np.ndarray:
    """Running sums of a float array with per-block compensation.

    Within each block a plain ``np.cumsum`` runs; the offset carried into
    each block is the correctly rounded sum of all previous block totals
    (``math.fsum`` of them), keeping the relative error of every prefix far
    below ordinary cumsum drift.
    """
    af = np.ascontiguousarray(a, dtype=np.float64)
    out = np.empty_like(af)
    # Every finite double is a whole number of 2**-1074 units (the smallest
    # subnormal), so the earlier block totals add up exactly as an int, and
    # int / int rounds correctly.
    units, carried = 1 << 1074, 0
    for s in range(0, af.size, _FLOAT_BLOCK):
        block = af[s : s + _FLOAT_BLOCK]
        out[s : s + block.size] = np.cumsum(block) + carried / units
        num, den = float(block.sum()).as_integer_ratio()
        carried += num * (units // den)
    return out
