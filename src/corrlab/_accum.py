"""Dot products and running sums, exact or compensated by operand dtype.

Integer operands give Python ints, exact regardless of magnitude; a float
operand takes the compensated route, so no caller picks a kernel.  Integer
dtypes that cast to int64 without loss (every signed integer dtype, uint8
to uint32, and bool) take the int64 path; uint64 operands and object arrays
of Python ints are summed as Python ints (:func:`counted_dots` refuses
them), so no entry ever wraps.  An operand that is not already a contiguous
int64 or float64 array, such as a narrow table or a reversed view, is cast
one chunk at a time into a buffer that the kernel makes once per call
(:func:`_chunk_reader`), so no kernel copies a whole operand.  On the
int64 path a dot product runs as one ``np.dot`` when a conservative bound
proves the whole reduction fits in int64; otherwise the products are formed
in int64 when they fit and summed in rows short enough that no row total
overflows; otherwise the wider operand is split into high/low digits until
they do.  The bound starts from the bit length of each operand's largest
magnitude, which a table records once when it is built (bare arrays are
measured once per call), so no kernel scans its chunks for it.

Float routes bound the relative error of long reductions by combining
blockwise ``numpy`` kernels with ``math.fsum`` across block totals.  One
writer, :func:`_float_runs`, forms the float running sums of both
:func:`running_sums` and :func:`running_dot`, so the two agree bit for bit.

Long operands are walked in chunks of ``_CHUNK`` entries.  Two int64 chunks
take 1 MiB, which fits in a core's L2 cache, so every pass a kernel makes
over a chunk after the first (products, nonzero masks, the term counts of
:func:`counted_dots`) reads from cache instead of from RAM.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

import numpy as np

# An int64 reduction is proven safe when its terms and their count satisfy
# max|term| * len < 2**62, leaving a guard bit under the 2**63 signed limit.
_SAFE_PRODUCT_BITS = 62

# Chunk length of the operand walks: two int64 chunks fit in L2 together.
# It bounds the buffers narrow operands are cast into and the int64 product
# and digit temporaries of the blocked reduction, and is a multiple of
# _FLOAT_BLOCK so float block totals do not depend on it.
_CHUNK = 1 << 16

# Digit width for the high/low split of oversized operands.
_SPLIT_BITS = 20

# Float dtypes that cast to float64 without loss (np.can_cast also passes
# int64 and uint64, whose large values float64 rounds).
_FLOATS = (np.float16, np.float32, np.float64)

# Block length over which a single np.dot / np.cumsum is accumulated before
# the block result is handed to math.fsum.
_FLOAT_BLOCK = 4096


def _bits(a: np.ndarray) -> int:
    """Bit length of max|a| (0 for an empty or all-zero array)."""
    if a.size == 0:
        return 0
    return max(int(a.max()), -int(a.min())).bit_length()


def _chunk_reader(
    a: np.ndarray, dtype, width: int
) -> Callable[[int, int], np.ndarray]:
    """A function (start, stop) -> ``a[start:stop]`` as a contiguous
    ``dtype`` array, for spans of at most ``width`` entries.

    When ``a`` already is one, each span is a view.  Otherwise it is cast
    into one buffer made here, which the next call overwrites, so a caller
    uses each span before it reads the next.
    """
    if a.dtype == dtype and a.flags.c_contiguous:
        return lambda start, stop: a[start:stop]
    buffer = np.empty(min(width, a.size), dtype)

    def read(start: int, stop: int) -> np.ndarray:
        part = a[start:stop]
        out = buffer[: part.size]
        out[...] = part
        return out

    return read


def _chunks(
    a: np.ndarray, b: np.ndarray, dtype
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Aligned ``_CHUNK``-entry spans of two equal-length operands, each
    read by :func:`_chunk_reader` as ``dtype``; a self dot product casts
    each span once."""
    read_a, read_b = _chunk_reader(a, dtype, _CHUNK), _chunk_reader(b, dtype, _CHUNK)
    for start in range(0, a.size, _CHUNK):
        x = read_a(start, start + _CHUNK)
        yield x, x if b is a else read_b(start, start + _CHUNK)


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


def _dot_exact_core(a: np.ndarray, b: np.ndarray, ba: int, bb: int) -> int:
    """Exact dot product of two int64 arrays as a Python int.

    ``ba`` and ``bb`` bound the bit lengths of max|a| and max|b|; any bound
    at least that large gives the same value.
    """
    if ba == 0 or bb == 0:
        return 0
    if ba + bb + a.size.bit_length() <= _SAFE_PRODUCT_BITS:
        return int(np.dot(a, b))
    if ba + bb <= _SAFE_PRODUCT_BITS:
        return _sum_int64(a * b, ba + bb)
    # Split the wider operand into high/low digits and recurse: both digits
    # are strictly narrower, so ba + bb drops and the recursion terminates.
    # The high digit of -(2**ba - 1) is -2**(ba - 20), which has ba - 19 bits.
    if ba < bb:
        a, b, ba, bb = b, a, bb, ba
    hi = a >> _SPLIT_BITS
    lo = a & ((1 << _SPLIT_BITS) - 1)
    return (
        _dot_exact_core(hi, b, ba - _SPLIT_BITS + 1, bb) << _SPLIT_BITS
    ) + _dot_exact_core(lo, b, _SPLIT_BITS, bb)


def _is_float(*arrays: np.ndarray) -> bool:
    """Whether any operand is a float array (the compensated route)."""
    return any(a.dtype.kind == "f" for a in arrays)


def dot(
    a: np.ndarray, b: np.ndarray, bits: tuple[int, int] | None = None
) -> int | float:
    """Return ``sum(a[i] * b[i])`` of equal-length arrays.

    Integer operands give the exact Python int; ``bits`` bounds the bit
    lengths of max|a| and max|b| when the caller has recorded them (else
    both are measured once here).  If either operand is a float array, each
    block of ``_FLOAT_BLOCK`` terms is reduced by ``np.dot`` and the block
    totals by ``math.fsum``, and ``bits`` is ignored.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if _is_float(a, b):
        chunks = _chunks(a, b, np.float64)
        return math.fsum(t for x, y in chunks for t in _block_dots(x, y))
    if not (np.can_cast(a.dtype, np.int64) and np.can_cast(b.dtype, np.int64)):
        return int(np.dot(a.astype(object), b.astype(object))) if a.size else 0
    ba, bb = bits if bits is not None else (_bits(a), _bits(b))
    return sum(_dot_exact_core(x, y, ba, bb) for x, y in _chunks(a, b, np.int64))


def counted_dots(
    a: np.ndarray, b: np.ndarray, n: int, offsets: Sequence[int], bits: int | None
) -> list[tuple[int | float, int]]:
    """Dot product of ``a[:n]`` with ``b[o : o + n]``, and the count of its
    nonzero products, for each offset o, in input order.

    Each value equals :func:`dot` of the two windows.  For integer operands
    ``bits`` bounds the bit length of every |a[i]| and |b[i]| (a table
    records it once, so no window is scanned for it; ``None`` measures it
    once here).  The count is the number of products with both factors
    nonzero (-0.0 counts as zero).  An operand whose dtype casts to neither
    int64 nor float64 without loss (uint64, object, long double, complex)
    is refused with a ValueError, since the walk casts to one of them.

    One walk reads each window of ``_CHUNK`` entries of ``a``, and of ``b``
    plus a max(offsets) tail, from memory once; every offset's dot product
    and term count then read it from cache, and all offsets share the
    window's two nonzero masks.
    """
    if not offsets:
        return []
    reach = max(offsets)
    if min(offsets) < 0 or a.size < n or b.size < n + reach:
        raise ValueError(f"offsets {list(offsets)} read past the operands at n={n}")
    for x in (a, b):
        if not (np.can_cast(x.dtype, np.int64) or x.dtype in _FLOATS):
            raise ValueError(
                f"counted_dots needs operands that cast to int64 or float64 "
                f"without loss, got {x.dtype}"
            )
    exact = not _is_float(a, b)
    if exact and bits is None:
        bits = max(_bits(a[:n]), _bits(b[: n + reach]))
    dtype = np.int64 if exact else np.float64
    # A narrow or reversed operand is cast once per chunk here, so every
    # np.dot below gets contiguous blocks, as dot gives it.
    read_a = _chunk_reader(a, dtype, _CHUNK)
    read_b = _chunk_reader(b, dtype, _CHUNK + reach)
    totals = [0] * len(offsets)
    partials: list[list[float]] = [[] for _ in offsets]
    terms = [0] * len(offsets)
    for start in range(0, n, _CHUNK):
        m = min(_CHUNK, n - start)
        window = read_b(start, start + m + reach)
        # A type-1 walk reads one table as both operands: cast it once.
        head = window[:m] if a is b else read_a(start, start + m)
        head_nonzero, nonzero = head != 0, window != 0
        for i, o in enumerate(offsets):
            terms[i] += int(np.count_nonzero(head_nonzero & nonzero[o : o + m]))
            if exact:
                totals[i] += _dot_exact_core(head, window[o : o + m], bits, bits)
            else:
                partials[i] += _block_dots(head, window[o : o + m])
    if not exact:
        totals = [math.fsum(p) for p in partials]
    return list(zip(totals, terms))


def total(a: np.ndarray, bits: int | None = None) -> int | float:
    """``running_sums(a, bits)[-1]`` with no array of them: an integer
    array's exact sum as a Python int (``bits`` bounds max|a| as for
    :func:`dot`), or a float array's last run, formed in one block."""
    if _is_float(a):
        af = np.ascontiguousarray(a, dtype=np.float64)
        last = 0.0
        for _, run in _float_runs(af, np.empty(min(_FLOAT_BLOCK, af.size))):
            last = run[-1]
        return float(last)
    if not np.can_cast(a.dtype, np.int64):
        return int(a.astype(object).sum())
    bits = _bits(a) if bits is None else bits
    read = _chunk_reader(a, np.int64, _CHUNK)
    chunks = (read(s, s + _CHUNK) for s in range(0, a.size, _CHUNK))
    return sum(_sum_int64(chunk, bits) for chunk in chunks)


def sums_fit_int64(a: np.ndarray, bits: int | None = None) -> bool:
    """Whether every sum of entries of the int64 array ``a`` provably fits;
    ``bits`` as for :func:`total`."""
    bits = _bits(a) if bits is None else bits
    return bits + a.size.bit_length() <= _SAFE_PRODUCT_BITS


def running_sums(a: np.ndarray, bits: int | None = None) -> np.ndarray:
    """S(0), S(1), ..., S(n) of ``a``, with S(0) = 0; ``bits`` as for
    :func:`total`.

    Integer sums are exact: int64, when every partial sum provably fits,
    else Python ints.  Float sums are written block by block by
    :func:`_float_runs`, far below ordinary cumsum drift.  The result is
    int64, object or float64, so a caller may add or subtract whole arrays
    of sums; :func:`_running_sums_in` writes narrower ones.
    """
    if _is_float(a):
        af = np.ascontiguousarray(a, dtype=np.float64)
        out = np.empty(af.size + 1)
        out[0] = 0.0
        for _ in _float_runs(af, out[1:]):
            pass
        return out
    if not (np.can_cast(a.dtype, np.int64) and sums_fit_int64(a, bits)):
        return np.concatenate([np.zeros(1, dtype=object), np.cumsum(a, dtype=object)])
    return _running_sums_in(a, np.int64)


def _running_sums_in(a: np.ndarray, dtype) -> np.ndarray:
    """The exact running sums of the integer array ``a`` as ``dtype``,
    which the caller has proven holds every one of them.

    An ``a`` of another dtype is cast one chunk at a time into a buffer of
    ``dtype``, so each chunk can carry the sum so far in its first entry
    and no whole-span temporary is made.
    """
    out = np.empty(a.size + 1, dtype=dtype)
    out[0] = 0
    if a.dtype == dtype:
        np.cumsum(a, dtype=dtype, out=out[1:])
        return out
    read = _chunk_reader(a, dtype, _CHUNK)
    for s in range(0, a.size, _CHUNK):
        chunk = read(s, s + _CHUNK)
        chunk[0] += out[s]
        np.cumsum(chunk, dtype=dtype, out=out[s + 1 : s + 1 + chunk.size])
    return out


def narrowest_int(bits: int) -> type:
    """The narrowest of int8, int16 and int32 that holds every integer of
    magnitude below 2**bits, else int64."""
    for dtype in (np.int8, np.int16, np.int32):
        if bits < np.iinfo(dtype).bits:
            return dtype
    return np.int64


def running_dot(
    a: np.ndarray, b: np.ndarray, bits: int | None = None
) -> int | float:
    """``dot(a, running_sums(b)[1:])``, with equal bits; ``bits`` as for
    :func:`counted_dots`.  A float ``b``'s runs go to one block of scratch,
    so no array of them is written.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if not _is_float(b):
        bound = None if bits is None else (bits, bits + b.size.bit_length())
        return dot(a, running_sums(b, bits)[1:], bound)
    read = _chunk_reader(a, np.float64, _FLOAT_BLOCK)
    bf = np.ascontiguousarray(b, dtype=np.float64)
    runs = _float_runs(bf, np.empty(min(_FLOAT_BLOCK, bf.size)))
    return math.fsum(float(np.dot(read(s, s + run.size), run)) for s, run in runs)


def _block_dots(a: np.ndarray, b: np.ndarray) -> list[float]:
    """``np.dot`` of each ``_FLOAT_BLOCK``-term block of two contiguous arrays."""
    return [
        float(np.dot(a[s : s + _FLOAT_BLOCK], b[s : s + _FLOAT_BLOCK]))
        for s in range(0, a.size, _FLOAT_BLOCK)
    ]


def _float_runs(a: np.ndarray, out: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, run) for each ``_FLOAT_BLOCK`` block of ``a``: run, a
    view of ``out`` (as long as ``a``, or one block long and reused), holds
    the block's ``np.cumsum`` plus the correctly rounded sum of all earlier
    block totals.  Every finite double is a whole number of 2**-1074 units
    (the smallest subnormal), so those totals add up exactly as an int, and
    int / int rounds correctly.
    """
    units, carried = 1 << 1074, 0
    for s in range(0, a.size, _FLOAT_BLOCK):
        block = a[s : s + _FLOAT_BLOCK]
        at = s if out.size == a.size else 0
        run = out[at : at + block.size]
        np.cumsum(block, out=run)
        run += carried / units
        num, den = float(block.sum()).as_integer_ratio()
        carried += num * (units // den)
        yield s, run
