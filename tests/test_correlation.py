"""Shifted correlation sums, representation sums, and the diagonal ratio."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from corrlab import (
    CONSTANT_ONE,
    MU_SQUARED,
    VON_MANGOLDT,
    DegenerateSum,
    FunctionKind,
    FunctionTable,
    RangeError,
    bilinear_rhs,
    build_table,
    density_estimate,
    type1,
    type1_sweep,
    type2,
)
from corrlab._accum import _CHUNK, _SAFE_PRODUCT_BITS, dot


class TestType1:
    def test_musquared_example(self):
        t = build_table(MU_SQUARED, 20, 1)
        r = type1(t, 8, 1)
        assert r.value == 4
        assert r.terms == 4
        assert r.shift == 1

    def test_von_mangoldt_twin_shift(self):
        t = build_table(VON_MANGOLDT, 20, 2)
        r = type1(t, 10, 2)
        lg = math.log
        # Nonzero products at n in {2, 3, 5, 7, 9}.
        expect = (
            lg(2) * lg(2)
            + lg(3) * lg(5)
            + lg(5) * lg(7)
            + lg(7) * lg(3)
            + lg(3) * lg(11)
        )
        assert r.value == pytest.approx(expect, rel=1e-13)
        assert r.terms == 5

    def test_constant_one_counts_all_n(self):
        t = build_table(CONSTANT_ONE, 100, 5)
        for x in (1, 10, 100):
            for l in (1, 5):
                r = type1(t, x, l)
                assert r.value == x
                assert r.terms == x

    def test_never_zero_pads(self):
        # Asking past the sieved span must fail loudly, not truncate.
        t = build_table(MU_SQUARED, 10, 1)
        with pytest.raises(RangeError, match="headroom"):
            type1(t, 10, 2)

    def test_exactly_at_span_boundary_ok(self):
        t = build_table(MU_SQUARED, 10, 2)
        r = type1(t, 10, 2)  # touches n + l = 12 = span
        assert r.value >= 0

    def test_argument_validation(self):
        t = build_table(CONSTANT_ONE, 10, 1)
        with pytest.raises(ValueError):
            type1(t, 0, 1)
        with pytest.raises(ValueError):
            type1(t, 5, 0)


class TestType2:
    def test_von_mangoldt_example(self):
        t = build_table(VON_MANGOLDT, 20)
        r = type2(t, 10)
        lg = math.log
        assert r.value == pytest.approx(lg(2) ** 2 + lg(3) * lg(7), rel=1e-13)
        assert r.middle_term == pytest.approx(lg(5) ** 2, rel=1e-13)
        assert r.shift is None
        assert r.shift_label == "type2"

    def test_divisor_example(self):
        t = build_table(FunctionKind.divisor(2), 20)
        r = type2(t, 6)
        assert r.value == 8
        assert r.middle_term == 4

    def test_constant_one_example(self):
        t = build_table(CONSTANT_ONE, 20)
        r = type2(t, 10)
        assert r.value == 4
        assert r.middle_term == 1

    def test_odd_x_has_no_middle(self):
        t = build_table(CONSTANT_ONE, 20)
        r = type2(t, 9)
        assert r.middle_term is None
        assert r.value == 4  # pairs (n, 9-n) for n in 1..4 with n < 9-n

    def test_bounded_by_bilinear(self):
        # Every type2 product is one of the off-diagonal products.
        t = build_table(FunctionKind.divisor(2), 600)
        for x in range(2, 601, 13):
            assert type2(t, x).value <= bilinear_rhs(t, x)

    def test_argument_validation(self):
        t = build_table(CONSTANT_ONE, 10)
        with pytest.raises(ValueError):
            type2(t, 1)
        with pytest.raises(RangeError):
            type2(t, 11)


class TestTermCounts:
    def test_signed_zeros_and_negatives(self):
        # Only exact zeros drop a term: -0.0 == 0 counts as zero, negative
        # values count as nonzero, on the shifted and the reversed view.
        vals = [1.5, -2.0, 0.0, -0.0, 3.0, -1.0, 0.0, 2.5, -0.0, -4.0, 1.0, 0.0]
        t = FunctionTable.from_values("signed", vals, shift_headroom=3)
        arr = np.asarray(vals)
        for x in range(1, 10):
            for l in (1, 2, 3):
                a, b = arr[:x], arr[l : l + x]
                want = int(np.count_nonzero((a != 0) & (b != 0)))
                assert type1(t, x, l).terms == want
        for x in range(2, 10):
            half = (x - 1) // 2
            a, b = arr[:half], arr[x - half - 1 : x - 1][::-1]
            want = int(np.count_nonzero((a != 0) & (b != 0)))
            assert type2(t, x).terms == want


def _python_sum(a, b):
    """(sum of a[i]·b[i], number of i with both nonzero) in Python ints."""
    pairs = list(zip(a.tolist(), b.tolist()))
    return sum(x * y for x, y in pairs), sum(1 for x, y in pairs if x and y)


def _direct(t):
    """Whether a whole chunk of t's products takes one int64 np.dot."""
    return 2 * t._value_bits + _CHUNK.bit_length() <= _SAFE_PRODUCT_BITS


def _blocked(t):
    """Whether t's products fit int64 but a chunk of them summed may not."""
    return 2 * t._value_bits <= _SAFE_PRODUCT_BITS and not _direct(t)


def _split(t):
    """Whether t's products overflow int64, so the wider operand is split."""
    return 2 * t._value_bits > _SAFE_PRODUCT_BITS


def _int_values(n, bits, seed):
    """n random signed ints below 2**bits, every 7th zero, the ends nonzero,
    so a chunk walk that drops any entry changes the value or the count."""
    rng = random.Random(seed)
    vals = [rng.randrange(1, 2**bits) * rng.choice((1, -1)) for _ in range(n)]
    for i in range(3, n - 3, 7):
        vals[i] = 0
    return np.array(vals, dtype=np.int64)


class TestChunkBoundaries:
    """type1 and type2 walk their operands in chunks of _CHUNK entries; sums
    whose length sits on either side of a chunk boundary keep every term."""

    @pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
    def test_shifted_view(self, n):
        arr = _int_values(n + 3, 12, n)
        t = FunctionTable.from_values("ints", arr, shift_headroom=3)
        assert _direct(t)
        for l in (1, 3):
            r = type1(t, n, l)
            assert (r.value, r.terms) == _python_sum(arr[:n], arr[l : l + n]), l

    @pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
    def test_reversed_view(self, n):
        arr = _int_values(2 * n + 2, 12, n)
        t = FunctionTable.from_values("ints", arr)
        assert _direct(t)
        for x in (2 * n + 1, 2 * n + 2):  # both have n terms below x/2
            r = type2(t, x)
            b = arr[x - n - 1 : x - 1][::-1]
            assert (r.value, r.terms) == _python_sum(arr[:n], b), x

    def test_blocked_branch(self):
        # 28-bit products of 56 bits fit int64 but not 2**16 of them summed,
        # so every chunk takes the blocked int64 reduction.
        n = 2 * _CHUNK + 5
        arr = np.abs(_int_values(2 * n + 4, 28, 5))  # row totals near 2**71
        t = FunctionTable.from_values("wide", arr, shift_headroom=2)
        assert _blocked(t)
        r = type1(t, n, 2)
        assert (r.value, r.terms) == _python_sum(arr[:n], arr[2 : 2 + n])
        r = type2(t, 2 * n + 1)
        assert (r.value, r.terms) == _python_sum(arr[:n], arr[n : 2 * n][::-1])

    def test_digit_split_branch(self):
        # 40-bit values have 80-bit products, so every chunk splits the wider
        # operand into digits; -(2**40 - 1) puts the high digit at its bound.
        n = _CHUNK + 3
        arr = _int_values(2 * n + 4, 40, 9)
        arr[::11] = -(2**40 - 1)
        t = FunctionTable.from_values("split", arr, shift_headroom=2)
        assert _split(t)
        r = type1(t, n, 2)
        assert (r.value, r.terms) == _python_sum(arr[:n], arr[2 : 2 + n])
        r = type2(t, 2 * n + 1)
        assert (r.value, r.terms) == _python_sum(arr[:n], arr[n : 2 * n][::-1])

    def test_float_signed_zeros(self):
        n = _CHUNK + 1
        rng = random.Random(23)
        vals = [rng.uniform(-3.0, 3.0) for _ in range(2 * n + 4)]
        for i in range(0, len(vals), 5):
            vals[i] = (0.0, -0.0)[i % 2]
        t = FunctionTable.from_values("signed", vals, shift_headroom=2)
        arr = np.asarray(vals)
        cases = [
            (type1(t, n, 2), arr[:n], arr[2 : 2 + n]),
            (type2(t, 2 * n + 2), arr[:n], arr[n + 1 : 2 * n + 1][::-1]),
        ]
        for r, a, b in cases:
            assert r.value == dot(a, b)
            assert r.terms == int(np.count_nonzero((a != 0) & (b != 0)))


class TestSweepWalk:
    """type1_sweep walks the table once in _CHUNK windows plus a max(shifts)
    tail; every shift reads each window, and all share its nonzero mask."""

    @pytest.mark.parametrize("x", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
    @pytest.mark.parametrize("bits", [12, 28, 40], ids=["direct", "blocked", "split"])
    def test_reads_cross_the_tail(self, x, bits):
        headroom = 64
        arr = _int_values(x + headroom, bits, x + bits)
        t = FunctionTable.from_values("ints", arr, shift_headroom=headroom)
        assert {12: _direct, 28: _blocked, 40: _split}[bits](t)
        shifts = [1, headroom]  # the shortest shift and the full headroom
        swept = type1_sweep(t, x, shifts)
        for r, l in zip(swept, shifts):
            assert (r.x, r.shift) == (x, l)
            assert (r.value, r.terms) == _python_sum(arr[:x], arr[l : l + x]), l

    def test_unsorted_and_duplicate_shifts(self):
        x = _CHUNK + 5
        arr = _int_values(x + 9, 28, 3)
        t = FunctionTable.from_values("ints", arr, shift_headroom=9)
        assert _blocked(t)
        shifts = [7, 1, 9, 7, 2, 1]
        swept = type1_sweep(t, x, shifts)
        assert [r.shift for r in swept] == shifts
        for r, l in zip(swept, shifts):
            single = type1(t, x, l)
            assert (r.value, r.terms) == (single.value, single.terms)
            assert (r.value, r.terms) == _python_sum(arr[:x], arr[l : l + x]), l

    def test_bound_covers_the_headroom(self):
        # The largest values sit past the limit, where only shifted reads
        # go; a bound over 1..limit alone would send their 83-bit products
        # to the direct int64 np.dot.
        arr = np.array([2**20] * 6 + [2**62 - 1, -(2**62)], dtype=np.int64)
        t = FunctionTable.from_values("top", arr, shift_headroom=2)
        assert t._value_bits == 63
        for r, l in zip(type1_sweep(t, 6, [1, 2]), (1, 2)):
            assert (r.value, r.terms) == _python_sum(arr[:6], arr[l : l + 6]), l

    def test_float_signed_zeros_share_the_mask(self):
        x = _CHUNK + 1
        rng = random.Random(29)
        vals = [rng.uniform(-3.0, 3.0) for _ in range(x + 4)]
        for i in range(0, len(vals), 3):
            vals[i] = (0.0, -0.0)[i % 2]
        t = FunctionTable.from_values("signed", vals, shift_headroom=4)
        arr = np.asarray(vals)
        shifts = [4, 1, 3, 1]
        for r, l in zip(type1_sweep(t, x, shifts), shifts):
            a, b = arr[:x], arr[l : l + x]
            assert r.value == dot(a, b)
            assert r.terms == int(np.count_nonzero((a != 0) & (b != 0)))


class TestSweep:
    def test_matches_individual_calls(self):
        t = build_table(MU_SQUARED, 200, 5)
        shifts = [1, 2, 3, 5]
        swept = type1_sweep(t, 150, shifts)
        for r, l in zip(swept, shifts):
            single = type1(t, 150, l)
            assert (r.shift, r.value, r.terms) == (single.shift, single.value, single.terms)

    def test_offending_shift_named_before_any_work(self):
        t = build_table(MU_SQUARED, 10, 2)
        with pytest.raises(RangeError, match="shift 7"):
            type1_sweep(t, 10, [1, 7, 2])

    def test_empty_sweep(self):
        t = build_table(MU_SQUARED, 10, 1)
        assert type1_sweep(t, 10, []) == []


class TestShiftDecomposition:
    def test_sum_over_shifts_recovers_bilinear(self):
        # sum_{l=1}^{x-1} type1(x - l, l) enumerates each pair m < n <= x
        # exactly once, so it equals the bilinear sum at x.
        x = 1000
        t = build_table(MU_SQUARED, x, x)
        total = sum(type1(t, x - l, l).value for l in range(1, x))
        assert total == bilinear_rhs(t, x)


class TestDiagonalRatio:
    def test_constant_one_exact_value(self):
        t = build_table(CONSTANT_ONE, 20, 1)
        assert density_estimate(t, 10, 1).diagonal_ratio == Fraction(41, 45)

    def test_von_mangoldt_in_unit_interval(self):
        t = build_table(VON_MANGOLDT, 100, 1)
        r = density_estimate(t, 100, 1).diagonal_ratio
        assert 0.0 < r < 1.0

    def test_degenerate(self):
        # type1(2, 1) = f(2)·f(3) = 1 > 0, but the form f(2)·S(1) vanishes.
        t = FunctionTable.from_values("point", [0, 1, 1])
        with pytest.raises(DegenerateSum, match="vanishes at x=2"):
            density_estimate(t, 2, 1)
