"""Exact and compensated accumulation kernels against brute-force oracles."""

from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlab import EULER_PHI, FunctionTable, build_table, prefix_sums
from corrlab._accum import (
    _CHUNK,
    _SPLIT_BITS,
    _bits,
    _dot_exact_core,
    counted_dots,
    dot,
    exact_sum,
    running_dot,
    running_sums,
)


def _python_dot(a, b):
    return sum(int(x) * int(y) for x, y in zip(a, b))


class TestExactDot:
    def test_small(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        b = np.array([4, 5, 6], dtype=np.int64)
        assert dot(a, b) == 32

    def test_empty(self):
        z = np.array([], dtype=np.int64)
        assert dot(z, z) == 0

    def test_negative_values(self):
        a = np.array([-3, 7, -11], dtype=np.int64)
        b = np.array([5, -2, 9], dtype=np.int64)
        assert dot(a, b) == _python_dot(a, b)

    def test_values_too_large_for_int64_product(self):
        # Each product is ~2^80; a straight int64 dot would wrap around.
        a = np.full(1000, 2**40, dtype=object)
        b = np.full(1000, 2**40, dtype=object)
        assert dot(np.array(a), np.array(b)) == 1000 * 2**80

    def test_split_path_matches_oracle(self):
        # Magnitudes force the hi/lo split (bit budget exceeded for the
        # plain path) while still fitting in int64 storage.
        rng = random.Random(7)
        a = np.array([rng.randrange(-(2**30), 2**30) for _ in range(5000)], dtype=np.int64)
        b = np.array([rng.randrange(-(2**30), 2**30) for _ in range(5000)], dtype=np.int64)
        assert dot(a, b) == _python_dot(a, b)

    def test_operands_at_the_int64_limits(self):
        lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        edges = [lo, lo + 1, hi, hi - 1, -(2**62), 2**62, 2**62 - 1, 1 - 2**62, 0, 1, -1]
        a = np.array(edges * 3, dtype=np.int64)
        b = np.array(edges[::-1] * 3, dtype=np.int64)
        assert dot(a, b) == _python_dot(a, b)
        assert dot(a, a) == _python_dot(a, a)
        for v in edges:
            col = np.full(7, v, dtype=np.int64)
            assert dot(col, col) == 7 * int(v) ** 2
            assert exact_sum(col) == 7 * int(v)

    def test_blocked_rows_and_tail(self):
        # 30-bit by 30-bit products take the blocked reduction with rows of
        # 2**(62 - 60) = 4 terms: 31 terms are seven full rows and a tail of
        # three.  Products near 2**60 overflow any row of 16 terms.
        top = 2**30 - 1
        for sign in (1, -1):
            a = np.full(31, sign * top, dtype=np.int64)
            b = np.full(31, top, dtype=np.int64)
            b[::5] = 2**29
            assert dot(a, b) == _python_dot(a, b)

    def test_reversed_view(self):
        # type2 passes a negative-stride view as its second operand; 31-bit
        # values put the products on the blocked reduction.
        rng = random.Random(17)
        vals = np.array([rng.randrange(2**30, 2**31) for _ in range(301)], dtype=np.int64)
        a, b = vals[:150], vals[151:][::-1]
        assert dot(a, b) == _python_dot(a, b)
        assert exact_sum(b) == sum(int(v) for v in b)

    def test_chunked_path(self):
        n = (1 << 21) + 17
        a = np.ones(n, dtype=np.int64)
        b = np.arange(1, n + 1, dtype=np.int64)
        assert dot(a, b) == n * (n + 1) // 2

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-(2**63), max_value=2**63 - 1),
                st.integers(min_value=-(2**63), max_value=2**63 - 1),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_python_oracle(self, pairs):
        a = np.array([p[0] for p in pairs], dtype=np.int64)
        b = np.array([p[1] for p in pairs], dtype=np.int64)
        assert dot(a, b) == _python_dot(a, b)


@st.composite
def _bounded_operand(draw, n):
    """n int64 values under one drawn bit width 1..63 and sign pattern, with
    the extremes ±(2**w - 1) drawn often; returns (values, w)."""
    w = draw(st.integers(min_value=1, max_value=63))
    top = 2**w - 1
    lo, hi = draw(st.sampled_from([(0, top), (-top, 0), (-top, top)]))
    vals = draw(
        st.lists(
            st.one_of(st.integers(lo, hi), st.sampled_from([lo, hi])),
            min_size=n,
            max_size=n,
        )
    )
    return np.array(vals, dtype=np.int64), w


class TestBoundedExactDot:
    """The exact kernels take recorded bit bounds instead of measuring them."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_python_oracle(self, data):
        n = data.draw(st.integers(min_value=0, max_value=40))
        a, wa = data.draw(_bounded_operand(n))
        b, wb = data.draw(_bounded_operand(n))
        want = _python_dot(a, b)
        assert _dot_exact_core(a, b, wa, wb) == want
        assert dot(a, b, (wa, wb)) == want
        # A looser bound takes another branch and gives the same value.
        assert _dot_exact_core(a, b, min(wa + 9, 64), min(wb + 9, 64)) == want

    @pytest.mark.parametrize("w", [32, 40, 52, 63])
    def test_negative_extreme_at_the_digit_split(self, w):
        # -(2**w - 1) >> 20 is -2**(w - 20), which has w - 19 bits; the split
        # must bound the high digit by that, for each sign of the partner.
        top = 2**w - 1
        a = np.array([-top, -top, top, -top, 0, -1] * 50, dtype=np.int64)
        assert (-top >> _SPLIT_BITS) == -(2 ** (w - _SPLIT_BITS))
        assert _bits(a) + _bits(a) > 62  # the split runs
        for b in (a, -a, np.abs(a)):
            assert _dot_exact_core(a, b, w, w) == _python_dot(a, b)
            assert dot(a, b) == _python_dot(a, b)

    def test_int64_extremes(self):
        m = 2**63 - 1
        a = np.array([m, -m, m, 1, -1, 0], dtype=np.int64)
        b = np.array([m, m, -m, -m, m, m], dtype=np.int64)
        assert _dot_exact_core(a, b, 63, 63) == _python_dot(a, b)
        assert exact_sum(a, 63) == sum(int(v) for v in a)

    def test_table_values_stay_read_only(self):
        # The bound is recorded once, so the values must never change under it.
        for t in (
            build_table(EULER_PHI, 1000, 3),
            FunctionTable.from_values("wide", [2**40, -(2**41), 5]),
        ):
            assert t._value_bits == _bits(t.values)
            assert not t.values.flags.writeable
            with pytest.raises(ValueError):
                t.values[0] = 2**50
            with pytest.raises(ValueError):
                t.values.setflags(write=True)
            ps = prefix_sums(t)
            assert ps._sum_bits >= _bits(ps.sums)
            with pytest.raises(ValueError):
                ps.sums.setflags(write=True)

    def test_float_tables_record_no_bound(self):
        t = FunctionTable.from_values("floats", [0.5, -1.5, 2.0])
        assert t._value_bits is None and prefix_sums(t)._sum_bits is None


class TestExactSumAndCumsum:
    def test_sum_matches_python(self):
        rng = random.Random(11)
        a = np.array([rng.randrange(-(2**50), 2**50) for _ in range(3000)], dtype=np.int64)
        assert exact_sum(a) == sum(int(v) for v in a)

    def test_cumsum_matches_python(self):
        rng = random.Random(13)
        vals = [rng.randrange(-(2**40), 2**40) for _ in range(500)]
        a = np.array(vals, dtype=np.int64)
        out = running_sums(a)
        running, expect = 0, [0]
        for v in vals:
            running += v
            expect.append(running)
        assert [int(v) for v in out] == expect

    def test_cumsum_overflow_falls_back(self):
        # Partial sums exceed int64; the result must still be exact.
        a = np.full(10, 2**62, dtype=object)
        out = running_sums(np.array(a))
        assert int(out[0]) == 0 and int(out[-1]) == 10 * 2**62

    def test_prefix_sums_lead_with_zero(self):
        out = running_sums(np.array([3, -1, 4], dtype=np.int64))
        assert out.dtype == np.int64 and out.tolist() == [0, 3, 2, 6]
        # 2**62 + 2**62 overflows int64, so the sums fall back to Python ints.
        big = running_sums(np.array([2**62, 2**62], dtype=np.int64))
        assert big.dtype == object and big.tolist() == [0, 2**62, 2**63]

    def test_empty(self):
        z = np.array([], dtype=np.int64)
        assert exact_sum(z) == 0
        assert running_sums(z).tolist() == [0]


class TestUnsignedOperands:
    """uint64 entries past int64 run on Python ints instead of wrapping."""

    VALUES = [2**63, 2**64 - 1, 0, 1, 2**63 + 5, 7]

    def _pair(self):
        a = np.array(self.VALUES, dtype=np.uint64)
        return a, a[::-1].copy()

    def test_sum(self):
        a, _ = self._pair()
        assert exact_sum(a) == sum(self.VALUES)

    def test_dot(self):
        a, b = self._pair()
        assert dot(a, b) == _python_dot(self.VALUES, self.VALUES[::-1])
        # One uint64 operand next to an int64 one.
        c = np.arange(len(self.VALUES), dtype=np.int64) - 3
        assert dot(a, c) == _python_dot(self.VALUES, c.tolist())

    def test_prefix_sums(self):
        a, _ = self._pair()
        running, expect = 0, [0]
        for v in self.VALUES:
            running += v
            expect.append(running)
        assert running_sums(a).tolist() == expect


class TestCompensated:
    def test_dot_is_close_to_fsum(self):
        rng = random.Random(3)
        a = np.array([rng.uniform(-1, 1) for _ in range(20_000)])
        b = np.array([rng.uniform(-1, 1) for _ in range(20_000)])
        expect = math.fsum(float(x) * float(y) for x, y in zip(a, b))
        assert dot(a, b) == pytest.approx(expect, rel=1e-14, abs=1e-12)

    def test_cumsum_final_entry_matches_fsum(self):
        rng = random.Random(5)
        vals = [rng.uniform(-1e8, 1e8) for _ in range(10_000)]
        out = running_sums(np.array(vals))[1:]
        assert out[-1] == pytest.approx(math.fsum(vals), rel=1e-12)
        # Each entry is a prefix sum of the input.
        assert out[42] == pytest.approx(math.fsum(vals[:43]), rel=1e-12)

    def test_cumsum_block_offsets_equal_fsum_of_earlier_blocks(self):
        # 60 blocks of 4096 terms over a wide magnitude range: every block's
        # offset must be math.fsum of the earlier block totals, bit for bit.
        rng = np.random.default_rng(19)
        block = 4096
        vals = rng.standard_normal(60 * block) * 10.0 ** rng.integers(-300, 300, 60 * block)
        out = running_sums(vals)[1:]
        totals = []
        for s in range(0, vals.size, block):
            chunk = vals[s : s + block]
            want = np.cumsum(chunk) + math.fsum(totals)
            assert out[s : s + block].tobytes() == want.tobytes()
            totals.append(float(chunk.sum()))

    def test_empty(self):
        z = np.array([], dtype=float)
        assert dot(z, z) == 0.0
        assert running_sums(z).tolist() == [0.0]


class TestCountedDots:
    def test_counts_like_logical_and(self):
        # -0.0 counts as zero and NaN as nonzero, as np.logical_and has it.
        a = np.array([1.0, -0.0, math.nan, 2.0, 0.0])
        b = np.array([0.5, 3.0, 1.0, -0.0, 4.0, 7.0])
        for o in (0, 1):
            want = int(np.count_nonzero(np.logical_and(a, b[o : o + 5])))
            [(_, terms)] = counted_dots(a, b, 5, [o], None)
            assert terms == want, o

    def test_refuses_reads_past_the_operands(self):
        a = np.arange(6, dtype=np.int64)
        assert counted_dots(a, a, 4, [0, 2], 3) == [(14, 3), (26, 3)]
        for n, offsets in ((4, [3]), (7, [0]), (4, [-1])):
            with pytest.raises(ValueError):
                counted_dots(a, a, n, offsets, 3)

    def test_refuses_operands_that_would_wrap(self):
        # Cast straight to int64, 2**63 + 5 would wrap to a negative term.
        with pytest.raises(ValueError, match="uint64"):
            counted_dots(
                np.array([2**63 + 5, 3], dtype=np.uint64),
                np.ones(2, dtype=np.uint64),
                2,
                [0],
                None,
            )
        for dtype in (object, np.complex128):
            a = np.ones(3, dtype=dtype)
            with pytest.raises(ValueError, match="without loss"):
                counted_dots(a, np.ones(3), 2, [0], None)


class TestDtypeDispatch:
    """Each kernel takes exactness from its operands' dtype."""

    def test_a_float_operand_is_not_truncated(self):
        assert dot(np.array([0.5, 0.25]), np.ones(2)) == 0.75
        assert dot(np.ones(2, dtype=np.int64), np.array([0.5, 0.25])) == 0.75

    def test_counted_dots_reads_floats_from_the_dtype(self):
        a, b = np.array([0.5, 0.25]), np.array([1.0, 1.0, 2.0])
        # A bound passed with float operands is only a bound.
        assert counted_dots(a, b, 2, [0], 3) == [(0.75, 2)]
        assert counted_dots(a, b, 2, [0, 1], None) == [(0.75, 2), (1.0, 2)]

    def test_counted_dots_measures_integer_operands_without_a_bound(self):
        a = np.array([2**40, -(2**41), 3, 5], dtype=np.int64)
        want = [(_python_dot(a[:3], a[o : o + 3]), 3) for o in (0, 1)]
        assert counted_dots(a, a, 3, [0, 1], None) == want

    @pytest.mark.parametrize("n", [0, 1, 4096, 3 * 4096 + 7])
    def test_running_dot_is_dot_of_running_sums(self, n):
        rng = np.random.default_rng(31)
        ints = rng.integers(-(2**40), 2**40, (2, n))
        for a, b, bits in ((ints[0], ints[1], 41), (*rng.standard_normal((2, n)), None)):
            want = dot(a, running_sums(b)[1:])
            assert running_dot(a, b) == want
            assert running_dot(a, b, bits) == want
        # 2**62 + 2**62 overflows int64, so the sums run on Python ints.
        big = np.full(n, 2**62, dtype=np.int64)
        assert running_dot(big, big, 63) == 2**124 * n * (n + 1) // 2


class TestNarrowOperands:
    """Every kernel gives on int8, int16 and int32 operands what it gives on
    the same values in int64, on both sides of a chunk edge and on reversed
    views, and casts them one chunk at a time."""

    @staticmethod
    def _results(a, b, bits):
        n = a.size - 3
        return (
            dot(a, b),
            dot(a, b, (bits, bits)),
            dot(a, a),
            dot(a, np.linspace(-1.0, 1.0, a.size)),
            counted_dots(a, b, n, [0, 1, 3], None),
            counted_dots(a, a, n, [0, 2], bits),
            exact_sum(a),
            exact_sum(b, bits),
            running_sums(a).tolist(),
            running_dot(a, b),
            running_dot(a, b, bits),
            running_dot(np.linspace(-1.0, 1.0, a.size), b.astype(np.float64)),
        )

    @pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
    @pytest.mark.parametrize(
        "dtype", [np.int8, np.int16, np.int32], ids=["int8", "int16", "int32"]
    )
    def test_equal_to_int64(self, dtype, n):
        info = np.iinfo(dtype)
        rng = np.random.default_rng(n)
        wide = rng.integers(info.min, info.max, size=(2, n + 3), endpoint=True)
        narrow = wide.astype(dtype)
        bits = max(-int(info.min), int(info.max)).bit_length()
        for view in (lambda x: x, lambda x: x[::-1]):
            got = self._results(view(narrow[0]), view(narrow[1]), bits)
            want = self._results(view(wide[0]), view(wide[1]), bits)
            assert got == want

    def test_casts_one_chunk_at_a_time(self):
        # A whole int64 copy of the operand would take 8 MiB.
        a = np.resize(np.array([1, 0, -1, 0, 1], dtype=np.int8), 1 << 20)
        for kernel in (
            lambda: dot(a, a[::-1]),
            lambda: counted_dots(a, a, a.size - 8, [0, 8], 1),
            lambda: exact_sum(a),
        ):
            tracemalloc.start()
            try:
                kernel()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 << 20
