"""The summation identity and its three computation routes.

The double sum over (n, j) with n + j <= x, the bilinear single pass over
prefix sums, and the closed form in terms of first and second moments must
agree — exactly for integer tables, to relative tolerance for real ones.
"""

from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlab import (
    CONSTANT_ONE,
    LIOUVILLE,
    MU_SQUARED,
    VON_MANGOLDT,
    BudgetExceeded,
    FunctionKind,
    FunctionTable,
    RangeError,
    SequencePair,
    bilinear_rhs,
    build_table,
    double_sum_lhs_oracle,
    general_area_identity,
    identity_check,
    pair_sum_closed_form,
    prefix_sums,
)
from corrlab import _sieves, identity
from corrlab._accum import _FLOAT_BLOCK, dot, running_sums


class TestGeneralAreaIdentity:
    def test_minimal_pair(self):
        res = general_area_identity(SequencePair([1, 1], [1, 1]))
        assert res.lhs == res.rhs == 1
        assert res.equal
        assert res.exact

    def test_single_element_is_empty_sum(self):
        res = general_area_identity(SequencePair([5], [7]))
        assert res.lhs == res.rhs == 0
        assert res.equal

    def test_float_pair(self):
        r = [0.5, -1.25, 3.0, 2.5]
        h = [1.0, 0.25, -2.0, 4.0]
        res = general_area_identity(SequencePair(r, h))
        assert not res.exact
        assert res.equal
        assert res.lhs == pytest.approx(res.rhs, rel=1e-12)

    def test_direct_lhs_value(self):
        # lhs is sum_{j=2}^{n} r_j h_j by definition.
        r, h = [3, 1, 4, 1], [2, 7, 1, 8]
        res = general_area_identity(SequencePair(r, h))
        assert res.lhs == 1 * 7 + 4 * 1 + 1 * 8

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-1000, max_value=1000),
                st.integers(min_value=-1000, max_value=1000),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_holds_for_arbitrary_integer_pairs(self, pairs):
        r = [p[0] for p in pairs]
        h = [p[1] for p in pairs]
        res = general_area_identity(SequencePair(r, h))
        assert res.equal
        assert res.lhs == res.rhs

    def test_python_ints_past_int64_stay_exact(self):
        res = general_area_identity(SequencePair([2**70, 1, 3], [1, 2**70, 5]))
        assert res.exact
        assert res.lhs == res.rhs == 1180591620717411303439
        assert res.equal

    @pytest.mark.parametrize("as_array", [True, False], ids=["uint64", "list"])
    def test_unsigned_magnitudes_stay_exact(self, as_array):
        # Entries in [2**63, 2**64): a uint64 array, or a list that numpy
        # alone would store as floats.
        r = [2**63, 2**64 - 1, 3, 2**63 + 1]
        h = [1, 2**63, 2**64 - 2, 5]
        lhs = sum(a * b for a, b in zip(r[1:], h[1:]))
        if as_array:
            r, h = np.array(r, dtype=np.uint64), np.array(h, dtype=np.uint64)
        res = general_area_identity(SequencePair(r, h))
        assert res.exact
        assert res.lhs == res.rhs == lhs
        assert res.equal

    def test_bool_sequences_are_exact(self):
        r = np.array([True, True, False, True])
        h = np.array([False, True, True, True])
        res = general_area_identity(SequencePair(r, h))
        assert res.exact
        assert res.lhs == res.rhs == 2
        assert res.equal

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            SequencePair([1, 2], [1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SequencePair([], [])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SequencePair([1.0, float("nan")], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, np.float64(-math.inf)])
    def test_rejects_non_finite_in_object_arrays(self, bad):
        r = np.array([1, bad, 2], dtype=object)
        with pytest.raises(ValueError, match="sequence values must be finite"):
            SequencePair(r, [1, 2, 3])
        with pytest.raises(ValueError, match="sequence values must be finite"):
            SequencePair([1, 2, 3], r)

    def test_mixed_pair_equals_the_float_pair(self):
        # An integer sequence beside a float one is taken as floats.
        r, h = [3, -1, 4, 1, 5, 2**40], [0.5, 2.25, -1.0, 3.5, 0.125, 1e-3]
        mixed = general_area_identity(SequencePair(r, h))
        floats = general_area_identity(SequencePair([float(v) for v in r], h))
        assert not mixed.exact and mixed.equal
        assert (mixed.lhs.hex(), mixed.rhs.hex()) == (floats.lhs.hex(), floats.rhs.hex())

    @pytest.mark.parametrize(
        "r, h",
        [
            ([2**1100, 1], [0.5, 1.0]),
            (np.array([2**1100, 0.5], dtype=object), [1, 2]),
        ],
        ids=["beside", "within"],
    )
    def test_ints_past_float_range_beside_floats_are_refused(self, r, h):
        with pytest.raises(ValueError, match="float64"):
            SequencePair(r, h)

    def test_object_arrays_of_huge_ints_are_finite(self):
        # Past float range, so finiteness is never asked of float(v).
        r = np.array([2**2000, 1], dtype=object)
        assert SequencePair(r, [1, 2]).exact


class TestBilinearRhs:
    def test_constant_one_counts_pairs(self):
        t = build_table(CONSTANT_ONE, 20)
        assert bilinear_rhs(t, 5) == 10  # C(5, 2)
        assert bilinear_rhs(t, 1) == 0

    def test_divisor_example(self):
        t = build_table(FunctionKind.divisor(2), 20)
        assert bilinear_rhs(t, 6) == 79

    def test_von_mangoldt_small(self):
        t = build_table(VON_MANGOLDT, 20)
        expect = math.log(2) * math.log(3) + math.log(2) * (math.log(2) + math.log(3))
        assert bilinear_rhs(t, 4) == pytest.approx(expect, rel=1e-13)

    def test_accepts_precomputed_prefix(self):
        t = build_table(MU_SQUARED, 100)
        ps = prefix_sums(t)
        assert bilinear_rhs(t, 50, ps) == bilinear_rhs(t, 50)

    def test_rejects_foreign_prefix(self):
        t = build_table(MU_SQUARED, 100)
        other = prefix_sums(build_table(CONSTANT_ONE, 100))
        with pytest.raises(ValueError):
            bilinear_rhs(t, 50, other)

    def test_incremental_growth(self):
        # B(x) - B(x-1) = f(x) * S(x-1): the new top row of the triangle.
        t = build_table(MU_SQUARED, 300)
        ps = prefix_sums(t)
        for x in range(2, 301):
            assert bilinear_rhs(t, x, ps) - bilinear_rhs(t, x - 1, ps) == t.value(
                x
            ) * ps.s(x - 1), x

    def test_range_errors(self):
        t = build_table(CONSTANT_ONE, 10)
        with pytest.raises(ValueError):
            bilinear_rhs(t, 0)
        with pytest.raises(RangeError):
            bilinear_rhs(t, 11)


class TestDoubleSumOracle:
    def test_matches_bilinear_exact(self):
        t = build_table(FunctionKind.divisor(2), 200)
        for x in (1, 2, 3, 10, 150):
            assert double_sum_lhs_oracle(t, x) == bilinear_rhs(t, x), x

    @pytest.mark.parametrize("top", [2**20, 2**60], ids=["int64-rows", "exact-rows"])
    def test_row_sums_match_python(self, top):
        # Sums of 60 entries below 2**20 fit int64 and take the plain row
        # sums; entries near 2**60 could overflow and take total.
        rng = random.Random(top)
        vals = [rng.randrange(-top, top) for _ in range(60)]
        t = FunctionTable.from_values("rows", vals)
        for x in (1, 2, 59, 60):
            want = sum(vals[m] * vals[n] for n in range(x) for m in range(n))
            assert double_sum_lhs_oracle(t, x) == want, x

    def test_float_rows_match_numpy_row_sums(self):
        # Each row is f(n) times the numpy sum of f(n+1..x), combined by fsum.
        t = build_table(VON_MANGOLDT, 400)
        v = t.values
        for x in (1, 2, 399, 400):
            rows = [float(v[n - 1]) * float(np.sum(v[n:x])) for n in range(1, x)]
            assert double_sum_lhs_oracle(t, x).hex() == math.fsum(rows).hex(), x

    def test_budget_guard(self):
        x = identity.DEFAULT_ORACLE_CAP + 1
        t = build_table(CONSTANT_ONE, x)
        with pytest.raises(BudgetExceeded):
            double_sum_lhs_oracle(t, x)


class TestPairSumClosedForm:
    def test_musquared_example(self):
        t = build_table(MU_SQUARED, 20)
        assert pair_sum_closed_form(t, 8) == 15

    def test_equals_bilinear_for_integer_kinds(self):
        for kind in (CONSTANT_ONE, MU_SQUARED, FunctionKind.divisor(3)):
            t = build_table(kind, 400)
            ps = prefix_sums(t)
            for x in (1, 2, 7, 399, 400):
                assert pair_sum_closed_form(t, x) == bilinear_rhs(t, x, ps), (
                    kind.label,
                    x,
                )

    def test_serves_exact_bilinear_without_prefix(self, monkeypatch):
        # Exact bilinear_rhs without prefix sums is the closed form, while
        # identity_check still sets the oracle against the prefix route.
        def closed_form_called(table, x):
            raise RuntimeError("closed form called")

        monkeypatch.setattr(identity, "pair_sum_closed_form", closed_form_called)
        t = build_table(MU_SQUARED, 300)
        with pytest.raises(RuntimeError, match="closed form called"):
            bilinear_rhs(t, 300)
        res = identity_check(t, 300)
        assert res.equal and res.lhs == res.rhs

    def test_float_kind_close(self):
        t = build_table(VON_MANGOLDT, 500)
        a = pair_sum_closed_form(t, 500)
        b = bilinear_rhs(t, 500)
        assert a == pytest.approx(b, rel=1e-11)


class TestIdentityCheck:
    @pytest.mark.parametrize(
        "kind",
        [FunctionKind.divisor(2), VON_MANGOLDT, LIOUVILLE],
        ids=lambda k: k.label,
    )
    def test_three_routes_agree_at_500(self, kind):
        t = build_table(kind, 500)
        res = identity_check(t, 500)
        assert res.equal
        if t.is_exact:
            assert res.lhs == res.rhs

    def test_non_negative_for_non_negative_tables(self):
        for kind in (CONSTANT_ONE, MU_SQUARED, VON_MANGOLDT):
            t = build_table(kind, 300)
            assert bilinear_rhs(t, 300) >= 0

    def test_x_equals_one(self):
        t = build_table(CONSTANT_ONE, 5)
        res = identity_check(t, 1)
        assert res.lhs == res.rhs == 0
        assert res.equal

    def test_verdict_rule(self):
        verdict = identity._verdict
        # Float sides: 1e-9 relative to the larger side...
        big = 1e6
        assert verdict(big, big * (1 + 0.9e-9), False).equal
        assert not verdict(big, big * (1 + 1.1e-9), False).equal
        # ...and absolute below 1, where a bound relative to 0.5 would
        # refuse the first pair too.
        assert verdict(0.5, 0.5 + 0.9e-9, False).equal
        assert not verdict(0.5, 0.5 + 1.1e-9, False).equal
        # Exact sides are equal only when identical, at any magnitude.
        assert verdict(10**20, 10**20, True).equal
        assert not verdict(10**20, 10**20 + 1, True).equal


def _peak_bytes(fn):
    """Peak bytes traced while fn runs (numpy reports its data buffers)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFloatPrefixRoute:
    """Float payloads form each block's running sums next to the dot that
    reads them, with the bits of the route through the running-sum array."""

    @pytest.mark.parametrize(
        "x",
        [1, 2, _FLOAT_BLOCK, _FLOAT_BLOCK + 1, _FLOAT_BLOCK + 2, 3 * _FLOAT_BLOCK + 1],
    )
    def test_bits_equal_the_running_sum_array_route(self, x):
        t = build_table(VON_MANGOLDT, 3 * _FLOAT_BLOCK + 1)
        sums = running_sums(t.values[: x - 1])[1:]
        want = dot(t.values[1:x], sums).hex()
        assert bilinear_rhs(t, x).hex() == want
        assert bilinear_rhs(t, x, prefix_sums(t)).hex() == want


class TestMemory:
    """tracemalloc guards on the O(x) routes' temporaries."""

    @pytest.mark.parametrize("label", ["eulerphi", "divisor3", "bigomega"])
    def test_factor_pass_peaks_at_its_output_plus_two_windows(self, label):
        # A pass with full-length temporaries peaks at 2.5x its output here;
        # a window's temporaries take about 13 bytes per entry.
        kind = FunctionKind.parse(label)
        span = 3 * _sieves._WINDOW + 5
        window_bytes = 8 * _sieves._WINDOW
        assert _peak_bytes(lambda: build_table(kind, span)) < 8 * span + 2 * window_bytes

    @pytest.mark.parametrize(
        "label",
        [
            "one",
            "vonmangoldt",
            "eulerphi",
            "musquared",
            "liouville",
            "bigomega",
            "masterupsilon",
            "divisor2",
            "divisor3",
        ],
    )
    def test_every_kind_peaks_below_its_output_plus_three_windows(
        self, label, monkeypatch
    ):
        # Every kind sieves window by window: a whole-span flag array, prime
        # list or Ω table would cost several windows at 16 of them.
        monkeypatch.setattr(_sieves, "_WINDOW", 1 << 16)
        kind = FunctionKind.parse(label)
        span = 16 * _sieves._WINDOW + 5
        window_bytes = 8 * _sieves._WINDOW
        assert _peak_bytes(lambda: build_table(kind, span)) < 8 * span + 3 * window_bytes

    def test_float_bilinear_writes_no_running_sum_array(self):
        t = build_table(VON_MANGOLDT, 10**5)
        assert _peak_bytes(lambda: bilinear_rhs(t, 10**5)) < t.values.nbytes // 8

    def test_float_prefix_sums_peak_at_one_output_array(self):
        t = build_table(VON_MANGOLDT, 10**5)
        out_bytes = 8 * (t.limit + 1)
        assert _peak_bytes(lambda: prefix_sums(t)) < 1.1 * out_bytes

    def test_exact_prefix_sums_peak_at_a_narrow_output_array(self):
        # μ²'s sums at 2**20 fit int32: half the bytes of an int64 array,
        # and no int64 temporary of the whole span.
        t = build_table(MU_SQUARED, 2**20)
        int64_bytes = 8 * (t.limit + 1)
        assert _peak_bytes(lambda: prefix_sums(t)) < 0.6 * int64_bytes
