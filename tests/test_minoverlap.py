"""Minimum-overlap splittings: histograms, exhaustive search, annealing.

The exhaustive search is validated against a clean-room oracle that shares
no code with it — plain itertools over sets with a Counter histogram, no
bitmasks, no pruning.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from corrlab import (
    CapExceeded,
    DifferenceHistogram,
    Splitting,
    bounds_table,
    difference_histogram,
    exact_Mn,
    heuristic_Mn,
)
from corrlab.minoverlap import _lex_less, _swap_counts


# -- clean-room oracle --------------------------------------------------------


def oracle_Mn(n: int) -> int:
    """Minimum over all halvings of the max difference multiplicity."""
    best = None
    universe = set(range(1, n + 1))
    for a in itertools.combinations(range(1, n + 1), n // 2):
        b = universe - set(a)
        hist = Counter(x - y for x in a for y in b)
        m = max(hist.values())
        if best is None or m < best:
            best = m
    return best


# -- splittings and histograms ------------------------------------------------


class TestSplitting:
    def test_from_a_round_trip(self):
        s = Splitting.from_a(6, (1, 4, 5))
        assert s.a_elements == (1, 4, 5)
        assert s.b_elements == (2, 3, 6)
        assert s.bits == "100110"

    def test_from_bits(self):
        s = Splitting.from_bits("1001")
        assert s.n == 4
        assert s.a_elements == (1, 4)

    def test_rejects_odd_n(self):
        with pytest.raises(ValueError):
            Splitting.from_a(5, (1, 2))

    def test_rejects_unbalanced(self):
        with pytest.raises(ValueError):
            Splitting.from_a(4, (1, 2, 3))

    def test_rejects_out_of_range_elements(self):
        with pytest.raises(ValueError):
            Splitting.from_a(4, (0, 1))
        with pytest.raises(ValueError):
            Splitting.from_a(4, (1, 5))


class TestDifferenceHistogram:
    def test_n2(self):
        h = difference_histogram(Splitting.from_a(2, (1,)))
        assert h.count(-1) == 1
        assert h.count(0) == 0
        assert h.count(1) == 0
        assert h.max_value == 1

    def test_n4_balanced_witness(self):
        h = difference_histogram(Splitting.from_a(4, (1, 4)))
        assert {k: h.count(k) for k in range(-3, 4) if h.count(k)} == {
            -2: 1,
            -1: 1,
            1: 1,
            2: 1,
        }
        assert h.max_value == 1

    def test_n4_clustered_witness(self):
        h = difference_histogram(Splitting.from_a(4, (1, 2)))
        assert h.count(-1) == 1
        assert h.count(-2) == 2
        assert h.count(-3) == 1
        assert h.max_value == 2
        assert h.argmax == (-2,)

    def test_total_mass(self):
        for n in (2, 4, 8, 12):
            s = Splitting.from_a(n, tuple(range(1, n // 2 + 1)))
            h = difference_histogram(s)
            assert sum(h.count(k) for k in range(-n, n + 1)) == (n // 2) ** 2

    def test_zero_difference_impossible(self):
        # A and B are disjoint, so a - b never vanishes.
        for bits in ("10", "1001", "110100"):
            h = difference_histogram(Splitting.from_bits(bits))
            assert h.count(0) == 0

    def test_reversal_symmetry(self):
        # Reversing the whole splitting mirrors the histogram.
        s = Splitting.from_a(8, (1, 3, 4, 8))
        rev = Splitting.from_bits(s.bits[::-1])
        h, hr = difference_histogram(s), difference_histogram(rev)
        for k in range(-8, 9):
            assert h.count(k) == hr.count(-k)

    def test_out_of_range_count_is_zero(self):
        h = difference_histogram(Splitting.from_a(4, (1, 2)))
        assert h.count(99) == 0
        assert h.count(-99) == 0


class TestSwapCounts:
    @pytest.mark.parametrize("n", [2, 4, 10, 40])
    def test_matches_histogram_of_swapped_splitting(self, n):
        # Every swap of a few random splittings, so moves of 1 and of n are
        # always among them, from either half.
        rng = random.Random(n)
        for _ in range(4):
            s = Splitting.from_a(n, rng.sample(range(1, n + 1), n // 2))
            alpha = np.zeros(3 * n + 1, dtype=np.int64)
            beta = np.zeros(3 * n + 1, dtype=np.int64)
            alpha[[e + n for e in s.a_elements]] = 1
            beta[[e + n for e in s.b_elements]] = 1
            counts = difference_histogram(s).counts.copy()
            for a in s.a_elements:
                for b in s.b_elements:
                    got = _swap_counts(counts, alpha, beta, a, b, n)
                    swapped = Splitting(n, s.mask ^ (1 << (a - 1)) ^ (1 << (b - 1)))
                    want = difference_histogram(swapped).counts
                    assert got.tolist() == want.tolist(), (s.bits, a, b)
            assert counts.tolist() == difference_histogram(s).counts.tolist()


# -- exhaustive search --------------------------------------------------------


class TestExactMn:
    def test_n2(self):
        r = exact_Mn(2)
        assert r.m == 1
        assert r.witness.bits == "10"
        assert r.method == "exhaustive"

    def test_n4_witness(self):
        r = exact_Mn(4)
        assert r.m == 1
        assert r.witness.bits == "1001"

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_matches_clean_room_oracle(self, n):
        assert exact_Mn(n).m == oracle_Mn(n)

    def test_witness_achieves_m(self):
        for n in (6, 10, 14):
            r = exact_Mn(n)
            assert difference_histogram(r.witness).max_value == r.m

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_witness_is_lex_smallest_with_first_element(self, n):
        # Among optimal splittings with 1 in A, the reported witness has the
        # lexicographically smallest membership string.
        r = exact_Mn(n)
        best = [
            "1" + "".join("1" if v in set(rest) else "0" for v in range(2, n + 1))
            for rest in itertools.combinations(range(2, n + 1), n // 2 - 1)
            if max(
                Counter(
                    x - y
                    for x in {1, *rest}
                    for y in set(range(1, n + 1)) - {1, *rest}
                ).values()
            )
            == r.m
        ]
        assert r.witness.bits == min(best)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            exact_Mn(26)
        with pytest.raises(CapExceeded):
            exact_Mn(10, cap=8)  # caller-tightened cap
        assert exact_Mn(10, cap=10).m == 3  # explicit cap exactly at n

    def test_rejects_odd_n(self):
        with pytest.raises(ValueError):
            exact_Mn(5)

    def test_lex_less_orders_like_bits(self):
        # Witness ties are broken on this compare, so its order must be the
        # lexicographic order of the membership strings.
        n = 10
        splits = [
            Splitting.from_a(n, a)
            for a in itertools.combinations(range(1, n + 1), n // 2)
        ]
        assert len(splits) == 252

        def cmp(s, t):
            return -1 if _lex_less(s.mask, t.mask) else int(_lex_less(t.mask, s.mask))

        by_cmp = sorted(splits, key=functools.cmp_to_key(cmp))
        assert [s.bits for s in by_cmp] == sorted(s.bits for s in splits)
        assert not any(_lex_less(s.mask, s.mask) for s in splits)


# -- annealing ----------------------------------------------------------------


class TestHeuristicMn:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14, 16])
    def test_matches_exact_at_small_n(self, n):
        # Both searches break ties toward the lexicographically smallest
        # membership string, so the witnesses agree too.
        h, e = heuristic_Mn(n, seed=0), exact_Mn(n)
        assert h.m == e.m
        assert h.witness.bits == e.witness.bits

    def test_deterministic_per_seed(self):
        a = heuristic_Mn(40, seed=123)
        b = heuristic_Mn(40, seed=123)
        assert a.m == b.m
        assert a.witness.bits == b.witness.bits

    def test_different_seeds_still_valid(self):
        for seed in (1, 2, 3):
            r = heuristic_Mn(20, seed=seed)
            assert difference_histogram(r.witness).max_value == r.m

    def test_records_method_and_budget(self):
        r = heuristic_Mn(20, budget=5000, seed=9)
        assert r.method == "heuristic"
        assert r.budget == 5000
        assert r.seed == 9

    def test_never_beats_exact(self):
        # The heuristic reports an achieved value, so it upper-bounds M(n).
        for n in (6, 8, 10, 12):
            assert heuristic_Mn(n, budget=2000, seed=5).m >= exact_Mn(n).m


# -- bounds table -------------------------------------------------------------


class TestBoundsTable:
    def test_small_n_exempts_asymptotic_rows(self):
        r = exact_Mn(4)
        rows = {row.name: row for row in bounds_table(r)}
        assert rows["upper-half"].ok == "exempt"
        assert rows["lower-one-minus-invsqrt2"].ok == "exempt"
        # The quarter lower bound is not asymptotic: at n=4 (N=2) it reads
        # M(N) > 0.5, and the exact optimum M = 1 clears it.
        assert rows["lower-quarter"].value == 0.5
        assert rows["lower-quarter"].ok == "true"

    def test_n10_quarter_bound_holds(self):
        r = exact_Mn(10)
        rows = {row.name: row for row in bounds_table(r)}
        assert rows["lower-quarter"].ok == "true"

    def test_large_n_evaluates_all_rows(self):
        r = heuristic_Mn(64, budget=40_000, seed=7)
        rows = {row.name: row for row in bounds_table(r)}
        assert rows["upper-half"].ok in ("true", "false")
        assert rows["lower-quarter"].ok in ("true", "false")
        assert rows["upper-free-constant-quarter"].ok == "shape-only"
        # Values are the published constants times N = n/2 = 32.
        assert rows["upper-half"].value == 16.0
        assert rows["upper-two-fifths"].value == pytest.approx(12.8)
        assert rows["upper-best-known"].value == pytest.approx(0.38093 * 32)

    def test_exact_optima_clear_every_lower_row(self):
        # Each lower row is a proven bound on M(N), so no exact optimum may
        # fall at or below one; a failure here means the rows lost N = n/2.
        for n in range(2, 21, 2):
            rows = {row.name: row for row in exact_Mn(n).bounds}
            assert rows["lower-quarter"].ok == "true", n
            for row in rows.values():
                if row.direction == "lower":
                    assert row.ok in ("true", "exempt"), (n, row)

    def test_failed_lower_note_prints_the_relation_that_holds(self):
        # A max equal to a strict lower bound refutes it; the note must say
        # "=" there and "<" only below it.  At n=16, lower-quarter is 2.
        r = exact_Mn(16)
        at = {row.name: row for row in bounds_table(replace(r, m=2))}
        below = {row.name: row for row in bounds_table(replace(r, m=1))}
        assert at["lower-quarter"].ok == "false"
        assert at["lower-quarter"].note.endswith("M(N) <= 2 = 2")
        assert below["lower-quarter"].note.endswith("M(N) <= 1 < 2")

    def test_heuristic_upper_miss_is_inconclusive(self):
        # An annealed value is only an upper bound on M(n); if it exceeds an
        # upper-bound row the table must say the check is inconclusive
        # rather than declare the claim false.
        r = heuristic_Mn(64, budget=50, seed=11)
        rows = {row.name: row for row in bounds_table(r)}
        for name in ("upper-half", "upper-two-fifths", "upper-best-known"):
            if rows[name].ok == "false":
                assert "inconclusive" in rows[name].note

    def test_attached_to_results(self):
        assert exact_Mn(6).bounds
        assert heuristic_Mn(18, seed=2).bounds
