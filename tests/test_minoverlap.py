"""Minimum-overlap splittings: histograms, exhaustive search, annealing.

The exhaustive search is validated against a clean-room oracle that shares
no code with it — plain itertools over sets with a Counter histogram, no
bitmasks, no pruning.
"""

from __future__ import annotations

import functools
import itertools
import random
import tracemalloc
from collections import Counter
from dataclasses import replace

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
from corrlab.minoverlap import (
    _below,
    _lane_bits,
    _lane_table,
    _lex_less,
    _max_lane,
    _pack_splitting,
    _proposer,
    _swap_packed,
    _thresholds,
)


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
        assert [i - h.n for i, m in enumerate(h.counts) if m == h.max_value] == [-2]

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


def _unpack(packed: int, lanes: int, bits: int) -> list[int]:
    return [packed >> bits * i & (1 << bits) - 1 for i in range(lanes)]


def _fullest(n: int) -> list[Splitting]:
    """A = {1..n/2}, where M_{−n/2} = n/2 fills a lane, and its mirror."""
    low = range(1, n // 2 + 1)
    return [Splitting.from_a(n, low), Splitting.from_a(n, [n + 1 - x for x in low])]


class TestPackedSwap:
    @staticmethod
    def check_swaps(s, swaps):
        # Each swap's packed counts decode to the histogram of the swapped
        # splitting, nothing sits above the top lane, and the max found by
        # stepping agrees from below, at and above the current max.
        n, w = s.n, 2 * s.n + 1
        bits = _lane_bits(n)
        ones, top = _thresholds(n, bits)
        shift, pair = _lane_table(n, bits)
        counts, a_lanes, r_lanes = _pack_splitting(s, bits)
        m = difference_histogram(s).max_value
        for a, b in swaps:
            got = _swap_packed(counts, a_lanes, r_lanes, a, b, n, shift, pair)
            want = difference_histogram(
                Splitting(n, s.mask ^ (1 << (a - 1)) ^ (1 << (b - 1)))
            )
            assert got >> bits * w == 0, (s.bits, a, b)
            assert _unpack(got, w, bits) == want.counts.tolist(), (s.bits, a, b)
            for guess in (0, m, n // 2):
                below = _below(guess, ones, top)
                assert _max_lane(got, guess, below, ones, top) == want.max_value, (
                    s.bits, a, b, guess,
                )

    def test_packs_the_histogram(self):
        # The counts built by placement decode to the histogram for every
        # splitting of 10 with 1 in A, both whose max fills a lane, and
        # random ones on both sides of the lane-width step (7 bits at
        # n = 118, 8 at 120).
        rng = random.Random(0)
        splittings = [
            Splitting.from_a(10, (1,) + rest)
            for rest in itertools.combinations(range(2, 11), 4)
        ]
        assert len(splittings) == 126
        splittings += _fullest(10)
        for n in (118, 120, 200):
            splittings += [
                Splitting.from_a(n, rng.sample(range(1, n + 1), n // 2))
                for _ in range(5)
            ] + _fullest(n)
        for s in splittings:
            n, w = s.n, 2 * s.n + 1
            bits = _lane_bits(n)
            counts, a_lanes, r_lanes = _pack_splitting(s, bits)
            assert counts >> bits * w == 0, s.bits
            want = difference_histogram(s).counts.tolist()
            assert _unpack(counts, w, bits) == want, s.bits
            assert _unpack(a_lanes, w, bits) == [
                int(x - n in s.a_elements) for x in range(w)
            ]
            assert _unpack(r_lanes, w, bits) == [
                int(2 * n - x in s.b_elements) for x in range(w)
            ]

    @pytest.mark.parametrize("n", [2, 4, 10, 40])
    def test_every_swap_matches_histogram(self, n):
        # Every swap of a few random splittings, so moves of 1 and of n are
        # always among them, from either half; then every swap out of the
        # two splittings whose max fills a lane.
        rng = random.Random(n)
        splittings = [
            Splitting.from_a(n, rng.sample(range(1, n + 1), n // 2)) for _ in range(4)
        ]
        for s in splittings + _fullest(n):
            self.check_swaps(s, itertools.product(s.a_elements, s.b_elements))

    @pytest.mark.parametrize("n", [2, 4, 10, 118, 120, 200])
    def test_tables_decode(self, n):
        # pair[d] is +1 at lanes n ± d and −2 at lane n (decoded with 2 added
        # to every lane, so none is negative), and _below(m) holds the
        # largest value under the top bit, less m, in every lane 0..2n.
        w, bits = 2 * n + 1, _lane_bits(n)
        ones, top = _thresholds(n, bits)
        shift, pair = _lane_table(n, bits)
        assert _unpack(ones, w + 1, bits) == [1] * w + [0]
        assert top == ones << bits - 1
        for d in range(1, n + 1):
            want = [0] * w
            want[n - d] += 1
            want[n + d] += 1
            want[n] -= 2
            assert [v - 2 for v in _unpack(pair[d] + 2 * ones, w, bits)] == want, d
        assert len(pair) == n + 1 and shift == [bits * x for x in range(w)]
        for m in range(n // 2 + 1):
            want = [(1 << bits - 1) - 1 - m] * w + [0]
            assert _unpack(_below(m, ones, top), w + 1, bits) == want, m

    def test_per_run_memory_is_the_pair_table(self):
        # pair[d] spans n + d lanes, about 1.5·bits·n² bits in all, and
        # nothing else a run keeps or builds grows faster than n: no table
        # of 2n + 1 lane units (2·bits·n² bits), of n/2 thresholds or of
        # the (n/2)² differences.  CPython stores 30 bits per 4-byte digit.
        n = 1000
        bound = 1.5 * _lane_bits(n) * n * n / 8
        tracemalloc.start()
        try:
            heuristic_Mn(n, budget=20, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * bound, (peak, bound)

    def test_lane_width_steps_between_118_and_120(self):
        assert (_lane_bits(118), _lane_bits(120)) == (7, 8)

    @pytest.mark.parametrize("n", [118, 120])
    def test_sampled_swaps_either_side_of_a_lane_width_step(self, n):
        rng = random.Random(n)
        splittings = [
            Splitting.from_a(n, rng.sample(range(1, n + 1), n // 2)) for _ in range(2)
        ]
        for s in splittings + _fullest(n):
            swaps = [
                (rng.choice(s.a_elements), rng.choice(s.b_elements))
                for _ in range(200)
            ]
            # Plus the swap of A's least and B's greatest element, the
            # longest shifts, which 200 draws may miss.
            self.check_swaps(s, swaps + [(s.a_elements[0], s.b_elements[-1])])


# -- exhaustive search --------------------------------------------------------

#: ``n m witness.bits`` of ``exact_Mn(n)`` for even n 2–24 at the default cap
#: and n = 26 at cap 26, recorded from the ``itertools.combinations`` search
#: that a chunked numpy search replaced; n = 28 at cap 28 from that numpy
#: search, which scored every splitting.
PINNED_EXACT = """\
2 1 10
4 1 1001
6 2 100011
8 2 10001011
10 3 1000010111
12 3 100001101110
14 3 11100000100111
16 4 1000001100111101
18 4 100001101111010001
20 5 10000001110011111001
22 5 1000001100111111100001
24 5 101110110000000101001111
26 6 10000000111100111111010100
28 6 1000000110111011111011010000
"""


class TestExactMn:
    @pytest.mark.parametrize(
        "line", PINNED_EXACT.splitlines(), ids=lambda line: line.split()[0]
    )
    def test_pinned_optima(self, line):
        n, m, bits = line.split()
        r = exact_Mn(int(n), cap=max(int(n), 24))
        assert (r.m, r.witness.bits) == (int(m), bits)

    def test_cap_alone_refuses_n_past_64(self):
        # No 64-element limit is left: n = 66 is refused by the cap, so no
        # search starts.
        with pytest.raises(CapExceeded, match="exceeds cap 64"):
            exact_Mn(66, cap=64)

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

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14])
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

    @pytest.mark.parametrize("cap", [1, 0, -1])
    def test_cap_below_two_is_a_value_error(self, cap):
        # No even n fits under such a cap, so it is a bad value, not a
        # search refused for its size.
        with pytest.raises(ValueError):
            exact_Mn(2, cap=cap)

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

    def test_moves_draw_randranges_stream(self):
        # Half h draws widths h − 1 and h, so every width 1..130 is drawn,
        # powers of two and n = 4's width 1 among them; 10⁴ draws per
        # generator, then their states must match too.
        for half in range(2, 132):
            new, old = random.Random(half), random.Random(half)
            propose, randrange = _proposer(new, half), old.randrange
            got = [propose() for _ in range(5000)]
            want = [(randrange(1, half), randrange(half)) for _ in range(5000)]
            assert got == want, half
            assert new.getstate() == old.getstate(), half

    def test_never_beats_exact(self):
        # The heuristic reports an achieved value, so it upper-bounds M(n).
        for n in (6, 8, 10, 12):
            assert heuristic_Mn(n, budget=2000, seed=5).m >= exact_Mn(n).m


# -- pinned results -----------------------------------------------------------

#: ``n budget seed m witness.bits`` of ``heuristic_Mn(n, budget, seed)`` for
#: even n 2–20, 40 and 64, seeds 0–3 and budgets 1, 50 and 2000, recorded from
#: the slice kernel that the packed-lane kernel replaced.  Any change to the
#: RNG stream, the cooling, the acceptance test or the tie-break moves some.
PINNED_RESULTS = """\
2 1 0 1 10
2 1 1 1 10
2 1 2 1 10
2 1 3 1 10
2 50 0 1 10
2 50 1 1 10
2 50 2 1 10
2 50 3 1 10
2 2000 0 1 10
2 2000 1 1 10
2 2000 2 1 10
2 2000 3 1 10
4 1 0 1 1001
4 1 1 1 1001
4 1 2 2 1010
4 1 3 2 1010
4 50 0 1 1001
4 50 1 1 1001
4 50 2 1 1001
4 50 3 1 1001
4 2000 0 1 1001
4 2000 1 1 1001
4 2000 2 1 1001
4 2000 3 1 1001
6 1 0 2 100011
6 1 1 3 101010
6 1 2 2 100011
6 1 3 2 101001
6 50 0 2 100011
6 50 1 2 100011
6 50 2 2 100011
6 50 3 2 100011
6 2000 0 2 100011
6 2000 1 2 100011
6 2000 2 2 100011
6 2000 3 2 100011
8 1 0 2 10001011
8 1 1 3 11100001
8 1 2 2 11000011
8 1 3 3 10100101
8 50 0 2 10001011
8 50 1 2 10001011
8 50 2 2 10001011
8 50 3 2 10001011
8 2000 0 2 10001011
8 2000 1 2 10001011
8 2000 2 2 10001011
8 2000 3 2 10001011
10 1 0 3 1001001101
10 1 1 3 1011000101
10 1 2 4 1111000001
10 1 3 3 1001010011
10 50 0 3 1000011011
10 50 1 3 1000010111
10 50 2 3 1001011001
10 50 3 3 1000010111
10 2000 0 3 1000010111
10 2000 1 3 1000010111
10 2000 2 3 1000010111
10 2000 3 3 1000010111
12 1 0 4 100001111001
12 1 1 4 111100000011
12 1 2 4 111000110010
12 1 3 4 100110001110
12 50 0 3 110100010011
12 50 1 3 100001101110
12 50 2 3 110000101011
12 50 3 3 100010011110
12 2000 0 3 100001101110
12 2000 1 3 100001101110
12 2000 2 3 100001101110
12 2000 3 3 100001101110
14 1 0 4 10000111110001
14 1 1 5 10110100101100
14 1 2 5 11010110001010
14 1 3 4 10010010111100
14 50 0 4 10000011001111
14 50 1 4 10000011110110
14 50 2 4 10000011010111
14 50 3 4 10000110010111
14 2000 0 3 11100000100111
14 2000 1 3 11100000100111
14 2000 2 3 11100000100111
14 2000 3 3 11100000100111
16 1 0 5 1100010110000111
16 1 1 6 1001010010101110
16 1 2 5 1011001010001011
16 1 3 5 1001101011100010
16 50 0 4 1001011110010001
16 50 1 4 1000101101111000
16 50 2 4 1000011010111001
16 50 3 4 1011000100011110
16 2000 0 4 1000010111001101
16 2000 1 4 1000010100110111
16 2000 2 4 1000001111011100
16 2000 3 4 1000001100111101
18 1 0 5 110000011100011011
18 1 1 5 101101011000110001
18 1 2 6 100101110001100011
18 1 3 6 101001101011001001
18 50 0 4 110110000001010111
18 50 1 4 110101100000011011
18 50 2 4 101110010000011101
18 50 3 5 101000010011010111
18 2000 0 4 100001111101100010
18 2000 1 4 101110000001001111
18 2000 2 4 100001101111100010
18 2000 3 4 101110000010010111
20 1 0 6 10100101100001101110
20 1 1 6 10001100110101110100
20 1 2 6 10110100000100101111
20 1 3 6 10000100001111110011
20 50 0 5 10001010011111010001
20 50 1 5 10010000101110100111
20 50 2 5 11000100100001110111
20 50 3 5 10001111101011000100
20 2000 0 5 10000100110011111010
20 2000 1 5 10000010111101011001
20 2000 2 5 10000100110011110101
20 2000 3 5 10000001111101111000
40 1 0 12 1001110100101000110110000111000111101001
40 1 1 15 1100110111000110110011000110011010000110
40 1 2 10 1011101000011110011111101000000011000110
40 1 3 12 1100010111000000101000111001011100111011
40 50 0 10 1100111000000010110010010101001110101111
40 50 1 11 1100010011100001000101101110111010010110
40 50 2 10 1111010101001101110000100000001101111001
40 50 3 9 1111011101000111010000000100000011110111
40 2000 0 9 1011101110101110000000000001011101011011
40 2000 1 9 1000000011100111111110101011010010010001
40 2000 2 9 1000000011011111101111011011001010000100
40 2000 3 9 1000000001110101111111101101010011100000
64 1 0 19 1001010101100010010100110111000111010011100100100101110111101000
64 1 1 21 1110010111000011011001000100110110110111001000101110110100010100
64 1 2 19 1001101000010010011010001010110001010011010101101000111110101111
64 1 3 18 1101000001110101110000001110000100111011110001101101101001100110
64 50 0 16 1011111011100100010101110010111001010010000000100010011000111111
64 50 1 17 1110010000010111111001101000100001011001110110101110010101000101
64 50 2 16 1011111001110110010000111011010000101010110000100000011110101110
64 50 3 16 1000000001000110001000011111000111110111111000111101101101100100
64 2000 0 14 1000000000000111001111011011111110111111010011110110010001000000
64 2000 1 14 1110011111001100011110000000000000100001011010100111011011111011
64 2000 2 14 1000000010100110000111101111110111101101110111010110000000101000
64 2000 3 15 1010110101100101110000001000000000101110011110111010111001001111
"""

#: ``heuristic_Mn(200, seed=0).witness.bits`` at the default budget.
PINNED_N200_SEED0 = (
    "1001101111101111111101101011111111110011010011001110000001010001"
    "1001111000111100000000000001000000000110100000000011000000010100"
    "0010000010001001111000101011101110010011110111011101101101111111"
    "11110110"
)

#: ``seed m witness.mask`` (hex) of ``heuristic_Mn(200, budget=20000, seed)``
#: for the benchmark's seeds 0–9, recorded from the kernel that drew its
#: moves with ``rng.randrange``.
PINNED_N200_BUDGET_20K = """\
0 42 7fffe7ed6d14f826004aa10200056330802a65e937badffbf9
1 42 bfb3ff7f6469b1a5c1642234000111c00b0a82dca79efff7e3
2 42 20006441433165f5afbefbfaffff975bebba8be15603800001
3 42 dedfd7ecafd668c681cb42101010121002aa02dffbdc67efed
4 42 7db7ffb6f6ab443422200c0054185180c13c526cef7f3f7e3d
5 42 bffaeb69fd1bfa90068116029981000280864e747f5bedf7ed
6 42 0404e103083630dbf5ffde9ffedfff967dbb2703283a102001
7 42 80902422114d13fe7cf9ed5beeffed7f4f79fe1680d1000c01
8 42 defff7877b3e4a2a4304002817040072201ba0bcd5dcfffebd
9 42 fdffcee567cee00ce8812d10080410004c73b4879f2edfd7fb
"""


class TestPinnedResults:
    def test_matrix(self):
        for line in PINNED_RESULTS.splitlines():
            n, budget, seed, m, bits = line.split()
            r = heuristic_Mn(int(n), budget=int(budget), seed=int(seed))
            assert (r.m, r.witness.bits) == (int(m), bits), (
                f"first differing case: n={n} budget={budget} seed={seed}"
            )

    def test_n200_seed0(self):
        assert heuristic_Mn(200, seed=0).witness.bits == PINNED_N200_SEED0

    def test_n200_bench_seeds(self):
        for line in PINNED_N200_BUDGET_20K.splitlines():
            seed, m, mask = line.split()
            r = heuristic_Mn(200, budget=20000, seed=int(seed))
            assert (r.m, r.witness.mask) == (int(m), int(mask, 16)), f"seed={seed}"


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
