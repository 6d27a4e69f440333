"""Sieved value tables against independent elementary oracles.

Every arithmetic function is checked two ways: small ranges against a
brute-force definition (trial division, gcd counting, direct factorisation),
and structural identities that hold for every n (Dirichlet recursions,
divisor-sum identities, cross-table consistency).
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from corrlab import (
    BIG_OMEGA,
    CONSTANT_ONE,
    EULER_PHI,
    LIOUVILLE,
    MASTER_UPSILON,
    MU_SQUARED,
    VON_MANGOLDT,
    FunctionKind,
    FunctionTable,
    PrefixSums,
    RangeError,
    UnsupportedKind,
    build_table,
    prefix_sums,
    type1,
)
from corrlab import _sieves
from corrlab.cli import main

# -- elementary oracles -------------------------------------------------------


def divisor_count_oracle(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def phi_oracle(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def factorize(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_squarefree_oracle(n: int) -> bool:
    fac = factorize(n)
    return len(fac) == len(set(fac))


def von_mangoldt_oracle(n: int) -> float:
    if n < 2:
        return 0.0
    fac = factorize(n)
    if len(set(fac)) == 1:
        return math.log(fac[0])
    return 0.0


# -- per-kind value checks ----------------------------------------------------


class TestDivisor:
    def test_small_values_match_trial_division(self):
        t = build_table(FunctionKind.divisor(2), 10_000)
        for n in range(1, 10_001, 37):
            assert t.value(n) == divisor_count_oracle(n), n
        for n in range(1, 200):
            assert t.value(n) == divisor_count_oracle(n), n

    @pytest.mark.parametrize("order", [3, 4])
    def test_tower_satisfies_dirichlet_recursion(self, order):
        lim = 10_000
        lower = build_table(FunctionKind.divisor(order - 1), lim)
        upper = build_table(FunctionKind.divisor(order), lim)
        for n in list(range(1, 60)) + [720, 5040, 9973, 10_000]:
            convolved = sum(
                lower.value(d) for d in range(1, n + 1) if n % d == 0
            )
            assert upper.value(n) == convolved, (order, n)

    def test_values_past_int32_are_exact(self):
        # d_17(2^19) = C(35, 16) > 2^31, so the factor pass must not hold
        # rule(p, e) in a 32-bit buffer even though the span fits one.
        span = 2**19 + 1
        t = build_table(FunctionKind.divisor(17), span, 0)
        assert t.value(2**19) == math.comb(35, 16) > 2**31
        for n in [*range(1 << 12, span, 1 << 12), *range(span - 100, span + 1)]:
            exps, m, p = [], n, 2
            while p * p <= m:
                e = 0
                while m % p == 0:
                    m, e = m // p, e + 1
                exps.append(e)
                p += 1
            exps.append(int(m > 1))
            assert t.value(n) == math.prod(math.comb(e + 16, 16) for e in exps), n

    def test_largest_order_that_fits_int64_at_65536_is_exact(self):
        # d_85 peaks near 0.9·2⁶³ below 65536, so every entry must be exact.
        kind = FunctionKind.divisor(85)
        got = build_table(kind, 65536).values.tolist()
        exps = exponent_oracle(ORACLE_SPAN)[:65536]
        want = [value_oracle(kind, n, e) for n, e in enumerate(exps, start=1)]
        assert got == want
        assert max(want) > 2**62

    @pytest.mark.parametrize("order", [86, 96])
    def test_refuses_an_order_whose_values_pass_int64(self, order):
        # Each per-prime lookup fits int64 here; their products do not, and
        # d_96 once wrapped silently (n = 36864 read negative).
        with pytest.raises(ValueError, match="past int64"):
            build_table(FunctionKind.divisor(order), 65536)

    @pytest.mark.parametrize(
        "argv",
        [
            ["sieve", "--kind", "divisor100", "--limit", "1048576"],
            ["claims", "--divisor-order", "86", "--grid", "1000,100000"],
        ],
        ids=["lookup-past-int64", "claims"],
    )
    def test_cli_refuses_with_one_usage_line(self, argv, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: code=USAGE divisor")
        assert err.count("\n") == 1

    def test_d2_first_values(self):
        t = build_table(FunctionKind.divisor(2), 12)
        assert [t.value(n) for n in range(1, 13)] == [
            1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2, 6,
        ]


class TestEulerPhi:
    def test_small_values_match_gcd_count(self):
        t = build_table(EULER_PHI, 300)
        for n in range(1, 301):
            assert t.value(n) == phi_oracle(n), n

    def test_divisor_sum_identity(self):
        # sum of phi(d) over divisors d of n equals n.
        t = build_table(EULER_PHI, 5_000)
        for n in list(range(1, 100)) + [720, 2310, 4096, 5000]:
            total = sum(t.value(d) for d in range(1, n + 1) if n % d == 0)
            assert total == n, n


class TestVonMangoldt:
    def test_matches_prime_power_oracle(self):
        t = build_table(VON_MANGOLDT, 2_000)
        for n in range(1, 2_001):
            assert t.value(n) == pytest.approx(von_mangoldt_oracle(n), abs=0), n

    def test_chebyshev_sum_equals_log_lcm(self):
        # sum_{n<=x} Lambda(n) = log lcm(1..x), exactly in exact arithmetic
        # on the rationals; here to float tolerance.
        t = build_table(VON_MANGOLDT, 100)
        ps = prefix_sums(t)
        assert ps.s(100) == pytest.approx(math.log(math.lcm(*range(1, 101))), rel=1e-12)


class TestMuSquared:
    def test_matches_squarefree_oracle(self):
        t = build_table(MU_SQUARED, 3_000)
        for n in range(1, 3_001):
            assert t.value(n) == (1 if is_squarefree_oracle(n) else 0), n


class TestBigOmegaAndLiouville:
    def test_big_omega_matches_factorization(self):
        t = build_table(BIG_OMEGA, 3_000)
        for n in range(1, 3_001):
            assert t.value(n) == len(factorize(n)), n

    def test_liouville_is_parity_of_big_omega(self):
        # Both tables come from the same factor pass, so the parity check
        # compares two rules on one set of exponents; trial division gives
        # the independent route.
        small = build_table(LIOUVILLE, 3_000)
        for n in range(1, 3_001):
            assert small.value(n) == (-1) ** len(factorize(n)), n
        lim = 100_000
        lam = build_table(LIOUVILLE, lim)
        om = build_table(BIG_OMEGA, lim)
        lam_vals = np.asarray(lam.values)
        om_vals = np.asarray(om.values)
        assert np.array_equal(lam_vals, np.where(om_vals % 2 == 0, 1, -1))

    def test_liouville_small_values(self):
        t = build_table(LIOUVILLE, 10)
        assert [t.value(n) for n in range(1, 11)] == [1, -1, -1, 1, -1, 1, -1, -1, 1, 1]


class TestMasterUpsilon:
    def test_support_is_semiprimes(self):
        t = build_table(MASTER_UPSILON, 10)
        nonzero = [n for n in range(1, 11) if t.value(n) != 0]
        assert nonzero == [4, 6, 9, 10]

    def test_value_is_log_n_on_support(self):
        t = build_table(MASTER_UPSILON, 500)
        for n in range(1, 501):
            if len(factorize(n)) == 2:
                assert t.value(n) == pytest.approx(math.log(n)), n
            else:
                assert t.value(n) == 0.0, n


class TestConstantOne:
    def test_all_ones(self):
        t = build_table(CONSTANT_ONE, 50)
        assert all(t.value(n) == 1 for n in range(1, 51))
        assert t.is_exact


# -- every sieved kind against a factorisation oracle ------------------------


ALL_KINDS = [
    CONSTANT_ONE,
    VON_MANGOLDT,
    EULER_PHI,
    MU_SQUARED,
    LIOUVILLE,
    BIG_OMEGA,
    MASTER_UPSILON,
    FunctionKind.divisor(2),
    FunctionKind.divisor(3),
]

ORACLE_SPAN = 100_003  # build_table(kind, 100_000, 3)


@functools.cache
def exponent_oracle(span: int) -> list[dict[int, int]]:
    """{p: e} for n = 1..span, peeled with a smallest-prime-factor list."""
    spf = list(range(span + 1))
    for p in range(2, math.isqrt(span) + 1):
        if spf[p] == p:
            for m in range(p * p, span + 1, p):
                if spf[m] == m:
                    spf[m] = p
    out = []
    for n in range(1, span + 1):
        exps: dict[int, int] = {}
        while n > 1:
            p = spf[n]
            exps[p] = exps.get(p, 0) + 1
            n //= p
        out.append(exps)
    return out


def value_oracle(kind: FunctionKind, n: int, exps: dict[int, int]):
    omega = sum(exps.values())
    if kind == CONSTANT_ONE:
        return 1
    if kind == VON_MANGOLDT:
        return math.log(next(iter(exps))) if len(exps) == 1 else 0.0
    if kind == EULER_PHI:
        return math.prod((p - 1) * p ** (e - 1) for p, e in exps.items())
    if kind == MU_SQUARED:
        return int(all(e < 2 for e in exps.values()))
    if kind == LIOUVILLE:
        return (-1) ** omega
    if kind == BIG_OMEGA:
        return omega
    if kind == MASTER_UPSILON:
        return math.log(n) if omega == 2 else 0.0
    l = kind.order
    return math.prod(math.comb(e + l - 1, l - 1) for e in exps.values())


@functools.cache
def oracle_values(kind: FunctionKind) -> list:
    return [
        value_oracle(kind, n, exps)
        for n, exps in enumerate(exponent_oracle(ORACLE_SPAN), start=1)
    ]


def assert_matches_oracle(kind: FunctionKind, spans) -> None:
    want = oracle_values(kind)
    for span in spans:
        got = np.asarray(build_table(kind, span).values)
        if kind == MASTER_UPSILON:
            # np.log in the kernel, math.log here.
            np.testing.assert_array_max_ulp(got, np.array(want[:span]), 1)
        else:
            assert got.tolist() == want[:span], span


class TestFactorSieve:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
    def test_matches_factorisation_oracle(self, kind):
        # Spans 1..40 cover span < 4 and the spans p^2 where a prime first
        # reaches the pass; 100_003 covers n = 2^16, the largest exponent.
        assert_matches_oracle(kind, [*range(1, 41), ORACLE_SPAN])

    @pytest.mark.parametrize("window", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
    def test_any_window_length_matches_oracle(self, kind, window, monkeypatch):
        # Spans 1..40 and 289..300 end the last window at every offset for
        # windows up to 12 (and at 1..44 of 64); 289 = 17^2 adds a prime.
        # The p^2 and p^k <= 300 fall on, before and after window edges.
        monkeypatch.setattr(_sieves, "_WINDOW", window)
        assert_matches_oracle(kind, [*range(1, 41), *range(289, 301)])

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
    def test_window_edges_at_oracle_span(self, kind, monkeypatch):
        # 25 windows of 2^12: n = 2^16 and most p^2 sit past a window edge.
        monkeypatch.setattr(_sieves, "_WINDOW", 1 << 12)
        assert_matches_oracle(kind, [ORACLE_SPAN])

    def test_refuses_a_rule_not_affine_in_p(self):
        # σ_2(p) = p² + 1: the leftover prime's rule(P, 1) would come out
        # wrong, so the pass refuses the rule instead.
        sigma2 = lambda p, e: sum(p ** (2 * i) for i in range(e + 1))
        with pytest.raises(ValueError, match="affine"):
            _sieves._factor_filler(100, [2, 3, 5, 7], sigma2, np.multiply)


class TestNarrowPayloads:
    """Each integer kind is sieved in the narrowest signed dtype that holds
    the square of a bound on max|f| known before sieving, so the product of
    two entries never wraps; Λ and Υ stay float64."""

    NARROWEST = (np.int8, np.int16, np.int32, np.int64)

    @staticmethod
    def bound(kind, values: np.ndarray, span: int) -> int:
        """max|f| over 1..span is at most this: 1 for one, μ² and λ,
        ⌊log₂ span⌋ for Ω, span for φ; d_l's peak is its largest value."""
        if kind == BIG_OMEGA:
            return math.floor(math.log2(span))
        if kind == EULER_PHI:
            return span
        if kind.label.startswith("divisor"):
            return int(values.max())
        return 1

    @pytest.mark.parametrize("span", [*range(1, 10), 10**6 + 2])
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label)
    def test_dtype_holds_the_square_of_the_bound(self, kind, span):
        values = build_table(kind, span).values
        if kind in (VON_MANGOLDT, MASTER_UPSILON):
            assert values.dtype == np.float64
            return
        peak = self.bound(kind, values, span)
        assert int(np.abs(values.astype(np.int64)).max()) <= peak
        fits = [d for d in self.NARROWEST if peak * peak <= np.iinfo(d).max]
        assert values.dtype == fits[0]

    def test_dtypes_at_a_million(self):
        dtypes = {
            kind.label: build_table(kind, 10**6, 2).values.dtype for kind in ALL_KINDS
        }
        assert dtypes == {
            "one": np.int8,
            "vonmangoldt": np.float64,
            "eulerphi": np.int64,
            "musquared": np.int8,
            "liouville": np.int8,
            "bigomega": np.int16,  # Ω <= ⌊log₂ span⌋ = 19, and 19² > 127
            "masterupsilon": np.float64,
            "divisor2": np.int32,  # d(720720) = 240, and 240² > 32767
            "divisor3": np.int32,
        }


# -- table plumbing -----------------------------------------------------------


class TestBuildTable:
    def test_rejects_zero_limit(self):
        with pytest.raises(ValueError):
            build_table(CONSTANT_ONE, 0)

    def test_rejects_negative_headroom(self):
        with pytest.raises(ValueError):
            build_table(CONSTANT_ONE, 10, -1)

    def test_rejects_custom_kind(self):
        with pytest.raises(UnsupportedKind):
            build_table(FunctionKind.custom("mine"), 10)

    def test_headroom_extends_span(self):
        t = build_table(MU_SQUARED, 10, 5)
        assert t.limit == 10
        assert t.span == 15
        assert t.value(15) in (0, 1)
        with pytest.raises(RangeError):
            t.value(16)
        with pytest.raises(RangeError):
            t.value(0)

    def test_values_read_only(self):
        t = build_table(CONSTANT_ONE, 10)
        with pytest.raises(ValueError):
            np.asarray(t.values)[0] = 5

    def test_custom_table_from_values(self):
        t = FunctionTable.from_values("mine", [3, 1, 4, 1, 5])
        assert t.kind.label == "custom:mine"
        assert t.value(3) == 4
        assert t.limit == 5

    def test_from_values_refuses_uint64_past_int64(self):
        # 2**63 would wrap to -2**63 in an int64 table.
        with pytest.raises(ValueError, match="int64"):
            FunctionTable.from_values("big", np.array([2**63, 1], dtype=np.uint64))

    @pytest.mark.parametrize("top", [2**63, 2**70], ids=["2^63", "2^70"])
    def test_from_values_refuses_python_ints_past_int64(self, top):
        # numpy would store these lists as floats (or objects); neither may
        # become a floating table.
        with pytest.raises(ValueError, match="int64"):
            FunctionTable.from_values("big", [top, 1])

    @pytest.mark.parametrize(
        "bad, match",
        [
            (math.nan, "finite"),
            (math.inf, "finite"),
            (-math.inf, "finite"),
            (10**400, "float64"),
        ],
        ids=["nan", "inf", "-inf", "past-float"],
    )
    def test_from_values_refuses_non_finite(self, bad, match):
        # A NaN would make type-1 sums NaN and the bilinear form fail to
        # convert it to a ratio; 10**400 beside a float cannot become one.
        with pytest.raises(ValueError, match=f"^t: values must .*{match}"):
            FunctionTable.from_values("t", [1.0, bad, 2.0])

    def test_from_values_keeps_integers_that_fit(self):
        for values in (
            np.array([2**63 - 1, 0, 3], dtype=np.uint64),
            np.array([2**62, -5, 3], dtype=object),
            np.array([True, False, True]),
        ):
            t = FunctionTable.from_values("fits", values)
            assert t.is_exact and t.values.dtype == np.int64
            assert t.values.tolist() == [int(v) for v in values]

    def test_float_values_make_a_floating_table(self):
        # The dtype is the payload: float64 values are never read as integers.
        values = np.array([0.5, 1.5, 2.5, 3.5, 4.5])
        t = FunctionTable(FunctionKind.custom("x"), 4, 1, values=values)
        assert not t.is_exact
        assert t.value(1) == 0.5
        # 0.5·1.5 + 1.5·2.5 + 2.5·3.5 + 3.5·4.5
        assert type1(t, 4, 1).value == 29.0

    @pytest.mark.parametrize(
        "dtype", [np.int8, np.int16, np.int32], ids=["int8", "int16", "int32"]
    )
    def test_signed_integer_dtypes_are_exact(self, dtype):
        t = FunctionTable(FunctionKind.custom("x"), 4, 1, np.arange(1, 6, dtype=dtype))
        assert t.is_exact and t.values.dtype == dtype
        assert t.value(5) == 5 and type(t.value(5)) is int
        # 1·2 + 2·3 + 3·4 + 4·5, the same Python int as from int64 values.
        assert type1(t, 4, 1).value == 40

    @pytest.mark.parametrize(
        "values",
        [
            np.ones(5, dtype=bool),
            np.arange(1, 6, dtype=np.uint8),
            np.arange(1, 6, dtype=np.float32),
            np.array([1, 2, 3, 4, 5], dtype=object),
        ],
        ids=["bool", "uint8", "float32", "object"],
    )
    def test_refuses_dtypes_other_than_signed_integers_and_float64(self, values):
        with pytest.raises(ValueError, match="signed integer or float64"):
            FunctionTable(FunctionKind.custom("x"), 5, 0, values=values)


class TestPrefixSums:
    @pytest.mark.parametrize(
        "kind", [MU_SQUARED, VON_MANGOLDT, EULER_PHI], ids=lambda k: k.label
    )
    def test_difference_recovers_values(self, kind):
        t = build_table(kind, 500)
        ps = prefix_sums(t)
        assert ps.s(0) == 0
        for n in range(1, 501):
            diff = ps.s(n) - ps.s(n - 1)
            if t.is_exact:
                assert diff == t.value(n), n
            else:
                assert diff == pytest.approx(t.value(n), abs=1e-9), n

    def test_out_of_range(self):
        ps = prefix_sums(build_table(CONSTANT_ONE, 10))
        with pytest.raises(RangeError):
            ps.s(11)
        with pytest.raises(RangeError):
            ps.s(-1)

    @pytest.mark.parametrize(
        "sums",
        [
            np.array([0, 0.5, 1.5], dtype=np.float32),
            np.array([0, 1, 2], dtype=np.int32),
            np.array([False, True, True]),
        ],
        ids=["float32", "int32", "bool"],
    )
    def test_refuses_dtypes_other_than_int64_object_and_float64(self, sums):
        with pytest.raises(ValueError, match="int64, object or float64"):
            PrefixSums(CONSTANT_ONE, 2, sums)


class TestFunctionKind:
    def test_parse_round_trips_label(self):
        for kind in ALL_KINDS + [FunctionKind.custom("w")]:
            assert FunctionKind.parse(kind.label) == kind

    def test_parse_aliases(self):
        assert FunctionKind.parse("phi") == EULER_PHI
        assert FunctionKind.parse("totient") == EULER_PHI
        assert FunctionKind.parse("musq") == MU_SQUARED
        assert FunctionKind.parse("upsilon") == MASTER_UPSILON
        assert FunctionKind.parse("divisor") == FunctionKind.divisor(2)
        assert FunctionKind.parse("divisor5") == FunctionKind.divisor(5)

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            FunctionKind.parse("nope")

    def test_divisor_order_validation(self):
        with pytest.raises(ValueError):
            FunctionKind.divisor(1)

    def test_integer_valuedness(self):
        # The sieve's dtype decides the payload: exact for every integer kind.
        exact = {kind.label: build_table(kind, 10).is_exact for kind in ALL_KINDS}
        assert exact == {
            "one": True,
            "vonmangoldt": False,
            "eulerphi": True,
            "musquared": True,
            "liouville": True,
            "bigomega": True,
            "masterupsilon": False,
            "divisor2": True,
            "divisor3": True,
        }
