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
    RangeError,
    UnsupportedKind,
    build_table,
    mean_value_reference,
    prefix_sums,
    type1,
)
from corrlab import _sieves

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


# The kinds that come from the windowed factor pass.
FACTOR_KINDS = [
    EULER_PHI,
    LIOUVILLE,
    BIG_OMEGA,
    MASTER_UPSILON,
    FunctionKind.divisor(2),
    FunctionKind.divisor(3),
]


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
    @pytest.mark.parametrize("kind", FACTOR_KINDS, ids=lambda k: k.label)
    def test_any_window_length_matches_oracle(self, kind, window, monkeypatch):
        # Spans 1..40 and 289..300 end the last window at every offset for
        # windows up to 12 (and at 1..44 of 64); 289 = 17^2 adds a prime.
        # The p^2 and p^k <= 300 fall on, before and after window edges.
        monkeypatch.setattr(_sieves, "_WINDOW", window)
        assert_matches_oracle(kind, [*range(1, 41), *range(289, 301)])

    @pytest.mark.parametrize("kind", FACTOR_KINDS, ids=lambda k: k.label)
    def test_window_edges_at_oracle_span(self, kind, monkeypatch):
        # 25 windows of 2^12: n = 2^16 and most p^2 sit past a window edge.
        monkeypatch.setattr(_sieves, "_WINDOW", 1 << 12)
        assert_matches_oracle(kind, [ORACLE_SPAN])


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

    def test_from_values_keeps_integers_that_fit(self):
        for values in (
            np.array([2**63 - 1, 0, 3], dtype=np.uint64),
            np.array([2**62, -5, 3], dtype=object),
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
        "values",
        [
            np.arange(1, 6, dtype=np.int32),
            np.ones(5, dtype=bool),
            np.array([1, 2, 3, 4, 5], dtype=object),
        ],
        ids=["int32", "bool", "object"],
    )
    def test_refuses_dtypes_other_than_int64_and_float64(self, values):
        with pytest.raises(ValueError, match="int64 or float64"):
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


class TestMeanValueReference:
    def test_values(self):
        x = 1000
        assert mean_value_reference(VON_MANGOLDT, x) == pytest.approx(x)
        assert mean_value_reference(CONSTANT_ONE, x) == x
        assert mean_value_reference(EULER_PHI, x) == pytest.approx(3 / math.pi**2 * x * x)
        assert mean_value_reference(MU_SQUARED, x) == pytest.approx(6 / math.pi**2 * x)
        assert mean_value_reference(FunctionKind.divisor(2), x) == pytest.approx(
            x * math.log(x)
        )
        assert mean_value_reference(FunctionKind.divisor(4), x) == pytest.approx(
            x * math.log(x) ** 3 / 6
        )
        assert mean_value_reference(MASTER_UPSILON, x) == pytest.approx(
            x * math.log(math.log(x))
        )

    def test_unsupported(self):
        for kind in (LIOUVILLE, BIG_OMEGA, FunctionKind.custom("z")):
            with pytest.raises(UnsupportedKind):
                mean_value_reference(kind, 1000)

    def test_small_x_rejected(self):
        with pytest.raises(ValueError):
            mean_value_reference(CONSTANT_ONE, 2)


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
