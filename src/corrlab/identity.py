"""The sequence identity and the bilinear decomposition of correlation sums.

The load-bearing fact: summing f(n)·f(n+j) over every n and every positive
shift j with n + j <= x equals the bilinear form

    sum_{2<=n<=x} f(n) · sum_{m<=n-1} f(m),

and the underlying two-sequence identity holds for arbitrary finite real
sequences.  Each side is computable by independent routes so the code can
cross-validate itself exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._accum import dot, exact_sum, running_dot, running_sums, sums_fit_int64
from .errors import BudgetExceeded, RangeError
from .tables import (
    FunctionTable,
    PrefixSums,
    _as_values,
    _check_range,
    _finite_floats,
    _integer_valued,
)

#: Largest x the quadratic-cost oracle will accept by default.
DEFAULT_ORACLE_CAP = 100_000

#: Default relative tolerance for floating identity comparisons.
DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class SequencePair:
    """Two equal-length finite sequences r_1..r_n and h_1..h_n; a pair that
    is not all integers is stored as float64."""

    r: np.ndarray
    h: np.ndarray

    def __post_init__(self) -> None:
        r, h = _as_values(self.r), _as_values(self.h)
        if r.ndim != 1 or h.ndim != 1:
            raise ValueError("sequences must be one-dimensional")
        if r.shape != h.shape:
            raise ValueError(f"length mismatch: {r.size} vs {h.size}")
        if r.size < 1:
            raise ValueError("sequences must have length >= 1")
        if not (_integer_valued(r) and _integer_valued(h)):
            r, h = (_finite_floats(a, "sequence values") for a in (r, h))
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "h", h)

    @property
    def n(self) -> int:
        return self.r.size

    @property
    def exact(self) -> bool:
        """Both sequences hold integers (of any magnitude)."""
        return self.r.dtype.kind != "f"


@dataclass(frozen=True)
class IdentityCheckResult:
    """Both sides of an identity plus the comparison verdict."""

    lhs: int | float
    rhs: int | float
    equal: bool
    exact: bool


def _check_tolerance(tolerance: float) -> None:
    """Refuse a tolerance that is not a positive finite number."""
    if not (0 < tolerance < math.inf):
        raise ValueError(f"tolerance must be a positive finite number, got {tolerance}")


def _check_budget(x: int, oracle_cap: int) -> None:
    """Refuse an oracle cap below 1, or an x above the cap."""
    if oracle_cap < 1:
        raise ValueError(f"oracle cap must be >= 1, got {oracle_cap}")
    if x > oracle_cap:
        raise BudgetExceeded(f"oracle is quadratic; x={x} exceeds its cap {oracle_cap}")


def _verdict(lhs, rhs, exact: bool, tolerance: float) -> IdentityCheckResult:
    """Exact sides must be equal; float sides within ``tolerance``, relative
    to the larger side (or absolute below 1)."""
    if exact:
        return IdentityCheckResult(lhs, rhs, lhs == rhs, True)
    equal = abs(lhs - rhs) <= tolerance * max(1.0, abs(lhs), abs(rhs))
    return IdentityCheckResult(lhs, rhs, equal, False)


def general_area_identity(
    pair: SequencePair, tolerance: float = DEFAULT_TOLERANCE
) -> IdentityCheckResult:
    """Evaluate both sides of the two-sequence identity

        sum_{j=2}^{n} r_j h_j
            = sum_{j=2}^{n} h_j (S_j + S_{j-1})
              - 2 sum_{j=1}^{n-1} r_j (H_n - H_j)

    where S and H are the running sums of r and h.  The right side costs
    O(n) via one prefix pass per sequence.  Holds for every finite pair;
    no constraint relating the sequences' magnitudes is required.  Integer
    pairs are summed exactly, float pairs with compensation; at n = 1 every
    dot product is empty and both sides are 0.
    """
    _check_tolerance(tolerance)
    r, h = pair.r, pair.h
    lhs = dot(r[1:], h[1:])
    S, H = running_sums(r), running_sums(h)
    rhs = dot(h[1:], S[2:] + S[1:-1]) - 2 * dot(r[:-1], H[-1] - H[1:-1])
    return _verdict(lhs, rhs, pair.exact, tolerance)


def bilinear_rhs(
    table: FunctionTable, x: int, prefix: PrefixSums | None = None
) -> int | float:
    """sum_{2<=n<=x} f(n) · S(n-1), the bilinear form of the decomposition.

    Which route runs:

    * exact payload, no ``prefix``: :func:`pair_sum_closed_form`, the same
      integer from one sum and one self dot product, with no running sums;
    * a ``prefix`` (for the same table, limit >= x-1), or a floating payload:
      the prefix route, one O(x) dot product of f(n) with S(n-1).  Floating
      payloads stay on it because the closed form rounds differently.
    """
    if prefix is None and table.is_exact:
        return pair_sum_closed_form(table, x)
    return _bilinear_prefix(table, x, prefix)


def _bilinear_prefix(
    table: FunctionTable, x: int, prefix: PrefixSums | None = None
) -> int | float:
    """The prefix route of :func:`bilinear_rhs`; with no ``prefix``,
    :func:`running_dot` forms the sums, with the bits of :func:`prefix_sums`."""
    _check_range(table, x)
    vals = table.values[1:x]  # f(n) for n = 2..x
    bits = table._value_bits
    if prefix is None:
        return running_dot(vals, table.values[: x - 1], bits)
    if prefix.kind != table.kind or prefix.is_exact != table.is_exact:
        raise ValueError("prefix sums were built from a different table")
    if prefix.limit < x - 1:
        raise RangeError(f"prefix sums cover only 0..{prefix.limit}, need {x - 1}")
    # S(n-1) for n = 2..x; float tables record no bounds, and need none.
    return dot(vals, prefix.sums[1:x], (bits, prefix._sum_bits))


def double_sum_lhs_oracle(
    table: FunctionTable, x: int, oracle_cap: int = DEFAULT_ORACLE_CAP
) -> int | float:
    """sum_{n<=x-1} sum_{j<=x-n} f(n)·f(n+j) by direct summation.

    The independent quadratic-cost route: each outer n sums its inner range
    directly from the value array, never touching the prefix-sum machinery.
    """
    _check_budget(x, oracle_cap)
    _check_range(table, x)
    vals = table.values[:x]
    f = vals.tolist()  # f[n - 1] is f(n)
    if table.is_exact:
        # One cast of at most the cap's entries, so no row sum recasts a
        # narrow table.  One bound for every row: each is a slice of
        # f(1..x), so when no sum of those entries can overflow, a plain
        # int64 sum is exact.
        vals = vals.astype(np.int64)
        fits = sums_fit_int64(vals)
        total = 0
        for n in range(1, x):
            row = vals[n:x]  # f(n+1) + ... + f(x)
            inner = int(row.sum()) if fits else exact_sum(row)
            total += f[n - 1] * inner
        return total
    return math.fsum([f[n - 1] * vals[n:x].sum() for n in range(1, x)])


def pair_sum_closed_form(table: FunctionTable, x: int) -> int | float:
    """sum over unordered pairs m < n <= x of f(m)·f(n), via ((Σf)² − Σf²)/2."""
    _check_range(table, x)
    vals = table.values[:x]
    bits = table._value_bits
    q = dot(vals, vals, (bits, bits))
    if table.is_exact:
        s = exact_sum(vals, bits)
        # s² and q have the same parity, so the pair count is integral.
        return (s * s - q) // 2
    s = float(np.sum(vals))
    return (s * s - q) / 2.0


def identity_check(
    table: FunctionTable,
    x: int,
    tolerance: float = DEFAULT_TOLERANCE,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> IdentityCheckResult:
    """Cross-validate the decomposition: quadratic oracle vs the prefix route
    of the bilinear form (never the closed form, which is a third route)."""
    _check_tolerance(tolerance)
    lhs = double_sum_lhs_oracle(table, x, oracle_cap)
    rhs = _bilinear_prefix(table, x)
    return _verdict(lhs, rhs, table.is_exact, tolerance)
