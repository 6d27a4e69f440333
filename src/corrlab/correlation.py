"""Shifted (type-1) and representation-style (type-2) correlation sums.

Type 1 is sum_{n<=x} f(n)·f(n+l) at a fixed shift l; type 2 is
sum_{n<x/2} f(n)·f(x-n) at a fixed total x.  Reads never wrap and never
zero-pad: a shifted read beyond the table's headroom is an error, because
silent padding would bias every constant derived from these sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ._accum import counted_dots
from .errors import RangeError
from .tables import FunctionKind, FunctionTable, _check_range


@dataclass(frozen=True)
class CorrelationResult:
    """One correlation measurement.

    ``shift`` is the type-1 shift l, or None for a type-2 sum.  For even-x
    type-2 sums the diagonal term f(x/2)² is reported in ``middle_term`` and
    is never folded into ``value``; ``terms`` counts the nonzero products in
    the sum proper.
    """

    kind: FunctionKind
    x: int
    shift: int | None
    value: int | float
    terms: int
    middle_term: int | float | None = None

    @property
    def shift_label(self) -> str:
        return "type2" if self.shift is None else str(self.shift)


def _check_shifts(shifts: Sequence[int]) -> None:
    """Refuse the first shift below 1; callers check before they sieve."""
    for l in shifts:
        if l < 1:
            raise ValueError(f"shift must be >= 1, got {l}")


def type1(table: FunctionTable, x: int, l: int) -> CorrelationResult:
    """sum_{n<=x} f(n)·f(n+l); needs the table built with headroom >= l.

    The one-shift case of :func:`type1_sweep`.
    """
    return type1_sweep(table, x, [l])[0]


def type2(table: FunctionTable, x: int) -> CorrelationResult:
    """sum_{n<x/2} f(n)·f(x-n), strictly below the midpoint.

    For even x the midpoint contribution f(x/2)² goes to ``middle_term``;
    keeping it out of ``value`` is what makes the type-2 sum and the
    off-diagonal remainder an exact partition of the bilinear form.
    """
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    _check_range(table, x)
    half = (x - 1) // 2  # last n strictly below x/2
    # The second operand is f(x-n) for n = 1..half, a reversed view.
    reversed_view = table.values[x - half - 1 : x - 1][::-1]
    [(value, terms)] = counted_dots(
        table.values, reversed_view, half, [0], table._value_bits
    )
    middle = None
    if x % 2 == 0:
        mid = table.value(x // 2)
        middle = mid * mid
    return CorrelationResult(table.kind, x, None, value, terms, middle)


def type1_sweep(
    table: FunctionTable, x: int, shifts: Sequence[int]
) -> list[CorrelationResult]:
    """type1 at each shift, in input order (duplicates kept), from one walk
    over the table that every shift reads while it is in cache.

    All shifts are validated before any work so a bad entry is reported by
    name up front.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    _check_shifts(shifts)
    for l in shifts:
        if x + l > table.span:
            raise RangeError(
                f"{table.kind.label}: shift {l} needs f up to {x + l}, but the "
                f"table covers only 1..{table.span}; rebuild with more headroom"
            )
    sums = counted_dots(table.values, table.values, x, shifts, table._value_bits)
    return [
        CorrelationResult(table.kind, x, l, value, terms)
        for l, (value, terms) in zip(shifts, sums)
    ]
