"""Dense value tables for the arithmetic functions used by the experiments.

A :class:`FunctionTable` holds f(1..limit) (plus optional headroom for
shifted reads) for one :class:`FunctionKind`.  The payload's dtype is its
mode: a signed integer dtype is exact (the integer-valued kinds, each sieved
in the narrowest one that holds its products) and float64 is floating (Λ
and Υ).  Tables and their prefix sums are immutable and safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

import numpy as np

from . import _sieves
from ._accum import _bits, running_sums
from .errors import RangeError, UnsupportedKind


def _as_values(values) -> np.ndarray:
    """``np.asarray(values)``, except that Python ints past int64, which
    numpy would store as floats, stay Python ints in an object array."""
    arr = np.asarray(values)
    if arr.dtype.kind == "f" and all(isinstance(v, int) for v in values):
        return np.array(values, dtype=object)
    return arr


def _exact_operand(a: np.ndarray) -> np.ndarray:
    """``a`` as int64 when its dtype casts there without loss, otherwise as
    Python ints (object dtype)."""
    if np.can_cast(a.dtype, np.int64):
        return np.asarray(a, dtype=np.int64)
    return a.astype(object, copy=False)


def _integer_valued(a: np.ndarray) -> bool:
    """Whether ``a`` holds integers: a bool or integer dtype, or only Python
    ints.  :func:`_exact_operand` takes each of them without loss."""
    if a.dtype == object:
        return all(isinstance(v, int) for v in a.tolist())
    return a.dtype.kind in "biu"


def _finite_floats(a: np.ndarray, what: str) -> np.ndarray:
    """``a`` as float64; a NaN, ±inf or value past float range is refused."""
    try:
        a = a.astype(np.float64)
    except OverflowError:
        raise ValueError(f"{what} must fit float64") from None
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    return a


class Variant(Enum):
    """Which arithmetic function a :class:`FunctionKind` selects."""

    VON_MANGOLDT = "vonmangoldt"
    DIVISOR = "divisor"
    EULER_PHI = "eulerphi"
    MU_SQUARED = "musquared"
    LIOUVILLE = "liouville"
    BIG_OMEGA = "bigomega"
    MASTER_UPSILON = "masterupsilon"
    CONSTANT_ONE = "one"
    CUSTOM = "custom"


_PARSE_ALIASES = {
    "vonmangoldt": Variant.VON_MANGOLDT,
    "eulerphi": Variant.EULER_PHI,
    "phi": Variant.EULER_PHI,
    "totient": Variant.EULER_PHI,
    "musquared": Variant.MU_SQUARED,
    "musq": Variant.MU_SQUARED,
    "liouville": Variant.LIOUVILLE,
    "bigomega": Variant.BIG_OMEGA,
    "masterupsilon": Variant.MASTER_UPSILON,
    "upsilon": Variant.MASTER_UPSILON,
    "one": Variant.CONSTANT_ONE,
    "constantone": Variant.CONSTANT_ONE,
}


@dataclass(frozen=True)
class FunctionKind:
    """Tagged selector for one arithmetic function.

    Args:
        variant: which function family.
        order: tower height for the divisor functions (d = order 2).
        name: label for custom tables.
    """

    variant: Variant
    order: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if self.variant is Variant.DIVISOR:
            if self.order < 2:
                raise ValueError(f"divisor order must be >= 2, got {self.order}")
        elif self.order != 0:
            raise ValueError("order is only meaningful for divisor kinds")
        if self.variant is Variant.CUSTOM and not self.name:
            raise ValueError("custom kinds need a name")
        if self.variant is not Variant.CUSTOM and self.name:
            raise ValueError("name is only meaningful for custom kinds")

    # -- constructors ------------------------------------------------------
    @classmethod
    def divisor(cls, order: int = 2) -> "FunctionKind":
        return cls(Variant.DIVISOR, order=order)

    @classmethod
    def custom(cls, name: str) -> "FunctionKind":
        return cls(Variant.CUSTOM, name=name)

    @classmethod
    def parse(cls, text: str) -> "FunctionKind":
        """Parse a kind label such as ``divisor``, ``divisor3``, ``phi``."""
        key = text.strip().lower()
        if key.startswith("custom:"):
            return cls.custom(key.split(":", 1)[1])
        if key in _PARSE_ALIASES:
            return cls(_PARSE_ALIASES[key])
        if key.startswith("divisor"):
            suffix = key[len("divisor") :]
            if suffix == "":
                return cls.divisor(2)
            if suffix.isdigit():
                return cls.divisor(int(suffix))
        raise ValueError(f"unknown function kind: {text!r}")

    # -- properties --------------------------------------------------------
    @property
    def label(self) -> str:
        """Stable text form; ``parse(label)`` round-trips non-custom kinds."""
        if self.variant is Variant.DIVISOR:
            return f"divisor{self.order}"
        if self.variant is Variant.CUSTOM:
            return f"custom:{self.name}"
        return self.variant.value


VON_MANGOLDT = FunctionKind(Variant.VON_MANGOLDT)
EULER_PHI = FunctionKind(Variant.EULER_PHI)
MU_SQUARED = FunctionKind(Variant.MU_SQUARED)
LIOUVILLE = FunctionKind(Variant.LIOUVILLE)
BIG_OMEGA = FunctionKind(Variant.BIG_OMEGA)
MASTER_UPSILON = FunctionKind(Variant.MASTER_UPSILON)
CONSTANT_ONE = FunctionKind(Variant.CONSTANT_ONE)


@dataclass(frozen=True, eq=False)
class FunctionTable:
    """Immutable dense table of f(1..limit+shift_headroom).

    Parameters
    ----------
    kind : FunctionKind
        Which function the values belong to.
    limit : int
        The nominal range 1..limit that sums run over.
    shift_headroom : int
        Extra trailing entries so shifted reads f(n + l) stay in range.
    values : numpy.ndarray
        Length ``limit + shift_headroom``; position i holds f(i + 1).
        A signed integer dtype, int8 to int64 (exact), or float64
        (floating); any other dtype is refused.  Stored as a read-only view
        that cannot be made writeable again.

    Exact tables record the bit length of max|f| once, when they are built,
    so the exact kernels need not scan the values for it.
    """

    kind: FunctionKind
    limit: int
    shift_headroom: int
    values: np.ndarray
    _value_bits: int | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.limit < 1:
            raise ValueError(f"limit must be >= 1, got {self.limit}")
        if self.shift_headroom < 0:
            raise ValueError(f"shift_headroom must be >= 0, got {self.shift_headroom}")
        if self.values.shape != (self.limit + self.shift_headroom,):
            raise ValueError(
                f"payload length {self.values.shape} does not match "
                f"limit {self.limit} + headroom {self.shift_headroom}"
            )
        if not (self.is_exact or self.values.dtype == np.float64):
            raise ValueError(
                "payload dtype must be a signed integer or float64, "
                f"got {self.values.dtype}"
            )
        self.values.setflags(write=False)
        # A view of a read-only array cannot be made writeable, so the bound
        # below cannot go stale.
        object.__setattr__(self, "values", self.values.view())
        object.__setattr__(
            self, "_value_bits", _bits(self.values) if self.is_exact else None
        )

    @property
    def span(self) -> int:
        """Last index readable through :meth:`value`."""
        return self.limit + self.shift_headroom

    @property
    def is_exact(self) -> bool:
        return self.values.dtype.kind == "i"

    def value(self, n: int):
        """f(n) as a Python scalar; out-of-range reads are an error."""
        if not 1 <= n <= self.span:
            raise RangeError(
                f"{self.kind.label}: n={n} outside covered range 1..{self.span}"
            )
        v = self.values[n - 1]
        return int(v) if self.is_exact else float(v)

    @classmethod
    def from_values(
        cls, name: str, values: Iterable, *, shift_headroom: int = 0
    ) -> "FunctionTable":
        """Wrap explicit values as a custom table (index 0 holds f(1)).

        Integers make an exact int64 table and anything else a float64 one.
        uint64 and object values pass through Python ints, so one that int64
        cannot hold is refused with a ValueError instead of wrapping, as is
        a NaN, ±inf or a value past float range.
        """
        arr = _as_values(values if isinstance(values, np.ndarray) else list(values))
        if _integer_valued(arr):
            try:
                arr = _exact_operand(arr).astype(np.int64)
            except OverflowError:
                raise ValueError(f"{name}: integer values must fit int64") from None
        else:
            arr = _finite_floats(arr, f"{name}: values")
        return cls(
            kind=FunctionKind.custom(name),
            limit=arr.size - shift_headroom,
            shift_headroom=shift_headroom,
            values=arr,
        )


def _check_range(table: FunctionTable, x: int) -> None:
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x > table.limit:
        raise RangeError(
            f"{table.kind.label}: x={x} exceeds table limit {table.limit}"
        )


@dataclass(frozen=True, eq=False)
class PrefixSums:
    """Cumulative sums S(n) = sum of f(m) for m <= n, with S(0) = 0.

    Sums are exact (int64, or Python ints past int64 in an object array)
    or float64; any other dtype is refused.  ``_sum_bits`` bounds the bit
    length of every |S(n)| of exact sums (None for float sums).
    :func:`prefix_sums` records bits(f) + limit.bit_length() without
    reading the sums; when it is not given for int64 sums, it is measured
    once.
    """

    kind: FunctionKind
    limit: int
    sums: np.ndarray  # length limit + 1; position n holds S(n)
    _sum_bits: int | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.sums.shape != (self.limit + 1,):
            raise ValueError("prefix array length must be limit + 1")
        if self.sums.dtype not in (np.int64, object, np.float64):
            raise ValueError(
                "prefix sums dtype must be int64, object or float64, "
                f"got {self.sums.dtype}"
            )
        self.sums.setflags(write=False)
        object.__setattr__(self, "sums", self.sums.view())
        if self._sum_bits is None and self.sums.dtype == np.int64:
            object.__setattr__(self, "_sum_bits", _bits(self.sums))

    @property
    def is_exact(self) -> bool:
        return self.sums.dtype != np.float64

    def s(self, n: int):
        """S(n) as a Python scalar, defined for 0 <= n <= limit."""
        if not 0 <= n <= self.limit:
            raise RangeError(
                f"{self.kind.label}: prefix index {n} outside 0..{self.limit}"
            )
        v = self.sums[n]
        return int(v) if self.is_exact else float(v)


def build_table(
    kind: FunctionKind, limit: int, shift_headroom: int = 0
) -> FunctionTable:
    """Sieve the values of ``kind`` over 1..limit (+headroom).

    Args:
        kind: function selector; custom kinds cannot be sieved.
        limit: table covers 1..limit.
        shift_headroom: extra entries beyond the limit for shifted reads.

    Returns:
        An immutable FunctionTable: exact for the integer-valued kinds, in
        the narrowest signed dtype that holds max|f|², and floating
        (float64) for Λ and Υ.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if shift_headroom < 0:
        raise ValueError(f"shift_headroom must be >= 0, got {shift_headroom}")
    _check_buildable(kind, limit + shift_headroom)
    values = _sieves.sieve(kind.variant.value, kind.order, limit + shift_headroom)
    return FunctionTable(kind, limit, shift_headroom, values)


def _check_buildable(kind: FunctionKind, span: int) -> None:
    """Refuse a kind that no sieve builds over 1..span without wrapping."""
    if kind.variant is Variant.CUSTOM:
        raise UnsupportedKind("custom kinds are built via FunctionTable.from_values")
    if kind.variant is Variant.DIVISOR:
        if (peak := _sieves._divisor_peak(kind.order, span)) >= 2**63:
            raise ValueError(
                f"divisor{kind.order} reaches {peak} within 1..{span}, past "
                "int64; lower the order or the span"
            )


def prefix_sums(table: FunctionTable) -> PrefixSums:
    """Running sums over the table's nominal range (headroom excluded).

    Exact payloads accumulate exactly; floating payloads use compensated
    blockwise summation so long prefixes stay accurate to ~2^-40 relative.
    """
    bits = table._value_bits
    sums = running_sums(table.values[: table.limit], bits)
    bound = None if bits is None else bits + table.limit.bit_length()
    return PrefixSums(table.kind, table.limit, sums, bound)
