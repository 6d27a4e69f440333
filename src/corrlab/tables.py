"""Dense value tables for the arithmetic functions used by the experiments.

A :class:`FunctionTable` holds f(1..limit) (plus optional headroom for
shifted reads) for one :class:`FunctionKind`.  Integer-valued kinds carry an
exact int64 payload; the real-valued kinds carry float64.  Tables and their
prefix sums are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from . import _sieves
from ._accum import compensated_cumsum, exact_cumsum
from .errors import RangeError, UnsupportedKind


class PayloadMode(Enum):
    """Value representation of a table: exact integers or 64-bit floats."""

    EXACT = "exact"
    FLOATING = "floating"


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


# Variants whose values are integers and therefore support exact payloads.
_INTEGER_VARIANTS = frozenset(
    {
        Variant.DIVISOR,
        Variant.EULER_PHI,
        Variant.MU_SQUARED,
        Variant.LIOUVILLE,
        Variant.BIG_OMEGA,
        Variant.CONSTANT_ONE,
    }
)

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
    def von_mangoldt(cls) -> "FunctionKind":
        return cls(Variant.VON_MANGOLDT)

    @classmethod
    def divisor(cls, order: int = 2) -> "FunctionKind":
        return cls(Variant.DIVISOR, order=order)

    @classmethod
    def euler_phi(cls) -> "FunctionKind":
        return cls(Variant.EULER_PHI)

    @classmethod
    def mu_squared(cls) -> "FunctionKind":
        return cls(Variant.MU_SQUARED)

    @classmethod
    def liouville(cls) -> "FunctionKind":
        return cls(Variant.LIOUVILLE)

    @classmethod
    def big_omega(cls) -> "FunctionKind":
        return cls(Variant.BIG_OMEGA)

    @classmethod
    def master_upsilon(cls) -> "FunctionKind":
        return cls(Variant.MASTER_UPSILON)

    @classmethod
    def constant_one(cls) -> "FunctionKind":
        return cls(Variant.CONSTANT_ONE)

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
    def integer_valued(self) -> bool:
        return self.variant in _INTEGER_VARIANTS

    @property
    def label(self) -> str:
        """Stable text form; ``parse(label)`` round-trips non-custom kinds."""
        if self.variant is Variant.DIVISOR:
            return f"divisor{self.order}"
        if self.variant is Variant.CUSTOM:
            return f"custom:{self.name}"
        return self.variant.value


VON_MANGOLDT = FunctionKind.von_mangoldt()
EULER_PHI = FunctionKind.euler_phi()
MU_SQUARED = FunctionKind.mu_squared()
LIOUVILLE = FunctionKind.liouville()
BIG_OMEGA = FunctionKind.big_omega()
MASTER_UPSILON = FunctionKind.master_upsilon()
CONSTANT_ONE = FunctionKind.constant_one()


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
    mode : PayloadMode
        Exact integer payload or float64 payload.
    values : numpy.ndarray
        Length ``limit + shift_headroom``; position i holds f(i + 1).
    """

    kind: FunctionKind
    limit: int
    shift_headroom: int
    mode: PayloadMode
    values: np.ndarray

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
        self.values.setflags(write=False)

    @property
    def span(self) -> int:
        """Last index readable through :meth:`value`."""
        return self.limit + self.shift_headroom

    @property
    def is_exact(self) -> bool:
        return self.mode is PayloadMode.EXACT

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
        cls,
        name: str,
        values: Iterable,
        *,
        shift_headroom: int = 0,
        mode: PayloadMode | None = None,
    ) -> "FunctionTable":
        """Wrap explicit values as a custom table (index 0 holds f(1))."""
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
        if mode is None:
            mode = (
                PayloadMode.EXACT
                if np.issubdtype(arr.dtype, np.integer)
                else PayloadMode.FLOATING
            )
        dtype = np.int64 if mode is PayloadMode.EXACT else np.float64
        arr = arr.astype(dtype, copy=True)
        return cls(
            kind=FunctionKind.custom(name),
            limit=arr.size - shift_headroom,
            shift_headroom=shift_headroom,
            mode=mode,
            values=arr,
        )


@dataclass(frozen=True, eq=False)
class PrefixSums:
    """Cumulative sums S(n) = sum of f(m) for m <= n, with S(0) = 0."""

    kind: FunctionKind
    limit: int
    mode: PayloadMode
    sums: np.ndarray  # length limit + 1; position n holds S(n)

    def __post_init__(self) -> None:
        if self.sums.shape != (self.limit + 1,):
            raise ValueError("prefix array length must be limit + 1")
        self.sums.setflags(write=False)

    @property
    def is_exact(self) -> bool:
        return self.mode is PayloadMode.EXACT

    def s(self, n: int):
        """S(n) as a Python scalar, defined for 0 <= n <= limit."""
        if not 0 <= n <= self.limit:
            raise RangeError(
                f"{self.kind.label}: prefix index {n} outside 0..{self.limit}"
            )
        v = self.sums[n]
        return int(v) if self.is_exact else float(v)


_SIEVES = {
    Variant.CONSTANT_ONE: _sieves.constant_one,
    Variant.EULER_PHI: _sieves.euler_phi,
    Variant.MU_SQUARED: _sieves.mu_squared,
    Variant.BIG_OMEGA: _sieves.big_omega,
    Variant.LIOUVILLE: _sieves.liouville,
    Variant.VON_MANGOLDT: _sieves.von_mangoldt,
    Variant.MASTER_UPSILON: _sieves.master_upsilon,
}


def build_table(
    kind: FunctionKind,
    limit: int,
    shift_headroom: int = 0,
    *,
    mode: PayloadMode | None = None,
) -> FunctionTable:
    """Sieve the values of ``kind`` over 1..limit (+headroom).

    Args:
        kind: function selector; custom kinds cannot be sieved.
        limit: table covers 1..limit.
        shift_headroom: extra entries beyond the limit for shifted reads.
        mode: payload override; defaults to exact for integer-valued kinds.

    Returns:
        An immutable FunctionTable.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if shift_headroom < 0:
        raise ValueError(f"shift_headroom must be >= 0, got {shift_headroom}")
    if kind.variant is Variant.CUSTOM:
        raise UnsupportedKind("custom kinds are built via FunctionTable.from_values")
    if mode is None:
        mode = PayloadMode.EXACT if kind.integer_valued else PayloadMode.FLOATING
    if mode is PayloadMode.EXACT and not kind.integer_valued:
        raise UnsupportedKind(
            f"{kind.label} is real-valued and has no exact integer payload"
        )
    span = limit + shift_headroom
    if kind.variant is Variant.DIVISOR:
        raw = _sieves.divisor_tower(span, kind.order)
    else:
        raw = _SIEVES[kind.variant](span)
    if mode is PayloadMode.FLOATING and raw.dtype != np.float64:
        raw = raw.astype(np.float64)
    return FunctionTable(
        kind=kind, limit=limit, shift_headroom=shift_headroom, mode=mode, values=raw
    )


def prefix_sums(table: FunctionTable) -> PrefixSums:
    """Running sums over the table's nominal range (headroom excluded).

    Exact payloads accumulate exactly; floating payloads use compensated
    blockwise summation so long prefixes stay accurate to ~2^-40 relative.
    """
    head = table.values[: table.limit]
    if table.is_exact:
        cums = exact_cumsum(head)
        zero = np.zeros(1, dtype=cums.dtype)
    else:
        cums = compensated_cumsum(head)
        zero = np.zeros(1, dtype=np.float64)
    return PrefixSums(
        kind=table.kind,
        limit=table.limit,
        mode=table.mode,
        sums=np.concatenate([zero, cums]),
    )


def mean_value_reference(kind: FunctionKind, x: int) -> float:
    """Leading-term reference for the summatory function at x.

    Only kinds with an established leading term are supported; the Liouville
    and prime-factor-count kinds have none here and raise UnsupportedKind.
    """
    if x < 3:
        raise ValueError(f"x must be >= 3 so log log x is defined, got {x}")
    xf = float(x)
    v = kind.variant
    if v is Variant.VON_MANGOLDT or v is Variant.CONSTANT_ONE:
        return xf
    if v is Variant.DIVISOR:
        l = kind.order
        return xf * math.log(xf) ** (l - 1) / math.factorial(l - 1)
    if v is Variant.EULER_PHI:
        return (3.0 / math.pi**2) * xf * xf
    if v is Variant.MU_SQUARED:
        return (6.0 / math.pi**2) * xf
    if v is Variant.MASTER_UPSILON:
        return xf * math.log(math.log(xf))
    raise UnsupportedKind(f"no reference mean value for {kind.label}")
