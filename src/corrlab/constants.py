"""Empirical constants behind the correlation bounds, plus the claim harness.

Every bound in scope has the shape  correlation ≍ (mean-value term) / C  or
correlation ≍ D · (mean-value term),  where C and D are implicit constants
the source statements treat as fixed.  At desk scale they are functions of
x, so this module measures them pointwise:

* ``c_min``        — smallest C making the shifted-correlation lower bound
                     hold at this x (and the largest admissible C for the
                     inverted upper-bound reading: the two coincide).
* ``local_density``— the single-shift share of the full bilinear form.
* ``d_of_x``       — the type-2 share, scaled to [0, x].
* ``diagonal_ratio``— the share the type-2 diagonal leaves, 1 − type2/bilinear.

C is formed in :func:`_c_ratio` and every share in :func:`_share`, for these
and for the claim scorer alike.

``evaluate_claims`` then scores catalogued bounds over an x-grid, from one
table per function kind, and reports per-point verdicts: ``consistent``,
``violated``, or ``vacuous`` when the statement's own positivity hypothesis
fails.  A verdict is a desk-scale observation, never a proof.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Callable, Sequence

from .correlation import type1, type2
from .errors import DegenerateSum, UnknownClaim, ZeroCorrelation
from .identity import bilinear_rhs
from .tables import (
    EULER_PHI,
    LIOUVILLE,
    MASTER_UPSILON,
    MU_SQUARED,
    VON_MANGOLDT,
    FunctionKind,
    FunctionTable,
    build_table,
)


@dataclass(frozen=True)
class DensityEstimate:
    """The measured constants for one (kind, x, shift) cell.

    ``d_ratio`` is the type-2 share D(x)/x and does not depend on the shift;
    it is populated whenever x >= 2.
    """

    kind: FunctionKind
    x: int
    shift: int
    c_min: Fraction | float
    local_density: Fraction | float
    d_ratio: Fraction | float | None = None


def _ratio(table: FunctionTable, num, den) -> Fraction | float:
    """num / den: an exact Fraction for exact payloads, else a float."""
    if table.is_exact:
        return Fraction(num, den)
    return num / den


def _c_ratio(table: FunctionTable, x: int, l: int, t1, b) -> Fraction | float:
    """C = b / (x · t1) for a type-1 sum ``t1`` at shift l and bilinear form
    ``b``, refused unless t1 is positive, the bound's own hypothesis."""
    if t1 <= 0:
        raise ZeroCorrelation(
            f"{table.kind.label}: correlation at x={x}, shift={l} is {t1}; "
            "the positivity hypothesis fails"
        )
    return _ratio(table, b, x * t1)


def _share(table: FunctionTable, x: int, part, b) -> Fraction | float:
    """part / b, the share of the bilinear form ``b`` at x that ``part``
    carries, refused when b vanishes."""
    if b == 0:
        raise DegenerateSum(f"{table.kind.label}: bilinear form vanishes at x={x}")
    return _ratio(table, part, b)


def c_min(table: FunctionTable, x: int, l: int) -> Fraction | float:
    """Smallest admissible C at this x: bilinear(x) / (x · type1(x, l)).

    The shifted-correlation lower bound  type1 >= bilinear / (C·x)  holds
    exactly at C = c_min and for every larger C.  Requires a positive
    correlation, which is the bound's own hypothesis.
    """
    return _c_ratio(table, x, l, type1(table, x, l).value, bilinear_rhs(table, x))


def local_density(table: FunctionTable, x: int, l: int) -> Fraction | float:
    """Share of the bilinear form carried by one shift: type1 / bilinear.

    Satisfies c_min · local_density · x = 1 exactly wherever both sides are
    defined.
    """
    b = bilinear_rhs(table, x)
    return _share(table, x, type1(table, x, l).value, b)


def d_of_x(table: FunctionTable, x: int) -> Fraction | float:
    """Type-2 share scaled to [0, x]:  x · type2(x) / bilinear(x).

    Complements the off-diagonal split exactly: d_of_x/x plus the
    off-diagonal ratio equals 1.
    """
    b = bilinear_rhs(table, x)
    return _share(table, x, x * type2(table, x).value, b)


def diagonal_ratio(table: FunctionTable, x: int) -> Fraction | float:
    """Fraction of the bilinear form NOT hit by the type-2 diagonal:
    1 − type2(x)/bilinear(x).

    Exact payloads return an exact Fraction so downstream partition checks
    can demand literal equality; floating payloads return a float.
    """
    b = bilinear_rhs(table, x)
    return 1 - _share(table, x, type2(table, x).value, b)


def density_estimate(table: FunctionTable, x: int, l: int) -> DensityEstimate:
    """Bundle c_min, local_density, and (for x >= 2) d_ratio.

    Each of type1, bilinear and type2 is computed once and shared.
    """
    t1 = type1(table, x, l).value
    b = bilinear_rhs(table, x)
    c = _c_ratio(table, x, l, t1, b)
    d_ratio = None
    if x >= 2:
        d_ratio = _share(table, x, x * type2(table, x).value, b) / x
    return DensityEstimate(
        kind=table.kind,
        x=x,
        shift=l,
        c_min=c,
        local_density=_share(table, x, t1, b),
        d_ratio=d_ratio,
    )


@dataclass(frozen=True)
class ClaimSettings:
    """Free parameters the catalogued bounds leave open.

    ``shift`` is the fixed shift l0 for the generic shifted-correlation
    claims (the twin claim always uses 2); ``divisor_order`` is the tower
    height for the d_l claims; ``epsilon``/``c`` shape the cancellation
    envelope of the signed-correlation claim; ``slack`` is how much a
    computed value may fall inside a (1+o(1)) bound before being called
    violated.
    """

    shift: int = 1
    divisor_order: int = 3
    epsilon: float = 0.1
    c: float = 1.0
    slack: float = 0.25


@dataclass(frozen=True)
class ClaimReport:
    """Computed-vs-bound rows for one claim over an x-grid."""

    claim: str
    grid: tuple[int, ...]
    computed: tuple[float, ...]
    bound: tuple[float, ...]
    constant: tuple[float | None, ...]
    verdicts: tuple[str, ...]
    notes: str = ""

    def rows(self) -> tuple[tuple, ...]:
        """Return (claim, x, computed, bound, constant, verdict) tuples."""
        return tuple(
            (
                self.claim,
                x,
                self.computed[i],
                self.bound[i],
                self.constant[i],
                self.verdicts[i],
            )
            for i, x in enumerate(self.grid)
        )


@dataclass(frozen=True)
class _ClaimSpec:
    claim_id: str
    kind_fn: Callable[[ClaimSettings], FunctionKind]
    correlation: str  # "type1" | "type2"
    bound_fn: Callable[[float, float, ClaimSettings], float]
    shift_fn: Callable[[ClaimSettings], int] = lambda s: s.shift
    direction: str = "lower"  # computed >= bound; "upper" compares |computed|
    uses_constant: bool = True
    even_x_only: bool = False
    notes: str = ""


def _loglog(x: float) -> float:
    return math.log(math.log(x))


def _tower_factor(order: int) -> float:
    m = math.factorial(order - 1)
    return (1.0 / m) * (1.0 - 1.0 / (2.0 * m))


def _liouville_envelope(x: float, settings: ClaimSettings) -> float:
    e = settings.epsilon
    c = settings.c
    return x ** (1.0 + e) * math.exp(
        -2.0 * c * math.log(x) ** 0.8 * _loglog(x) ** -0.2
    )


_CLAIMS: dict[str, _ClaimSpec] = {}


def _register(spec: _ClaimSpec) -> None:
    _CLAIMS[spec.claim_id] = spec


_register(
    _ClaimSpec(
        claim_id="thm3.1-twin",
        kind_fn=lambda s: VON_MANGOLDT,
        correlation="type1",
        shift_fn=lambda s: 2,
        bound_fn=lambda x, C, s: x / (2.0 * C),
        notes="prime-power pair correlation at shift 2 vs x/(2C); C measured "
        "pointwise, so the interesting output is C's trend in x",
    )
)
_register(
    _ClaimSpec(
        claim_id="cor6.1-divisor",
        kind_fn=lambda s: FunctionKind.divisor(2),
        correlation="type1",
        bound_fn=lambda x, C, s: x * math.log(x) ** 2 / (2.0 * C),
        notes="divisor-function correlation vs x·log²x/(2C)",
    )
)
_register(
    _ClaimSpec(
        claim_id="cor6.2-divisor-l",
        kind_fn=lambda s: FunctionKind.divisor(s.divisor_order),
        correlation="type1",
        bound_fn=lambda x, C, s: _tower_factor(s.divisor_order)
        * x
        * math.log(x) ** (2 * (s.divisor_order - 1))
        / C,
        notes="divisor-tower correlation vs the stated constant; the stated "
        "constant exceeds the square-of-mean heuristic for order >= 3, so a "
        "violated verdict here reflects the stated constant, not the shape",
    )
)
_register(
    _ClaimSpec(
        claim_id="cor6.3-phi",
        kind_fn=lambda s: EULER_PHI,
        correlation="type1",
        bound_fn=lambda x, C, s: (9.0 / (2.0 * math.pi**4)) * x**3 / C,
        notes="totient correlation vs (9/2π⁴)·x³/C",
    )
)
_register(
    _ClaimSpec(
        claim_id="cor6.4-musq",
        kind_fn=lambda s: MU_SQUARED,
        correlation="type1",
        bound_fn=lambda x, C, s: (18.0 / math.pi**4) * x / C,
        notes="squarefree-indicator correlation vs (18/π⁴)·x/C",
    )
)
_register(
    _ClaimSpec(
        claim_id="thm7.2-master",
        kind_fn=lambda s: MASTER_UPSILON,
        correlation="type1",
        bound_fn=lambda x, C, s: x * _loglog(x) ** 2 / (2.0 * C),
        notes="semiprime-log correlation vs (x/2C)·(log log x)²",
    )
)
_register(
    _ClaimSpec(
        claim_id="thm5.2-liouville",
        kind_fn=lambda s: LIOUVILLE,
        correlation="type1",
        shift_fn=lambda s: 1,
        bound_fn=lambda x, C, s: _liouville_envelope(x, s),
        direction="upper",
        uses_constant=False,
        notes="signed parity correlation |Σ λ(n)λ(n+1)| vs the cancellation "
        "envelope x^(1+ε)·exp(−2c·(log x)^{4/5}(log log x)^{−1/5}) at the "
        "configured ε and c; the envelope's constants are free parameters",
    )
)
_register(
    _ClaimSpec(
        claim_id="thm8.1-goldbach",
        kind_fn=lambda s: VON_MANGOLDT,
        correlation="type2",
        bound_fn=lambda x, D, s: (x / 2.0) * D,
        even_x_only=True,
        notes="prime-power representation sum vs (x/2)·D(x); stated for even "
        "x >= 6 under the even-number two-prime hypothesis",
    )
)
_register(
    _ClaimSpec(
        claim_id="thm9.1-divisor-type2",
        kind_fn=lambda s: FunctionKind.divisor(2),
        correlation="type2",
        bound_fn=lambda x, D, s: D * x * math.log(x) ** 2 / 2.0,
        notes="divisor representation sum vs D·x·log²x/2",
    )
)
_register(
    _ClaimSpec(
        claim_id="thm9.2-phi-type2",
        kind_fn=lambda s: EULER_PHI,
        correlation="type2",
        bound_fn=lambda x, D, s: D * (9.0 / (2.0 * math.pi**4)) * x**3,
        notes="totient representation sum vs D·(9/2π⁴)·x³",
    )
)
_register(
    _ClaimSpec(
        claim_id="thm9.3-divisor-l-type2",
        kind_fn=lambda s: FunctionKind.divisor(s.divisor_order),
        correlation="type2",
        bound_fn=lambda x, D, s: D
        * _tower_factor(s.divisor_order)
        * x
        * math.log(x) ** (2 * (s.divisor_order - 1)),
        notes="divisor-tower representation sum vs the stated constant; see "
        "the shifted-tower claim for the constant caveat at order >= 3",
    )
)
_register(
    _ClaimSpec(
        claim_id="thm7.3-master-type2",
        kind_fn=lambda s: MASTER_UPSILON,
        correlation="type2",
        bound_fn=lambda x, D, s: (x / 2.0) * D * _loglog(x) ** 2,
        notes="semiprime-log representation sum vs (x/2)·D·(log log x)²",
    )
)

#: Catalogued claim identifiers, in report order.
ALL_CLAIMS: tuple[str, ...] = tuple(_CLAIMS)


def evaluate_claim(
    claim_id: str, grid: Sequence[int], settings: ClaimSettings = ClaimSettings()
) -> ClaimReport:
    """Score one catalogued bound over an x-grid.

    For bounds with a free constant the measured value (c_min for shifted
    claims, d_of_x for representation claims) is substituted pointwise, so
    the verdict tracks whether the claimed asymptotic *shape* matches the
    computed correlation.  Verdicts: ``consistent`` when the inequality
    holds within ``settings.slack``, ``violated`` when it fails, and
    ``vacuous`` when the claim's own hypothesis fails at that x.
    """
    return evaluate_claims([claim_id], grid, settings)[0]


def _shift(spec: _ClaimSpec, settings: ClaimSettings) -> int:
    return spec.shift_fn(settings) if spec.correlation == "type1" else 0


def _score(
    spec: _ClaimSpec,
    table: FunctionTable,
    form: Callable[[int], int | float],
    grid: tuple[int, ...],
    settings: ClaimSettings,
) -> ClaimReport:
    """Score one claim over the grid from a table of its kind; ``form(x)``
    is the table's bilinear form at x."""
    shift = _shift(spec, settings)
    computed: list[float] = []
    bound: list[float] = []
    constant: list[float | None] = []
    verdicts: list[str] = []
    for x in grid:
        if spec.correlation == "type1":
            value = type1(table, x, shift).value
        else:
            value = type2(table, x).value
        computed.append(float(value))

        if (spec.even_x_only and x % 2 != 0) or (spec.uses_constant and value <= 0):
            constant.append(None)
            bound.append(float("nan"))
            verdicts.append("vacuous")
            continue

        if not spec.uses_constant:
            const = float("nan")
        elif spec.correlation == "type1":
            const = float(_c_ratio(table, x, shift, value, form(x)))
        else:
            const = float(_share(table, x, x * value, form(x)))
        constant.append(const if spec.uses_constant else None)

        b = spec.bound_fn(float(x), const, settings)
        bound.append(b)
        if spec.direction == "lower":
            ok = float(value) >= b * (1.0 - settings.slack)
        else:
            ok = abs(float(value)) <= b * (1.0 + settings.slack)
        verdicts.append("consistent" if ok else "violated")

    return ClaimReport(
        claim=spec.claim_id,
        grid=grid,
        computed=tuple(computed),
        bound=tuple(bound),
        constant=tuple(constant),
        verdicts=tuple(verdicts),
        notes=spec.notes,
    )


def _score_kind(
    kind: FunctionKind,
    specs: Sequence[_ClaimSpec],
    grid: tuple[int, ...],
    settings: ClaimSettings,
) -> list[ClaimReport]:
    """Score claims of one kind from one table, sieved at max(grid) with the
    largest shift they read; they share one bilinear form per x."""
    headroom = max(_shift(spec, settings) for spec in specs)
    table = build_table(kind, max(grid), shift_headroom=headroom)
    form = functools.cache(functools.partial(bilinear_rhs, table))
    return [_score(spec, table, form, grid, settings) for spec in specs]


def _cpu_count() -> int:
    """CPUs this process may run on (``taskset`` narrows it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def evaluate_claims(
    claim_ids: Sequence[str],
    grid: Sequence[int],
    settings: ClaimSettings = ClaimSettings(),
) -> list[ClaimReport]:
    """Evaluate several claims; order follows the input list.

    Claims are grouped by function kind, and each kind is one
    :func:`_score_kind` task: its table is sieved once and shared, with each
    x's bilinear form, by all of the kind's claims.  A value at n does not
    depend on the table's span, so every report equals
    :func:`evaluate_claim` of that id alone.  The tasks run on one thread
    each, up to the CPUs the process may use; outputs do not depend on the
    number of threads.
    """
    specs = []
    for cid in claim_ids:
        spec = _CLAIMS.get(cid)
        if spec is None:
            known = ", ".join(ALL_CLAIMS)
            raise UnknownClaim(f"unknown claim {cid!r}; known claims: {known}")
        specs.append(spec)
    grid = tuple(int(x) for x in grid)
    if not grid:
        raise ValueError("x-grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"x-grid must be strictly increasing, got {grid}")
    if grid[0] < 3:
        raise ValueError("x-grid entries must be >= 3")

    by_kind: dict[FunctionKind, list[_ClaimSpec]] = {}
    for spec in specs:
        by_kind.setdefault(spec.kind_fn(settings), []).append(spec)
    if not by_kind:
        return []
    # Imported here so that runs which score no claims never load it.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(len(by_kind), _cpu_count())) as pool:
        scored = pool.map(
            _score_kind, by_kind, by_kind.values(), repeat(grid), repeat(settings)
        )
        reports = {r.claim: r for kind_reports in scored for r in kind_reports}
    return [reports[spec.claim_id] for spec in specs]
