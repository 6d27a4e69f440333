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

``evaluate_claim`` then scores each catalogued bound over an x-grid and
reports per-point verdicts: ``consistent``, ``violated``, or ``vacuous``
when the statement's own positivity hypothesis fails.  A verdict is a
desk-scale observation, never a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .correlation import type1, type2
from .errors import DegenerateSum, UnknownClaim, ZeroCorrelation
from .identity import bilinear_rhs
from .tables import FunctionKind, FunctionTable, build_table


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
    c_max: Fraction | float
    local_density: Fraction | float
    d_ratio: Fraction | float | None = None


def c_min(table: FunctionTable, x: int, l: int) -> Fraction | float:
    """Smallest admissible C at this x: bilinear(x) / (x · type1(x, l)).

    The shifted-correlation lower bound  type1 >= bilinear / (C·x)  holds
    exactly at C = c_min and for every larger C.  Requires a positive
    correlation, which is the bound's own hypothesis.
    """
    t1 = type1(table, x, l).value
    if t1 <= 0:
        raise ZeroCorrelation(
            f"{table.kind.label}: correlation at x={x}, shift={l} is {t1}; "
            "the positivity hypothesis fails"
        )
    b = bilinear_rhs(table, x)
    if table.is_exact:
        return Fraction(b, x * t1)
    return b / (x * t1)


def c_max(table: FunctionTable, x: int, l: int) -> Fraction | float:
    """Largest admissible C for the inverted (upper-bound) reading:
    type1 < bilinear / (C·x) for every C below this value.

    Numerically identical to :func:`c_min`; the two names exist because the
    lower- and upper-bound statements pin the constant from opposite sides,
    and reports keep separate columns for the two interpretations.
    """
    return c_min(table, x, l)


def local_density(table: FunctionTable, x: int, l: int) -> Fraction | float:
    """Share of the bilinear form carried by one shift: type1 / bilinear.

    Satisfies c_min · local_density · x = 1 exactly wherever both sides are
    defined.
    """
    b = bilinear_rhs(table, x)
    if b == 0:
        raise DegenerateSum(
            f"{table.kind.label}: bilinear form vanishes at x={x}"
        )
    t1 = type1(table, x, l).value
    if table.is_exact:
        return Fraction(t1, b)
    return t1 / b


def d_of_x(table: FunctionTable, x: int) -> Fraction | float:
    """Type-2 share scaled to [0, x]:  x · type2(x) / bilinear(x).

    Complements the off-diagonal split exactly: d_of_x/x plus the
    off-diagonal ratio equals 1.
    """
    b = bilinear_rhs(table, x)
    if b == 0:
        raise DegenerateSum(
            f"{table.kind.label}: bilinear form vanishes at x={x}"
        )
    t2 = type2(table, x).value
    if table.is_exact:
        return Fraction(x * t2, b)
    return x * t2 / b


def density_estimate(table: FunctionTable, x: int, l: int) -> DensityEstimate:
    """Bundle c_min, c_max, local_density, and (for x >= 2) d_ratio."""
    c = c_min(table, x, l)
    dens = local_density(table, x, l)
    d_ratio = None
    if x >= 2:
        d_ratio = d_of_x(table, x) / x
    return DensityEstimate(
        kind=table.kind,
        x=x,
        shift=l,
        c_min=c,
        c_max=c,
        local_density=dens,
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
        kind_fn=lambda s: FunctionKind.von_mangoldt(),
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
        kind_fn=lambda s: FunctionKind.euler_phi(),
        correlation="type1",
        bound_fn=lambda x, C, s: (9.0 / (2.0 * math.pi**4)) * x**3 / C,
        notes="totient correlation vs (9/2π⁴)·x³/C",
    )
)
_register(
    _ClaimSpec(
        claim_id="cor6.4-musq",
        kind_fn=lambda s: FunctionKind.mu_squared(),
        correlation="type1",
        bound_fn=lambda x, C, s: (18.0 / math.pi**4) * x / C,
        notes="squarefree-indicator correlation vs (18/π⁴)·x/C",
    )
)
_register(
    _ClaimSpec(
        claim_id="thm7.2-master",
        kind_fn=lambda s: FunctionKind.master_upsilon(),
        correlation="type1",
        bound_fn=lambda x, C, s: x * _loglog(x) ** 2 / (2.0 * C),
        notes="semiprime-log correlation vs (x/2C)·(log log x)²",
    )
)
_register(
    _ClaimSpec(
        claim_id="thm5.2-liouville",
        kind_fn=lambda s: FunctionKind.liouville(),
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
        kind_fn=lambda s: FunctionKind.von_mangoldt(),
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
        kind_fn=lambda s: FunctionKind.euler_phi(),
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
        kind_fn=lambda s: FunctionKind.master_upsilon(),
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
    spec = _CLAIMS.get(claim_id)
    if spec is None:
        known = ", ".join(ALL_CLAIMS)
        raise UnknownClaim(f"unknown claim {claim_id!r}; known claims: {known}")
    grid = tuple(int(x) for x in grid)
    if not grid:
        raise ValueError("x-grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"x-grid must be strictly increasing, got {grid}")
    if grid[0] < 3:
        raise ValueError("x-grid entries must be >= 3")

    kind = spec.kind_fn(settings)
    shift = spec.shift_fn(settings) if spec.correlation == "type1" else 0
    table = build_table(kind, max(grid), shift_headroom=shift)

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

        if spec.even_x_only and x % 2 != 0:
            constant.append(None)
            bound.append(float("nan"))
            verdicts.append("vacuous")
            continue

        if spec.uses_constant:
            if spec.correlation == "type1":
                if value <= 0:
                    constant.append(None)
                    bound.append(float("nan"))
                    verdicts.append("vacuous")
                    continue
                const = float(c_min(table, x, shift))
            else:
                if value <= 0:
                    constant.append(None)
                    bound.append(float("nan"))
                    verdicts.append("vacuous")
                    continue
                const = float(d_of_x(table, x))
            constant.append(const)
        else:
            const = float("nan")
            constant.append(None)

        b = spec.bound_fn(float(x), const, settings)
        bound.append(b)
        if spec.direction == "lower":
            ok = float(value) >= b * (1.0 - settings.slack)
        else:
            ok = abs(float(value)) <= b * (1.0 + settings.slack)
        verdicts.append("consistent" if ok else "violated")

    return ClaimReport(
        claim=claim_id,
        grid=grid,
        computed=tuple(computed),
        bound=tuple(bound),
        constant=tuple(constant),
        verdicts=tuple(verdicts),
        notes=spec.notes,
    )


def evaluate_claims(
    claim_ids: Sequence[str],
    grid: Sequence[int],
    settings: ClaimSettings = ClaimSettings(),
    threads: int = 1,
) -> list[ClaimReport]:
    """Evaluate several claims; order follows the input list.

    Claims are independent, so with ``threads`` > 1 they run concurrently;
    outputs are identical to the serial run.
    """
    ids = list(claim_ids)
    for cid in ids:
        if cid not in _CLAIMS:
            known = ", ".join(ALL_CLAIMS)
            raise UnknownClaim(f"unknown claim {cid!r}; known claims: {known}")
    if threads > 1 and len(ids) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda c: evaluate_claim(c, grid, settings), ids))
    return [evaluate_claim(c, grid, settings) for c in ids]
