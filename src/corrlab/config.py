"""Experiment configuration, and the one check of each claim input that
the CLI, config files and the library share (:class:`ClaimSettings`,
:func:`check_grid`, :func:`_check_shifts`).

The on-disk form is deliberately trivial — one ``key=value`` per line,
``#`` comments, lists comma-separated — so configs diff cleanly and round-
trip losslessly.  The digest leaves out the output directory, which changes
only *where* results are written.  No key sets a thread count: the claims
step sizes its own pool, and outputs do not depend on it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace
from typing import Sequence

from .errors import ConfigError

#: Keys that do not affect computed results and are excluded from the digest.
EXECUTION_KEYS = frozenset({"out_dir"})


def _check_shifts(shifts: Sequence[int]) -> None:
    """Refuse the first shift below 1; callers check before they sieve."""
    for l in shifts:
        if l < 1:
            raise ConfigError(f"shift must be >= 1, got {l}")


def check_grid(grid: Sequence[int]) -> tuple[int, ...]:
    """The x-grid as a tuple of ints, refused unless it is non-empty,
    strictly increasing and starts at 3 or more."""
    grid = tuple(int(x) for x in grid)
    if not grid:
        raise ConfigError("x_grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"x_grid must be strictly increasing: {grid}")
    if grid[0] < 3:
        raise ConfigError("x_grid entries must be >= 3")
    return grid


@dataclass(frozen=True)
class ClaimSettings:
    """Free parameters the catalogued bounds leave open, checked when made.

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

    def __post_init__(self) -> None:
        _check_shifts([self.shift])
        for key in ("slack", "c"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite: {getattr(self, key)}")
        if self.slack < 0:
            raise ConfigError(f"slack must be non-negative: {self.slack}")
        if not 0 < self.epsilon < 1:
            raise ConfigError(f"epsilon must lie in (0, 1): {self.epsilon}")
        if self.c <= 0:
            raise ConfigError(f"c must be positive: {self.c}")
        if self.divisor_order < 2:
            raise ConfigError(f"divisor_order must be >= 2: {self.divisor_order}")


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of a reproducible run."""

    kinds: tuple[str, ...] = ("vonmangoldt",)
    x_grid: tuple[int, ...] = (1_000, 10_000, 100_000, 1_000_000)
    shifts: tuple[int, ...] = (2,)
    # The payload is the sieve's dtype: integer kinds exact, Λ and Υ
    # floating.  payload_mode accepts only auto and stays only so
    # config_digest keeps its value (bench/reference/report.json pins the
    # default digest).
    payload_mode: str = "auto"
    oracle_cap: int = 100_000
    tolerance: float = 1e-9
    slack: float = ClaimSettings.slack
    epsilon: float = ClaimSettings.epsilon
    c: float = ClaimSettings.c
    divisor_order: int = ClaimSettings.divisor_order
    claims: tuple[str, ...] = ()  # empty selects the full catalogue
    seed: int = 0
    budget: int = 100_000
    cap: int = 24
    # Nothing reads segment_size; the key stays only so config_digest keeps
    # its value (bench/reference/report.json pins the default digest).
    segment_size: int = 0
    out_dir: str = "out"

    def validate(self) -> "ExperimentConfig":
        check_grid(self.x_grid)
        if not self.shifts:
            raise ConfigError("shifts must be non-empty")
        _check_shifts(self.shifts)
        if not math.isfinite(self.tolerance):
            raise ConfigError(f"tolerance must be finite: {self.tolerance}")
        if self.tolerance <= 0:
            raise ConfigError(f"tolerance must be positive: {self.tolerance}")
        self.claim_settings()
        if self.oracle_cap < 1 or self.budget < 1:
            raise ConfigError("oracle_cap and budget must be positive")
        if self.payload_mode != "auto":
            raise ConfigError(f"payload_mode must be auto, got {self.payload_mode}")
        if self.segment_size < 0 or self.seed < 0:
            raise ConfigError("segment_size and seed must be >= 0")
        return self

    def claim_settings(self) -> ClaimSettings:
        """The checked claim parameters; l0 is the first of the (non-empty) shifts."""
        return ClaimSettings(
            shift=self.shifts[0],
            divisor_order=self.divisor_order,
            epsilon=self.epsilon,
            c=self.c,
            slack=self.slack,
        )

    # -- serialization -----------------------------------------------------
    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                rendered = ",".join(str(e) for e in v)
            else:
                rendered = repr(v) if isinstance(v, float) else str(v)
            lines.append(f"{f.name}={rendered}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        spec = {f.name: f for f in fields(cls)}
        kwargs = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in spec:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            try:
                kwargs[key] = _coerce(value, spec[key].type)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad value for {key}: {exc}")
        return cls(**kwargs).validate()

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """Apply non-None overrides (flag values) and re-validate."""
        clean = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **clean).validate()

    def digest(self) -> str:
        """Stable hash of the result-affecting configuration."""
        lines = [
            line
            for line in self.to_text().splitlines()
            if line.split("=", 1)[0] not in EXECUTION_KEYS
        ]
        blob = "\n".join(lines).encode()
        return hashlib.sha256(blob).hexdigest()


def _coerce(value: str, annotation: str | type) -> object:
    """Parse a config value by its dataclass field annotation."""
    ann = annotation if isinstance(annotation, str) else annotation.__name__
    if ann.startswith("tuple[int"):
        return tuple(int(p) for p in value.split(",") if p != "") if value else ()
    if ann.startswith("tuple[str"):
        return tuple(p.strip() for p in value.split(",") if p.strip()) if value else ()
    if ann == "int":
        return int(value)
    if ann == "float":
        return float(value)
    return value
