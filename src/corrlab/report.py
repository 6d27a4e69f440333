"""Report assembly and emission: CSV tables, one JSON document, SVG charts.

Rendering is lossless and deterministic: integers print verbatim, floats
with 17 significant digits (enough to round-trip float64), and every file
is written atomically (temp file + rename) so readers never see a partial
artifact.  Two runs with the same config produce byte-identical files,
the timestamp metadata field aside.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from .constants import ClaimReport

#: Header of the correlation-table schema.
CORRELATION_HEADER = ("kind", "x", "shift", "value", "terms")

#: Header of the claim-table schema.
CLAIM_HEADER = ("claim", "x", "computed", "bound", "constant", "verdict")

#: Header of the overlap-table schema.
MINOVERLAP_HEADER = ("n", "method", "M", "witness", "bound", "bound_value", "ok")

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

#: Chart size in pixels, and ticks per axis.
_WIDTH, _HEIGHT, _TICKS = 800, 500, 5


@dataclass(frozen=True)
class ResultTable:
    """A named rectangular result set, ready for CSV emission."""

    name: str
    header: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.header):
                raise ValueError(
                    f"table {self.name}: row width {len(row)} != "
                    f"header width {len(self.header)}"
                )


@dataclass(frozen=True)
class ReportBundle:
    """Everything one run emits: metadata, result tables, claim reports."""

    meta: dict
    tables: tuple[ResultTable, ...]
    claims: tuple[ClaimReport, ...]


def make_meta(version: str, config_digest: str) -> dict:
    """Bundle metadata; the timestamp is the only run-varying field."""
    return {
        "artifact": "corrlab",
        "version": version,
        "config_digest": config_digest,
        "timestamp": _dt.datetime.now(_dt.timezone.utc).isoformat(),
    }


def format_cell(v) -> str:
    """Render one CSV cell: ints verbatim, floats at 17 significant digits."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        return format_cell(float(v))
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return f"{v:.17g}"
    return str(v)


def parse_cell(text: str):
    """Inverse of :func:`format_cell` for round-trip checks."""
    if text == "":
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def atomic_write(path: str | Path, data: str | bytes) -> None:
    """Write a file via temp-then-rename so readers never see partial data."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = data.encode() if isinstance(data, str) else data
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def render_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render rows to CSV text (cells contain no quoting-worthy characters)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def write_csv(path: str | Path, table: ResultTable) -> None:
    atomic_write(path, render_csv(table.header, table.rows))


def read_csv(path: str | Path, name: str = "") -> ResultTable:
    """Parse a CSV written by :func:`write_csv` back into a ResultTable."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln != ""]
    header = tuple(lines[0].split(","))
    rows = tuple(tuple(parse_cell(c) for c in ln.split(",")) for ln in lines[1:])
    return ResultTable(name=name or Path(path).stem, header=header, rows=rows)


def _claim_to_jsonable(claim: ClaimReport) -> dict:
    return {
        "claim": claim.claim,
        "grid": list(claim.grid),
        "computed": list(claim.computed),
        "bound": [None if math.isnan(b) else b for b in claim.bound],
        "constant": list(claim.constant),
        "verdicts": list(claim.verdicts),
        "notes": claim.notes,
    }


def bundle_to_jsonable(bundle: ReportBundle) -> dict:
    return {
        "meta": bundle.meta,
        "tables": {
            t.name: {
                "header": list(t.header),
                "rows": [
                    [float(c) if isinstance(c, Fraction) else c for c in row]
                    for row in t.rows
                ],
            }
            for t in bundle.tables
        },
        "claims": [_claim_to_jsonable(c) for c in bundle.claims],
    }


def render_json(bundle: ReportBundle) -> str:
    return json.dumps(bundle_to_jsonable(bundle), indent=2, sort_keys=True) + "\n"


def write_json(path: str | Path, bundle: ReportBundle) -> None:
    atomic_write(path, render_json(bundle))


def _axis(vals: Sequence[float], origin: float, extent: float):
    """One chart axis over ``vals``: the map from a value to its pixel, and
    the (pixel, label) pair of each tick.

    The axis is log10 when every value is positive, else linear.
    A zero range widens by 1 on each side.  The y axis passes origin
    ``height - margin`` and a negative extent, since pixels grow downward.
    """
    vals = [float(v) for v in vals]
    logged = all(v > 0 for v in vals)
    if logged:
        vals = [math.log10(v) for v in vals]
    lo, hi = min(vals), max(vals)
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0

    def at(t: float) -> float:
        return origin + (t - lo) / (hi - lo) * extent

    def to_px(v: float) -> float:
        return at(math.log10(v) if logged else v)

    ticks = [lo + (hi - lo) * i / (_TICKS - 1) for i in range(_TICKS)]
    return to_px, [(at(t), 10.0**t if logged else t) for t in ticks]


def render_line_chart(
    title: str, series: Sequence[tuple[str, Sequence[float], Sequence[float]]]
) -> str:
    """A standalone SVG 1.1 document with one polyline per series.

    Each axis is logarithmic when every coordinate on it is positive;
    otherwise it silently stays linear, which keeps the renderer total on
    arbitrary data.
    """
    width, height = _WIDTH, _HEIGHT
    margin = 64.0

    for label, xs, ys in series:
        if len(xs) != len(ys):
            raise ValueError(f"series {label!r}: x/y length mismatch")
    finite_x = [x for _, xs, _ in series for x in xs if math.isfinite(x)]
    finite_y = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    if not finite_x or not finite_y:
        finite_x, finite_y = [0.0, 1.0], [0.0, 1.0]
    px, x_ticks = _axis(finite_x, margin, width - 2 * margin)
    py, y_ticks = _axis(finite_y, height - margin, -(height - 2 * margin))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="#333" stroke-width="1"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="#333" stroke-width="1"/>',
    ]
    for x, label in x_ticks:
        parts.append(
            f'<line x1="{x:.2f}" y1="{height - margin}" x2="{x:.2f}" '
            f'y2="{height - margin + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{height - margin + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{label:.6g}</text>'
        )
    for y, label in y_ticks:
        parts.append(
            f'<line x1="{margin - 5}" y1="{y:.2f}" x2="{margin}" '
            f'y2="{y:.2f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label:.6g}</text>'
        )
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{px(x):.2f},{py(y):.2f}"
            for x, y in zip(xs, ys)
            if math.isfinite(float(x)) and math.isfinite(float(y))
        )
        if pts:
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.8"/>'
            )
        ly = margin + 16 * i
        parts.append(
            f'<rect x="{width - margin - 150}" y="{ly - 9}" width="12" '
            f'height="3" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{width - margin - 132}" y="{ly - 4}" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path: str | Path, svg_text: str) -> None:
    atomic_write(path, svg_text)
