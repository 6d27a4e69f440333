"""Read back the CSV files corrlab writes, for the tests' round-trip checks.

:func:`parse_cell` inverts :func:`corrlab.report.format_cell`, so a test can
check a written file cell by cell against the values that produced it.
"""

from __future__ import annotations

from pathlib import Path

from corrlab.report import ResultTable


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


def read_csv(path: str | Path, name: str = "") -> ResultTable:
    """Parse a CSV written by :func:`write_csv` back into a ResultTable."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln != ""]
    header = tuple(lines[0].split(","))
    rows = tuple(tuple(parse_cell(c) for c in ln.split(",")) for ln in lines[1:])
    return ResultTable(name=name or Path(path).stem, header=header, rows=rows)
