"""Check that two corrlab source trees give byte-identical CLI output.

Usage:  python3 scripts/byte_identity.py OLD_SRC NEW_SRC

Each argument is a directory that holds the ``corrlab`` package, for example
the ``src`` of a ``git archive`` of the parent commit and this tree's
``src``.  Every invocation below runs once per tree, in its own empty
working directory with relative output paths.  Its exit code, stdout,
stderr and every file it writes are compared byte for byte; the one
exception is ``report.json``'s run timestamp, which is masked.  Exits 1 and
names each difference if any is found.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

INVOCATIONS = (
    ["claims", "--out-dir", "o"],
    ["report", "--grid", "1000,10000,100000", "--out-dir", "o"],
    ["correlate", "--kind", "vonmangoldt", "--x", "100000", "--shift", "2,4,6",
     "--type2", "--out", "corr.csv"],
    # An exact kind at an even x, so type-2's middle term is an integer.
    ["correlate", "--kind", "divisor", "--x", "100000", "--shift", "1,2",
     "--type2", "--out", "corr.csv"],
    ["constants", "--kind", "eulerphi", "--x", "100000", "--shift", "2",
     "--out", "const.csv"],
    ["constants", "--kind", "vonmangoldt", "--x", "100000", "--shift", "2",
     "--out", "const.csv"],
    ["sieve", "--kind", "divisor3", "--limit", "2000", "--headroom", "2",
     "--out", "table.csv"],
    # Spans of 600064 cross the factor pass's window edges at 2^18 and 2^19.
    ["sieve", "--kind", "eulerphi", "--limit", "600000", "--headroom", "64",
     "--out", "table.csv"],
    ["sieve", "--kind", "divisor3", "--limit", "600000", "--headroom", "64",
     "--out", "table.csv"],
    # The payload follows the kind: no --mode flag, exit 1 with one usage line.
    ["sieve", "--kind", "divisor", "--limit", "2000", "--headroom", "2",
     "--mode", "floating", "--out", "table.csv"],
    ["identity-check", "--kind", "eulerphi", "--x", "3000", "--exact"],
    ["identity-check", "--kind", "vonmangoldt", "--x", "3000"],
    ["identity-check", "--kind", "vonmangoldt", "--x", "3000", "--exact"],
    ["minoverlap", "--n", "14", "--exact", "--out", "mo.csv"],
    ["minoverlap", "--n", "40", "--heuristic", "--budget", "5000", "--out", "mo.csv"],
    # Integer kinds, exact, in the correlation sweep.
    ["report", "--config", "integer.cfg", "--grid", "1000,10000,100000",
     "--out-dir", "o"],
    # payload_mode accepts only auto: exit 1 with one usage line.
    ["report", "--config", "floating.cfg", "--grid", "1000,10000,100000",
     "--out-dir", "o"],
    ["report", "--config", "exact.cfg", "--grid", "1000,10000,100000",
     "--out-dir", "o"],
    # Odd x only: no row has a finite bound, so no SVG is written.
    ["claims", "--claims", "thm8.1-goldbach", "--grid", "1001,10001", "--out-dir", "o"],
    # The measured constants' refusals: a vanishing form, a zero correlation.
    ["constants", "--kind", "one", "--x", "1"],
    ["constants", "--kind", "liouville", "--x", "10", "--shift", "3"],
    # Usage errors: a bad grid, a bad config value, a missing config file.
    ["claims", "--grid", "1000,100", "--out-dir", "o"],
    ["report", "--config", "bad.cfg", "--out-dir", "o"],
    ["report", "--config", "missing.cfg", "--out-dir", "o"],
)

#: Files placed in each working directory before the run.
INPUTS = {
    "bad.cfg": "slack=-1\n",
    "integer.cfg": "kinds=divisor,eulerphi\nshifts=1,2\n",
    "floating.cfg": "kinds=divisor,eulerphi\nshifts=1,2\npayload_mode=floating\n",
    "exact.cfg": "kinds=divisor,eulerphi\nshifts=1,2\npayload_mode=exact\n",
}


def _mask(name: str, data: bytes) -> bytes:
    if name.endswith("report.json"):
        doc = json.loads(data)
        doc["meta"]["timestamp"] = None
        return json.dumps(doc, indent=2, sort_keys=True).encode()
    return data


def run(src: Path, argv: list[str]) -> dict[str, bytes]:
    """Exit code, streams and output files of one invocation, by name."""
    with tempfile.TemporaryDirectory() as work:
        for name, text in INPUTS.items():
            Path(work, name).write_text(text)
        env = dict(os.environ, PYTHONPATH=str(src.resolve()))
        proc = subprocess.run(
            [sys.executable, "-m", "corrlab.cli", *argv],
            cwd=work, env=env, capture_output=True,
        )
        got = {
            "exit": str(proc.returncode).encode(),
            "stdout": proc.stdout,
            "stderr": proc.stderr,
        }
        for path in sorted(Path(work).rglob("*")):
            name = str(path.relative_to(work))
            if path.is_file() and name not in INPUTS:
                got[name] = _mask(name, path.read_bytes())
        return got


def main(old_src: str, new_src: str) -> int:
    differences = 0
    for argv in INVOCATIONS:
        old = run(Path(old_src), argv)
        new = run(Path(new_src), argv)
        bad = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
        files = len(old) - 3
        status = "differ: " + ", ".join(bad) if bad else "identical"
        print(f"{' '.join(argv)}: exit {old['exit'].decode()}, {files} files, {status}")
        differences += len(bad)
    return 1 if differences else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
