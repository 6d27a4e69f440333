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
    # An int8 table through type-1 and type-2's reversed view.
    ["correlate", "--kind", "musquared", "--x", "100000", "--shift", "1,2",
     "--type2", "--out", "corr.csv"],
    ["constants", "--kind", "eulerphi", "--x", "100000", "--shift", "2",
     "--out", "const.csv"],
    ["constants", "--kind", "vonmangoldt", "--x", "100000", "--shift", "2",
     "--out", "const.csv"],
    # Two full float blocks of running sums plus one entry.
    ["constants", "--kind", "vonmangoldt", "--x", "8194", "--shift", "2"],
    # Float type-2 fields beyond Λ; then an empty type-2 sum, so d_of_x is 0.
    ["constants", "--kind", "masterupsilon", "--x", "100000", "--shift", "2"],
    ["constants", "--kind", "musquared", "--x", "2", "--shift", "1"],
    ["sieve", "--kind", "divisor3", "--limit", "2000", "--headroom", "2",
     "--out", "table.csv"],
    # Spans of 600064 cross the window edges at 2^18 and 2^19.
    ["sieve", "--kind", "eulerphi", "--limit", "600000", "--headroom", "64",
     "--out", "table.csv"],
    ["sieve", "--kind", "divisor3", "--limit", "600000", "--headroom", "64",
     "--out", "table.csv"],
    # Λ's compensated prefix sums print as sum=.
    ["sieve", "--kind", "vonmangoldt", "--limit", "600000", "--headroom", "64",
     "--out", "table.csv"],
    # Every other window filler crosses the same edges.
    ["sieve", "--kind", "musquared", "--limit", "600000", "--headroom", "64",
     "--out", "table.csv"],
    ["sieve", "--kind", "masterupsilon", "--limit", "600000", "--headroom", "64",
     "--out", "table.csv"],
    ["sieve", "--kind", "one", "--limit", "600000", "--headroom", "64",
     "--out", "table.csv"],
    # Every kind sieved narrower than int64 (int8, int16) is printed.
    ["sieve", "--kind", "liouville", "--limit", "600000", "--headroom", "64",
     "--out", "table.csv"],
    ["sieve", "--kind", "bigomega", "--limit", "600000", "--headroom", "64",
     "--out", "table.csv"],
    # d_17(2^19) = C(35, 16) passes 2^31 in a span that fits int32.
    ["sieve", "--kind", "divisor17", "--limit", "524288", "--headroom", "1",
     "--out", "table.csv"],
    # d_85 is the largest order whose values at 65536 fit int64; d_86's
    # pass it and are refused (exit 1 with one usage line).
    ["sieve", "--kind", "divisor85", "--limit", "65536", "--out", "table.csv"],
    ["sieve", "--kind", "divisor86", "--limit", "65536", "--out", "table.csv"],
    # The payload follows the kind: no --mode flag, exit 1 with one usage line.
    ["sieve", "--kind", "divisor", "--limit", "2000", "--headroom", "2",
     "--mode", "floating", "--out", "table.csv"],
    ["identity-check", "--kind", "eulerphi", "--x", "3000", "--exact"],
    ["identity-check", "--kind", "vonmangoldt", "--x", "3000"],
    ["identity-check", "--kind", "vonmangoldt", "--x", "3000", "--exact"],
    ["identity-check", "--kind", "masterupsilon", "--x", "5000"],
    # Over the oracle's cap: exit 2 with one BUDGET line.
    ["identity-check", "--kind", "eulerphi", "--x", "20000000"],
    ["minoverlap", "--n", "14", "--exact", "--out", "mo.csv"],
    # The exhaustive search at the benchmark's size and at the default cap.
    ["minoverlap", "--n", "20", "--exact", "--out", "mo.csv"],
    ["minoverlap", "--n", "24", "--exact"],
    ["minoverlap", "--n", "26", "--exact", "--cap", "26"],
    ["minoverlap", "--n", "28", "--exact", "--cap", "28"],
    ["minoverlap", "--n", "40", "--heuristic", "--budget", "5000", "--out", "mo.csv"],
    # Lanes widen from 7 bits at n = 118 to 8 at 120.
    ["minoverlap", "--n", "120", "--heuristic", "--budget", "5000", "--seed", "1",
     "--out", "mo.csv"],
    # The annealer at the default budget, and at n = 2, where nothing moves.
    # Seed 9 is a second trajectory, one that reaches M = 41.
    ["minoverlap", "--n", "200", "--heuristic", "--seed", "3", "--out", "mo.csv"],
    ["minoverlap", "--n", "200", "--heuristic", "--seed", "9", "--out", "mo.csv"],
    ["minoverlap", "--n", "2", "--heuristic"],
    # n = 4 draws every move's first index from a width of 1.
    ["minoverlap", "--n", "4", "--heuristic", "--seed", "1"],
    # Caps below any input: exit 1 with one usage line.
    ["identity-check", "--kind", "divisor", "--x", "10", "--oracle-cap", "-1"],
    ["minoverlap", "--n", "4", "--exact", "--cap", "-1"],
    # Integer kinds, exact, in the correlation sweep.
    ["report", "--config", "integer.cfg", "--grid", "1000,10000,100000",
     "--out-dir", "o"],
    # One table per kind: φ twice under two names, Ω swept with no claim,
    # and a sweep shift above every claim shift.
    ["report", "--config", "plan.cfg", "--grid", "1000,10000,100000",
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
    # A shift below 1 is refused before the sieve: exit 1 with one usage line.
    ["constants", "--kind", "eulerphi", "--x", "20000000", "--shift", "0"],
    # Usage errors: a bad grid, a bad config value, a missing config file.
    ["claims", "--grid", "1000,100", "--out-dir", "o"],
    # A non-finite slack: exit 1 with one usage line.
    ["claims", "--grid", "1000", "--slack", "nan", "--no-svg", "--out-dir", "o"],
    ["report", "--config", "bad.cfg", "--out-dir", "o"],
    ["report", "--config", "missing.cfg", "--out-dir", "o"],
    # An unknown kind (exit 1) and an unknown claim id (exit 2).
    ["report", "--config", "badkind.cfg", "--out-dir", "o"],
    ["report", "--config", "badclaim.cfg", "--out-dir", "o"],
    # Kinds no sieve builds, refused before any table is: a custom kind
    # (exit 2) and a divisor order whose values pass int64 (exit 1).
    ["report", "--config", "custom.cfg", "--out-dir", "o"],
    ["claims", "--divisor-order", "86", "--grid", "1000,65536", "--out-dir", "o"],
)

#: Files placed in each working directory before the run.
INPUTS = {
    "bad.cfg": "slack=-1\n",
    "badkind.cfg": "kinds=vonmangoldt,bogus\n",
    "badclaim.cfg": "claims=thm3.1-twin,nosuch\n",
    "custom.cfg": "kinds=custom:foo,eulerphi\n",
    "integer.cfg": "kinds=divisor,eulerphi\nshifts=1,2\n",
    "plan.cfg": "kinds=phi,eulerphi,bigomega\nshifts=1,6\n"
                "claims=thm3.1-twin,cor6.3-phi\n",
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
        exits = old["exit"].decode()
        if new["exit"] != old["exit"]:
            exits += f" -> {new['exit'].decode()}"
        print(f"{' '.join(argv)}: exit {exits}, {files} files, {status}")
        differences += len(bad)
    return 1 if differences else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
