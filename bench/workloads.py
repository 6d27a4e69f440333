"""The benchmark's workloads: set-up, one timed iteration, and verification.

Each workload exposes

* ``setup()``   work outside the timed phase (repeated; the median is set-up time)
* ``run()``     one timed iteration; returns a handle
* ``collect()`` turns the handle into comparable outputs, outside the timer
* ``verify()``  independent correctness checks on one iteration's outputs
* ``counts()``  exact per-run counts read from the outputs
* ``same()``    whether two iterations' outputs agree (byte for byte where
                the program writes files)
* ``targets``   the corrlab functions the traced run wraps

``toy=True`` shrinks every size so the benchmark's own tests run in seconds;
the verification rules are the same at both sizes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from corrlab import cli, constants, correlation, identity, minoverlap, tables
from spans import Target

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Float cells of the claims outputs may differ from the reference by this
#: relative amount; integer-valued cells, verdicts and labels must match.
FLOAT_RTOL = 1e-12

#: Float dot products are np.dot over 4096-term blocks, so a sum of positive
#: terms carries at most ~4096 * 2**-53 ≈ 4.5e-13 relative error; the
#: correctly rounded fsum route must agree well within this.
DOT_RTOL = 1e-11

#: Relative tolerance for floating identity routes (identity.DEFAULT_TOLERANCE).
IDENTITY_RTOL = 1e-9

#: Kinds the claims catalogue sieves, as table labels.
BUILD_KINDS = (
    "vonmangoldt",
    "divisor2",
    "divisor3",
    "eulerphi",
    "musquared",
    "masterupsilon",
    "liouville",
)

#: Claim ids of the catalogue when the benchmark was defined.
CLAIM_IDS = (
    "thm3.1-twin",
    "cor6.1-divisor",
    "cor6.2-divisor-l",
    "cor6.3-phi",
    "cor6.4-musq",
    "thm7.2-master",
    "thm5.2-liouville",
    "thm8.1-goldbach",
    "thm9.1-divisor-type2",
    "thm9.2-phi-type2",
    "thm9.3-divisor-l-type2",
    "thm7.3-master-type2",
)

#: The three accumulation paths: float compensated (Λ), int64 fast path
#: (μ²), digit split (φ, whose products overflow int64 at 10⁷).
SUM_KINDS = (tables.VON_MANGOLDT, tables.MU_SQUARED, tables.EULER_PHI)

#: Shift headroom of the sums tables; shifts are drawn from the even 2..64.
SUM_HEADROOM = 64

#: exact_Mn optima recorded when the benchmark was defined.
EXACT_OPTIMA = {10: 3, 20: 5}


@dataclass(frozen=True)
class Check:
    """One verification: what was checked, whether it held, and why not."""

    name: str
    ok: bool
    detail: str = ""


def _agree(got, want, exact: bool, rtol: float) -> bool:
    if exact:
        return got == want
    return abs(got - want) <= rtol * max(abs(got), abs(want), 1e-300)


# -- span attributes ----------------------------------------------------------


def _build_attrs(kind, limit, shift_headroom=0, **_):
    entries = limit + shift_headroom
    return {"key": kind.label, "entries": entries, "bytes": 8 * entries}


def _table_key(table, *_, **__):
    return {"key": table.kind.label}


def _type1_attrs(table, x, l):
    # Each term reads f(n) and f(n+l): two 8-byte values.
    return {"key": table.kind.label, "bytes": 16 * x}


def _heuristic_attrs(n, budget=minoverlap.DEFAULT_BUDGET, seed=0):
    return {"moves": budget}


# -- claims-default -----------------------------------------------------------

DEFAULT_GRID = (1000, 10000, 100000, 1000000)
TOY_GRID = (1000, 10000)


@dataclass(frozen=True)
class ClaimsOutput:
    rc: int
    files: dict  # file name -> bytes


def _csv_rows(data: bytes) -> list[list[str]]:
    return [line.split(",") for line in data.decode().splitlines() if line]


def _cell_matches(want: str, got: str) -> bool:
    if want == got:
        return True
    try:
        int(want)
        return False  # integer-valued cells must match exactly
    except ValueError:
        pass
    try:
        w, g = float(want), float(got)
    except ValueError:
        return False  # verdicts and labels must match exactly
    return math.isfinite(w) and abs(w - g) <= FLOAT_RTOL * abs(w)


def verify_claims_csv(data: bytes | None, grid) -> list[Check]:
    """claims.csv rows against the reference rows for the x values in grid."""
    ref = _csv_rows((REFERENCE_DIR / "claims.csv").read_bytes())
    if data is None:
        return [Check("claims.csv written", False)]
    got = _csv_rows(data)
    want = [row for row in ref[1:] if int(row[1]) in grid]
    checks = [
        Check("claims.csv header", got[:1] == ref[:1], str(got[:1])),
        Check(
            "claims.csv row count",
            len(got) - 1 == len(want),
            f"{len(got) - 1} rows, expected {len(want)}",
        ),
    ]
    for w, g in zip(want, got[1:]):
        ok = len(w) == len(g) and all(map(_cell_matches, w, g))
        checks.append(Check(f"claims.csv {w[0]} x={w[1]}", ok, f"{g} != {w}"))
    return checks


def _restrict_report(report: dict, grid) -> dict:
    """The reference report as it reads when run on a sub-grid."""
    rows = report["tables"]["claims"]["rows"]
    report["tables"]["claims"]["rows"] = [r for r in rows if r[1] in grid]
    for claim in report["claims"]:
        keep = [i for i, x in enumerate(claim["grid"]) if x in grid]
        for key in ("grid", "computed", "bound", "constant", "verdicts"):
            claim[key] = [claim[key][i] for i in keep]
    return report


def _json_diff(want, got, path: str = "$") -> list[str]:
    if isinstance(want, float) and type(got) in (int, float):
        if want == got or abs(want - got) <= FLOAT_RTOL * abs(want):
            return []
        return [path]
    if type(want) is not type(got):
        return [path]
    if isinstance(want, dict):
        if want.keys() != got.keys():
            return [path]
        return [d for k in want for d in _json_diff(want[k], got[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(want) != len(got):
            return [path]
        return [d for i, (w, g) in enumerate(zip(want, got)) for d in _json_diff(w, g, f"{path}[{i}]")]
    return [] if want == got else [path]


def verify_report_json(data: bytes | None, grid) -> Check:
    """report.json parses and matches the reference apart from meta.timestamp."""
    try:
        got = json.loads(data)
    except (TypeError, ValueError) as exc:
        return Check("report.json parses", False, str(exc))
    want = json.loads((REFERENCE_DIR / "report.json").read_text())
    ignored = {"timestamp"}
    if tuple(grid) != DEFAULT_GRID:
        _restrict_report(want, grid)
        ignored.add("config_digest")  # the digest covers the grid
    for doc in (want, got):
        if isinstance(doc, dict) and isinstance(doc.get("meta"), dict):
            for key in ignored:
                doc["meta"].pop(key, None)
    diffs = _json_diff(want, got)
    return Check("report.json matches reference", not diffs, ", ".join(diffs[:5]))


def _without_timestamp(files: dict) -> dict:
    out = dict(files)
    if "report.json" in out:
        try:
            doc = json.loads(out["report.json"])
            doc["meta"]["timestamp"] = None
            out["report.json"] = json.dumps(doc, sort_keys=True)
        except (ValueError, KeyError, TypeError):
            pass
    return out


class ClaimsDefault:
    """``corrlab claims`` with CLI defaults, in-process; the seed is unused."""

    name = "claims-default"
    targets = (
        Target("corrlab.tables", "build_table", attrs=_build_attrs),
        Target(
            "corrlab.constants",
            "evaluate_claim",
            attrs=lambda claim_id, *_, **__: {"key": claim_id},
        ),
        Target("corrlab.report", "write_csv", span="report.write"),
        Target("corrlab.report", "write_json", span="report.write"),
        Target("corrlab.report", "write_svg", span="report.write"),
    )

    def __init__(self, seed: int, work_dir: Path, toy: bool = False):
        self.grid = TOY_GRID if toy else DEFAULT_GRID
        self.argv = ["claims"] + (["--grid", ",".join(map(str, TOY_GRID))] if toy else [])
        self.work_dir = work_dir
        # Largest table: f(1..max x) plus the twin claim's 2 slots of headroom.
        self.array_bytes = 8 * (max(self.grid) + 2)

    def setup(self) -> None:
        os.environ.pop("CORRLAB_THREADS", None)
        self.work_dir.mkdir(parents=True, exist_ok=True)

    def run(self):
        out_dir = tempfile.mkdtemp(prefix="claims-", dir=self.work_dir)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(self.argv + ["--out-dir", out_dir])
        return rc, Path(out_dir)

    def collect(self, handle) -> ClaimsOutput:
        rc, out_dir = handle
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        shutil.rmtree(out_dir)
        return ClaimsOutput(rc, files)

    def verify(self, out: ClaimsOutput) -> list[Check]:
        return [
            Check("claims exit code", out.rc == 0, f"exit code {out.rc}"),
            *verify_claims_csv(out.files.get("claims.csv"), self.grid),
            verify_report_json(out.files.get("report.json"), self.grid),
        ]

    def counts(self, out: ClaimsOutput) -> dict:
        return {}

    def same(self, a: ClaimsOutput, b: ClaimsOutput) -> bool:
        return a.rc == b.rc and _without_timestamp(a.files) == _without_timestamp(b.files)


# -- sums-1e7 -----------------------------------------------------------------


@dataclass(frozen=True)
class KindSums:
    prefix_total: int | float
    type1: tuple
    type2: tuple
    bilinear: int | float
    bilinear_prefix: int | float
    density: constants.DensityEstimate
    identity: identity.IdentityCheckResult


#: Elements per chunk of the independent routes, which hold one Python object
#: per element; chunking keeps their memory small next to the tables.
_CHUNK = 1 << 20


def _chunks(a: np.ndarray, b: np.ndarray):
    return ((a[i : i + _CHUNK], b[i : i + _CHUNK]) for i in range(0, a.size, _CHUNK))


def _independent_dot(a: np.ndarray, b: np.ndarray, exact: bool):
    """Dot product by a route that shares no code with corrlab's kernels:
    Python-int arithmetic on object arrays, or a correctly rounded fsum."""
    if exact:
        return sum(int(np.dot(x.astype(object), y.astype(object))) for x, y in _chunks(a, b))
    return math.fsum(v for x, y in _chunks(a, b) for v in (x * y).tolist())


def _independent_sum(a: np.ndarray, exact: bool):
    """Sum with Python ints, or a correctly rounded fsum."""
    chunks = (a[i : i + _CHUNK].tolist() for i in range(0, a.size, _CHUNK))
    if exact:
        return sum(sum(c) for c in chunks)
    return math.fsum(v for c in chunks for v in c)


class Sums:
    """Type-1/type-2/bilinear sums over Λ, μ² and φ tables sieved at set-up."""

    name = "sums-1e7"
    targets = (
        Target("corrlab.tables", "build_table", attrs=_build_attrs),
        Target("corrlab.tables", "prefix_sums", attrs=_table_key),
        Target("corrlab.correlation", "type1", attrs=_type1_attrs),
        Target("corrlab.correlation", "type2", attrs=_table_key),
        Target("corrlab.identity", "bilinear_rhs", attrs=_table_key),
        Target("corrlab.constants", "density_estimate", attrs=_table_key),
        Target("corrlab.identity", "identity_check", attrs=_table_key),
    )

    def __init__(self, seed: int, work_dir: Path, toy: bool = False):
        self.limit = 10**5 if toy else 10**7
        self.identity_x = 10**3 if toy else 10**4
        rng = random.Random(seed)
        self.shifts = rng.sample(range(2, SUM_HEADROOM + 1, 2), 6)
        top = self.limit - self.limit // 100
        self.type2_x = rng.sample(range(top + top % 2, self.limit + 1, 2), 3)
        # Which type-1 and type-2 result of each kind verify() recomputes.
        self.sample = {k.label: (rng.randrange(6), rng.randrange(3)) for k in SUM_KINDS}
        self.array_bytes = 8 * (self.limit + SUM_HEADROOM)
        self.tables: dict = {}

    def setup(self) -> None:
        self.tables = {}  # drop the previous set before sieving the next
        self.tables = {
            k.label: tables.build_table(k, self.limit, SUM_HEADROOM) for k in SUM_KINDS
        }

    def run(self) -> dict:
        x = self.limit
        out = {}
        for label, table in self.tables.items():
            ps = tables.prefix_sums(table)
            out[label] = KindSums(
                prefix_total=ps.s(x),
                type1=tuple(correlation.type1_sweep(table, x, self.shifts)),
                type2=tuple(correlation.type2(table, x2) for x2 in self.type2_x),
                bilinear=identity.bilinear_rhs(table, x),
                bilinear_prefix=identity.bilinear_rhs(table, x, ps),
                density=constants.density_estimate(table, x, self.shifts[0]),
                identity=identity.identity_check(table, self.identity_x),
            )
        return out

    def collect(self, handle):
        return handle

    def verify(self, out: dict) -> list[Check]:
        checks = []
        x = self.limit
        for kind in SUM_KINDS:
            label = kind.label
            r = out[label]
            table = self.tables[label]
            vals = table.values
            exact = table.is_exact

            total = _independent_sum(vals[:x], exact)
            checks.append(
                Check(
                    f"{label} prefix_sums S(x) = sum of f(1..x)",
                    _agree(r.prefix_total, total, exact, DOT_RTOL),
                    f"{r.prefix_total} vs {total}",
                )
            )

            closed = identity.pair_sum_closed_form(table, x)
            checks.append(
                Check(
                    f"{label} bilinear_rhs = pair_sum_closed_form",
                    _agree(r.bilinear, closed, exact, IDENTITY_RTOL),
                    f"{r.bilinear} vs {closed}",
                )
            )
            checks.append(
                Check(
                    f"{label} bilinear_rhs with prefix sums = without",
                    _agree(r.bilinear_prefix, r.bilinear, exact, IDENTITY_RTOL),
                    f"{r.bilinear_prefix} vs {r.bilinear}",
                )
            )

            i1, i2 = self.sample[label]
            l = self.shifts[i1]
            t1 = r.type1[i1]
            a, b = vals[:x], vals[l : l + x]
            want = _independent_dot(a, b, exact)
            terms = int(np.count_nonzero(a * b))
            checks.append(
                Check(
                    f"{label} type1 x={x} l={l} by an independent route",
                    (t1.x, t1.shift, t1.terms) == (x, l, terms)
                    and _agree(t1.value, want, exact, DOT_RTOL),
                    f"{t1.value} ({t1.terms} terms) vs {want} ({terms} terms)",
                )
            )

            x2 = self.type2_x[i2]
            half = (x2 - 1) // 2
            t2 = r.type2[i2]
            a, b = vals[:half], vals[x2 - half - 1 : x2 - 1][::-1]
            want = _independent_dot(a, b, exact)
            terms = int(np.count_nonzero(a * b))
            mid = vals[x2 // 2 - 1]
            checks.append(
                Check(
                    f"{label} type2 x={x2} by an independent route",
                    (t2.x, t2.terms) == (x2, terms)
                    and _agree(t2.value, want, exact, DOT_RTOL)
                    and _agree(t2.middle_term, mid * mid, exact, DOT_RTOL),
                    f"{t2.value} ({t2.terms} terms) vs {want} ({terms} terms)",
                )
            )

            # c_min = bilinear / (x · type1) and local_density = type1 / bilinear,
            # from sums verified above.
            t = r.type1[0].value
            d = r.density
            if exact:
                ok = d.c_min == Fraction(r.bilinear, x * t) and d.local_density == Fraction(
                    t, r.bilinear
                )
            else:
                ok = _agree(d.c_min, r.bilinear / (x * t), False, IDENTITY_RTOL) and _agree(
                    d.local_density, t / r.bilinear, False, IDENTITY_RTOL
                )
            checks.append(Check(f"{label} density_estimate from the verified sums", ok, str(d)))
            checks.append(
                Check(
                    f"{label} identity_check x={self.identity_x}",
                    r.identity.equal,
                    str(r.identity),
                )
            )
        return checks

    def counts(self, out: dict) -> dict:
        return {}

    def same(self, a: dict, b: dict) -> bool:
        return a == b


# -- overlap-200 --------------------------------------------------------------


def _witness_checks(label: str, result, n: int) -> list[Check]:
    """The witness splits 1..n into halves, and its max M_k is the reported M."""
    bits = result.witness.bits
    valid = len(bits) == n and set(bits) <= {"0", "1"} and bits.count("1") == n // 2
    checks = [Check(f"{label} witness is a half-split of 1..{n}", valid, bits)]
    if not valid:
        return checks + [Check(f"{label} M recomputed from the witness", False, "no valid witness")]
    a = np.array([c == "1" for c in bits], dtype=np.int64)
    # Entry k of the full correlation of the two 0/1 indicator vectors counts
    # the pairs (i in A, j in B) with a fixed difference i - j.
    m = int(np.correlate(a, 1 - a, "full").max())
    return checks + [
        Check(f"{label} M recomputed from the witness", m == result.m, f"{m} vs reported {result.m}")
    ]


class Overlap:
    """heuristic_Mn(200) at the default budget with the workload seed, then exact_Mn(20)."""

    name = "overlap-200"
    targets = (
        Target("corrlab.minoverlap", "heuristic_Mn", attrs=_heuristic_attrs),
        Target("corrlab.minoverlap", "exact_Mn"),
    )

    def __init__(self, seed: int, work_dir: Path, toy: bool = False):
        self.seed = seed
        self.n = 20 if toy else 200
        self.budget = 2000 if toy else minoverlap.DEFAULT_BUDGET
        self.exact_n = 10 if toy else 20
        self.array_bytes = 8 * (2 * self.n + 1)  # the difference histogram

    def setup(self) -> None:
        pass

    def run(self):
        return (
            minoverlap.heuristic_Mn(self.n, self.budget, self.seed),
            minoverlap.exact_Mn(self.exact_n),
        )

    def collect(self, handle):
        return handle

    def verify(self, out) -> list[Check]:
        heuristic, exact = out
        return [
            *_witness_checks(f"heuristic_Mn({self.n})", heuristic, self.n),
            *_witness_checks(f"exact_Mn({self.exact_n})", exact, self.exact_n),
            Check(
                f"exact_Mn({self.exact_n}) = recorded optimum",
                exact.m == EXACT_OPTIMA[self.exact_n],
                f"{exact.m} vs {EXACT_OPTIMA[self.exact_n]}",
            ),
        ]

    def counts(self, out) -> dict:
        return {"overlap_M": out[0].m}

    def same(self, a, b) -> bool:
        return all(
            (x.m, x.witness.bits) == (y.m, y.witness.bits) for x, y in zip(a, b)
        )


WORKLOADS = {w.name: w for w in (ClaimsDefault, Sums, Overlap)}
