"""Acceptance gate: eight end-to-end criteria with pinned tolerances.

Each criterion prints exactly one PASS/FAIL line (bypassing pytest capture so
the verdicts always appear in the run log) and then asserts.  Runtime limits
that the criteria state numerically are asserted as part of the criterion.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from corrlab import (
    CONSTANT_ONE,
    EULER_PHI,
    LIOUVILLE,
    MASTER_UPSILON,
    MU_SQUARED,
    VON_MANGOLDT,
    FunctionKind,
    SequencePair,
    bilinear_rhs,
    build_table,
    density_estimate,
    difference_histogram,
    double_sum_lhs_oracle,
    exact_Mn,
    general_area_identity,
    heuristic_Mn,
    pair_sum_closed_form,
    prefix_sums,
    type1,
    type2,
)
from corrlab import constants
from corrlab.cli import main as cli_main
from corrlab.report import ResultTable, render_csv


def _announce(log: list[str], criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {verdict} — {detail}"
    log.append(line)
    print(line, flush=True)


def test_criterion_1_decomposition_identity_three_routes(acceptance_log):
    t0 = time.perf_counter()
    grid = (10, 100, 1000, 10_000)
    exact_kinds = (
        CONSTANT_ONE,
        FunctionKind.divisor(2),
        FunctionKind.divisor(3),
        EULER_PHI,
        MU_SQUARED,
        LIOUVILLE,
    )
    failures = []
    for kind in exact_kinds:
        table = build_table(kind, grid[-1])
        ps = prefix_sums(table)
        for x in grid:
            lhs = double_sum_lhs_oracle(table, x, oracle_cap=grid[-1])
            rhs = bilinear_rhs(table, x, ps)
            closed = pair_sum_closed_form(table, x)
            if not (lhs == rhs == closed):
                failures.append((kind.label, x, lhs, rhs, closed))
    for kind in (VON_MANGOLDT, MASTER_UPSILON):
        table = build_table(kind, grid[-1])
        ps = prefix_sums(table)
        for x in grid:
            lhs = double_sum_lhs_oracle(table, x, oracle_cap=grid[-1])
            rhs = bilinear_rhs(table, x, ps)
            closed = pair_sum_closed_form(table, x)
            scale = max(1.0, abs(lhs), abs(rhs), abs(closed))
            if max(abs(lhs - rhs), abs(rhs - closed), abs(lhs - closed)) > 1e-9 * scale:
                failures.append((kind.label, x, lhs, rhs, closed))
    elapsed = time.perf_counter() - t0
    ok = not failures
    _announce(
        acceptance_log,
        1,
        ok,
        f"three-route decomposition identity, 8 kinds x {grid}, "
        f"exact for integer kinds, rel<=1e-9 for real kinds ({elapsed:.1f}s)",
    )
    assert ok, f"route disagreement: {failures[:3]}"


def test_criterion_2_general_identity_random_pairs(acceptance_log):
    t0 = time.perf_counter()
    rng = random.Random(20260816)
    bad = 0
    for _ in range(1000):
        n = rng.randint(1, 200)
        r = [rng.randint(-10_000, 10_000) for _ in range(n)]
        h = [rng.randint(-10_000, 10_000) for _ in range(n)]
        res = general_area_identity(SequencePair(r, h))
        if not (res.equal and res.lhs == res.rhs and res.exact):
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 1.0
    _announce(
        acceptance_log,
        2,
        ok,
        f"general identity exact on 1000 random integer pairs, lengths 1..200 "
        f"({elapsed:.2f}s < 1s)",
    )
    assert bad == 0
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"


def test_criterion_3_mean_value_sanity(acceptance_log):
    t0 = time.perf_counter()
    x = 1_000_000
    checks = []

    mu2 = prefix_sums(build_table(MU_SQUARED, x)).s(x)
    checks.append(("musquared", mu2 / x, 6 / math.pi**2, 0.002))

    phi = prefix_sums(build_table(EULER_PHI, x)).s(x)
    checks.append(("eulerphi", phi / x**2, 3 / math.pi**2, 0.002))

    lam_sum = prefix_sums(build_table(VON_MANGOLDT, x)).s(x)
    checks.append(("vonmangoldt", lam_sum / x, 1.0, 0.005))

    ups = prefix_sums(build_table(MASTER_UPSILON, x)).s(x)
    checks.append(("masterupsilon", ups / (x * math.log(math.log(x))), 1.0, 0.15))

    elapsed = time.perf_counter() - t0
    misses = [
        (name, got, want, tol)
        for name, got, want, tol in checks
        if abs(got - want) > tol
    ]
    ok = not misses and elapsed < 60.0
    summary = ", ".join(f"{name}={got:.5f}" for name, got, _, _ in checks)
    _announce(acceptance_log, 3, ok, f"mean values at x=1e6: {summary} ({elapsed:.1f}s < 60s)")
    assert not misses, f"mean-value misses: {misses}"
    assert elapsed < 60.0


def test_criterion_4_twin_prime_experiment(acceptance_log, tmp_path):
    t0 = time.perf_counter()
    grid = (1_000, 10_000, 100_000, 1_000_000)
    table = build_table(VON_MANGOLDT, grid[-1], 2)
    trend = []
    recip_ok = True
    for x in grid:
        est = density_estimate(table, x, 2)
        c = est.c_min
        trend.append((x, c))
        # Thm-2.3-style inequality with C measured from the data holds by
        # construction; the reciprocal identity is its exact restatement.
        prod = c * est.local_density * x
        if abs(prod - 1.0) > 1e-12:
            recip_ok = False
    twin_sum = type1(table, grid[-1], 2).value
    rows = tuple((x, float(c)) for x, c in trend)
    csv_text = render_csv(("x", "c_min"), rows)
    (tmp_path / "twin_trend.csv").write_text(csv_text)
    emitted = len(csv_text.strip().splitlines()) == 5  # header + four points
    elapsed = time.perf_counter() - t0
    ok = recip_ok and twin_sum > 0 and emitted and elapsed < 120.0
    trend_text = ", ".join(f"c_min(2,{x})={float(c):.4f}" for x, c in trend)
    _announce(
        acceptance_log,
        4,
        ok,
        f"shift-2 prime-power correlation: {trend_text}; "
        f"sum at 1e6 = {twin_sum:.1f} > 0 ({elapsed:.1f}s < 120s)",
    )
    assert recip_ok, "reciprocal identity drifted beyond 1e-12"
    assert twin_sum > 0
    assert emitted
    assert elapsed < 120.0


def test_criterion_5_partition_identity_and_even_representations(acceptance_log):
    t0 = time.perf_counter()

    def partition(table, x):
        est = density_estimate(table, x, 1)
        return est.d_of_x / x + est.diagonal_ratio

    d2 = build_table(FunctionKind.divisor(2), 2000, 1)
    exact_bad = [x for x in range(6, 2001, 2) if partition(d2, x) != 1]
    vm = build_table(VON_MANGOLDT, 10_000, 1)
    float_bad = [
        x for x in range(6, 2001, 2) if abs(partition(vm, x) - 1.0) > 1e-12
    ]
    zero_rep = [x for x in range(6, 10_001, 2) if not type2(vm, x).value > 0]
    elapsed = time.perf_counter() - t0
    ok = not exact_bad and not float_bad and not zero_rep
    _announce(
        acceptance_log,
        5,
        ok,
        "partition identity exact (divisor) and <=1e-12 (vonmangoldt) on even "
        f"x in [6,2000]; type2(vonmangoldt,x)>0 for all even x in [6,1e4] ({elapsed:.1f}s)",
    )
    assert not exact_bad, f"exact partition identity failed at {exact_bad[:5]}"
    assert not float_bad, f"float partition identity failed at {float_bad[:5]}"
    assert not zero_rep, f"no representation mass at even x={zero_rep[:5]}"


def _oracle_Mn(n: int) -> int:
    """Clean-room exhaustive minimum: itertools + Counter, no shared code."""
    universe = set(range(1, n + 1))
    best = None
    for a in itertools.combinations(range(1, n + 1), n // 2):
        b = universe - set(a)
        m = max(Counter(p - q for p in a for q in b).values())
        if best is None or m < best:
            best = m
    return best


def test_criterion_6_minimum_overlap(acceptance_log):
    mism_exact = []
    mism_heur = []
    exh16 = 0.0  # the exhaustive passes alone, dominated by n=16
    for n in range(2, 17, 2):
        want = _oracle_Mn(n)
        t0 = time.perf_counter()
        got = exact_Mn(n).m
        exh16 += time.perf_counter() - t0
        if got != want:
            mism_exact.append((n, want))
        if heuristic_Mn(n, seed=0).m != want:
            mism_heur.append((n, want))

    t1 = time.perf_counter()
    r200 = heuristic_Mn(200, seed=0)
    heur200 = time.perf_counter() - t1
    witness_max = difference_histogram(r200.witness).max_value
    # The catalogued constants are stated for Erdos's M(N), which splits
    # {1..2N}; a splitting of {1..200} is that problem at N = 100.
    big_n = 200 // 2
    lower = math.sqrt(4 - math.sqrt(15)) * big_n
    rows = {row.name: row for row in r200.bounds}
    lower_row = rows["lower-sqrt4-minus-sqrt15"]
    lower_reported = lower_row.value == pytest.approx(lower) and lower_row.ok == "true"
    upper_row = rows["upper-best-known"]
    compared = upper_row.value == pytest.approx(0.38093 * big_n)

    ok = (
        not mism_exact
        and not mism_heur
        and witness_max >= lower
        and lower_reported
        and compared
        and exh16 < 30.0
        and heur200 < 60.0
    )
    _announce(
        acceptance_log,
        6,
        ok,
        f"exhaustive==oracle and heuristic==exact for even n<=16; n=200 witness "
        f"max={witness_max} >= {lower:.2f} (N=100, bounds table ok={lower_row.ok}), "
        f"compared against {upper_row.value:.3f} "
        f"({exh16:.2f}s < 30s, {heur200:.1f}s < 60s)",
    )
    assert not mism_exact, f"exhaustive disagreed with oracle at {mism_exact}"
    assert not mism_heur, f"heuristic missed optimum at {mism_heur}"
    assert witness_max >= lower
    assert lower_reported
    assert compared
    assert exh16 < 30.0
    assert heur200 < 60.0


def test_criterion_7_liouville_cancellation(acceptance_log):
    t0 = time.perf_counter()
    x_max = 1_000_000
    table = build_table(LIOUVILLE, x_max, 1)
    ratios = []
    for x in (1_000, 10_000, 100_000, 1_000_000):
        s = type1(table, x, 1).value
        ratios.append((x, s, abs(s) / x))
    elapsed = time.perf_counter() - t0
    final_ratio = ratios[-1][2]
    ok = final_ratio < 0.05 and elapsed < 60.0
    trend_text = ", ".join(f"x=1e{round(math.log10(x))}: {r:.5f}" for x, _, r in ratios)
    _announce(
        acceptance_log,
        7,
        ok,
        f"shift-1 Liouville correlation |sum|/x: {trend_text} "
        f"(< 0.05 at 1e6; {elapsed:.1f}s < 60s)",
    )
    assert final_ratio < 0.05
    assert elapsed < 60.0


def test_criterion_8_determinism_of_full_claim_suite(
    acceptance_log, tmp_path, monkeypatch
):
    def run(out_dir, threads):
        monkeypatch.setattr(constants, "_cpu_count", lambda: threads)
        code = cli_main(
            [
                "claims",
                "--claims", "all",
                "--grid", "1000,10000,100000",
                "--out-dir", str(out_dir),
                "--no-svg",
            ]
        )
        assert code == 0
        csv_bytes = (out_dir / "claims.csv").read_bytes()
        doc = json.loads((out_dir / "report.json").read_text())
        doc["meta"].pop("timestamp")
        json_text = json.dumps(doc, indent=2, sort_keys=True)
        return csv_bytes, json_text

    a = run(tmp_path / "a", threads=1)
    b = run(tmp_path / "b", threads=1)
    c = run(tmp_path / "c", threads=4)
    ok = a == b == c
    _announce(
        acceptance_log,
        8,
        ok,
        "full claim suite byte-identical across repeat runs and thread counts "
        "(timestamp masked)",
    )
    assert a[0] == b[0] == c[0], "claims.csv differs between runs"
    assert a[1] == b[1] == c[1], "report.json differs between runs"
