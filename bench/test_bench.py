"""Tests of the benchmark itself: every workload at toy size, and the verifiers.

Run from the repository root:  python3 -m pytest bench/test_bench.py
"""

import dataclasses
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import corrlab.tables  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import BUILD_KINDS, CLAIM_IDS, WORKLOADS, ClaimsDefault, Overlap, Sums  # noqa: E402

# A per-layer metric that only a working trace of each workload makes nonzero.
EXERCISED = {
    "claims-default": "constants.evaluate_claim.self_s",
    "sums-1e7": "correlation.type1.eulerphi.gbps_computed",
    "overlap-200": "minoverlap.heuristic_Mn.moves_per_s",
}


def failed_names(checks):
    return [c.name for c in checks if not c.ok]


@pytest.fixture(params=sorted(WORKLOADS))
def toy(request, tmp_path):
    return WORKLOADS[request.param](seed=3, work_dir=tmp_path, toy=True)


def test_untraced_toy_run_passes_every_check(toy):
    m = run.measure(toy, seconds=0)
    assert m.checks and failed_names(m.checks) == []
    assert len(m.walls) == 1 and m.traced_walls == []
    assert len(m.setup_times) == run.SETUP_REPEATS


def test_traced_toy_run_reports_every_per_layer_metric(toy):
    original = corrlab.tables.build_table
    tracer = Tracer()
    m = run.measure(toy, seconds=0, tracer=tracer)
    assert corrlab.tables.build_table is original
    # Includes "traced output identical to untraced", byte for byte for claims.
    assert failed_names(m.checks) == []
    assert len(m.walls) == 1 and len(m.traced_walls) == 1
    metrics = run.layer_metrics(tracer, toy, m)
    assert metrics.keys() == run.per_layer_units().keys()
    assert metrics[EXERCISED[toy.name]] > 0


def test_claims_trace_nests_builds_under_their_claim(tmp_path):
    wl = ClaimsDefault(seed=0, work_dir=tmp_path, toy=True)
    tracer = Tracer()
    m = run.measure(wl, seconds=0, tracer=tracer)
    assert failed_names(m.checks) == []
    by_id = {s.id: s for s in tracer.spans}
    builds = [s for s in tracer.spans if s.name == "tables.build_table"]
    assert len(builds) == 12
    assert all(by_id[s.parent].name == "constants.evaluate_claim" for s in builds)
    metrics = run.layer_metrics(tracer, wl, m)
    assert metrics["tables.build_table.calls"] == 12
    claims_total = sum(metrics[f"constants.evaluate_claim.{c}.s"] for c in CLAIM_IDS)
    builds_total = sum(metrics[f"tables.build_table.{k}.s"] for k in BUILD_KINDS)
    assert metrics["constants.evaluate_claim.self_s"] == pytest.approx(claims_total - builds_total)


def test_claims_verifier_flags_a_corrupted_csv_cell(tmp_path):
    wl = ClaimsDefault(seed=0, work_dir=tmp_path, toy=True)
    wl.setup()
    out = wl.collect(wl.run())
    assert failed_names(wl.verify(out)) == []

    lines = out.files["claims.csv"].decode().splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-9))
    lines[1] = ",".join(cells)
    bad = dataclasses.replace(out, files={**out.files, "claims.csv": ("\n".join(lines) + "\n").encode()})
    assert failed_names(wl.verify(bad)) == [f"claims.csv {cells[0]} x={cells[1]}"]

    doc = json.loads(out.files["report.json"])
    doc["claims"][0]["verdicts"][0] = "violated"
    bad = dataclasses.replace(out, files={**out.files, "report.json": json.dumps(doc).encode()})
    assert failed_names(wl.verify(bad)) == ["report.json matches reference"]


def test_sums_verifier_flags_a_corrupted_sum(tmp_path):
    wl = Sums(seed=1, work_dir=tmp_path, toy=True)
    wl.setup()
    out = wl.run()
    assert failed_names(wl.verify(out)) == []

    r = out["eulerphi"]
    i1, _ = wl.sample["eulerphi"]
    type1 = list(r.type1)
    type1[i1] = dataclasses.replace(type1[i1], value=type1[i1].value + 1)
    bad = {**out, "eulerphi": dataclasses.replace(r, type1=tuple(type1))}
    assert failed_names(wl.verify(bad)) == [
        f"eulerphi type1 x={wl.limit} l={wl.shifts[i1]} by an independent route"
    ]

    r = out["vonmangoldt"]
    bad = {**out, "vonmangoldt": dataclasses.replace(r, bilinear=r.bilinear * (1 + 1e-6))}
    assert "vonmangoldt bilinear_rhs = pair_sum_closed_form" in failed_names(wl.verify(bad))


def test_overlap_verifier_flags_an_invalid_witness(tmp_path):
    wl = Overlap(seed=2, work_dir=tmp_path, toy=True)
    heuristic, exact = wl.run()
    assert failed_names(wl.verify((heuristic, exact))) == []

    lopsided = heuristic.witness.bits.replace("0", "1", 1)
    bad = SimpleNamespace(m=heuristic.m, witness=SimpleNamespace(bits=lopsided))
    assert failed_names(wl.verify((bad, exact))) == [
        f"heuristic_Mn({wl.n}) witness is a half-split of 1..{wl.n}",
        f"heuristic_Mn({wl.n}) M recomputed from the witness",
    ]

    understated = SimpleNamespace(m=heuristic.m - 1, witness=heuristic.witness)
    assert failed_names(wl.verify((understated, exact))) == [
        f"heuristic_Mn({wl.n}) M recomputed from the witness"
    ]


def test_missing_sources_fail_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC_DIR", tmp_path)
    assert run.main(["--workload", "overlap-200", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
