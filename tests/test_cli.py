"""Command-line interface: exit codes, output formats, determinism."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from corrlab import cli, constants
from corrlab.cli import main
from corrlab.correlation import type1
from corrlab.identity import IdentityCheckResult
from corrlab.report import read_csv
from corrlab.tables import FunctionKind, build_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert err.startswith("error: code=USAGE")

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert err.startswith("error: code=USAGE")

    def test_unknown_kind(self, capsys):
        code, _, err = run(capsys, "sieve", "--kind", "nope", "--limit", "10")
        assert code == 1
        assert "USAGE" in err

    def test_computation_error_is_exit_2(self, capsys):
        code, _, err = run(capsys, "minoverlap", "--n", "30", "--exact")
        assert code == 2
        assert err.startswith("error: code=CAP")
        assert err.count("\n") == 1  # exactly one stderr line

    def test_exact_on_real_kind_fails_before_the_oracle(self, capsys, monkeypatch):
        # --exact on a real-valued kind is a usage error known from the table
        # alone, so the quadratic oracle must never run.
        def no_oracle(*args, **kwargs):
            raise AssertionError("identity_check ran")

        monkeypatch.setattr(cli, "identity_check", no_oracle)
        code, _, err = run(
            capsys, "identity-check", "--kind", "vonmangoldt", "--x", "50", "--exact"
        )
        assert code == 1
        assert err.startswith("error: code=USAGE")
        assert err.count("\n") == 1

    def test_unwritable_out_path_is_io_error(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, err = run(
            capsys, "sieve", "--kind", "one", "--limit", "5",
            "--out", str(blocker / "table.csv"),
        )
        assert code == 2
        assert err.startswith("error: code=IO")
        assert err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "sieve", "--help")[0] == 0

    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["correlate", "--kind", "musquared", "--x", "100", "--shift", "0"],
            ["correlate", "--kind", "musquared", "--x", "100", "--shift=-1"],
            ["constants", "--kind", "musquared", "--x", "100", "--shift", "0"],
            ["sieve", "--kind", "musquared", "--limit", "0"],
            ["minoverlap", "--n", "7"],
            # A shift list that parses to no shifts at all.
            ["correlate", "--kind", "musquared", "--x", "100", "--shift", ","],
            # A tolerance must be a positive finite number, even where the
            # sums agree exactly.
            ["identity-check", "--kind", "vonmangoldt", "--x", "100",
             "--tolerance", "-1"],
            ["identity-check", "--kind", "divisor", "--x", "100",
             "--tolerance", "nan"],
            # A cap is a value: below the smallest input it refuses a usage
            # error, not a computation that went over budget.
            ["identity-check", "--kind", "divisor", "--x", "10",
             "--oracle-cap", "-1"],
            ["identity-check", "--kind", "divisor", "--x", "10",
             "--oracle-cap", "0"],
            ["minoverlap", "--n", "4", "--exact", "--cap", "-1"],
            ["minoverlap", "--n", "2", "--exact", "--cap", "1"],
        ],
    )
    def test_out_of_range_value_is_usage_error(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: code=USAGE")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["claims", "--threads", "2"],
            ["report", "--threads", "2"],
            ["correlate", "--kind", "musquared", "--x", "100", "--shift", "1",
             "--threads", "2"],
            # The payload follows the kind; sieve has no --mode either.
            ["sieve", "--kind", "musquared", "--limit", "100", "--mode", "floating"],
        ],
    )
    def test_no_thread_flag(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: code=USAGE")
        assert err.count("\n") == 1


class TestRefusesBeforeSieving:
    """Input that a run refuses is refused before any table is built; the
    exit code and the error line are those of a refusal after the build."""

    @pytest.fixture(autouse=True)
    def no_sieve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("build_table ran")

        monkeypatch.setattr(cli, "build_table", refuse)
        monkeypatch.setattr(constants, "build_table", refuse)

    @pytest.mark.parametrize(
        "flags, code, line",
        [
            (["--x", "20000000"], 2,
             "code=BUDGET oracle is quadratic; x=20000000 exceeds its cap 100000"),
            (["--x", "100", "--tolerance", "-1"], 1,
             "code=USAGE tolerance must be a positive finite number, got -1.0"),
            (["--x", "100", "--oracle-cap", "0"], 1,
             "code=USAGE oracle cap must be >= 1, got 0"),
        ],
        ids=["over-cap", "tolerance", "oracle-cap"],
    )
    def test_identity_check(self, capsys, flags, code, line):
        got, out, err = run(capsys, "identity-check", "--kind", "eulerphi", *flags)
        assert (got, out, err) == (code, "", f"error: {line}\n")

    @pytest.mark.parametrize("command", ["correlate", "constants"])
    def test_shift(self, capsys, command):
        got, out, err = run(
            capsys, command, "--kind", "eulerphi", "--x", "20000000", "--shift", "0"
        )
        line = "error: code=USAGE shift must be >= 1, got 0\n"
        assert (got, out, err) == (1, "", line)

    @pytest.mark.parametrize(
        "text, code, prefix",
        [
            ("kinds=vonmangoldt,bogus\n", 1,
             "error: code=USAGE unknown function kind: 'bogus'"),
            ("claims=thm3.1-twin,nosuch\n", 2,
             "error: code=UNKNOWNCLAIM unknown claim 'nosuch'; known claims: "),
            # Parsed, but sieved by no filler: refused before the other kinds.
            ("kinds=custom:foo,eulerphi\n", 2,
             "error: code=UNSUPPORTED custom kinds are built via "
             "FunctionTable.from_values"),
        ],
        ids=["kind", "claim", "custom"],
    )
    def test_report(self, capsys, tmp_path, text, code, prefix):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        got, _, err = run(capsys, "report", "--config", str(cfg), "--out-dir", str(out))
        assert got == code
        assert err.startswith(prefix) and err.count("\n") == 1
        assert not out.exists()

    def test_claims_divisor_order_past_int64(self, capsys, tmp_path):
        # d_86 passes int64 within 1..65537 (the grid's max plus shift 1),
        # so its claims are refused before Λ, d₂, φ or μ² is sieved.
        out = tmp_path / "out"
        argv = ["claims", "--divisor-order", "86", "--grid", "1000,65536"]
        line = (
            "error: code=USAGE divisor86 reaches 9677454984517622016 within "
            "1..65537, past int64; lower the order or the span\n"
        )
        assert run(capsys, *argv, "--out-dir", str(out)) == (1, "", line)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["slack", "c", "tolerance"])
    def test_non_finite_float(self, capsys, tmp_path, key, value):
        # claims takes slack and c as flags and report all three from its
        # config file; a NaN slack would read every cell violated, an
        # infinite one every cell consistent.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{key}={value}\n")
        runs = [["report", "--config", str(cfg)]]
        if key != "tolerance":
            runs.append(["claims", f"--{key}={value}"])
        line = f"error: code=USAGE {key} must be finite: {float(value)}\n"
        out = tmp_path / "out"
        for argv in runs:
            assert run(capsys, *argv, "--out-dir", str(out)) == (1, "", line), argv
            assert not out.exists()


class TestSieve:
    def test_summary_line(self, capsys):
        code, out, _ = run(capsys, "sieve", "--kind", "musquared", "--limit", "100")
        assert code == 0
        assert "sum=61" in out

    def test_dump(self, capsys, tmp_path):
        out_file = tmp_path / "table.csv"
        code, _, _ = run(
            capsys, "sieve", "--kind", "one", "--limit", "5", "--out", str(out_file)
        )
        assert code == 0
        table = read_csv(out_file)
        assert table.header == ("n", "value")
        assert table.rows == ((1, 1), (2, 1), (3, 1), (4, 1), (5, 1))


class TestIdentityCheck:
    def test_exact_kind(self, capsys):
        code, out, _ = run(capsys, "identity-check", "--kind", "divisor", "--x", "100")
        assert code == 0
        assert "lhs=rhs" in out

    def test_float_kind(self, capsys):
        code, out, _ = run(
            capsys, "identity-check", "--kind", "vonmangoldt", "--x", "200"
        )
        assert code == 0

    def test_mismatch_is_exit_2(self, capsys, monkeypatch):
        def mismatch(table, x, tolerance, oracle_cap):
            return IdentityCheckResult(7, 8, False, table.is_exact)

        monkeypatch.setattr(cli, "identity_check", mismatch)
        code, out, err = run(capsys, "identity-check", "--kind", "divisor", "--x", "10")
        assert code == 2
        assert out == ""
        assert err == "error: code=IDENTITY lhs=7 rhs=8 differ (mode=exact)\n"

    def test_exact_flag_rejected_for_float_kind(self, capsys):
        code, _, err = run(
            capsys, "identity-check", "--kind", "vonmangoldt", "--x", "50", "--exact"
        )
        assert code == 1
        assert "USAGE" in err


class TestCorrelate:
    def test_requires_shift_or_type2(self, capsys):
        code, _, err = run(capsys, "correlate", "--kind", "one", "--x", "10")
        assert code == 1

    def test_csv_schema(self, capsys, tmp_path):
        out_file = tmp_path / "corr.csv"
        code, out, _ = run(
            capsys,
            "correlate",
            "--kind", "musquared",
            "--x", "100",
            "--shift", "1,2",
            "--type2",
            "--out", str(out_file),
        )
        assert code == 0
        table = read_csv(out_file)
        assert table.header == ("kind", "x", "shift", "value", "terms")
        shifts = [row[2] for row in table.rows]
        assert shifts == ["type2", 1, 2]

    def test_stdout_values(self, capsys):
        code, out, _ = run(
            capsys, "correlate", "--kind", "one", "--x", "10", "--shift", "1"
        )
        assert code == 0
        assert "value=10" in out

    def test_type2_and_shifts_share_one_table(self, capsys, monkeypatch):
        calls = []

        def recording(kind, limit, shift_headroom=0):
            calls.append((limit, shift_headroom))
            return build_table(kind, limit, shift_headroom)

        monkeypatch.setattr(cli, "build_table", recording)
        code, out, _ = run(
            capsys, "correlate", "--kind", "one", "--x", "10", "--shift", "1,3",
            "--type2",
        )
        assert code == 0
        assert calls == [(10, 3)]
        assert out.splitlines() == [
            "kind=one x=10 shift=type2 value=4 terms=4 middle_term=1",
            "kind=one x=10 shift=1 value=10 terms=10",
            "kind=one x=10 shift=3 value=10 terms=10",
        ]


class TestConstants:
    def test_line(self, capsys):
        code, out, _ = run(capsys, "constants", "--kind", "one", "--x", "10")
        assert code == 0
        for token in ("c_min=", "local_density=", "d_of_x=", "diagonal_ratio="):
            assert token in out

    def test_csv(self, capsys, tmp_path):
        # f = 1 at x = 10: type1 = 10, bilinear = 45, type2 = 4.
        out_file = tmp_path / "const.csv"
        code, out, _ = run(
            capsys, "constants", "--kind", "one", "--x", "10", "--out", str(out_file)
        )
        assert code == 0
        assert out.splitlines()[1] == f"wrote {out_file}"
        table = read_csv(out_file)
        assert table.header == (
            "kind", "x", "shift", "c_min", "local_density", "d_of_x", "diagonal_ratio",
        )
        assert table.rows == (
            ("one", 10, 1, 0.45, float(Fraction(2, 9)), float(Fraction(8, 9)),
             float(Fraction(41, 45))),
        )


    def test_forms_each_sum_once(self, capsys, monkeypatch):
        calls = []
        for name in ("type1", "bilinear_rhs", "type2"):
            real = getattr(constants, name)

            def recording(*args, _name=name, _real=real):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(constants, name, recording)
        code, _, _ = run(capsys, "constants", "--kind", "one", "--x", "10")
        assert code == 0
        assert sorted(calls) == ["bilinear_rhs", "type1", "type2"]


class TestClaims:
    def test_small_run_writes_files(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "claims",
            "--claims", "thm3.1-twin,cor6.4-musq",
            "--grid", "100,1000,2000",
            "--out-dir", str(tmp_path),
            "--no-svg",
        )
        assert code == 0
        claims = read_csv(tmp_path / "claims.csv")
        assert claims.header == ("claim", "x", "computed", "bound", "constant", "verdict")
        assert len(claims.rows) == 6
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report) == {"meta", "tables", "claims"}
        assert len(report["claims"]) == 2

    def test_unknown_claim_is_computation_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "claims",
            "--claims", "nope",
            "--grid", "100,1000,2000",
            "--out-dir", str(tmp_path),
        )
        assert code == 2
        assert "UNKNOWNCLAIM" in err

    def test_bad_grid_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "claims",
            "--grid", "100,50",
            "--out-dir", str(tmp_path),
        )
        assert code == 1

    def test_default_digest_matches_bench_reference(self, capsys, tmp_path):
        # claims-default checks its report.json against this reference file,
        # so a config change that moves the default digest fails here first.
        reference = Path(__file__).resolve().parents[1] / "bench" / "reference"
        pinned = json.loads((reference / "report.json").read_text())
        code, _, _ = run(capsys, "claims", "--out-dir", str(tmp_path), "--no-svg")
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["meta"]["config_digest"] == pinned["meta"]["config_digest"]

    def test_svg_emitted_by_default(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "claims",
            "--claims", "cor6.4-musq",
            "--grid", "100,1000,2000",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "claim-cor6.4-musq.svg").exists()

    def test_no_svg_without_a_finite_bound(self, capsys, tmp_path):
        # The representation claim holds for even x only, so every row of an
        # odd grid is vacuous with a NaN bound, and there is nothing to draw.
        code, _, _ = run(
            capsys,
            "claims",
            "--claims", "thm8.1-goldbach",
            "--grid", "1001,10001",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        claims = read_csv(tmp_path / "claims.csv")
        assert [row[5] for row in claims.rows] == ["vacuous", "vacuous"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["claims.csv", "report.json"]


class TestReportPlan:
    """`report` sieves each kind once, for its claims and its sweep alike."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []

        def recording(kind, limit, shift_headroom=0, **kwargs):
            calls.append((kind.label, limit, shift_headroom))
            return build_table(kind, limit, shift_headroom, **kwargs)

        # Either module may build; the plan is in how many builds there are.
        monkeypatch.setattr(cli, "build_table", recording)
        monkeypatch.setattr(constants, "build_table", recording)
        return calls

    def test_default_config_builds_seven_tables(self, capsys, tmp_path, builds):
        argv = ["report", "--grid", "100,1000", "--out-dir", str(tmp_path), "--no-svg"]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert len(builds) == len({label for label, _, _ in builds}) == 7
        lam = [b for b in builds if b[0] == "vonmangoldt"]
        assert lam == [("vonmangoldt", 1000, 2)]

    def test_sweep_only_kind_and_alias(self, capsys, tmp_path, builds):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "x_grid = 100,1000\nkinds = phi,eulerphi,bigomega\nshifts = 1,6\n"
            "claims = thm3.1-twin,cor6.3-phi\n"
        )
        out = tmp_path / "out"
        code, _, _ = run(
            capsys, "report", "--config", str(cfg), "--out-dir", str(out), "--no-svg"
        )
        assert code == 0
        assert sorted(builds) == [
            ("bigomega", 1000, 6), ("eulerphi", 1000, 6), ("vonmangoldt", 1000, 2)
        ]
        rows = read_csv(out / "correlations.csv").rows
        assert [r[:3] for r in rows] == [
            (label, x, l)
            for label in ("eulerphi", "eulerphi", "bigomega")
            for x in (100, 1000)
            for l in (1, 6)
        ]
        assert rows[:4] == rows[4:8]
        for label, x, l, value, terms in rows:
            table = build_table(FunctionKind.parse(label), x, l)
            r = type1(table, x, l)
            assert (value, terms) == (r.value, r.terms)


class TestMinoverlap:
    def test_exact(self, capsys, tmp_path):
        out_file = tmp_path / "mo.csv"
        code, out, _ = run(
            capsys, "minoverlap", "--n", "8", "--exact", "--out", str(out_file)
        )
        assert code == 0
        assert "method=exhaustive" in out
        table = read_csv(out_file)
        assert table.header == ("n", "method", "M", "witness", "bound", "bound_value", "ok")
        assert all(row[0] == 8 for row in table.rows)

    def test_heuristic_deterministic(self, capsys):
        _, out_a, _ = run(capsys, "minoverlap", "--n", "30", "--seed", "4", "--budget", "20000")
        _, out_b, _ = run(capsys, "minoverlap", "--n", "30", "--seed", "4", "--budget", "20000")
        assert out_a == out_b


class TestReport:
    def test_full_pipeline_deterministic(self, capsys, tmp_path, monkeypatch):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for d, threads in ((a_dir, 1), (b_dir, 2)):
            monkeypatch.setattr(constants, "_cpu_count", lambda: threads)
            code, _, _ = run(
                capsys,
                "report",
                "--grid", "100,1000,2000",
                "--out-dir", str(d),
                "--no-svg",
            )
            assert code == 0
        assert (a_dir / "correlations.csv").read_bytes() == (
            b_dir / "correlations.csv"
        ).read_bytes()
        assert (a_dir / "claims.csv").read_bytes() == (b_dir / "claims.csv").read_bytes()
        ja = json.loads((a_dir / "report.json").read_text())
        jb = json.loads((b_dir / "report.json").read_text())
        ja["meta"].pop("timestamp")
        jb["meta"].pop("timestamp")
        assert ja == jb

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("x_grid = 100,1000,2000\nkinds = musquared\nclaims = cor6.4-musq\n")
        code, out, _ = run(
            capsys,
            "report",
            "--config", str(cfg),
            "--out-dir", str(tmp_path / "out"),
            "--no-svg",
        )
        assert code == 0
        corr = read_csv(tmp_path / "out" / "correlations.csv")
        assert {row[0] for row in corr.rows} == {"musquared"}

    def test_floating_payload_mode(self, capsys, tmp_path):
        # Integer kinds are always exact, so payload_mode accepts only auto.
        out = tmp_path / "out"
        out.mkdir()
        for mode in ("floating", "exact"):
            cfg = tmp_path / f"{mode}.cfg"
            cfg.write_text(f"kinds = divisor\npayload_mode = {mode}\n")
            code, _, err = run(
                capsys, "report", "--config", str(cfg), "--out-dir", str(out)
            )
            assert code == 1
            assert err == f"error: code=USAGE payload_mode must be auto, got {mode}\n"
        assert list(out.iterdir()) == []

    def test_missing_config_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "report", "--config", str(tmp_path / "nope.cfg"))
        assert code == 1

    @pytest.mark.parametrize("kinds", ["", "musquared"])
    def test_empty_shifts_is_usage_error(self, capsys, tmp_path, kinds):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"x_grid = 100,1000\nkinds = {kinds}\nshifts =\n")
        out = tmp_path / "out"
        out.mkdir()
        code, _, err = run(
            capsys, "report", "--config", str(cfg), "--out-dir", str(out)
        )
        assert code == 1
        assert err.startswith("error: code=USAGE shifts must be non-empty")
        assert err.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_failed_claims_step_writes_nothing(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("x_grid = 100,1000\nkinds = musquared\nclaims = bogus\n")
        out = tmp_path / "out"
        out.mkdir()
        code, _, err = run(
            capsys, "report", "--config", str(cfg), "--out-dir", str(out)
        )
        assert code == 2
        assert err.startswith("error: code=UNKNOWNCLAIM")
        assert list(out.iterdir()) == []
