"""Experiment configuration round-trips and report serialization."""

from __future__ import annotations

import json
import math
import os
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from corrlab import ConfigError, ExperimentConfig, ReportBundle, ResultTable
from corrlab.report import (
    CLAIM_HEADER,
    atomic_write,
    bundle_to_jsonable,
    format_cell,
    make_meta,
    parse_cell,
    read_csv,
    render_csv,
    render_json,
    render_line_chart,
    write_csv,
)


class TestExperimentConfig:
    def test_defaults_validate(self):
        cfg = ExperimentConfig().validate()
        assert cfg.x_grid == (1000, 10_000, 100_000, 1_000_000)

    def test_text_round_trip(self):
        cfg = ExperimentConfig(
            kinds=("vonmangoldt", "musquared"),
            x_grid=(10, 100, 1000),
            shifts=(1, 2, 4),
            tolerance=1e-8,
            claims=("thm3.1-twin",),
            seed=42,
        )
        assert ExperimentConfig.from_text(cfg.to_text()) == cfg

    def test_from_text_ignores_comments_and_blanks(self):
        text = "# a comment\n\nx_grid = 10,20,30\nseed = 7\n"
        cfg = ExperimentConfig.from_text(text)
        assert cfg.x_grid == (10, 20, 30)
        assert cfg.seed == 7

    def test_from_text_unknown_key(self):
        with pytest.raises(ConfigError, match="line 2"):
            ExperimentConfig.from_text("seed = 1\nbogus = 3\n")

    def test_from_text_bad_value(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text("seed = banana\n")

    @pytest.mark.parametrize(
        "override",
        [
            {"x_grid": ()},
            {"x_grid": (100, 50)},
            {"x_grid": (2, 10)},
            {"shifts": (0,)},
            {"shifts": ()},
            {"tolerance": 0.0},
            {"slack": -0.1},
            {"epsilon": 1.5},
            {"c": 0.0},
            {"divisor_order": 1},
            {"payload_mode": "purple"},
            {"oracle_cap": 0},
            {"payload_mode": "floating"},
            {"payload_mode": "exact"},
        ],
    )
    def test_validate_rejects(self, override):
        with pytest.raises(ConfigError):
            ExperimentConfig(**override).validate()

    def test_with_overrides_skips_none(self):
        cfg = ExperimentConfig().with_overrides(seed=None, out_dir="elsewhere")
        assert cfg.seed == ExperimentConfig().seed
        assert cfg.out_dir == "elsewhere"

    def test_digest_stable_and_execution_independent(self):
        base = ExperimentConfig(seed=3)
        same_work = ExperimentConfig(seed=3, out_dir="elsewhere")
        different_work = ExperimentConfig(seed=4)
        assert base.digest() == same_work.digest()
        assert base.digest() != different_work.digest()
        assert len(base.digest()) == 64  # sha256 hex


class TestCells:
    def test_round_trip_values(self):
        for v in (0, -17, 123456789, 0.5, -1.25e-9, True, False, None, "text"):
            assert parse_cell(format_cell(v)) == v

    def test_float_17g_is_lossless(self):
        for v in (math.pi, 1 / 3, 1e300, 5e-324):
            assert parse_cell(format_cell(v)) == v

    def test_nan_rendering(self):
        cell = format_cell(float("nan"))
        assert cell == "nan"
        assert math.isnan(parse_cell(cell))

    def test_fraction_renders_as_float(self):
        assert parse_cell(format_cell(Fraction(1, 3))) == pytest.approx(1 / 3)

    def test_int_is_verbatim(self):
        assert format_cell(10**30) == str(10**30)
        assert parse_cell(str(10**30)) == 10**30


class TestResultTable:
    def test_width_validation(self):
        with pytest.raises(ValueError):
            ResultTable("t", ("a", "b"), ((1,),))

    def test_csv_round_trip(self, tmp_path):
        rows = (
            ("thm3.1-twin", 100, 112.5, 130.25, 0.377, "consistent"),
            ("thm3.1-twin", 1000, float("nan"), 1.0, None, "vacuous"),
        )
        t = ResultTable("claims", CLAIM_HEADER, rows)
        path = tmp_path / "claims.csv"
        write_csv(path, t)
        back = read_csv(path)
        assert back.header == CLAIM_HEADER
        assert back.rows[0][0] == "thm3.1-twin"
        assert back.rows[0][1] == 100
        assert back.rows[0][2] == 112.5
        assert math.isnan(back.rows[1][2])
        assert back.rows[1][4] is None

    def test_render_ends_with_newline(self):
        text = render_csv(("a",), ((1,),))
        assert text.endswith("\n")
        assert text.splitlines() == ["a", "1"]


class TestAtomicWrite:
    def test_writes_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "sub" / "file.txt"
        atomic_write(target, "payload")
        assert target.read_text() == "payload"
        assert os.listdir(tmp_path / "sub") == ["file.txt"]

    def test_overwrites(self, tmp_path):
        target = tmp_path / "f.txt"
        atomic_write(target, "one")
        atomic_write(target, "two")
        assert target.read_text() == "two"


class TestJson:
    def test_bundle_shape_and_stability(self):
        t = ResultTable("numbers", ("n", "v"), ((1, Fraction(1, 2)), (2, 0.25)))
        bundle = ReportBundle(
            meta=make_meta("0.1.0", "d" * 64), tables=(t,), claims=()
        )
        obj = bundle_to_jsonable(bundle)
        assert set(obj) == {"meta", "tables", "claims"}
        assert obj["tables"]["numbers"]["rows"][0] == [1, 0.5]
        text = render_json(bundle)
        assert json.loads(text) == obj
        # sort_keys makes the rendering canonical.
        assert text.index('"claims"') < text.index('"meta"') < text.index('"tables"')


class TestSvg:
    def test_parses_and_contains_polyline(self):
        svg = render_line_chart(
            "demo",
            [("a", [1, 10, 100], [3.0, 2.0, 5.0]), ("b", [1, 10, 100], [1.0, 4.0, 2.0])],
        )
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        names = [el.tag.split("}")[-1] for el in root.iter()]
        assert names.count("polyline") == 2
        assert "demo" in svg

    def test_single_point_degenerate_range(self):
        svg = render_line_chart("p", [("s", [5], [7.0])])
        ET.fromstring(svg)  # must stay well-formed

    def test_log_axes_require_positive(self):
        svg = render_line_chart("mixed", [("s", [1, 2, 3], [-1.0, 2.0, 3.0])])
        # Negative data forces the y-axis back to linear; still well-formed.
        ET.fromstring(svg)
