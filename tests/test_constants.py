"""Measured density constants and the claim-scoring harness."""

from __future__ import annotations

import math
import os
from fractions import Fraction

import pytest

from corrlab import (
    ALL_CLAIMS,
    CONSTANT_ONE,
    LIOUVILLE,
    MU_SQUARED,
    VON_MANGOLDT,
    ClaimSettings,
    DegenerateSum,
    FunctionKind,
    FunctionTable,
    UnknownClaim,
    ZeroCorrelation,
    bilinear_rhs,
    build_table,
    density_estimate,
    evaluate_claim,
    evaluate_claims,
    type1,
    type2,
)
from corrlab import constants
from corrlab.config import ExperimentConfig
from corrlab.report import CLAIM_HEADER, render_csv


class TestCMin:
    def test_constant_one_example(self):
        t = build_table(CONSTANT_ONE, 20, 1)
        assert density_estimate(t, 5, 1).c_min == Fraction(2, 5)

    def test_musquared_example(self):
        t = build_table(MU_SQUARED, 20, 1)
        assert density_estimate(t, 8, 1).c_min == Fraction(15, 32)

    def test_zero_correlation_raises(self):
        # λ's correlation at shift 1 is negative at x = 10; its form is not 0.
        t = build_table(LIOUVILLE, 10, 1)
        assert bilinear_rhs(t, 10) != 0
        with pytest.raises(ZeroCorrelation, match="shift=1 is -4;"):
            density_estimate(t, 10, 1)


class TestLocalDensity:
    def test_constant_one_closed_form(self):
        # For the all-ones table: type1 = x, bilinear = x(x-1)/2.
        for x in range(3, 101):
            t = build_table(CONSTANT_ONE, x, 1)
            assert density_estimate(t, x, 1).local_density == Fraction(2, x - 1)

    def test_reciprocal_identity_exact(self):
        # c_min * local_density * x == 1 by construction, exactly.
        t = build_table(MU_SQUARED, 500, 3)
        for x, l in ((10, 1), (100, 2), (500, 3)):
            est = density_estimate(t, x, l)
            assert est.c_min * est.local_density * x == 1

    def test_reciprocal_identity_float(self):
        t = build_table(VON_MANGOLDT, 1000, 2)
        est = density_estimate(t, 1000, 2)
        assert est.c_min * est.local_density * 1000 == pytest.approx(1.0, rel=1e-12)


class TestDOfX:
    def test_constant_one_example(self):
        t = build_table(CONSTANT_ONE, 20, 1)
        assert density_estimate(t, 10, 1).d_of_x == Fraction(8, 9)

    def test_partition_identity(self):
        # d(x)/x + diagonal_ratio(x) == 1: the representation share and the
        # off-representation share split the bilinear mass.
        t = build_table(MU_SQUARED, 300, 1)
        for x in range(2, 301, 7):
            est = density_estimate(t, x, 1)
            assert est.d_of_x / x + est.diagonal_ratio == 1

    def test_partition_identity_float(self):
        t = build_table(VON_MANGOLDT, 500, 1)
        for x in (10, 100, 500):
            est = density_estimate(t, x, 1)
            assert est.d_of_x / x + est.diagonal_ratio == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("share", ["local_density", "d_of_x", "diagonal_ratio"])
    def test_every_share_refuses_a_vanishing_form(self, share):
        # The bilinear form is an empty sum at x = 1: no estimate, so no
        # share, is returned.
        t = build_table(CONSTANT_ONE, 5, 1)
        with pytest.raises(DegenerateSum) as info:
            getattr(density_estimate(t, 1, 1), share)
        assert str(info.value) == "one: bilinear form vanishes at x=1"


class TestDensityEstimate:
    def test_bundles_match_components(self):
        t = build_table(MU_SQUARED, 100, 1)
        t1, b, t2 = type1(t, 80, 1).value, bilinear_rhs(t, 80), type2(t, 80).value
        est = density_estimate(t, 80, 1)
        assert est.c_min == Fraction(b, 80 * t1)
        assert est.local_density == Fraction(t1, b)
        assert est.d_of_x == Fraction(80 * t2, b)
        assert est.diagonal_ratio == 1 - Fraction(t2, b)
        assert est.kind == t.kind
        assert (est.x, est.shift) == (80, 1)

    def test_float_bundle_equals_components_bit_for_bit(self):
        t = build_table(VON_MANGOLDT, 1000, 2)
        t1, b, t2 = type1(t, 1000, 2).value, bilinear_rhs(t, 1000), type2(t, 1000).value
        est = density_estimate(t, 1000, 2)
        assert est.c_min == b / (1000 * t1)
        assert est.local_density == t1 / b
        assert est.d_of_x == 1000 * t2 / b
        assert est.diagonal_ratio == 1 - t2 / b

    def test_zero_correlation_raises(self):
        # Type-1 and the bilinear form both vanish: the zero correlation is
        # named first.
        t = FunctionTable.from_values("point", [1, 0, 0, 0, 0])
        with pytest.raises(ZeroCorrelation):
            density_estimate(t, 4, 1)


class TestEvaluateClaim:
    def test_unknown_claim(self):
        with pytest.raises(UnknownClaim, match="thm3.1-twin"):
            evaluate_claim("no-such-claim", [10, 100, 1000])

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            evaluate_claim("thm3.1-twin", [])
        with pytest.raises(ValueError):
            evaluate_claim("thm3.1-twin", [100, 100])
        with pytest.raises(ValueError):
            evaluate_claim("thm3.1-twin", [2, 10])

    def test_twin_claim_small_grid(self):
        rep = evaluate_claim("thm3.1-twin", [100, 1000, 10000])
        assert rep.claim == "thm3.1-twin"
        assert rep.grid == (100, 1000, 10000)
        assert len(rep.computed) == len(rep.bound) == len(rep.verdicts) == 3
        assert all(v in ("consistent", "violated", "vacuous") for v in rep.verdicts)
        # The shifted prime sum is comfortably positive here, so the measured
        # constant exists at every grid point.
        assert all(c is not None for c in rep.constant)

    def test_goldbach_claim_vacuous_on_odd_and_tiny_x(self):
        rep = evaluate_claim("thm8.1-goldbach", [4, 9, 100])
        # x = 4 is below the claim's x >= 6 hypothesis and x = 9 is odd.
        assert rep.verdicts[0] == "vacuous"
        assert rep.verdicts[1] == "vacuous"
        assert rep.verdicts[2] in ("consistent", "violated")
        assert rep.constant[0] is None
        assert math.isnan(rep.bound[0])

    def test_verdicts_deterministic(self):
        a = evaluate_claim("cor6.4-musq", [100, 1000, 5000])
        b = evaluate_claim("cor6.4-musq", [100, 1000, 5000])
        assert a.computed == b.computed
        assert a.bound == b.bound
        assert a.verdicts == b.verdicts

    def test_envelope_claim_has_no_constant(self):
        rep = evaluate_claim("thm5.2-liouville", [100, 1000, 10000])
        assert all(c is None for c in rep.constant)
        assert all(b > 0 for b in rep.bound)

    def test_settings_change_bound(self):
        tight = evaluate_claim(
            "thm5.2-liouville", [100, 1000, 5000], ClaimSettings(epsilon=0.05, c=2.0)
        )
        loose = evaluate_claim(
            "thm5.2-liouville", [100, 1000, 5000], ClaimSettings(epsilon=0.5, c=0.1)
        )
        assert all(lo > hi for lo, hi in zip(loose.bound, tight.bound))

    def test_rows_shape(self):
        rep = evaluate_claim("cor6.3-phi", [100, 1000, 2000])
        rows = rep.rows()
        assert len(rows) == 3
        for row, x in zip(rows, (100, 1000, 2000)):
            assert row[0] == "cor6.3-phi"
            assert row[1] == x
            assert len(row) == 6


class TestEvaluateClaims:
    def test_all_ids_known(self):
        assert len(ALL_CLAIMS) == 12
        assert len(set(ALL_CLAIMS)) == 12

    def test_unknown_id_rejected_before_work(self):
        with pytest.raises(UnknownClaim):
            evaluate_claims(["thm3.1-twin", "bogus"], [100, 1000, 2000])

    def test_threaded_matches_serial(self, monkeypatch):
        ids = ["thm3.1-twin", "cor6.4-musq", "thm9.1-divisor-type2"]
        grid = [100, 1000, 3000]
        monkeypatch.setattr(constants, "_cpu_count", lambda: 1)
        serial = evaluate_claims(ids, grid)
        monkeypatch.setattr(constants, "_cpu_count", lambda: 3)
        threaded = evaluate_claims(ids, grid)
        assert [r.claim for r in serial] == [r.claim for r in threaded] == ids
        for a, b in zip(serial, threaded):
            assert a.computed == b.computed
            assert a.verdicts == b.verdicts

    def test_no_claims(self):
        assert evaluate_claims([], [100, 1000]) == []

    @pytest.mark.parametrize(
        "ids, cpus, workers",
        [(ALL_CLAIMS, 3, 3), (ALL_CLAIMS, 16, 7), (["cor6.4-musq"], 4, 1)],
    )
    def test_pool_is_kinds_capped_by_cpus(self, monkeypatch, ids, cpus, workers):
        import concurrent.futures

        sizes = []
        real = concurrent.futures.ThreadPoolExecutor

        def recording(max_workers):
            sizes.append(max_workers)
            return real(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
        monkeypatch.setattr(constants, "_cpu_count", lambda: cpus)
        evaluate_claims(ids, [100, 1000])
        assert sizes == [workers]

    def test_cpu_count_follows_affinity(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert constants._cpu_count() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert constants._cpu_count() == 5


class TestRunPlan:
    @staticmethod
    def _record_builds(monkeypatch):
        calls = []

        def recording(kind, limit, shift_headroom=0, **kwargs):
            calls.append((kind.label, limit, shift_headroom))
            return build_table(kind, limit, shift_headroom, **kwargs)

        monkeypatch.setattr(constants, "build_table", recording)
        return calls

    def test_one_table_per_kind(self, monkeypatch):
        calls = self._record_builds(monkeypatch)
        evaluate_claims(ALL_CLAIMS, (100, 999, 3000))
        assert len(calls) == 7
        assert len({label for label, _, _ in calls}) == 7
        assert all(limit == 3000 for _, limit, _ in calls)
        headroom = {label: h for label, _, h in calls}
        assert headroom.pop(VON_MANGOLDT.label) == 2
        assert set(headroom.values()) == {1}

    def test_headroom_is_the_largest_shift_of_the_kind(self, monkeypatch):
        calls = self._record_builds(monkeypatch)
        settings = ClaimSettings(shift=3, divisor_order=2)
        evaluate_claims(ALL_CLAIMS, (100, 999, 3000), settings)
        assert len(calls) == 6
        headroom = {label: h for label, _, h in calls}
        assert headroom[FunctionKind.divisor(2).label] == 3
        assert headroom[VON_MANGOLDT.label] == 2
        assert headroom[LIOUVILLE.label] == 1

    def test_shared_tables_match_single_claims(self, monkeypatch):
        # The single-claim call sieves a table with a different span, so
        # equal text means the span does not change any value.  Rows are
        # compared as rendered CSV because vacuous rows hold NaN.
        settings = ClaimSettings(shift=3, divisor_order=2)
        grid = (100, 999, 3000)
        ids = list(ALL_CLAIMS) + ["thm8.1-goldbach"]
        monkeypatch.setattr(constants, "_cpu_count", lambda: 2)
        reports = evaluate_claims(ids, grid, settings)
        assert [r.claim for r in reports] == ids
        for cid, rep in zip(ids, reports):
            alone = evaluate_claim(cid, grid, settings)
            assert render_csv(CLAIM_HEADER, rep.rows()) == render_csv(
                CLAIM_HEADER, alone.rows()
            )

    def test_each_bilinear_form_is_formed_once(self, monkeypatch):
        formed = []

        def counting(table, x, prefix=None):
            formed.append((table.kind.label, x))
            return bilinear_rhs(table, x, prefix)

        monkeypatch.setattr(constants, "bilinear_rhs", counting)
        evaluate_claims(ALL_CLAIMS, (100, 999, 3000))
        assert formed and len(formed) == len(set(formed))
        assert all(label != LIOUVILLE.label for label, _ in formed)

    def test_scores_each_kind_through_the_module_scorer(self, monkeypatch):
        calls = []
        real = constants._score_kind

        def recording(kind, specs, *args):
            calls.append((kind, tuple(spec.claim_id for spec in specs)))
            return real(kind, specs, *args)

        monkeypatch.setattr(constants, "_score_kind", recording)
        grid = (100, 999, 3000)
        reports = evaluate_claims(ALL_CLAIMS, grid)
        assert len(calls) == len({kind for kind, _ in calls}) == 7
        assert sorted(cid for _, ids in calls for cid in ids) == sorted(ALL_CLAIMS)
        assert [r.claim for r in reports] == list(ALL_CLAIMS)


class TestMeasuredConstantConsistency:
    def test_twin_bound_tracks_measured_constant(self):
        # With the constant measured from the data itself, the twin bound
        # x/(2C) equals x * type1 / (2 * bilinear); check one point by hand.
        x, l = 1000, 2
        t = build_table(VON_MANGOLDT, x, l)
        rep = evaluate_claim("thm3.1-twin", [100, x, 10000], ClaimSettings(shift=2))
        c = density_estimate(t, x, l).c_min
        assert rep.constant[1] == pytest.approx(float(c), rel=1e-12)
        assert rep.bound[1] == pytest.approx(x / (2 * float(c)), rel=1e-12)
        assert rep.computed[1] == pytest.approx(type1(t, x, l).value, rel=1e-12)

    def test_constants_equal_the_public_functions(self):
        # evaluate_claim reuses its computed sum for the constant; the result
        # must be exactly the density estimate's c_min and d_of_x.
        grid = [100, 1000]
        twin = evaluate_claim("thm3.1-twin", grid, ClaimSettings(shift=2))
        musq = evaluate_claim("cor6.4-musq", grid)
        goldbach = evaluate_claim("thm8.1-goldbach", grid)
        lam = build_table(VON_MANGOLDT, 1000, 2)
        mu = build_table(MU_SQUARED, 1000, 1)
        for i, x in enumerate(grid):
            assert twin.constant[i] == float(density_estimate(lam, x, 2).c_min)
            assert musq.constant[i] == float(density_estimate(mu, x, 1).c_min)
            assert goldbach.constant[i] == float(density_estimate(lam, x, 2).d_of_x)


@pytest.fixture(scope="module")
def default_reports():
    """Every claim's report over the grid `claims` and `report` default to."""
    grid = ExperimentConfig().x_grid
    return {r.claim: r for r in evaluate_claims(ALL_CLAIMS, grid)}


class TestWhatAVerdictMeasures:
    @pytest.mark.parametrize(
        "claim_id",
        [s.claim_id for s in constants.claim_specs(ALL_CLAIMS) if s.uses_constant],
    )
    def test_computed_over_bound_is_form_over_shape(self, default_reports, claim_id):
        # A claim's constant is measured from the very sum it then judges, so
        # the sum cancels: computed/bound = B/(x·K(x)), with B the bilinear
        # form and K(x) the bound at constant 1.  A verdict reads B and the
        # bound's shape, never the correlation.  The two sides differ only by
        # the roundings of a ratio, a product, a few logs and powers and a
        # float of an exact sum, each within a few 2⁻⁵³; 1e-12 covers them
        # all, and a verdict that read the correlation would miss it by far.
        settings = ClaimSettings()
        (spec,) = constants.claim_specs([claim_id])
        report = default_reports[claim_id]
        t = build_table(spec.kind_fn(settings), max(report.grid))
        rows = zip(report.grid, report.computed, report.bound, report.verdicts)
        checked = 0
        for x, computed, bound, verdict in rows:
            if verdict == "vacuous":
                continue
            form = float(bilinear_rhs(t, x))
            shape = spec.bound_fn(float(x), 1.0, settings)
            assert computed / bound == pytest.approx(form / (x * shape), rel=1e-12), x
            checked += 1
        assert checked

