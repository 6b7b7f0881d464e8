"""Sweeps and scaling studies."""

import json
import math

import pytest

import optograv as og
from optograv import oracle, scan
from optograv.errors import DimensionLimitError, ParameterError


def small_plan(**kwargs):
    defaults = dict(axes=(), observables=("delta_T",), seed=7)
    defaults.update(kwargs)
    return og.ScanPlan(**defaults)


class TestScanPlan:
    def test_unknown_axis_names_valid_keys(self):
        with pytest.raises(ParameterError, match="separation_h"):
            small_plan(axes=(("not_a_knob", (1.0,)),))

    def test_unknown_observable_names_valid_ones(self):
        with pytest.raises(ParameterError, match="delta_T"):
            small_plan(observables=("bogus",))

    def test_empty_observables_rejected(self):
        with pytest.raises(ParameterError, match="empty observable list"):
            small_plan(observables=())

    def test_oracle_observables_need_oracle_flag(self):
        with pytest.raises(ParameterError, match="oracle_enabled"):
            small_plan(observables=("visibility_exact",), observable_time=1.0)

    def test_time_observables_need_time(self):
        with pytest.raises(ParameterError, match="'t'"):
            small_plan(observables=("visibility",))

    @pytest.mark.parametrize("t", [-3.0, math.nan, math.inf, -math.inf])
    def test_time_must_be_finite_and_non_negative(self, t):
        with pytest.raises(ParameterError, match="'t' must be finite and >= 0"):
            small_plan(observables=("visibility",), observable_time=t)

    def test_grid_size_guard(self):
        with pytest.raises(ParameterError, match="grid size"):
            small_plan(axes=(("separation_h", tuple(range(1, 1001))),
                             ("mass_m", tuple(range(1, 1001))),
                             ("mass_M", tuple(range(1, 10)))))


class TestRunScan:
    def test_period_shift_scales_inverse_cube(self, ref_params):
        plan = small_plan(axes=(("separation_h", (1e-8, 2e-8, 4e-8)),))
        result = og.run_scan(plan, ref_params)
        values = [row["values"]["delta_T"] for row in result.rows]
        assert values[1] / values[0] == pytest.approx(1.0 / 8.0, rel=1e-5)
        assert values[2] / values[0] == pytest.approx(1.0 / 64.0, rel=1e-5)

    def test_empty_axes_single_row(self, ref_params, ref_couplings):
        result = og.run_scan(small_plan(), ref_params)
        assert len(result.rows) == 1
        assert result.rows[0]["values"]["delta_T"] == ref_couplings.delta_T

    def test_zero_gravity_observables_vanish(self, ref_params):
        plan = small_plan(
            axes=(("mass_m", (1e-13, 2e-13)),),
            observables=("delta_T", "gamma", "visibility_shift"),
            observable_time=1e-3,
        )
        result = og.run_scan(plan, og.without_gravity(ref_params))
        for row in result.rows:
            assert row["values"]["delta_T"] == 0.0
            assert row["values"]["gamma"] == 0.0
            assert row["values"]["visibility_shift"] == 0.0

    def test_rerun_is_byte_identical(self, ref_params):
        plan = small_plan(axes=(("separation_h", (1e-8, 3e-8)),),
                          observables=("delta_T", "gamma"))
        first = og.run_scan(plan, ref_params)
        second = og.run_scan(plan, ref_params)
        assert first.to_csv_text() == second.to_csv_text()
        assert json.dumps(first.to_json_dict()) == json.dumps(second.to_json_dict())

    def test_axis_order_changes_row_order_only(self, ref_params):
        axes_a = (("separation_h", (1e-8, 2e-8)), ("mass_m", (1e-13, 5e-13)))
        axes_b = (axes_a[1], axes_a[0])
        rows_a = og.run_scan(small_plan(axes=axes_a), ref_params).rows
        rows_b = og.run_scan(small_plan(axes=axes_b), ref_params).rows
        key = lambda row: tuple(sorted(row["axes"].items()))
        table_a = {key(r): r["values"]["delta_T"] for r in rows_a}
        table_b = {key(r): r["values"]["delta_T"] for r in rows_b}
        assert table_a == table_b

    def test_row_errors_are_captured(self, ref_params):
        plan = small_plan(axes=(("separation_h", (1e-8, -1.0, 2e-8)),))
        result = og.run_scan(plan, ref_params)
        assert len(result.rows) == 3
        assert result.rows[0]["diagnostics"]["error"] == ""
        assert "ParameterError" in result.rows[1]["diagnostics"]["error"]
        assert math.isnan(result.rows[1]["values"]["delta_T"])
        assert result.rows[2]["diagnostics"]["error"] == ""

    def test_arithmetic_row_errors_are_captured(self, ref_params, monkeypatch):
        derive = scan.derive_couplings

        def overflowing(p):
            if p.separation_h > 1e-8:
                raise OverflowError("coupling overflow")
            return derive(p)

        monkeypatch.setattr(scan, "derive_couplings", overflowing)
        plan = small_plan(axes=(("separation_h", (1e-8, 2e-8)),), observables=("delta_T",))
        result = og.run_scan(plan, ref_params)
        assert result.rows[0]["diagnostics"]["error"] == ""
        assert result.rows[1]["diagnostics"]["error"].startswith("OverflowError")
        assert math.isnan(result.rows[1]["values"]["delta_T"])

    def test_huge_amplitude_names_dimension_limit(self, ref_params):
        # |beta_m| = 1e300 has no Fock truncation for the oracle's default spec.
        plan = small_plan(axes=(("beta_m", (1.0, 1e300)),), observables=("visibility_exact",),
                          oracle_enabled=True, observable_time=1e-3)
        result = og.run_scan(plan, ref_params)
        assert result.rows[0]["diagnostics"]["error"] == ""
        error = result.rows[1]["diagnostics"]["error"]
        assert error.startswith("DimensionLimitError") and "1e+300" in error
        assert math.isnan(result.rows[1]["values"]["visibility_exact"])
        # The first-order entropy needs no truncation and no input amplitude.
        plan = small_plan(axes=(("beta_m", (1.0, 1e300)),), observables=("entropy",),
                          observable_time=1e-3)
        rows = og.run_scan(plan, ref_params).rows
        assert rows[1]["diagnostics"]["error"] == ""
        assert rows[1]["values"]["entropy"] == rows[0]["values"]["entropy"] > 0.0
        for amplitude in (1e300, float("inf"), float("nan"), 1e4):
            with pytest.raises(DimensionLimitError, match="amplitude"):
                oracle.suggested_n_max(amplitude, 0.0)

    def test_programming_errors_propagate(self, ref_params, monkeypatch):
        def broken(p):
            raise TypeError("broken coupling derivation")

        monkeypatch.setattr(scan, "derive_couplings", broken)
        with pytest.raises(TypeError, match="broken coupling derivation"):
            og.run_scan(small_plan(axes=(("separation_h", (1e-8,)),)), ref_params)

    def test_oracle_diagnostics_present(self):
        p = og.dimensionless_params(gamma=1e-2, lambda_m=0.2, lambda_M=0.15)
        plan = small_plan(
            observables=("visibility_exact", "entropy_exact"),
            oracle_enabled=True,
            observable_time=2.0,
            n_max=18,
            mode="dimensionless",
        )
        result = og.run_scan(plan, p)
        diag = result.rows[0]["diagnostics"]
        assert diag["error"] == ""
        assert diag["truncation_delta"] < 1e-9
        assert set(diag) == {"error", "truncation_delta"}
        csv_text = result.to_csv_text()
        assert "truncation_delta" in csv_text.splitlines()[-2]


class TestScalingStudy:
    def test_refused_for_all_zero_gamma(self):
        base = og.dimensionless_params(gamma=0.0, lambda_m=0.2, lambda_M=0.15)
        study = og.scaling_study(base, [0.0, 0.0, 0.0], 2.0)
        assert study.refused
        assert study.slopes == {}

    def test_span_validation(self):
        base = og.dimensionless_params(gamma=0.0, lambda_m=0.2, lambda_M=0.15)
        with pytest.raises(ParameterError, match="factor of 4"):
            og.scaling_study(base, [1e-2, 9e-3, 8e-3], 2.0)
        with pytest.raises(ParameterError, match="3 gamma"):
            og.scaling_study(base, [1e-2, 1e-3], 2.0)

    def test_requires_dimensionless_mode(self, ref_params):
        with pytest.raises(ParameterError, match="dimensionless"):
            og.scaling_study(ref_params, [1e-2, 5e-3, 2.5e-3], 2.0)

    def test_small_study_slopes(self):
        base = og.dimensionless_params(gamma=0.0, lambda_m=0.2, lambda_M=0.15)
        study = og.scaling_study(base, [4e-2, 2e-2, 1e-2, 5e-3], 5.0,
                                 spec=og.HilbertSpec(20, 20))
        assert study.monotone == {"state": True, "visibility": True, "entropy": True}
        assert study.slopes["state"][0] == pytest.approx(2.0, abs=0.15)
        assert study.slopes["visibility"][0] >= 1.8
        assert study.slopes["entropy"][0] >= 2.5

