"""Sweeps and scaling studies."""

import json
import math
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import optograv as og
import setups
from optograv import gaussian, oracle, scan
from optograv.cli import SCALING_GAMMA_FACTORS
from optograv.config import fingerprint, load_params, load_scan_plan
from optograv.errors import DimensionLimitError, ParameterError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: One revival period and three tenths at ``configs/dimensionless.cfg`` (omega_a = 1).
T_SCALING = 1.3 * 2.0 * math.pi


def traced_peak(call) -> int:
    """Peak bytes that ``call()`` allocates, after one untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    def test_repeated_axis_rejected(self):
        # Rows would label both columns with the last value of the axis.
        with pytest.raises(ParameterError, match="axis listed more than once: separation_h"):
            small_plan(axes=(("separation_h", (1e-8, 2e-8)), ("separation_h", (1e-8, 2e-8))))

    def test_repeated_observable_rejected(self):
        # The CSV header would repeat a column that the JSON values hold once.
        with pytest.raises(ParameterError, match="observable listed more than once: gamma"):
            small_plan(observables=("gamma", "delta_T", "gamma"))

    @pytest.mark.parametrize("n_max", [0, -3])
    def test_n_max_must_be_positive(self, n_max):
        with pytest.raises(ParameterError, match=f"n_max must be >= 1, got {n_max}"):
            small_plan(observables=("visibility_exact",), oracle_enabled=True,
                       observable_time=1.0, n_max=n_max)

    def test_n_max_needs_the_oracle(self):
        with pytest.raises(ParameterError, match="n_max .* oracle_enabled = true"):
            small_plan(n_max=20)

    def test_unknown_observable_message_lists_every_name_in_order(self):
        with pytest.raises(ParameterError) as info:
            small_plan(observables=("bogus",))
        assert str(info.value) == (
            "unknown observable 'bogus'; valid observables: ('delta_T', 'omega_a', 'omega_b', "
            "'gamma', 'lambda_m', 'lambda_M', 'visibility', 'visibility_shift', 'entropy', "
            "'visibility_exact', 'entropy_exact', 'interaction_residual')")

    def test_oracle_observable_message(self):
        with pytest.raises(ParameterError) as info:
            small_plan(observables=("entropy_exact",), observable_time=1.0)
        assert str(info.value) == "observable 'entropy_exact' requires oracle_enabled = true"

    def test_time_observable_message(self):
        with pytest.raises(ParameterError) as info:
            small_plan(observables=("delta_T", "visibility_shift"))
        assert str(info.value) == "observable 'visibility_shift' requires a 't' value in the plan"

    @pytest.mark.parametrize("plan_file, digest", [
        (CONFIGS / "scan_example.cfg", "ab177280a7d61e04"),
        (CONFIGS.parent / "bench" / "sweep_plan.cfg", "6b9e074d27f79655"),
    ], ids=["scan_example", "sweep_plan"])
    def test_plan_fingerprints(self, plan_file, digest):
        plan = og.ScanPlan(**load_scan_plan(plan_file))
        assert fingerprint(asdict(plan)) == digest

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

    def test_rows_without_a_time_observable_skip_the_phase_check(self, ref_params,
                                                                 ref_couplings):
        # omega*t exceeds 2**52 at the plan's time, but no value is read there.
        (row,) = og.run_scan(small_plan(observable_time=1e300), ref_params).rows
        assert row["diagnostics"]["error"] == ""
        assert row["values"]["delta_T"] == ref_couplings.delta_T

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
        assert json.dumps(asdict(first)) == json.dumps(asdict(second))

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

    @pytest.mark.parametrize("separation", [1e-300, 1e300])
    def test_coupling_arithmetic_out_of_range_is_a_parameter_row_error(self, ref_params,
                                                                      separation):
        plan = small_plan(axes=(("separation_h", (separation, 1e-8)),))
        bad, good = og.run_scan(plan, ref_params).rows
        assert bad["diagnostics"]["error"] == ("ParameterError: derived couplings overflow or "
                                               "underflow double precision; check the inputs")
        assert math.isnan(bad["values"]["delta_T"])
        assert good["diagnostics"]["error"] == ""

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
        p = setups.dimensionless_params(gamma=1e-2, lambda_m=0.2, lambda_M=0.15)
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
        assert result.diagnostic_names == ("error", "truncation_delta")

    def test_truncation_delta_is_the_distance_from_the_exact_visibility(self):
        base = setups.dimensionless_params(gamma=0.0)
        t = 1.3 * 2.0 * math.pi
        gammas = tuple(f * base.bare_freq_a for f in SCALING_GAMMA_FACTORS)
        plan = small_plan(axes=(("direct_gamma", gammas),), observables=("visibility_exact",),
                          oracle_enabled=True, observable_time=t, n_max=28,
                          mode="dimensionless")
        for gamma, row in zip(gammas, og.run_scan(plan, base).rows):
            dc = og.derive_couplings(replace(base, direct_gamma=gamma))
            exact = float(gaussian.visibility(dc, 0.0, [t])[0])
            delta = row["diagnostics"]["truncation_delta"]
            assert delta == abs(row["values"]["visibility_exact"] - exact)
            assert delta <= 1e-12

    def test_interaction_residual_at_truncations_within_the_margin(self):
        # Small amplitudes get the default spec (18, 18): a fixed 20-level margin
        # would leave no level of it to compare, so the residual extends each ladder.
        base = setups.dimensionless_params(gamma=1e-2, lambda_m=0.1, lambda_M=0.1,
                                           beta_m=0, beta_M=0)
        assert oracle.default_spec(base, og.derive_couplings(base)) == og.HilbertSpec(18, 18)
        plan = small_plan(observables=("interaction_residual",), oracle_enabled=True,
                          observable_time=2.0, mode="dimensionless")
        (row,) = og.run_scan(plan, base).rows
        assert row["diagnostics"]["error"] == ""
        assert 0.0 <= row["values"]["interaction_residual"] < 1e-8

    def test_unstable_coupled_modes_are_a_row_error(self):
        # omega_a*omega_b = 0.9 <= 4*gamma**2 = 1: the exact coherence is undefined.
        base = setups.dimensionless_params(gamma=0.0)
        plan = small_plan(axes=(("direct_gamma", (1e-2, 0.5)),), observables=("visibility_exact",),
                          oracle_enabled=True, observable_time=2.0, n_max=28,
                          mode="dimensionless")
        stable, unstable = og.run_scan(plan, base).rows
        assert stable["diagnostics"]["error"] == ""
        assert unstable["diagnostics"]["error"].startswith("ParameterError: unstable")
        assert math.isnan(unstable["values"]["visibility_exact"])
        assert math.isnan(unstable["diagnostics"]["truncation_delta"])

    def test_one_time_oracle_rows_hold_no_large_chebyshev_ring(self):
        # Four oracle rows at n_max 28, each evolved to one time: with a ring sized
        # by its byte budget instead of its one time, they peaked at 8.8 MB.
        base = load_params(CONFIGS / "dimensionless.cfg")
        gammas = tuple(f * base.bare_freq_a for f in SCALING_GAMMA_FACTORS)
        plan = small_plan(axes=(("direct_gamma", gammas),),
                          observables=("gamma", "visibility", "entropy", "visibility_exact",
                                       "entropy_exact"),
                          oracle_enabled=True, observable_time=T_SCALING, n_max=28,
                          mode="dimensionless")
        assert traced_peak(lambda: og.run_scan(plan, base)) < 2e6


class TestScalingStudy:
    def test_one_time_study_holds_no_large_chebyshev_ring(self):
        # The oracle's scaling study at n_max 30, one coupling per propagator: 0.9 MB.
        base = load_params(CONFIGS / "dimensionless.cfg")
        gammas = [f * base.bare_freq_a for f in SCALING_GAMMA_FACTORS]
        spec = og.HilbertSpec(30, 30)
        assert traced_peak(lambda: og.scaling_study(base, gammas, T_SCALING, spec)) < 5e6

    def test_result_does_not_depend_on_the_order_of_the_gammas(self):
        base = setups.dimensionless_params(gamma=0.0, lambda_m=0.2, lambda_M=0.15)
        gammas, spec = [4e-2, -2e-2, 1e-2, 5e-3], og.HilbertSpec(20, 20)
        study = og.scaling_study(base, gammas, 5.0, spec)
        assert all(math.isfinite(slope) for slope, _ in study.values())
        assert og.scaling_study(base, gammas[::-1], 5.0, spec) == study

    def test_refused_for_all_zero_gamma(self):
        base = setups.dimensionless_params(gamma=0.0, lambda_m=0.2, lambda_M=0.15)
        with pytest.raises(ParameterError, match="nonzero"):
            og.scaling_study(base, [0.0, 0.0, 0.0], 2.0, og.HilbertSpec(20, 20))

    def test_span_validation(self):
        base = setups.dimensionless_params(gamma=0.0, lambda_m=0.2, lambda_M=0.15)
        with pytest.raises(ParameterError, match="factor of 4"):
            og.scaling_study(base, [1e-2, 9e-3, 8e-3], 2.0, og.HilbertSpec(20, 20))
        with pytest.raises(ParameterError, match="3 gamma"):
            og.scaling_study(base, [1e-2, 1e-3], 2.0, og.HilbertSpec(20, 20))

    @pytest.mark.parametrize("t", [0.0, -1.0, float("nan"), float("inf")])
    def test_time_must_be_finite_and_positive(self, t):
        base = setups.dimensionless_params(gamma=0.0, lambda_m=0.2, lambda_M=0.15)
        with pytest.raises(ParameterError, match="finite and > 0"):
            og.scaling_study(base, [4e-2, 2e-2, 1e-2], t, og.HilbertSpec(20, 20))

    def test_requires_dimensionless_mode(self, ref_params):
        with pytest.raises(ParameterError, match="dimensionless"):
            og.scaling_study(ref_params, [1e-2, 5e-3, 2.5e-3], 2.0, og.HilbertSpec(20, 20))

    def test_small_study_slopes(self):
        base = setups.dimensionless_params(gamma=0.0, lambda_m=0.2, lambda_M=0.15)
        study = og.scaling_study(base, [4e-2, 2e-2, 1e-2, 5e-3], 5.0,
                                 spec=og.HilbertSpec(20, 20))
        assert study.keys() == {"state", "visibility", "entropy"}
        assert all(monotone for _, monotone in study.values())
        assert study["state"][0] == pytest.approx(2.0, abs=0.15)
        assert study["visibility"][0] >= 1.8
        assert study["entropy"][0] >= 2.5

