"""End-to-end subcommand behaviour, exit codes, and output determinism."""

import argparse
import csv
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import optograv as og
from optograv import analytic, cli, oracle
from optograv.cli import main
from optograv.config import fingerprint, fingerprint_params, load_params
from optograv.scan import ScanPlan

from test_params import T_MAX_AT_Q1E7, VISIBILITY_MINIMUM

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cold(*argv):
    """One fresh ``optograv`` process, whose numpy warnings reach stderr."""
    return subprocess.run([sys.executable, "-m", "optograv.cli", *argv], capture_output=True,
                          text=True)


def parse_csv(text):
    """Header and rows of a CSV emission, its quoted cells read whole."""
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header, *rows = csv.reader(lines)
    return header, rows


def strict_json(text):
    """``text`` parsed as strict JSON, which has no NaN or Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def write_config(tmp_path, name="params.cfg", **overrides):
    base = {
        "units": "si",
        "mass_m": "1e-13",
        "mass_M": "1e-13",
        "separation_h": "1e-8",
        "cavity_length_d": "0.1",
        "bare_freq_a": "3e3",
        "bare_freq_b": "2.7e3",
        "light_freq_c": "450e12",
        "light_freq_d": "450e12",
        "beta_m": "1",
        "beta_M": "1",
    }
    base.update(overrides)
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items() if v is not None))
    return path


class TestDerive:
    def test_reports_period_shift(self, capsys, reference_config):
        code, out, _ = run(capsys, "derive", "--params", str(reference_config))
        assert code == 0
        payload = json.loads(out)
        assert payload["delta_T_ns"] == pytest.approx(0.78, rel=0.02)
        assert payload["delta_T"] == pytest.approx(payload["delta_T_ns"] * 1e-9, abs=0.0)
        assert "params_fingerprint" in payload["provenance"]

    def test_zero_gravity_config(self, capsys, tmp_path):
        cfg = write_config(tmp_path, grav_constant_G="0")
        code, out, _ = run(capsys, "derive", "--params", str(cfg))
        assert code == 0
        payload = json.loads(out)
        assert payload["delta_T_ns"] == 0.0
        assert payload["gamma"] == 0.0

    def test_missing_key_names_it(self, capsys, tmp_path):
        cfg = write_config(tmp_path, mass_m=None)
        code, _, err = run(capsys, "derive", "--params", str(cfg))
        assert code == 1
        assert "mass_m" in err

    def test_bad_value_reports_line_number(self, capsys, tmp_path):
        cfg = write_config(tmp_path, separation_h="ten nanometres")
        code, _, err = run(capsys, "derive", "--params", str(cfg))
        assert code == 1
        assert "line 4" in err and "separation_h" in err

    def test_unknown_key_reports_line_number(self, capsys, tmp_path):
        cfg = write_config(tmp_path)
        with open(cfg, "a") as fh:
            fh.write("warp_factor = 9\n")
        code, _, err = run(capsys, "derive", "--params", str(cfg))
        assert code == 1
        assert "warp_factor" in err and "line 12" in err

    @pytest.mark.parametrize("key, value", [("rod_half_length_L", "1e-6"),
                                            ("frequency_convention", "angular")])
    def test_retired_parameter_keys_are_unknown(self, capsys, tmp_path, key, value):
        cfg = write_config(tmp_path, **{key: value})
        code, out, err = run(capsys, "derive", "--params", str(cfg))
        assert code == 1
        assert out == ""
        assert err == f"error: {cfg}: line 12: unknown key {key!r}\n"

    def test_missing_file_is_a_clean_config_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "derive", "--params", str(tmp_path / "nope.cfg"))
        assert code == 1
        assert "cannot read" in err and "Traceback" not in err

    def test_unwritable_out_is_a_clean_config_error(self, capsys, tmp_path, reference_config):
        target = tmp_path / "missing-dir" / "x.json"
        code, out, err = run(capsys, "derive", "--params", str(reference_config),
                             "--out", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {target}:")
        assert not target.exists()

    @pytest.mark.parametrize("separation", ["1e-300", "1e300"])
    def test_coupling_arithmetic_out_of_range_is_one_error_line(self, tmp_path, separation):
        # h**3 underflows to 0.0 (a division by zero) or overflows (OverflowError).
        proc = run_cold("derive", "--params", str(write_config(tmp_path,
                                                               separation_h=separation)))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == ("error: derived couplings overflow or underflow double "
                               "precision; check the inputs\n")


#: The one stderr line of a reference-config grid whose middle time is 5e299 s.
UNRESOLVED_PHASE_LINE = ("numerical failure: omega*t = 1.5000005561915637e+303 exceeds 2**52 "
                         "at t = 5e+299 s: a double holds no phase there\n")


class TestFigure:
    def test_fig2a_endpoints_and_minimum(self, capsys, reference_config):
        code, out, _ = run(capsys, "figure", "--params", str(reference_config),
                           "--which", "fig2a", "--t-points", "513")
        assert code == 0
        _, rows = parse_csv(out)
        values = np.array([float(r[1]) for r in rows])
        assert values[0] == 1.0
        assert values.min() == pytest.approx(VISIBILITY_MINIMUM, abs=1e-4)
        assert rows[0][2] == "uncoupled"

    def test_fig2b_magnitude_window(self, capsys, reference_config):
        code, out, _ = run(capsys, "figure", "--params", str(reference_config),
                           "--which", "fig2b", "--t-points", "1024")
        assert code == 0
        _, rows = parse_csv(out)
        peak = max(abs(float(r[1])) for r in rows)
        assert 1e-7 <= peak <= 1e-5

    @pytest.mark.parametrize("config", ["reference.cfg", "dimensionless.cfg"])
    def test_fig2b_subtracts_the_gravity_free_pattern(self, capsys, config):
        # Dimensionless couplings without gravity keep omega_a and lambda_m,
        # so one reference pattern serves both unit systems.  fig2b writes
        # the difference without cancellation, so the subtracted patterns
        # agree with it only to the digits they keep: 6e-10 of the peak at
        # the reference separation.
        p = load_params(CONFIGS / config)
        dc = og.derive_couplings(p)
        code, out, _ = run(capsys, "figure", "--params", str(CONFIGS / config),
                           "--which", "fig2b", "--t-points", "256", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        times = np.array(payload["times"])
        assert payload["values"] == analytic.visibility_shift(dc, p, times)
        reference = dc if p.units == "dimensionless" else og.derive_couplings(
            og.without_gravity(p))
        subtracted = (np.array(analytic.visibility_first_order(dc, p, times))
                      - analytic.visibility_uncoupled(reference, times))
        error = np.max(np.abs(np.array(payload["values"]) - subtracted))
        assert error <= 1e-9 * np.max(np.abs(subtracted))

    def test_fig3_zero_gravity_flat(self, capsys, tmp_path):
        cfg = write_config(tmp_path, grav_constant_G="0")
        code, out, _ = run(capsys, "figure", "--params", str(cfg),
                           "--which", "fig3", "--t-points", "16")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "t_periods"
        assert all(float(r[1]) == 0.0 for r in rows)

    def test_json_format(self, capsys, reference_config):
        code, out, _ = run(capsys, "figure", "--params", str(reference_config),
                           "--which", "fig2a", "--t-points", "8", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["values"]) == 8
        assert payload["provenance"]["which"] == "fig2a"

    # numpy's MemoryError names the allocation; Python's own carries no text,
    # so the exception's name stands in for it.
    @pytest.mark.parametrize("error, line", [
        (MemoryError("Unable to allocate 7.28 TiB for an array"),
         "numerical failure: Unable to allocate 7.28 TiB for an array\n"),
        (MemoryError(), "numerical failure: MemoryError\n"),
    ])
    def test_out_of_memory_exits_numerical(self, capsys, monkeypatch, reference_config, error,
                                           line):
        def exhausted(*args):
            raise error

        monkeypatch.setattr(analytic, "visibility_uncoupled", exhausted)
        code, out, err = run(capsys, "figure", "--params", str(reference_config),
                             "--which", "fig2a", "--t-points", "8")
        assert code == 3
        assert out == ""
        assert err == line

    def test_linalg_error_exits_numerical(self, capsys, monkeypatch, reference_config):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(analytic, "visibility_uncoupled", singular)
        code, out, err = run(capsys, "figure", "--params", str(reference_config),
                             "--which", "fig2a", "--t-points", "8")
        assert code == 3
        assert out == ""
        assert err == "numerical failure: Singular matrix\n"

    @pytest.mark.parametrize("flag, value", [("--t-stop", "inf"), ("--t-start", "nan"),
                                             ("--t-start", "inf")])
    def test_non_finite_grid_bound_is_one_error_line(self, reference_config, flag, value):
        proc = run_cold("figure", "--which", "fig2a", "--params", str(reference_config),
                        "--t-points", "3", flag, value)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_non_finite_entropy_exits_numerical(self, reference_config):
        proc = run_cold("figure", "--which", "fig3", "--params", str(reference_config),
                        "--t-points", "3", "--t-stop", "1e160")
        assert proc.returncode == 3
        assert proc.stdout == ""
        # One precise line: no numpy warning precedes it.
        assert proc.stderr == (
            "numerical failure: first_order_entropy not finite at t = 5e+159 s\n")

    def test_unresolved_phase_exits_numerical(self, reference_config):
        # omega_a*t is finite at t = 5e299 s, but doubles there are far more
        # than 2*pi apart, so the pattern's cosine would be arbitrary.
        proc = run_cold("figure", "--which", "fig2a", "--params", str(reference_config),
                        "--t-points", "3", "--t-stop", "1e300")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == UNRESOLVED_PHASE_LINE

    def test_invalid_grid(self, capsys, reference_config):
        code, _, err = run(capsys, "figure", "--params", str(reference_config),
                           "--which", "fig2a", "--t-points", "1")
        assert code == 1
        assert "t-points" in err

    def test_bad_which_flag(self, capsys, reference_config):
        code, _, err = run(capsys, "figure", "--params", str(reference_config),
                           "--which", "fig9")
        assert code == 1


class TestOracleCommand:
    def test_tiny_truncation_exits_numerical(self, capsys, reference_config):
        code, _, err = run(capsys, "oracle", "--params", str(reference_config),
                           "--n-max", "4")
        assert code == 3
        assert "tail mass" in err

    def test_lost_norm_exits_numerical(self, capsys, monkeypatch):
        # Spectral intervals half as wide as the Hamiltonian's: the scaling
        # study's series diverges (the gravity-free states need no series).
        monkeypatch.setattr(oracle, "_INTERVAL_PAD", -0.5)
        code, _, err = run(capsys, "oracle", "--params", str(CONFIGS / "dimensionless.cfg"),
                           "--n-max", "30", "--equivalence-points", "2",
                           "--residual-times", "1")
        assert code == 3
        assert "norm" in err

    def test_passes_at_default_truncations_within_the_residual_margin(self, capsys, tmp_path):
        # Small amplitudes get the default spec (18, 18): a fixed 20-level margin
        # would leave no level of it to compare, so the residual extends each ladder.
        path = tmp_path / "small.cfg"
        path.write_text("units = dimensionless\nbare_freq_a = 1.0\nbare_freq_b = 0.9\n"
                        "direct_gamma = 1e-2\ndirect_lambda_m = 0.1\ndirect_lambda_M = 0.1\n"
                        "beta_m = 0\nbeta_M = 0\n")
        code, out, err = run(capsys, "oracle", "--params", str(path))
        assert code == 0, err
        payload = json.loads(out)
        assert payload["spec"] == {"n_max_a": 18, "n_max_b": 18}
        assert payload["passed"] and len(payload["checks"]) == 5

    @pytest.mark.parametrize("n_max", [40, 60])
    def test_passes_at_large_truncations(self, capsys, n_max):
        code, out, err = run(capsys, "oracle", "--params", str(CONFIGS / "dimensionless.cfg"),
                             "--n-max", str(n_max), "--equivalence-points", "2")
        assert code == 0, err
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["interaction_picture_residual"]["measured"] < 1e-12

    def test_slope_checks_are_the_scaling_study_slopes(self, capsys):
        p = load_params(CONFIGS / "dimensionless.cfg")
        code, out, err = run(capsys, "oracle", "--params", str(CONFIGS / "dimensionless.cfg"),
                             "--n-max", "30", "--equivalence-points", "2",
                             "--residual-times", "1")
        assert code == 0, err
        measured = {c["name"]: c["measured"] for c in json.loads(out)["checks"]}
        omega_a = og.derive_couplings(p).omega_a
        study = og.scaling_study(p, [f * omega_a for f in cli.SCALING_GAMMA_FACTORS],
                                 1.3 * (2.0 * np.pi / omega_a), og.HilbertSpec(30, 30))
        for family in ("state", "visibility", "entropy"):
            assert measured[f"{family}_residual_slope"] == study[family][0], family

    def test_warm_run_holds_under_3_mb(self, capsys):
        # One-time Chebyshev rings of 3 vectors and equivalence slices of 2
        # times leave the frame-rotation residual and the scaling study as
        # the largest holdings; a 16-slot ring or 16-time slices each pass 3.5 MB.
        argv = ["oracle", "--params", str(CONFIGS / "dimensionless.cfg"), "--n-max", "30"]
        assert run(capsys, *argv)[0] == 0
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr().err
        assert peak < 3.0e6

    def test_dimension_guard_exits_numerical(self, capsys):
        code, out, err = run(capsys, "oracle", "--params", str(CONFIGS / "dimensionless.cfg"),
                             "--n-max", "200")
        assert code == 3
        assert out == ""
        assert err == "numerical failure: total dimension 161604 exceeds the guard 65536\n"

    def test_passes_at_adequate_truncation(self, capsys, reference_config):
        code, out, _ = run(capsys, "oracle", "--params", str(reference_config),
                           "--n-max", "30", "--equivalence-points", "8",
                           "--residual-times", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"]
        names = {c["name"] for c in payload["checks"]}
        assert names == {"gravity_free_equivalence", "interaction_picture_residual"}

    def test_failed_check_exits_tolerance(self, capsys, monkeypatch, reference_config):
        monkeypatch.setattr(cli, "RESIDUAL_TOL", 0.0)
        code, out, err = run(capsys, "oracle", "--params", str(reference_config),
                             "--n-max", "30", "--equivalence-points", "2",
                             "--residual-times", "1")
        assert code == 2
        payload = json.loads(out)
        assert payload["passed"] is False
        failed = [c["name"] for c in payload["checks"] if not c["passed"]]
        assert failed == ["interaction_picture_residual"]
        assert err.startswith("tolerance failure: interaction_picture_residual: measured ")
        assert err.endswith(", allowed 0.0\n")

    def test_csv_format_is_refused(self, capsys, reference_config):
        code, out, err = run(capsys, "oracle", "--params", str(reference_config),
                             "--n-max", "30", "--format", "csv")
        assert code == 1
        assert out == ""
        assert "--format" in err

    @pytest.mark.parametrize("flag, value, floor", [
        ("--equivalence-points", "0", 2), ("--equivalence-points", "1", 2),
        ("--residual-times", "0", 1), ("--residual-times", "-3", 1),
    ])
    def test_too_few_check_points_rejected(self, capsys, reference_config, flag, value, floor):
        code, out, err = run(capsys, "oracle", "--params", str(reference_config),
                             "--n-max", "30", flag, value)
        assert code == 1
        assert out == ""
        assert f"{flag} must be >= {floor}" in err


class TestFeasibility:
    def test_reference_rows(self, capsys, reference_config):
        code, out, _ = run(capsys, "feasibility", "--params", str(reference_config),
                           "--q-values", "1e7", "--t-values", "0,50,200")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["given", "given_value", "Q", "T_kelvin", "nbar",
                          "peak_width_rad"]
        q_row = rows[0]
        assert float(q_row[3]) == pytest.approx(T_MAX_AT_Q1E7, rel=1e-9)
        assert float(q_row[3]) == pytest.approx(0.23, rel=0.05)
        t0_row = rows[1]
        assert float(t0_row[2]) == 0.0 and float(t0_row[4]) == 0.0
        # Width halves when the temperature quadruples (high-T regime).
        w50, w200 = float(rows[2][5]), float(rows[3][5])
        assert w50 / w200 == pytest.approx(2.0, rel=1e-4)

    def test_non_finite_row_exits_numerical(self, reference_config):
        # k_B*T/(hbar*omega_a) overflows, and with it the occupation.
        proc = run_cold("feasibility", "--params", str(reference_config), "--q-values", "1e7",
                        "--t-values", "0.23,1e308")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == "numerical failure: Q, nbar not finite at T = 1e+308\n"

    def test_underflowing_thermal_energy_is_zero_occupation(self, capsys, reference_config):
        code, out, err = run(capsys, "feasibility", "--params", str(reference_config),
                             "--q-values", "1e7", "--t-values", "0,1e-320")
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert rows[2] == ["T", "1e-320", "0.0", "1e-320", "0.0", rows[1][5]]

    def test_width_at_an_overflowing_ratio_is_not_zero(self, capsys, reference_config):
        code, out, _ = run(capsys, "feasibility", "--params", str(reference_config),
                           "--q-values", "1e8,1e308", "--t-values", "")
        assert code == 0
        _, rows = parse_csv(out)
        # The width falls as 1/sqrt(Q): 150 decades of Q are 75 of width.
        assert float(rows[1][5]) == pytest.approx(float(rows[0][5]) * 1e-150, rel=1e-6, abs=0.0)


class TestScanCommand:
    def write_plan(self, tmp_path, text, name="plan.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_inverse_cube_scan(self, capsys, tmp_path, reference_config):
        plan = self.write_plan(
            tmp_path,
            "axes = separation_h\n"
            "values_separation_h = 1e-8, 2e-8, 4e-8\n"
            "observables = delta_T\n",
        )
        code, out, _ = run(capsys, "scan", "--params", str(reference_config),
                           "--plan", str(plan))
        assert code == 0
        _, rows = parse_csv(out)
        values = [float(r[1]) for r in rows]
        assert values[1] / values[0] == pytest.approx(0.125, rel=1e-5)
        assert values[2] / values[0] == pytest.approx(1.0 / 64, rel=1e-5)

    @pytest.mark.parametrize("plan_seed, flag, expected", [
        ("seed = 1234\n", ("--seed", "7"), "7"),
        ("seed = 1234\n", (), "1234"),
        ("", (), "0"),
    ], ids=["flag_over_plan_key", "plan_key", "neither"])
    def test_explicit_seed_overrides_the_plan(self, capsys, tmp_path, reference_config,
                                              plan_seed, flag, expected):
        plan = self.write_plan(tmp_path, "axes = \nobservables = delta_T\n" + plan_seed)
        code, out, _ = run(capsys, "scan", "--params", str(reference_config),
                           "--plan", str(plan), *flag)
        assert code == 0
        assert f"# seed={expected}" in out.splitlines()

    def test_csv_and_json_carry_one_provenance_header(self, capsys):
        argv = ("scan", "--params", str(CONFIGS / "reference.cfg"),
                "--plan", str(CONFIGS / "scan_example.cfg"), "--seed", "7")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        comments = [line[2:] for line in out.splitlines() if line.startswith("# ")]
        assert comments[0] == "optograv scan"
        header = dict(line.split("=", 1) for line in comments[1:])
        plan = ScanPlan(axes=(("separation_h", (1e-8, 2e-8, 4e-8)),),
                        observables=("delta_T", "gamma", "visibility"), mode="si",
                        seed=7, observable_time=1e-3)
        assert header == {
            "command": "scan",
            "params_fingerprint": fingerprint_params(load_params(CONFIGS / "reference.cfg")),
            "plan_fingerprint": fingerprint(dataclasses.asdict(plan)),
            "seed": "7",
            "version": og.__version__,
        }
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        provenance = strict_json(out)["provenance"]
        assert {key: str(value) for key, value in provenance.items()} == header

    def test_unknown_axis_lists_valid_keys(self, capsys, tmp_path, reference_config):
        plan = self.write_plan(
            tmp_path,
            "axes = warp\nvalues_warp = 1\nobservables = delta_T\n",
        )
        code, _, err = run(capsys, "scan", "--params", str(reference_config),
                           "--plan", str(plan))
        assert code == 1
        assert "separation_h" in err  # names the valid keys

    def test_empty_observables_rejected(self, capsys, tmp_path, reference_config):
        plan = self.write_plan(tmp_path, "axes = \nobservables = \n")
        code, _, err = run(capsys, "scan", "--params", str(reference_config),
                           "--plan", str(plan))
        assert code == 1
        assert "observable" in err

    def test_repeated_axis_is_a_user_error(self, capsys, tmp_path, reference_config):
        plan = self.write_plan(tmp_path, "axes = separation_h, separation_h\n"
                                         "values_separation_h = 1e-8, 2e-8\n"
                                         "observables = delta_T\n")
        code, out, err = run(capsys, "scan", "--params", str(reference_config),
                             "--plan", str(plan))
        assert code == 1
        assert out == ""
        assert err == "error: axis listed more than once: separation_h\n"

    def test_non_finite_observable_is_a_row_error(self, tmp_path, reference_config):
        plan = self.write_plan(tmp_path, "axes = \nobservables = visibility, entropy\n"
                                         "t = 1e160\n")
        proc = run_cold("scan", "--params", str(reference_config), "--plan", str(plan))
        assert proc.returncode == 0
        # No numpy warning: the overflow is reported once, in the row.
        assert proc.stderr == ""
        header, rows = parse_csv(proc.stdout)
        row = dict(zip(header, rows[0]))
        assert row["error"] == "NumericalError: entropy not finite at t = 1e+160 s"
        assert row["visibility"] == row["entropy"] == "nan"


    def test_unresolved_phase_is_a_row_error(self, tmp_path, reference_config):
        plan = self.write_plan(tmp_path, "axes = \nobservables = delta_T, visibility\n"
                                         "t = 1e300\n")
        proc = run_cold("scan", "--params", str(reference_config), "--plan", str(plan))
        assert proc.returncode == 0
        assert proc.stderr == ""
        header, rows = parse_csv(proc.stdout)
        row = dict(zip(header, rows[0]))
        assert row["error"] == ("NumericalError: omega*t = 3.0000011123831274e+303 exceeds "
                                "2**52 at t = 1e+300 s: a double holds no phase there")
        assert row["visibility"] == row["delta_T"] == "nan"

    def test_json_row_error_values_are_null(self, capsys, tmp_path, reference_config):
        plan = self.write_plan(tmp_path, "axes = \nobservables = delta_T, visibility\n"
                                         "t = 1e300\n")
        code, out, _ = run(capsys, "scan", "--params", str(reference_config), "--plan",
                           str(plan), "--format", "json")
        assert code == 0
        (row,) = strict_json(out)["rows"]
        assert row["diagnostics"]["error"].startswith("NumericalError: omega*t")
        assert row["values"] == {"delta_T": None, "visibility": None}

    def test_chebyshev_table_budget_is_a_row_error(self, capsys, tmp_path):
        plan = self.write_plan(tmp_path, "axes = \nobservables = visibility_exact\n"
                                         "oracle_enabled = true\nn_max = 36\nt = 1e12\n")
        code, out, _ = run(capsys, "scan", "--params", str(CONFIGS / "dimensionless.cfg"),
                           "--plan", str(plan))
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["error"].startswith("DimensionLimitError: the Chebyshev tables of one "
                                       "recursion up to t = 1000000000000.0 ")
        assert "; the largest admissible time is 1149776.49" in row["error"]
        assert row["visibility_exact"] == row["truncation_delta"] == "nan"

    def test_row_error_with_a_comma_is_read_back_whole(self, capsys, tmp_path):
        # The error cell is quoted; the truncation_delta after it stays in its column.
        plan = self.write_plan(tmp_path, "axes = bare_freq_a\nvalues_bare_freq_a = -1, 1\n"
                                         "observables = gamma, visibility_exact\n"
                                         "oracle_enabled = true\nn_max = 36\nt = 1\n")
        code, out, _ = run(capsys, "scan", "--params", str(CONFIGS / "dimensionless.cfg"),
                           "--plan", str(plan))
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["bare_freq_a", "gamma", "visibility_exact", "error",
                          "truncation_delta"]
        assert [len(r) for r in rows] == [5, 5]
        bad, good = (dict(zip(header, r)) for r in rows)
        assert bad["error"] == ("ParameterError: bare_freq_a must be a finite positive "
                                "number, got -1.0")
        assert bad["truncation_delta"] == bad["gamma"] == "nan"
        assert good["error"] == ""
        assert float(good["gamma"]) == 1e-2
        assert float(good["truncation_delta"]) < 1e-9


class TestThermalCommand:
    def test_law_within_errors(self, capsys, reference_config):
        code, out, _ = run(capsys, "thermal", "--params", str(reference_config),
                           "--nbar", "1.0", "--mc-samples", "2000", "--seed", "5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[4] == "sigma_distance"
        for row in rows:
            assert float(row[4]) < 5.0

    def test_default_grid_is_eight_points_in_one_period(self, capsys, reference_config):
        code, out, _ = run(capsys, "thermal", "--params", str(reference_config),
                           "--mc-samples", "100")
        assert code == 0
        _, rows = parse_csv(out)
        period = float(rows[-1][0])
        assert len(rows) == 8
        assert float(rows[0][0]) == pytest.approx(period / 8.0, rel=1e-12, abs=0.0)

    def test_explicit_t_points_2048_is_honoured(self, capsys, reference_config):
        code, out, _ = run(capsys, "thermal", "--params", str(reference_config),
                           "--mc-samples", "100", "--t-points", "2048")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2048
        assert float(rows[0][0]) == 0.0

    def test_t_start_without_t_stop_is_honoured(self, capsys, reference_config):
        code, out, _ = run(capsys, "thermal", "--params", str(reference_config),
                           "--mc-samples", "100", "--t-start", "1e-4")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2048
        assert float(rows[0][0]) == 1e-4

    def test_coupled_exact_at_large_occupation(self, capsys, reference_config):
        # The exact coupled column needs no Fock ladder for rod m at nbar 1e4.
        code, out, _ = run(capsys, "thermal", "--params", str(reference_config),
                           "--mc-samples", "300", "--nbar", "1e4")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-1] == "coupled_exact"
        assert len(rows) == 8
        assert all(0.0 <= float(row[5]) <= 1.0 for row in rows)

    def test_coupled_exact_revival_deficit(self, capsys, reference_config):
        # Gravity lowers the revival below the gravity-free law's 1 by the
        # exact coherent deficit; a thermal rod m barely moves it.
        code, out, _ = run(capsys, "thermal", "--params", str(reference_config),
                           "--mc-samples", "100", "--nbar", "1")
        assert code == 0
        _, rows = parse_csv(out)
        revival = rows[-1]
        assert float(revival[5]) - float(revival[1]) == pytest.approx(-2.34e-12, rel=1e-2, abs=0.0)

    def test_overflowing_times_exit_numerical(self, reference_config):
        # omega*t overflows past about 6e304 s at the SI reference, so every
        # value, the closed-form coupled one included, is then not finite.
        proc = run_cold("thermal", "--params", str(reference_config), "--mc-samples", "100",
                        "--t-points", "3", "--t-stop", "1e306")
        assert proc.returncode == 3
        assert proc.stdout == ""
        # One precise line: no numpy warning precedes it.
        assert proc.stderr == ("numerical failure: thermal_law, mc_mean, mc_std_error, "
                               "coupled_exact not finite at t = 5e+305 s\n")

    def test_unresolved_phase_exits_numerical(self, reference_config):
        proc = run_cold("thermal", "--params", str(reference_config), "--mc-samples", "100",
                        "--t-points", "3", "--t-stop", "1e300")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == UNRESOLVED_PHASE_LINE

    def test_coupled_exact_ignores_the_coherent_amplitudes(self, tmp_path):
        columns = []
        for name, beta_m, beta_M in (("a.cfg", "1", "1"), ("b.cfg", "-0.4+2.5j", "0.3-1.1j")):
            config = write_config(tmp_path, name, beta_m=beta_m, beta_M=beta_M)
            proc = run_cold("thermal", "--params", str(config), "--mc-samples", "100")
            assert proc.returncode == 0
            header, rows = parse_csv(proc.stdout)
            columns.append([row[header.index("coupled_exact")] for row in rows])
        assert columns[0] == columns[1]

    def test_mc_method_is_gone(self, capsys, reference_config):
        code, _, err = run(capsys, "thermal", "--params", str(reference_config),
                           "--mc-method", "oracle")
        assert code == 1
        assert "--mc-method" in err

    def test_negative_seed_is_a_user_error(self, capsys, reference_config):
        code, out, err = run(capsys, "thermal", "--params", str(reference_config),
                             "--seed", "-1")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "seed" in err

    def test_unstable_coupled_modes_are_a_user_error(self, capsys, tmp_path):
        config = tmp_path / "unstable.cfg"
        config.write_text("units = dimensionless\nbare_freq_a = 1\nbare_freq_b = 1\n"
                          "direct_gamma = 0.6\ndirect_lambda_m = 0.3\ndirect_lambda_M = 0.2\n")
        code, out, err = run(capsys, "thermal", "--params", str(config), "--mc-samples", "100")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "unstable" in err


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path, reference_config):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out in (out_a, out_b):
            assert main(["derive", "--params", str(reference_config),
                         "--out", str(out)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

        fig_a = tmp_path / "fig_a.csv"
        fig_b = tmp_path / "fig_b.csv"
        for out in (fig_a, fig_b):
            assert main(["figure", "--params", str(reference_config), "--which",
                         "fig2b", "--t-points", "64", "--out", str(out)]) == 0
        assert fig_a.read_bytes() == fig_b.read_bytes()

        plan = tmp_path / "plan.cfg"
        plan.write_text(
            "axes = separation_h\nvalues_separation_h = 1e-8, 2e-8\n"
            "observables = delta_T\nseed = 3\n"
        )
        scan_a = tmp_path / "scan_a.csv"
        scan_b = tmp_path / "scan_b.csv"
        for out in (scan_a, scan_b):
            assert main(["scan", "--params", str(reference_config), "--plan",
                         str(plan), "--out", str(out)]) == 0
        assert scan_a.read_bytes() == scan_b.read_bytes()

        th_a = tmp_path / "th_a.csv"
        th_b = tmp_path / "th_b.csv"
        for out in (th_a, th_b):
            assert main(["thermal", "--params", str(reference_config), "--nbar",
                         "0.5", "--mc-samples", "500", "--seed", "9",
                         "--out", str(out)]) == 0
        assert th_a.read_bytes() == th_b.read_bytes()


@pytest.mark.parametrize("argv", [
    ("derive",),
    ("figure", "--which", "fig3", "--t-points", "8"),
    ("feasibility",),
    ("thermal", "--mc-samples", "100"),
    ("scan", "--plan", str(CONFIGS / "scan_example.cfg")),
])
def test_commands_off_the_fock_layer_leave_it_unloaded(argv):
    argv = [*argv, "--params", str(CONFIGS / "reference.cfg"), "--out", os.devnull]
    code = ("import sys\nfrom optograv.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(sorted(m for m in ('optograv.oracle', 'optograv.scan') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    expected = ["optograv.scan"] if argv[0] == "scan" else []
    assert out.strip() == repr(expected)


#: ``thermal`` draws from ``numpy.random``, which imports ``secrets`` and ``hmac``;
#: it marks OpenSSL's ``_hashlib`` absent (None in ``sys.modules``) first, unless
#: the interpreter lacks a built-in hash module for ``hashlib`` to fall back to.
THERMAL_LOADS_OPENSSL = not all(importlib.util.find_spec(name) is not None
                                for name in cli._BUILTIN_HASHES)


#: The ``test`` extra's packages beside pytest, which no command may load.
TEST_ONLY_PACKAGES = ("scipy", "mpmath", "hypothesis")

#: An oracle-enabled scan plan, written to the test's directory in place of
#: the ``ORACLE_PLAN`` argument: one row at a truncation that holds it.
ORACLE_PLAN_TEXT = ("axes = \nobservables = visibility_exact\noracle_enabled = true\n"
                    "t = 1.0\nn_max = 36\n")


@pytest.mark.parametrize("argv, exit_code, numpy_loaded, hashlib_loaded", [
    (("derive", "--params", str(CONFIGS / "reference.cfg")), 0, False, False),
    (("feasibility", "--params", str(CONFIGS / "reference.cfg")), 0, False, False),
    (("feasibility", "--t-values", "1e308", "--params", str(CONFIGS / "reference.cfg")), 3,
     False, False),
    (("--version",), 0, False, False),
    (("derive",), 1, False, False),  # --params missing
    (("figure", "--which", "fig2a", "--t-points", "8", "--params",
      str(CONFIGS / "reference.cfg")), 0, False, False),
    (("figure", "--which", "fig2b", "--t-points", "8", "--params",
      str(CONFIGS / "reference.cfg")), 0, False, False),
    (("figure", "--which", "fig3", "--t-points", "8", "--params",
      str(CONFIGS / "reference.cfg")), 0, False, False),
    (("thermal", "--mc-samples", "100", "--params", str(CONFIGS / "reference.cfg")), 0, True,
     THERMAL_LOADS_OPENSSL),
    (("scan", "--plan", str(CONFIGS / "scan_example.cfg"), "--params",
      str(CONFIGS / "reference.cfg")), 0, False, False),
    (("scan", "--plan", "ORACLE_PLAN", "--params", str(CONFIGS / "dimensionless.cfg")), 0,
     True, False),
    (("oracle", "--n-max", "25", "--equivalence-points", "4", "--residual-times", "1",
      "--params", str(CONFIGS / "dimensionless.cfg")), 0, True, False),
], ids=["derive", "feasibility", "feasibility-not-finite", "version", "missing-params",
        "fig2a", "fig2b", "fig3", "thermal", "scan", "scan-oracle", "oracle"])
def test_only_the_array_commands_load_numpy(tmp_path, argv, exit_code, numpy_loaded,
                                            hashlib_loaded):
    # The closed forms, the exact coupled visibility among them, are pure
    # math: figure and a scan without oracle rows load no numpy; the Fock
    # layer and the thermal Monte Carlo do.
    plan = tmp_path / "oracle_plan.cfg"
    plan.write_text(ORACLE_PLAN_TEXT)
    argv = [str(plan) if arg == "ORACLE_PLAN" else arg for arg in argv]
    code = ("import contextlib, io, sys\nfrom optograv.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            f"        code = main({list(argv)!r})\n"
            "    except SystemExit as exc:\n"
            "        code = exc.code\n"
            "print(code, 'numpy' in sys.modules, sys.modules.get('_hashlib') is not None,\n"
            f"      sorted(m for m in {TEST_ONLY_PACKAGES!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout.strip().split(maxsplit=3)
    # No run loads a package that only the tests install.
    assert out == [str(exit_code), str(numpy_loaded), str(hashlib_loaded), "[]"]


def test_cli_import_leaves_scipy_unloaded():
    # Nothing the propagator or the Monte Carlo could pull in at call time
    # loads at import, no command needs numpy before it runs, and fingerprints
    # need no OpenSSL.
    code = ("import sys, optograv.cli; print(sorted(m for m in "
            "('scipy', 'numpy', 'numpy.fft', 'numpy.random', '_hashlib') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


#: Each subcommand's options; a flag added or removed shows up here.
OPTIONS = {
    "derive": {"--params", "--out", "--format"},
    "figure": {"--params", "--out", "--format", "--t-start", "--t-stop", "--t-points",
               "--which"},
    "oracle": {"--params", "--out", "--n-max", "--equivalence-points", "--residual-times"},
    "feasibility": {"--params", "--out", "--format", "--q-values", "--t-values"},
    "scan": {"--params", "--out", "--format", "--plan", "--seed"},
    "thermal": {"--params", "--out", "--format", "--t-start", "--t-stop", "--t-points",
                "--nbar", "--mc-samples", "--seed"},
}


def test_each_subcommand_has_exactly_its_options():
    parser = cli.build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {name: {option for action in sub._actions for option in action.option_strings
                    if action.dest != "help"}
             for name, sub in subs.choices.items()}
    assert found == OPTIONS
    assert sum(len(options) for options in found.values()) == 34


@pytest.mark.parametrize("argv, flag", [
    (("derive", "--mode", "si"), "--mode"),
    (("thermal", "--mode", "si"), "--mode"),
    (("derive", "--seed", "3"), "--seed"),
    (("figure", "--which", "fig2a", "--seed", "3"), "--seed"),
    (("oracle", "--format", "json"), "--format"),
    (("oracle", "--scaling-t", "5"), "--scaling-t"),
])
def test_settings_that_change_no_result_are_refused(capsys, reference_config, argv, flag):
    code, out, err = run(capsys, *argv, "--params", str(reference_config))
    assert code == 1
    assert out == ""
    assert err.startswith("error: unrecognized arguments: ") and flag in err
