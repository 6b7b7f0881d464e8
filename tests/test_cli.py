"""End-to-end subcommand behaviour, exit codes, and output determinism."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from optograv import oracle
from optograv.cli import main

from test_params import T_MAX_AT_Q1E7, VISIBILITY_MINIMUM

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


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
        assert payload["delta_T"] == pytest.approx(payload["delta_T_ns"] * 1e-9)
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

    def test_mode_mismatch(self, capsys, reference_config):
        code, _, err = run(capsys, "derive", "--params", str(reference_config),
                           "--mode", "dimensionless")
        assert code == 1
        assert "dimensionless" in err

    def test_missing_file_is_a_clean_config_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "derive", "--params", str(tmp_path / "nope.cfg"))
        assert code == 1
        assert "cannot read" in err and "Traceback" not in err


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

    def test_lost_norm_exits_numerical(self, capsys, monkeypatch, reference_config):
        # Spectral intervals half as wide as the Hamiltonian's: the series diverges.
        monkeypatch.setattr(oracle, "_INTERVAL_PAD", -0.5)
        code, _, err = run(capsys, "oracle", "--params", str(reference_config),
                           "--n-max", "30", "--equivalence-points", "2",
                           "--residual-times", "1")
        assert code == 3
        assert "norm" in err

    def test_chebyshev_table_budget_exits_numerical(self, capsys):
        code, _, err = run(capsys, "oracle", "--params", str(CONFIGS / "dimensionless.cfg"),
                           "--scaling-t", "1e12")
        assert code == 3
        assert "largest admissible time" in err

    def test_passes_at_adequate_truncation(self, capsys, reference_config):
        code, out, _ = run(capsys, "oracle", "--params", str(reference_config),
                           "--n-max", "30", "--equivalence-points", "8",
                           "--residual-times", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"]
        names = {c["name"] for c in payload["checks"]}
        assert names == {"gravity_free_equivalence", "interaction_picture_residual"}

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


class TestThermalCommand:
    def test_law_within_errors(self, capsys, reference_config):
        code, out, _ = run(capsys, "thermal", "--params", str(reference_config),
                           "--nbar", "1.0", "--mc-samples", "2000", "--seed", "5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-1] == "sigma_distance"
        for row in rows:
            assert float(row[4]) < 5.0

    def test_default_grid_is_eight_points_in_one_period(self, capsys, reference_config):
        code, out, _ = run(capsys, "thermal", "--params", str(reference_config),
                           "--mc-samples", "100")
        assert code == 0
        _, rows = parse_csv(out)
        period = float(rows[-1][0])
        assert len(rows) == 8
        assert float(rows[0][0]) == pytest.approx(period / 8.0, rel=1e-12)

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

    def test_oracle_method_at_large_occupation(self, capsys, reference_config):
        # The exact coherence needs no Fock ladder for rod m at nbar 1e4.
        code, out, _ = run(capsys, "thermal", "--params", str(reference_config),
                           "--mc-method", "oracle", "--mc-samples", "300", "--nbar", "1e4")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 8
        assert all(0.0 <= float(row[2]) <= 1.0 for row in rows)


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


def test_cli_import_leaves_scipy_unloaded():
    # Nothing the propagator or the Monte Carlo could pull in at call time
    # loads at import.
    code = ("import sys, optograv.cli; print(sorted(m for m in "
            "('scipy', 'numpy.fft', 'numpy.random') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
