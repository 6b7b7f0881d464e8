"""The closed forms in plain ``math`` against the vectorised numpy forms they replaced.

``analytic`` evaluates every closed form one time after another with
``math``, so ``figure`` and closed-form scans load no numpy;
``dense_reference`` keeps the numpy forms, vectorised over times.  On both
configs and at omega_a = omega_b, over 2048 times across three periods from
t = 0, each rewritten function agrees with its numpy form to 1e-14 of the
largest magnitude of each output column, and the exact coupled flow agrees
with its numpy form to 1e-15 of the scales of its outputs.  The command
line's time grid is
``numpy.linspace`` bit for bit, and the thermal Monte Carlo, which reads the
same trajectories with an array of amplitudes, is bit-identical to the one
built on the numpy trajectories.
"""

import argparse
import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dense_reference
import optograv as og
import setups
from optograv import analytic, cli
from optograv.config import load_params

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: Largest deviation allowed, relative to the largest magnitude of a column.
COLUMN_RTOL = 1e-14

BUILDS = {
    "reference": lambda: load_params(CONFIGS / "reference.cfg"),
    "dimensionless": lambda: load_params(CONFIGS / "dimensionless.cfg"),
    "equal_frequencies": lambda: setups.dimensionless_params(
        gamma=5e-3, omega_a=1.0, omega_b=1.0, beta_m=0.7 + 0.4j, beta_M=0.3 + 0.5j),
}

#: Each rewritten time series and its vectorised numpy form, as f(dc, p, times).
SERIES = {
    "visibility_uncoupled": (
        lambda dc, p, times: analytic.visibility_uncoupled(dc, times),
        lambda dc, p, times: dense_reference.vectorised_visibility_uncoupled(dc, times)),
    "thermal_visibility": (
        lambda dc, p, times: analytic.thermal_visibility(dc, 1.5, times),
        lambda dc, p, times: dense_reference.vectorised_thermal_visibility(dc, 1.5, times)),
    "first_order_bracket": (analytic.first_order_bracket,
                            dense_reference.vectorised_first_order_bracket),
    "visibility_first_order": (analytic.visibility_first_order,
                               dense_reference.vectorised_visibility_first_order),
    "visibility_shift": (analytic.visibility_shift, dense_reference.vectorised_visibility_shift),
    "linear_entropy_first_order": (
        lambda dc, p, times: analytic.linear_entropy_first_order(dc, times),
        lambda dc, p, times: dense_reference.vectorised_linear_entropy_first_order(dc, times)),
}


def setting(build):
    p = BUILDS[build]()
    dc = og.derive_couplings(p)
    return p, dc, np.linspace(0.0, 3.0 * 2.0 * math.pi / dc.omega_a, 2048)


def assert_columns_close(got, want):
    """Each column (the last axis of (T, ...) arrays) within COLUMN_RTOL of its scale."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    got, want = got.reshape(len(got), -1), want.reshape(len(want), -1)
    for column in range(want.shape[1]):
        scale = np.max(np.abs(want[:, column]))
        assert np.max(np.abs(got[:, column] - want[:, column])) <= COLUMN_RTOL * scale, column


@pytest.mark.parametrize("build", sorted(BUILDS))
@pytest.mark.parametrize("name", sorted(SERIES))
def test_series_match_their_numpy_forms(name, build):
    p, dc, times = setting(build)
    function, reference = SERIES[name]
    values = function(dc, p, times)
    assert type(values) is list and all(type(v) is float for v in values)
    assert_columns_close(values, reference(dc, p, times))


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_trajectories_match_their_numpy_form_one_time_at_a_time(build):
    p, dc, times = setting(build)
    for beta, lam, omega in ((p.beta_m, dc.lambda_m, dc.omega_a),
                             (p.beta_M, dc.lambda_M, dc.omega_b)):
        got = np.array([analytic.coherent_trajectories(beta, lam, omega, t) for t in times])
        want = np.stack(dense_reference.vectorised_coherent_trajectories(beta, lam, omega, times),
                        axis=-1)
        assert_columns_close(got, want)


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_exponential_integrals_match_their_numpy_form_one_time_at_a_time(build):
    _, dc, times = setting(build)
    got = [analytic.exponential_integrals(dc.omega_a, dc.omega_b, t) for t in times]
    assert_columns_close(got, dense_reference.vectorised_exponential_integrals(
        dc.omega_a, dc.omega_b, times))


@pytest.mark.parametrize("lam", [0.0, 0.445, 3.1e-3])
@pytest.mark.parametrize("bit", [0, 1])
def test_mode_factor_tables_equal_their_numpy_form(lam, bit):
    table = np.array(analytic.mode_factor_coefficients(lam, bit))
    assert table.tobytes() == dense_reference.vectorised_mode_factor_coefficients(lam, bit).tobytes()


#: The exact flow's settings: both configs, omega_a = omega_b and the SI
#: config without gravity.
FLOW_BUILDS = (*sorted(BUILDS), "reference,gamma=0")


@pytest.mark.parametrize("build", FLOW_BUILDS)
def test_flow_matches_its_numpy_form_and_the_eigendecomposition(build):
    p, dc, times = setting(build.split(",")[0])
    if build.endswith("gamma=0"):
        dc = replace(dc, gamma=0.0)
    common, k = dense_reference.flow_arrays(dc, times)
    # The eigendecomposition's own round-off is about 3e-15 of these scales.
    for reference, rtol in ((dense_reference.vectorised_flow, 1e-15),
                            (dense_reference.eig_flow, 1e-14)):
        want_common, want_k = reference(dc, times)
        assert np.max(np.abs(common - want_common)) <= rtol * np.max(np.abs(want_common))
        assert np.max(np.abs(k - want_k)) <= rtol * np.max(np.abs(want_k))


def test_phases_past_double_range_give_nan_not_an_exception(ref_params, ref_couplings):
    # omega_a*t overflows at t = 1e306 s, where math.cos raises; numpy gave NaN.
    times = [0.0, 1e306]
    for name, (function, _) in SERIES.items():
        value = function(ref_couplings, ref_params, times)[1]
        assert math.isnan(value), name
    assert math.isnan(analytic.visibility(ref_couplings, 0.0, times)[1])
    phi0, phi1, phase = analytic.coherent_trajectories(1.0, 0.5, ref_couplings.omega_a, 1e306)
    assert all(math.isnan(abs(v)) for v in (phi0, phi1, phase))


def test_an_overflowing_shift_is_not_finite_where_numpy_was():
    # Light 1e5 times the reference makes lambda_m**2 ~ 2e9, so expm1 of the
    # log-ratio overflows (math raises) where the envelope is exactly 0.
    p = replace(setups.reference_params(), light_freq_c=4.5e19)
    dc = og.derive_couplings(p)
    times = np.linspace(0.0, 3.0 * 2.0 * math.pi / dc.omega_a, 64)
    shift = np.array(analytic.visibility_shift(dc, p, times))
    with np.errstate(over="ignore", invalid="ignore"):
        reference = dense_reference.vectorised_visibility_shift(dc, p, times)
    assert not np.all(np.isfinite(reference))
    assert np.array_equal(np.isfinite(shift), np.isfinite(reference))
    finite = np.isfinite(reference)
    assert np.max(np.abs(shift[finite] - reference[finite])) <= (
        COLUMN_RTOL * np.max(np.abs(reference[finite])))


@pytest.mark.parametrize("start, stop, points", [
    (None, None, None),  # 0 to 3 periods in 2048 points
    (0.0, 1.0, 2),
    (0.1, 0.3, 3),
    (1e-3, 7.3, 513),
    (2.5e-4, 1e300, 1000),
    (0.0, 1e-322, 1000),  # the step underflows to 0
    (0.0, 5e-324, 3),
])
def test_time_grid_is_numpy_linspace_bit_for_bit(ref_couplings, start, stop, points):
    args = argparse.Namespace(t_start=start, t_stop=stop, t_points=points)
    times = cli._time_grid(args, ref_couplings)
    assert type(times) is list
    period = 2.0 * math.pi / ref_couplings.omega_a
    expected = np.linspace(0.0 if start is None else start,
                           3.0 * period if stop is None else stop,
                           2048 if points is None else points)
    assert np.array(times).tobytes() == expected.tobytes()


@pytest.mark.parametrize("config", ["reference.cfg", "dimensionless.cfg"])
@pytest.mark.parametrize("start, stop, points", [
    (1 / 8, 1.0, 8),  # thermal's default grid, in periods
    (0.0, 2.0, 48),  # oracle's equivalence grid
    (1 / 30, 2.0, 30),  # oracle's residual grid
    (1 / 8, 2.0, 8),
    (2.0, 2.0, 1),  # --residual-times 1
])
def test_every_grid_is_numpy_linspace_bit_for_bit(config, start, stop, points):
    period = 2.0 * math.pi / og.derive_couplings(load_params(CONFIGS / config)).omega_a
    times = cli._grid(start * period, stop * period, points)
    expected = np.linspace(start * period, stop * period, points)
    assert np.array(times).tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_thermal_montecarlo_is_bit_identical_on_numpy_trajectories(monkeypatch, ref_couplings,
                                                                   seed):
    # The `thermal` default grid: one revival period in 8 steps, ending at the
    # revival.
    period = 2.0 * math.pi / ref_couplings.omega_a
    times = np.linspace(period / 8.0, period, 8)
    means, errors = og.thermal_visibility_montecarlo(ref_couplings, 1.0, times, 10000, seed)
    monkeypatch.setattr(analytic, "coherent_trajectories",
                        dense_reference.vectorised_coherent_trajectories)
    numpy_means, numpy_errors = og.thermal_visibility_montecarlo(ref_couplings, 1.0, times,
                                                                 10000, seed)
    assert means.tobytes() == numpy_means.tobytes()
    assert errors.tobytes() == numpy_errors.tobytes()


def test_analytic_imports_only_math_and_the_package():
    tree = ast.parse(Path(analytic.__file__).read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert modules <= {"__future__", "math", "cmath"}
