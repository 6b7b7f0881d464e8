"""Closed-form trajectories, visibility patterns, thermal law, entropy."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import optograv as og
import setups
from optograv import oracle
from optograv.config import load_params
from optograv.errors import ParameterError

from test_params import VISIBILITY_MINIMUM


def period_of(dc):
    return 2.0 * math.pi / dc.omega_a


TIMED_FUNCTIONS = {
    "visibility_uncoupled": lambda dc, p, times: og.visibility_uncoupled(dc, times),
    "first_order_bracket": og.analytic.first_order_bracket,
    "visibility_first_order": og.visibility_first_order,
    "visibility_shift": og.visibility_shift,
    "thermal_visibility": lambda dc, p, times: og.thermal_visibility(dc, 1.0, times),
    "linear_entropy_first_order": lambda dc, p, times: og.linear_entropy_first_order(dc, times),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-3])
@pytest.mark.parametrize("name", sorted(TIMED_FUNCTIONS))
def test_times_must_be_finite_and_non_negative(ref_params, ref_couplings, name, bad):
    with pytest.raises(ParameterError, match="times"):
        TIMED_FUNCTIONS[name](ref_couplings, ref_params, [1e-3, bad])


def rod_m_trajectories(dc, p, t):
    return og.coherent_trajectories(p.beta_m, dc.lambda_m, dc.omega_a, t)


class TestCoherentTrajectories:
    def test_initial_condition(self, ref_params, ref_couplings):
        phi0, phi1, phase = rod_m_trajectories(ref_couplings, ref_params, 0.0)
        assert phi0 == ref_params.beta_m
        assert phi1 == ref_params.beta_m
        assert phase == 0.0

    def test_full_revival(self, ref_params, ref_couplings):
        t = period_of(ref_couplings)
        phi0, phi1, phase = rod_m_trajectories(ref_couplings, ref_params, t)
        assert phi0 == pytest.approx(ref_params.beta_m, abs=1e-12)
        assert phi1 == pytest.approx(ref_params.beta_m, abs=1e-12)
        kerr_phase = 2.0 * math.pi * ref_couplings.lambda_m**2
        assert phase == pytest.approx(kerr_phase, rel=1e-9)

    def test_half_period_displacement(self, ref_params, ref_couplings):
        t = 0.5 * period_of(ref_couplings)
        phi0, phi1, _ = rod_m_trajectories(ref_couplings, ref_params, t)
        assert abs(phi1 - phi0) == pytest.approx(2.0 * ref_couplings.lambda_m, rel=1e-12)

    def test_broadcasts_over_amplitudes_and_times(self):
        betas = np.array([0.3 - 0.2j, 1.1j])[:, None]
        times = np.array([0.0, 0.7, 2.9])
        phi0, phi1, phase = og.coherent_trajectories(betas, 0.4, 1.3, times)
        assert phi0.shape == phi1.shape == phase.shape == (2, 3)
        for n, beta in enumerate(betas[:, 0]):
            for k, t in enumerate(times):
                one = og.coherent_trajectories(beta, 0.4, 1.3, t)
                assert [phi0[n, k], phi1[n, k], phase[n, k]] == pytest.approx(one, abs=1e-15)

    def test_conditional_oracle_amplitudes_match(self):
        """<a> conditioned on the cavity path reproduces phi0/phi1."""
        p = setups.dimensionless_params(gamma=0.0, lambda_m=0.35, lambda_M=0.2,
                                        beta_m=0.8 + 0.3j)
        dc = og.derive_couplings(p)
        spec = og.HilbertSpec(24, 24)
        prop = og.Propagator(dc, spec)
        t = 0.37 * period_of(dc)
        psi = prop.evolve(og.initial_state(p, spec), t)
        lower = oracle.destroy_op(spec.dim_a)
        for p_bit, expected in enumerate(rod_m_trajectories(dc, p, t)[:2]):
            branch = psi[p_bit]
            norm = np.sum(np.abs(branch) ** 2)
            mean_a = np.einsum("qab,ac,qcb->", branch.conj(), lower, branch) / norm
            assert mean_a == pytest.approx(expected, abs=1e-8)

    def test_rejects_negative_time(self, ref_params, ref_couplings):
        for bad in (-1.0, math.nan, math.inf, -math.inf):
            for times in (bad, [1e-3, bad]):
                with pytest.raises(ParameterError, match="times"):
                    rod_m_trajectories(ref_couplings, ref_params, times)


class TestVisibilityUncoupled:
    def test_endpoints_and_minimum(self, ref_params, ref_couplings):
        T = period_of(ref_couplings)
        values = og.visibility_uncoupled(ref_couplings, [0.0, T / 2, T])
        assert values[0] == 1.0
        assert values[1] == pytest.approx(VISIBILITY_MINIMUM, rel=1e-12)
        assert values[2] == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(t=st.floats(0.0, 5.0))
    def test_periodicity(self, boosted_params, boosted_couplings, t):
        T = period_of(boosted_couplings)
        a = og.visibility_uncoupled(boosted_couplings, [t])[0]
        b = og.visibility_uncoupled(boosted_couplings, [t + T])[0]
        assert a == pytest.approx(b, abs=1e-12)

    def test_bounds(self, ref_params, ref_couplings):
        times = np.linspace(0.0, 3 * period_of(ref_couplings), 1001)
        values = og.visibility_uncoupled(ref_couplings, times)
        floor = math.exp(-2.0 * ref_couplings.lambda_m**2)
        assert np.all(values <= 1.0 + 1e-15)
        assert np.all(values >= floor - 1e-15)


class TestVisibilityFirstOrder:
    def test_gamma_zero_identical_to_uncoupled(self, ref_params):
        p0 = og.without_gravity(ref_params)
        dc0 = og.derive_couplings(p0)
        times = np.linspace(0.0, 2 * period_of(dc0), 257)
        first = og.visibility_first_order(dc0, p0, times)
        plain = og.visibility_uncoupled(dc0, times)
        assert np.array_equal(first, plain)

    def test_closed_and_integral_forms_agree(self):
        """The exact bracket against adaptive quadrature of its integral,
        over random couplings including complex beta_M and near-equal
        frequencies."""
        from scipy.integrate import IntegrationWarning, quad

        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(200):
            p = setups.dimensionless_params(
                gamma=rng.uniform(-0.05, 0.05),
                omega_a=rng.uniform(0.5, 2.0),
                omega_b=rng.uniform(0.5, 2.0) * rng.uniform(0.3, 1.0),
                lambda_m=rng.uniform(0.0, 1.0),
                lambda_M=rng.uniform(0.0, 1.0),
                beta_m=complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                beta_M=complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            )
            dc = og.derive_couplings(p)
            t = rng.uniform(0.1, 15.0)

            def integrand(u):
                envelope = 1.0 - math.cos(dc.omega_a * (u - t))
                drive = 2.0 * (p.beta_M * np.exp(-1j * dc.omega_b * u)).real
                return envelope * (drive + dc.lambda_M * (1.0 - math.cos(dc.omega_b * u)))

            with warnings.catch_warnings():
                # Near-zero integrals trip quad's roundoff heuristic; the
                # absolute tolerance is already at the precision floor.
                warnings.simplefilter("ignore", IntegrationWarning)
                x = 2.0 * dc.gamma * dc.lambda_m * quad(
                    integrand, 0.0, t, epsabs=1e-13, epsrel=1e-12, limit=400
                )[0]
            envelope = math.exp(-(dc.lambda_m**2) * (1.0 - math.cos(dc.omega_a * t)))
            integral = envelope * math.hypot(1.0, x)
            closed = og.visibility_first_order(dc, p, [t])[0]
            worst = max(worst, abs(closed - integral) / abs(integral))
        assert worst < 1e-10

    def test_integral_form_brackets_degenerate_limit(self):
        values = {}
        for eps in (-1e-6, 0.0, 1e-6):
            p = setups.dimensionless_params(gamma=5e-3, omega_a=1.0, omega_b=1.0 + eps)
            dc = og.derive_couplings(p)
            values[eps] = og.visibility_first_order(dc, p, [7.3])[0]
        assert all(math.isfinite(v) for v in values.values())
        lo, hi = sorted((values[-1e-6], values[1e-6]))
        assert lo - 1e-12 <= values[0.0] <= hi + 1e-12

    def test_magnitude_shift_scales_as_gamma_squared(self):
        t = 9.1
        gammas = np.geomspace(1e-4, 1e-2, 7)
        shifts = []
        for g in gammas:
            p = setups.dimensionless_params(gamma=float(g), lambda_m=0.445, lambda_M=0.521)
            dc = og.derive_couplings(p)
            v1 = og.visibility_first_order(dc, p, [t])[0]
            v0 = og.visibility_uncoupled(dc, [t])[0]
            shifts.append(abs(v1 - v0))
        slope = np.polyfit(np.log(gammas), np.log(shifts), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)


class TestVisibilityShift:
    def test_zero_without_gravity(self, ref_params):
        p0 = og.without_gravity(ref_params)
        dc0 = og.derive_couplings(p0)
        times = np.linspace(0.0, period_of(dc0), 65)
        shift = og.visibility_shift(dc0, p0, times)
        assert np.all(shift == 0.0)

    def test_zero_at_time_zero(self, ref_params, ref_couplings):
        assert og.visibility_shift(ref_couplings, ref_params, [0.0])[0] == 0.0

    def test_survives_zero_readout_coupling(self):
        p = setups.dimensionless_params(gamma=1e-2, lambda_m=0.445, lambda_M=0.0)
        dc = og.derive_couplings(p)
        shift = og.visibility_shift(dc, p, [0.9 * period_of(dc)])[0]
        assert shift != 0.0

    def test_reference_magnitude_window(self, ref_params, ref_couplings):
        times = np.linspace(0.0, 3 * period_of(ref_couplings), 1024)
        shift = og.visibility_shift(ref_couplings, ref_params, times)
        peak = np.max(np.abs(shift))
        assert 1e-7 <= peak <= 1e-5


class TestThermalVisibility:
    def test_zero_occupation_bitwise_identical(self, ref_params, ref_couplings):
        times = np.linspace(0.0, 2 * period_of(ref_couplings), 129)
        thermal = og.thermal_visibility(ref_couplings, 0.0, times)
        plain = og.visibility_uncoupled(ref_couplings, times)
        assert np.array_equal(thermal, plain)

    def test_unit_occupation_half_period(self, ref_params, ref_couplings):
        t = 0.5 * period_of(ref_couplings)
        value = og.thermal_visibility(ref_couplings, 1.0, [t])[0]
        assert value == pytest.approx(math.exp(-6 * ref_couplings.lambda_m**2), rel=1e-12)

    def test_montecarlo_agrees_with_law(self, ref_couplings):
        T = period_of(ref_couplings)
        for nbar, ts in ((10.0, [0.15 * T, 0.4 * T]), (2.0, [0.6 * T])):
            law = og.thermal_visibility(ref_couplings, nbar, ts)
            means, errs = og.thermal_visibility_montecarlo(ref_couplings, nbar, ts, 4000, seed=99)
            assert np.all(np.abs(means - law) <= 3.0 * errs + 1e-12)

    def test_rejects_negative_occupation(self, ref_params, ref_couplings):
        with pytest.raises(ParameterError):
            og.thermal_visibility(ref_couplings, -0.5, [0.0])


@pytest.mark.parametrize("config", ["reference.cfg", "dimensionless.cfg"])
def test_one_visibility_envelope_is_bitwise_the_written_out_formula(config):
    p = load_params(Path(__file__).resolve().parent.parent / "configs" / config)
    dc = og.derive_couplings(p)
    times = np.linspace(0.0, 3 * period_of(dc), 2048)
    lam = dc.lambda_m
    envelope = np.exp(-(lam * lam) * (1.0 - np.cos(dc.omega_a * times)))
    bracket = og.analytic.first_order_bracket(dc, p, times)
    assert np.array_equal(og.visibility_uncoupled(dc, times), envelope)
    assert np.array_equal(og.thermal_visibility(dc, 0.0, times), envelope)
    assert np.array_equal(og.visibility_first_order(dc, p, times),
                          envelope * np.hypot(1.0, bracket))


class TestRevivalPeakWidth:
    def test_zero_temperature_value(self, ref_params, ref_couplings):
        expected = 1.0 / (ref_couplings.lambda_m * math.sqrt(2.0))
        assert og.revival_peak_width(ref_couplings, ref_params, 0.0) == pytest.approx(
            expected, rel=1e-14
        )

    def test_high_temperature_quarter_scaling(self, ref_params, ref_couplings):
        w1 = og.revival_peak_width(ref_couplings, ref_params, 100.0)
        w4 = og.revival_peak_width(ref_couplings, ref_params, 400.0)
        assert w1 / w4 == pytest.approx(2.0, rel=1e-6)

    def test_matches_measured_half_width_within_factor_two(self, ref_params, ref_couplings):
        from scipy.optimize import brentq

        temperature = 0.1
        nbar = og.thermal_occupation(ref_params, temperature)
        lam = ref_couplings.lambda_m

        def pattern_minus_half(x):
            return math.exp(-lam * lam * (2 * nbar + 1) * (1 - math.cos(x))) - 0.5

        half_width = brentq(pattern_minus_half, 1e-12, math.pi)  # phase from the peak
        estimate = og.revival_peak_width(ref_couplings, ref_params, temperature)
        assert 0.5 <= half_width / estimate <= 2.0


class TestLinearEntropyFirstOrder:
    def test_zero_gamma_and_zero_time(self, boosted_params, boosted_couplings):
        p0 = og.without_gravity(boosted_params)
        dc0 = og.derive_couplings(p0)
        assert og.linear_entropy_first_order(dc0, [3.0])[0] == 0.0
        assert og.linear_entropy_first_order(boosted_couplings, [0.0])[0] == 0.0

    def test_non_negative_over_a_period(self):
        p = setups.dimensionless_params(gamma=1e-2, lambda_m=0.2, lambda_M=0.15)
        dc = og.derive_couplings(p)
        for frac in (0.2, 0.5, 0.8, 1.0):
            s = og.linear_entropy_first_order(dc, [frac * period_of(dc)])[0]
            assert s >= -1e-12

