"""Derived couplings, the gravitational potential, and thermal quantities.

The frozen expectation values below were computed beforehand with an
independent 50-digit mpmath script evaluating the same defining formulas.
"""

import math
from dataclasses import fields, replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import optograv as og
import setups
from optograv.config import PARAM_KEYS
from optograv.constants import G_NEWTON, HBAR, K_BOLTZMANN
from optograv.errors import ParameterError

# Independently derived at the reference parameter set (50-digit arithmetic).
FROZEN = {
    "omega_a": 3000.0011123831271006,
    "omega_b": 2700.0012359811985834,
    "gamma": -0.00117255450241229,
    "Lambda_m": 0.444670907174621,
    "Lambda_M": 0.520804768846337,
    "lambda_m": 0.444670659852528,
    "lambda_M": 0.520804411232707,
    "delta_T": 7.76589636506393e-10,
}
T_MAX_AT_Q1E7 = 0.22914706229374  # K
VISIBILITY_MINIMUM = 0.673367529965349  # exp(-2*lambda_m**2)


def test_reference_couplings_match_frozen_values(ref_couplings):
    for name, expected in FROZEN.items():
        measured = getattr(ref_couplings, name)
        assert measured == pytest.approx(expected, rel=1e-12, abs=0.0), name


@pytest.mark.parametrize("h", [1e-8, 1e-6, 1e-5, 1e-4, 1e-3])
def test_period_shift_matches_60_digits_at_any_separation(ref_params, h):
    # 2*pi/bare - 2*pi/omega_a in floats cancels: it is 12% off at 10 um and 0 at 100 um.
    p = replace(ref_params, separation_h=h)
    with mp.workdps(60):
        G, M, h, bare = (mp.mpf(v) for v in (p.grav_constant_G, p.mass_M, h, p.bare_freq_a))
        exact = 2 * mp.pi / bare - 2 * mp.pi / mp.sqrt(bare**2 + G * M / h**3)
        measured = og.derive_couplings(p).delta_T
        assert abs(measured - exact) <= 1e-15 * exact


def test_period_shift_near_three_quarters_nanosecond(ref_couplings):
    assert ref_couplings.delta_T * 1e9 == pytest.approx(0.78, rel=0.02)


def test_zero_gravity_reproduces_bare_constants_bitwise(ref_params):
    dc = og.derive_couplings(og.without_gravity(ref_params))
    assert dc.omega_a == ref_params.bare_freq_a
    assert dc.omega_b == ref_params.bare_freq_b
    assert dc.gamma == 0.0
    assert dc.delta_T == 0.0
    assert dc.lambda_m == dc.Lambda_m
    assert dc.lambda_M == dc.Lambda_M


def test_gamma_magnitude_monotonic_in_separation_and_mass(ref_params):
    separations = np.geomspace(1e-9, 1e-6, 10)
    masses = np.geomspace(1e-15, 1e-11, 10)
    for mass in masses:
        previous = None
        for h in separations:
            p = replace(ref_params, separation_h=float(h), mass_m=float(mass),
                        mass_M=float(mass))
            gamma_mag = abs(og.derive_couplings(p).gamma)
            if previous is not None:
                assert gamma_mag < previous  # |gamma| falls as h grows
            previous = gamma_mag
    for h in separations:
        previous = None
        for mass in masses:
            p = replace(ref_params, separation_h=float(h), mass_m=float(mass),
                        mass_M=float(mass))
            gamma_mag = abs(og.derive_couplings(p).gamma)
            if previous is not None:
                assert gamma_mag > previous  # |gamma| grows with sqrt(M*m)
            previous = gamma_mag


@settings(max_examples=50, deadline=None)
@given(
    mass=st.floats(1e-16, 1e-10),
    h=st.floats(1e-9, 1e-6),
    freq=st.floats(1e2, 1e5),
    alpha=st.floats(0.5, 0.999),
    light=st.floats(1e14, 1e15),
    d=st.floats(0.01, 1.0),
)
def test_derived_coupling_invariants(mass, h, freq, alpha, light, d):
    p = og.PhysicalParams(
        mass_m=mass,
        mass_M=mass,
        separation_h=h,
        cavity_length_d=d,
        bare_freq_a=freq,
        bare_freq_b=alpha * freq,
        light_freq_c=light,
        light_freq_d=light,
    )
    dc = og.derive_couplings(p)
    assert dc.omega_a >= p.bare_freq_a
    assert dc.omega_b >= p.bare_freq_b
    assert dc.gamma < 0.0
    assert dc.delta_T >= 0.0
    # The shift is strictly positive whenever it is representable at all
    # next to the bare frequency (it can underflow for extreme combinations).
    shift = p.grav_constant_G * p.mass_M / p.separation_h**3
    if shift > 8 * np.finfo(float).eps * p.bare_freq_a**2:
        assert dc.delta_T > 0.0
    assert all(math.isfinite(v) for v in dc.as_dict().values())


def _rest_curvatures(p, L):
    """50-digit second derivatives (V_mm, V_MM, V_mM) at rest of the exact
    Newtonian energy of the two end-mass pairs, for rod half-length L."""
    G, M, m, h = (mp.mpf(v) for v in (p.grav_constant_G, p.mass_M, p.mass_m, p.separation_h))

    def potential(theta_m, theta_M):
        chord = 2 * L * mp.sin((theta_M - theta_m) / 2)
        return -2 * G * M * m / mp.sqrt(h**2 + chord**2)

    return tuple(mp.diff(potential, (0, 0), order) for order in ((2, 0), (0, 2), (1, 1)))


@pytest.mark.parametrize("L", ["1e-9", "1e-6"])
@pytest.mark.parametrize("setup", ["reference", "far_heavy"])
def test_couplings_match_the_curvature_of_the_exact_potential(ref_params, setup, L):
    """omega**2 = bare**2 + V_mm/I_m and gamma = (V_mM/hbar) * x_zpf,m * x_zpf,M,
    with I = 2*m*L**2: the quadratic expansion behind the closed forms, checked
    at any rod length L, which cancels from every coupling."""
    p = ref_params if setup == "reference" else replace(
        ref_params, separation_h=3e-8, mass_M=4e-13)
    dc = og.derive_couplings(p)
    with mp.workdps(50):
        L = mp.mpf(L)
        v_mm, v_MM, v_mM = _rest_curvatures(p, L)
        hbar = mp.mpf(p.hbar)
        inertia_m, inertia_M = 2 * mp.mpf(p.mass_m) * L**2, 2 * mp.mpf(p.mass_M) * L**2
        omega_a2 = mp.mpf(p.bare_freq_a) ** 2 + v_mm / inertia_m
        omega_b2 = mp.mpf(p.bare_freq_b) ** 2 + v_MM / inertia_M
        zpf_m = mp.sqrt(hbar / (2 * inertia_m * mp.sqrt(omega_a2)))
        zpf_M = mp.sqrt(hbar / (2 * inertia_M * mp.sqrt(omega_b2)))
        gamma = v_mM / hbar * zpf_m * zpf_M
        for measured, exact in ((dc.omega_a**2, omega_a2), (dc.omega_b**2, omega_b2),
                                (dc.gamma, gamma)):
            assert abs(measured / exact - 1) <= 1e-14


def _mp_potentials(d_theta, l_over_h):
    """High-precision exact and quadratic interaction energies (unit G*M*m, h=1)."""
    mp.mp.dps = 50
    h = mp.mpf(1)
    L = l_over_h * h
    dth = mp.mpf(d_theta)
    exact = -2 / mp.sqrt(h**2 + (2 * L * mp.sin(dth / 2)) ** 2)
    quad = -2 / h + (L**2 / h**3) * dth**2
    return exact, quad


def test_quadratic_expansion_error_is_quartic():
    angles = [mp.mpf(10) ** e for e in np.linspace(-3, 0, 7)]
    rels = []
    for dth in angles:
        exact, quad = _mp_potentials(dth, mp.mpf("0.1"))
        rels.append(abs(exact - quad) / abs(exact))
    slope = np.polyfit(np.log([float(a) for a in angles]), np.log([float(r) for r in rels]), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.2)
    # Halving the relative angle divides the error by 2**4.
    r1 = _mp_potentials(mp.mpf("1e-3"), mp.mpf("0.1"))
    r2 = _mp_potentials(mp.mpf("5e-4"), mp.mpf("0.1"))
    ratio = float((abs(r1[0] - r1[1]) / abs(r1[0])) / (abs(r2[0] - r2[1]) / abs(r2[0])))
    assert ratio == pytest.approx(16.0, abs=0.1)


def test_thermal_env_zero_temperature(ref_params):
    assert og.thermal_occupation(ref_params, 0.0) == 0.0


def test_thermal_env_ln2_occupation(ref_params, ref_couplings):
    t_ln2 = ref_params.hbar * ref_couplings.omega_a / (K_BOLTZMANN * math.log(2.0))
    assert og.thermal_occupation(ref_params, t_ln2) == pytest.approx(1.0, rel=1e-12)


def test_thermal_env_rejects_negative_temperature(ref_params):
    with pytest.raises(ParameterError):
        og.thermal_occupation(ref_params, -0.1)


def test_thermal_occupation_is_si_only(ref_params):
    assert og.thermal_occupation(ref_params, 1e-30) == 0.0  # beyond the exponent guard
    with pytest.raises(ParameterError, match="SI-mode"):
        og.thermal_occupation(setups.dimensionless_params(gamma=1e-2), 0.1)


def test_occupation_is_zero_where_the_thermal_energy_underflows(ref_params):
    # k_B*T is 0.0 in double precision: no division by it.
    assert K_BOLTZMANN * 1e-320 == 0.0
    assert og.thermal_occupation(ref_params, 1e-320) == 0.0


def test_occupation_is_infinite_where_the_exponent_underflows(ref_params):
    # hbar*omega_a/(k_B*T) is 0.0 in double precision: expm1 of it is no divisor.
    tiny_hbar = replace(ref_params, hbar=1e-300)
    assert og.thermal_occupation(tiny_hbar, 1e300) == math.inf


@pytest.mark.parametrize("temperature", [0.0, 1e-9, 0.23, 1.0, 50.0, 1e6, 1e200])
def test_peak_width_is_the_double_of_the_quoted_formula(ref_params, ref_couplings, temperature):
    ratio = 4.0 * K_BOLTZMANN * temperature / (ref_params.hbar * ref_couplings.omega_a)
    quoted = 1.0 / (ref_couplings.lambda_m * math.sqrt(ratio + 2.0))
    assert og.revival_peak_width(ref_couplings, ref_params, temperature) == quoted


def test_peak_width_survives_an_overflowing_ratio(ref_params, ref_couplings):
    # At Q = 1e308 the quoted 4*k_B*T/(hbar*omega_a) = 4*Q overflows, which
    # made the width 0.0; the width is 1/(2*lam_m*sqrt(Q + 1/2)).
    temperature = og.feasibility_bound(ref_params, Q=1e308)
    width = og.revival_peak_width(ref_couplings, ref_params, temperature)
    assert width == pytest.approx(1.0 / (2.0 * ref_couplings.lambda_m * 1e154), rel=1e-12,
                                  abs=0.0)


@pytest.mark.parametrize("kwargs", [{"separation_h": 1e-300}, {"separation_h": 1e300},
                                    {"bare_freq_a": 1e200}],
                         ids=["h_cubed_underflows", "h_cubed_overflows", "square_overflows"])
def test_float_exceptions_are_parameter_errors(ref_params, kwargs):
    with pytest.raises(ParameterError, match="^derived couplings overflow or underflow double "
                                             "precision; check the inputs$"):
        og.derive_couplings(replace(ref_params, **kwargs))


def test_feasibility_bound_reference_point(ref_params):
    assert og.feasibility_bound(ref_params, Q=1e7) == pytest.approx(T_MAX_AT_Q1E7, rel=1e-12,
                                                                    abs=0.0)
    assert og.feasibility_bound(ref_params, Q=1e7) == pytest.approx(0.23, rel=0.05)


def test_feasibility_bound_limits_and_scaling(ref_params):
    assert og.feasibility_bound(ref_params, T=0.0) == 0.0
    doubled = replace(ref_params, bare_freq_a=2 * ref_params.bare_freq_a)
    ratio = (
        og.derive_couplings(doubled).omega_a / og.derive_couplings(ref_params).omega_a
    )
    assert og.feasibility_bound(doubled, Q=1e7) / og.feasibility_bound(
        ref_params, Q=1e7
    ) == pytest.approx(ratio, rel=1e-12)
    with pytest.raises(ParameterError):
        og.feasibility_bound(ref_params)
    with pytest.raises(ParameterError):
        og.feasibility_bound(ref_params, Q=1e7, T=0.1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mass_m": -1e-13},
        {"mass_m": 0.0},
        {"separation_h": 0.0},
        {"bare_freq_a": float("nan")},
        {"grav_constant_G": -1.0},
        {"units": "furlongs"},
        {"beta_m": complex(float("inf"), 0.0)},
        {"direct_gamma": 1e-3},  # only allowed in dimensionless mode
    ],
)
def test_invalid_parameters_rejected(ref_params, kwargs):
    with pytest.raises(ParameterError):
        replace(ref_params, **kwargs)


def test_config_keys_are_the_parameter_fields():
    assert PARAM_KEYS == {f.name for f in fields(og.PhysicalParams)}


def test_dimensionless_mode_requires_direct_couplings():
    with pytest.raises(ParameterError, match="direct_gamma"):
        og.PhysicalParams(
            mass_m=1.0, mass_M=1.0, separation_h=1.0, cavity_length_d=1.0,
            bare_freq_a=1.0, bare_freq_b=0.9, light_freq_c=1.0, light_freq_d=1.0,
            hbar=1.0, units="dimensionless",
        )


def test_dimensionless_couplings_pass_through():
    p = setups.dimensionless_params(gamma=-2e-3, omega_a=1.0, omega_b=0.8,
                                    lambda_m=0.3, lambda_M=0.0)
    dc = og.derive_couplings(p)
    assert dc.gamma == -2e-3
    assert dc.lambda_m == 0.3 and dc.lambda_M == 0.0
    assert dc.omega_a == 1.0 and dc.omega_b == 0.8
    assert dc.delta_T == 0.0


def test_default_constants_are_codata():
    p = setups.reference_params()
    assert p.grav_constant_G == G_NEWTON == 6.67430e-11
    assert p.hbar == HBAR == 1.054571817e-34
    assert K_BOLTZMANN == 1.380649e-23
