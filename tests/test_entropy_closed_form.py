"""The closed-form first-order entropy against the truncated-Fock route it replaced.

``analytic.linear_entropy_first_order`` evaluates ||(1 - P_1)(1 - P_2) A psi||^2
as ||X W Y^T||^2 with two rows per rod, independent of the input amplitudes;
``dense_reference.linear_entropy_first_order`` builds the system families in
a truncated Fock basis at the rods' actual amplitudes.  Both must agree to
1e-13 relative, which also shows that the entropy does not depend on the
input amplitudes; for random draws, which may fall near a zero of the
entropy, the norms behind it are compared, to 5e-14 relative or 1e-15.  At
the SI reference the closed form also meets its 60-digit transcription.
"""

import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_reference
import optograv as og
import setups
from optograv import analytic
from optograv.config import load_params
from optograv.errors import ParameterError

RTOL = 1e-13
NORM_RTOL, NORM_ATOL = 5e-14, 1e-15

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BOOSTED = dict(gamma=1e-2, lambda_m=0.445, lambda_M=0.521)

SETTINGS = {
    "si_reference": lambda: setups.reference_params(),
    "dimensionless_config": lambda: load_params(CONFIGS / "dimensionless.cfg"),
    "complex_beta": lambda: setups.dimensionless_params(
        gamma=1e-2, beta_m=0.7 + 0.4j, beta_M=0.6 - 0.8j
    ),
    "degenerate": lambda: setups.dimensionless_params(gamma=5e-3, omega_a=1.0, omega_b=1.0),
    "beta_pair_1": lambda: setups.dimensionless_params(**BOOSTED, beta_m=3 + 2j, beta_M=-2j),
    "beta_pair_2": lambda: setups.dimensionless_params(**BOOSTED, beta_m=0.2 - 1.1j, beta_M=2.5),
}


def fock_entropies(dc, p, times):
    return np.array([dense_reference.linear_entropy_first_order(dc, p, float(t))
                     for t in times])


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_matches_fock_reference_from_1e_minus_9_to_100_periods(name):
    p = SETTINGS[name]()
    dc = og.derive_couplings(p)
    times = 2.0 * math.pi / dc.omega_a * np.logspace(-9.0, 2.0, 34)
    closed = analytic.linear_entropy_first_order(dc, times)
    reference = fock_entropies(dc, p, times)
    assert np.all(reference > 0.0)
    assert np.max(np.abs(closed - reference) / reference) <= RTOL


#: A draw with Sigma*t/2 near 4*pi, where the entropy nearly vanishes.
NEAR_ZERO = dict(lam_m=0.0, lam_M=0.0, omega_b=0.89453125, beta=(0.0, 0.0, 0.0, 1.0),
                 t=13.265625)


@settings(max_examples=25, deadline=None)
@example(**NEAR_ZERO)
@given(
    lam_m=st.floats(0.0, 0.6),
    lam_M=st.floats(0.0, 0.6),
    omega_b=st.floats(0.5, 1.5),
    beta=st.tuples(*[st.floats(-2.0, 2.0)] * 4),
    t=st.floats(0.0, 20.0),
)
def test_non_negative_and_independent_of_the_input_amplitudes(lam_m, lam_M, omega_b, beta, t):
    p = setups.dimensionless_params(gamma=1e-2, lambda_m=lam_m, lambda_M=lam_M,
                                    omega_b=omega_b, beta_m=complex(beta[0], beta[1]),
                                    beta_M=complex(beta[2], beta[3]))
    dc = og.derive_couplings(p)
    (entropy,) = analytic.linear_entropy_first_order(dc, [t])
    assert entropy >= 0.0
    reference = dense_reference.linear_entropy_first_order(dc, p, t)
    # S = 2 gamma^2 ||v||^2, and the Fock reference sums O(1) family entries, so
    # its error in ||v|| is absolute round-off: compare the norms, rel 5e-14 (as
    # 1e-13 on S) with an absolute floor of 1e-15 for S near a zero.
    scale = 2.0 * dc.gamma**2
    assert math.sqrt(entropy / scale) == pytest.approx(math.sqrt(reference / scale),
                                                       rel=NORM_RTOL, abs=NORM_ATOL)


def test_near_a_zero_the_closed_form_matches_its_40_digit_value():
    # At lambda = 0 the entropy is 8 gamma^2 sin^2(Sigma t/2) / Sigma^2, Sigma = omega_a + omega_b.
    dc = og.derive_couplings(setups.dimensionless_params(
        gamma=1e-2, lambda_m=0.0, lambda_M=0.0, omega_b=NEAR_ZERO["omega_b"]))
    t = NEAR_ZERO["t"]
    with mpmath.workdps(40):
        total = mpmath.mpf(dc.omega_a) + mpmath.mpf(dc.omega_b)
        exact = float(8 * mpmath.mpf(dc.gamma) ** 2 * mpmath.sin(total * t / 2) ** 2 / total**2)
    (entropy,) = analytic.linear_entropy_first_order(dc, [t])
    assert entropy == pytest.approx(exact, rel=RTOL, abs=1e-300)


def test_batched_times_equal_one_call_per_time():
    # Times in no particular order.
    dc = og.derive_couplings(SETTINGS["dimensionless_config"]())
    times = np.random.default_rng(5).uniform(0.0, 30.0, 131)
    batched = analytic.linear_entropy_first_order(dc, times)
    assert len(batched) == len(times)
    for t, s in zip(times, batched):
        assert s == analytic.linear_entropy_first_order(dc, [t])[0]


def test_zero_gamma_and_zero_time_are_exactly_zero():
    p = SETTINGS["dimensionless_config"]()
    dc0 = og.derive_couplings(og.without_gravity(p))
    assert analytic.linear_entropy_first_order(dc0, [0.0, 1.0, 30.0]) == [0.0, 0.0, 0.0]
    assert analytic.linear_entropy_first_order(og.derive_couplings(p), [0.0])[0] == 0.0


def test_negative_times_are_refused():
    dc = og.derive_couplings(setups.reference_params())
    with pytest.raises(ParameterError, match="times"):
        analytic.linear_entropy_first_order(dc, [1e-3, -1e-3])


def mp_entropy(dc, t):
    """2 gamma^2 ||X W Y^T||^2 at time t, transcribed at 60 digits from the
    couplings' doubles: X, Y each rod's path-difference and one-phonon rows,
    W the exponential integrals over s in [-t, 0]."""
    with mpmath.workdps(60):
        t = mpmath.mpf(t)
        omegas = mpmath.mpf(dc.omega_a), mpmath.mpf(dc.omega_b)
        rows = []
        for lam, omega in zip((dc.lambda_m, dc.lambda_M), omegas):
            rot, half = mpmath.expj(-omega * t), mpmath.mpf(lam) / 2
            rows.append([[half * rot, -2 * half, half * mpmath.conj(rot)], [0, 0, 1]])
        weights = [[t if z == 0 else t * mpmath.expm1(z) / z
                    for sb in (-1, 0, 1) for z in [-1j * (sa * omegas[0] + sb * omegas[1]) * t]]
                   for sa in (-1, 0, 1)]
        total = sum(abs(sum(x[k] * weights[k][l] * y[l] for k in range(3) for l in range(3))) ** 2
                    for x in rows[0] for y in rows[1])
        return float(2 * mpmath.mpf(dc.gamma) ** 2 * total)


def test_si_reference_matches_its_60_digit_value():
    dc = og.derive_couplings(SETTINGS["si_reference"]())
    times = np.linspace(0.0, 3.0 * 2.0 * math.pi / dc.omega_a, 97)[1:]
    entropy = analytic.linear_entropy_first_order(dc, times)
    exact = np.array([mp_entropy(dc, t) for t in times])
    assert np.max(np.abs(entropy - exact) / exact) <= 1e-14
