"""The closed-form first-order entropy against the truncated-Fock route it replaced.

``analytic.linear_entropy_first_order`` evaluates ||(1 - P_1)(1 - P_2) A psi||^2
in a four-dimensional coherent basis per system, at zero input amplitude;
``dense_reference.linear_entropy_first_order`` builds the same families in a
truncated Fock basis at the rods' actual amplitudes.  Both must agree to
1e-13 relative, which also shows that the entropy does not depend on the
input amplitudes.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference
import optograv as og
import setups
from optograv import analytic
from optograv.config import load_params
from optograv.errors import ParameterError

RTOL = 1e-13

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


@settings(max_examples=25, deadline=None)
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
    assert entropy == pytest.approx(reference, rel=RTOL, abs=1e-300)


def test_batched_times_equal_one_call_per_time():
    # More times than one block of the evaluation, in no particular order.
    dc = og.derive_couplings(SETTINGS["dimensionless_config"]())
    times = np.random.default_rng(5).uniform(0.0, 30.0, 2 * analytic._ENTROPY_BLOCK + 3)
    batched = analytic.linear_entropy_first_order(dc, times)
    assert batched.shape == times.shape
    for t, s in zip(times, batched):
        assert s == pytest.approx(analytic.linear_entropy_first_order(dc, [t])[0], rel=1e-15)


def test_zero_gamma_and_zero_time_are_exactly_zero():
    p = SETTINGS["dimensionless_config"]()
    dc0 = og.derive_couplings(og.without_gravity(p))
    assert np.all(analytic.linear_entropy_first_order(dc0, [0.0, 1.0, 30.0]) == 0.0)
    assert analytic.linear_entropy_first_order(og.derive_couplings(p), [0.0])[0] == 0.0


def test_negative_times_are_refused():
    dc = og.derive_couplings(setups.reference_params())
    with pytest.raises(ParameterError, match="times"):
        analytic.linear_entropy_first_order(dc, [1e-3, -1e-3])
