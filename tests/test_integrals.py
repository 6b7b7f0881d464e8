"""The exact first-order time integrals against a fixed-node quadrature reference.

The reference evaluates each first-order integrand straight from its
defining formula at Gauss-Legendre nodes over s in [-t, 0], with a fixed
node count and no refinement.  At the times used here (up to 1.3 periods)
128 nodes converge the reference to rounding, so the exact integrator must
agree with it to 1e-12 relative.
"""

import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

import optograv as og
import dense_reference
import setups
from dense_reference import mode_factor
from optograv import analytic, oracle
from optograv.config import load_params

NODES = 128
RTOL = 1e-12
PERIOD_FRACTIONS = (0.37, 0.75, 1.3)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SETTINGS = {
    "si_reference": lambda: setups.reference_params(),
    "boosted": lambda: load_params(CONFIGS / "dimensionless.cfg"),
    "degenerate": lambda: setups.dimensionless_params(gamma=5e-3, omega_a=1.0, omega_b=1.0),
    "complex_beta": lambda: setups.dimensionless_params(
        gamma=1e-2, beta_m=0.7 + 0.4j, beta_M=0.6 - 0.8j
    ),
}


@pytest.fixture(params=sorted(SETTINGS))
def setting(request):
    p = SETTINGS[request.param]()
    dc = og.derive_couplings(p)
    times = [f * 2.0 * math.pi / dc.omega_a for f in PERIOD_FRACTIONS]
    return p, dc, oracle.default_spec(p, dc), times


def offsets(t):
    """Gauss-Legendre nodes and weights on s in [-t, 0]."""
    x, w = np.polynomial.legendre.leggauss(NODES)
    return 0.5 * t * (x - 1.0), 0.5 * t * w


def reference_bracket(dc, p, t):
    """The replaced integral form of the first-order visibility bracket."""
    s, w = offsets(t)
    u = s + t
    envelope = 1.0 - np.cos(dc.omega_a * s)
    drive = 2.0 * (complex(p.beta_M) * np.exp(-1j * dc.omega_b * u)).real + dc.lambda_M * (
        1.0 - np.cos(dc.omega_b * u)
    )
    return 2.0 * dc.gamma * dc.lambda_m * float(np.sum(w * envelope * drive))


def reference_action(dc, p, spec, t):
    """(A psi0(t), psi0(t)) as (2, 2, dim_a, dim_b) tensors, A the gamma-stripped
    integral of the frame-rotated coupling generator."""
    base = oracle.closed_form_state(dc, p, spec, t)
    acc = np.zeros(spec.dims, dtype=complex)
    for s, wk in zip(*offsets(t)):
        fa = [mode_factor(spec.dim_a, dc.lambda_m, dc.omega_a, s, bit) for bit in (0, 1)]
        fb = [mode_factor(spec.dim_b, dc.lambda_M, dc.omega_b, s, bit) for bit in (0, 1)]
        for p_bit in (0, 1):
            for q_bit in (0, 1):
                acc[p_bit, q_bit] += wk * (fa[p_bit] @ base[p_bit, q_bit] @ fb[q_bit].T)
    return acc, base


def reference_entropy_coefficient(dc, p, spec, t):
    """||(1 - P_1)(1 - P_2) A psi||^2 with the system factors read off the
    product state's leading singular vectors."""
    acc, base = reference_action(dc, p, spec, t)
    shape = (2 * spec.dim_a, 2 * spec.dim_b)
    x = acc.transpose(0, 2, 1, 3).reshape(shape)
    u, _, vh = np.linalg.svd(base.transpose(0, 2, 1, 3).reshape(shape))
    psi1, psi2 = u[:, 0], vh[0]
    x = x - np.outer(psi1, psi1.conj() @ x)
    x = x - np.outer(x @ psi2.conj(), psi2)
    return float(np.linalg.norm(x)) ** 2


def test_bracket_matches_reference(setting):
    p, dc, _, times = setting
    exact = analytic.first_order_bracket(dc, p, times)
    reference = np.array([reference_bracket(dc, p, t) for t in times])
    assert np.max(np.abs(exact - reference)) <= RTOL * np.max(np.abs(reference))


AGREEMENT_BUILDS = pytest.mark.parametrize("build", [
    setups.reference_params,
    lambda: setups.dimensionless_params(gamma=1e-2, beta_M=0.3 + 0.5j),
    lambda: setups.dimensionless_params(gamma=5e-3, omega_a=1.0, omega_b=1.0),
], ids=["si_reference", "boosted_complex_beta", "degenerate"])


def agreement_times(dc):
    """t = 0, a subnormal and a tiny time, then 2048 times over three periods."""
    periods = np.linspace(0.0, 3.0 * 2.0 * math.pi / dc.omega_a, 2048)
    return np.concatenate([[0.0, 5e-324, 1e-140], periods])


@AGREEMENT_BUILDS
def test_bracket_from_the_integrated_coefficients_matches_the_tables(build):
    """The bracket contracted from W and one vector per rod agrees with the
    bracket read off the 6x6 integrated coefficients K."""
    p = build()
    dc = og.derive_couplings(p)
    times = agreement_times(dc)
    bracket = analytic.first_order_bracket(dc, p, times)
    reference = dense_reference.first_order_bracket(dc, p, times)
    assert np.max(np.abs(bracket - reference)) <= 1e-14 * np.max(np.abs(reference))


@AGREEMENT_BUILDS
def test_entropy_from_the_rod_rows_matches_the_sector_tensor(build):
    """2 gamma^2 ||X W Y^T||^2 agrees with the projected 4x6 families
    contracted with K, and both are exactly 0 at t = 0."""
    dc = og.derive_couplings(build())
    times = agreement_times(dc)
    entropy = analytic.linear_entropy_first_order(dc, times)
    reference = dense_reference.coherent_linear_entropy(dc, times)
    assert entropy[0] == 0.0 and reference[0] == 0.0
    assert np.max(np.abs(entropy - reference)) <= 1e-14 * np.max(np.abs(reference))


def test_dyson_state_matches_reference(setting):
    p, dc, spec, times = setting
    for t in times:
        exact = og.dyson_first_order_state(dc, p, spec, t)
        reference = (-1j * dc.gamma) * reference_action(dc, p, spec, t)[0]
        assert np.linalg.norm(exact - reference) <= RTOL * np.linalg.norm(reference)


def test_entropy_coefficient_matches_reference(setting):
    p, dc, spec, times = setting
    entropies = analytic.linear_entropy_first_order(dc, times)
    for t, entropy in zip(times, entropies):
        reference = reference_entropy_coefficient(dc, p, spec, t)
        assert entropy == pytest.approx(2.0 * dc.gamma**2 * reference, rel=RTOL, abs=0.0)


def test_exponential_integrals_limits():
    """Zero frequency integrates to t, zero time to 0, and a tiny frequency
    splitting stays continuous with the degenerate value."""
    assert np.all(np.array(analytic.exponential_integrals(1.0, 1.0, 0.0)) == 0.0)
    w = analytic.exponential_integrals(1.0, 1.0, 2.5)
    assert w[0][2] == 2.5 and w[2][0] == 2.5 and w[1][1] == 2.5
    near = analytic.exponential_integrals(1.0, 1.0 + 1e-9, 2.5)
    assert near[0][2] == pytest.approx(2.5, rel=1e-8)


@pytest.mark.parametrize("omega_b, t", [(1.0 + 1e-9, 2.5), (1.0 - 3e-13, 40.0), (0.9, 1e-6),
                                        (0.9, 7.3), (1.0, 2.5)])
def test_exponential_integrals_match_their_40_digit_values(omega_b, t):
    """Near-equal frequencies leave a phase of 1e-9 or less, where 1 - cos
    rounds to 0: the imaginary part must still be t*x/2 to double precision.
    |W| <= t, and the rounding of each phase x = rate*t alone moves W by up
    to about 2e-16*t."""
    got = analytic.exponential_integrals(1.0, omega_b, t)
    with mpmath.workdps(40):
        for k, sa in enumerate((-1, 0, 1)):
            for l, sb in enumerate((-1, 0, 1)):
                z = -1j * (sa * mpmath.mpf(1.0) + sb * mpmath.mpf(omega_b)) * mpmath.mpf(t)
                exact = complex(t if z == 0 else t * mpmath.expm1(z) / z)
                assert abs(got[k][l] - exact) <= 1e-15 * t, (k, l)


def test_exponential_integrals_at_tiny_times():
    """Below |z| = 1e-150 the integral is t to double precision; subnormal
    times must not turn into 0 or nan through an underflowing product."""
    for t in (5e-324, 2.2e-311, 1e-300, 1e-200, 1e-160):
        w = np.array(analytic.exponential_integrals(1.0, 0.9, t))
        assert np.all(w == t)
    w = np.array(analytic.exponential_integrals(1.0, 0.9, 1e-140))
    assert np.allclose(w, 1e-140, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_integrals_refuse_non_finite_times(bad):
    p = setups.dimensionless_params(gamma=1e-2)
    dc = og.derive_couplings(p)
    with pytest.raises(og.ParameterError, match="times"):
        analytic.exponential_integrals(1.0, 0.9, bad)
    for times in (bad, [0.5, bad]):
        with pytest.raises(og.ParameterError, match="times"):
            analytic.linear_entropy_first_order(dc, times)
        with pytest.raises(og.ParameterError, match="times"):
            analytic.first_order_bracket(dc, p, times)


def test_exponential_integrals_take_one_time():
    assert np.array(analytic.exponential_integrals(1.0, 0.9, 0.5)).shape == (3, 3)
    with pytest.raises(og.ParameterError, match="one time"):
        analytic.exponential_integrals(1.0, 0.9, [0.5, 0.5])
