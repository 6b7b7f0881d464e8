"""The exact Gaussian layer: the complex path coherence (test side,
``dense_reference.coherence``) against the Fock ladder and the gravity-free
closed form; ``gaussian.visibility`` against the Fock oracle at any
coherent amplitudes, the coherence's modulus and the SI revival deficits,
and its thermal average against the gravity-free law, the coherent value
and a Monte Carlo of the coherence."""

import math
from dataclasses import replace

import numpy as np
import pytest

import dense_reference
import optograv as og
import setups
from optograv import analytic, gaussian
from optograv.errors import ParameterError

INPUTS = {"beta_m": 0.7 - 0.4j, "beta_M": 0.3 + 0.5j}


@pytest.mark.parametrize("omega_b", [1.0, 0.9, 1.0 + 1e-9])
@pytest.mark.parametrize("gamma", [0.0, 1e-9, 1e-6, 1e-2, 5e-2])
def test_matches_the_fock_ladder(gamma, omega_b):
    p = setups.dimensionless_params(gamma=gamma, omega_b=omega_b, **INPUTS)
    dc = og.derive_couplings(p)
    spec = og.HilbertSpec(35, 37)
    times = np.array([0.0, 0.3, 2.0, 2.0 * math.pi, 13.0, 5.0 * 2.0 * math.pi])
    propagator, psi0 = og.Propagator(dc, spec), og.closed_form_state(dc, p, spec, 0.0)
    states = np.array([propagator.evolve(psi0, t) for t in times])
    # Photon c's path-coherence element <cavity-branch| rho |bypass-branch>.
    reference = np.sum(states[:, 1] * np.conj(states[:, 0]), axis=(1, 2, 3))
    got = dense_reference.coherence(dc, [p.beta_m], p.beta_M, times)
    assert got.shape == (times.size, 1)
    assert np.max(np.abs(got[:, 0] - reference)) <= 1e-12


@pytest.mark.parametrize("gamma", [1e-3, 1e-2])
def test_visibility_matches_the_fock_oracle_for_any_amplitudes(gamma):
    times = np.array([0.3, 2.0, 2.0 * math.pi, 13.0, 5.0 * 2.0 * math.pi])
    spec = og.HilbertSpec(35, 37)
    for beta_m, beta_M in ((0.7 - 0.4j, 0.3 + 0.5j), (-0.2 + 0.9j, -0.6 - 0.1j)):
        p = setups.dimensionless_params(gamma=gamma, beta_m=beta_m, beta_M=beta_M)
        dc = og.derive_couplings(p)
        propagator, psi0 = og.Propagator(dc, spec), og.closed_form_state(dc, p, spec, 0.0)
        got = gaussian.visibility(dc, 0.0, times)
        for t, v in zip(times, got):
            assert abs(og.visibility_exact(propagator.evolve(psi0, t)) - v) <= 1e-12, (beta_m, t)


def modulus_cases():
    si = setups.reference_params()
    yield "SI-reference", og.derive_couplings(si)
    yield "SI-reference,G=0", og.derive_couplings(og.without_gravity(si))
    for gamma in (0.0, 1e-2, 0.2):
        yield f"dimensionless,gamma={gamma}", og.derive_couplings(
            setups.dimensionless_params(gamma=gamma))


MODULUS_CASES = dict(modulus_cases())


@pytest.mark.parametrize("name", MODULUS_CASES)
def test_visibility_is_the_thermal_coherence_modulus(name):
    dc = MODULUS_CASES[name]
    times = np.linspace(0.0, 10.0 * 2.0 * math.pi / dc.omega_a, 401)
    for nbar in (0.0, 0.5, 5.0):
        got = gaussian.visibility(dc, nbar, times)
        for beta_M in (1.0, 0.3 + 0.5j):
            expected = 2.0 * np.abs(dense_reference.thermal_coherence(dc, nbar, beta_M, times))
            assert np.max(np.abs(got - expected)) <= 1e-15, (nbar, beta_M)


@pytest.mark.parametrize("config", ["reference", "dimensionless"])
def test_gravity_free_equals_the_closed_form(config):
    p = (setups.reference_params() if config == "reference"
         else setups.dimensionless_params(gamma=1e-2))
    dc = replace(og.derive_couplings(p), gamma=0.0)
    rng = np.random.default_rng(7)
    betas = (rng.normal(size=200) + 1j * rng.normal(size=200)) / math.sqrt(2.0)
    times = np.linspace(0.0, 5.0 * 2.0 * math.pi / dc.omega_a, 41)
    got = dense_reference.coherence(dc, betas, 0.3 - 0.8j, times)
    expected = np.array([analytic.photon_offdiagonal(betas, dc.lambda_m, dc.omega_a, t)
                         for t in times])
    assert np.max(np.abs(got - expected)) <= 1e-14


def test_si_reference_deficit_at_the_revivals(ref_params, ref_couplings):
    period = 2.0 * math.pi / ref_couplings.omega_a
    times = np.array([1.0, 2.0, 5.0]) * period

    def deficit(dc):
        return 1.0 - gaussian.visibility(dc, 0.0, times)

    deficits = deficit(ref_couplings)
    assert deficits == pytest.approx([2.34e-12, 8.24e-12, 2.44e-11], rel=1e-2, abs=0.0)
    doubled = deficit(replace(ref_couplings, gamma=2.0 * ref_couplings.gamma))
    assert doubled / deficits == pytest.approx([4.0, 4.0, 4.0], rel=1e-3)


def equivalence_couplings():
    for gamma in (0.0, 1e-9, 1e-6, 1e-2, 0.2):
        for omega_b in (0.9, 1.0, 1.0 + 1e-9):
            p = setups.dimensionless_params(gamma=gamma, omega_b=omega_b)
            yield f"gamma={gamma},omega_b={omega_b}", og.derive_couplings(p)
    si = og.derive_couplings(setups.reference_params())
    yield "SI-reference", si
    yield "SI-reference,gamma=0", replace(si, gamma=0.0)


EQUIVALENCE_CASES = dict(equivalence_couplings())


@pytest.mark.parametrize("name", EQUIVALENCE_CASES)
def test_closed_form_modes_match_the_eigendecomposition(name):
    dc = EQUIVALENCE_CASES[name]
    times = np.linspace(0.0, 10.0 * 2.0 * math.pi / dc.omega_a, 401)
    common, k = gaussian._flow(dc, times)
    ref_common, ref_k = dense_reference.eig_flow(dc, times)
    assert np.max(np.abs(common - ref_common)) <= 1e-13
    assert np.max(np.abs(k - ref_k)) <= 1e-13


def test_closed_form_modes_match_the_eigendecomposition_near_the_stability_edge():
    # omega_a*omega_b = 1.01 * 4 gamma^2: u and v grow as 1/(omega_a*omega_b -
    # 4 gamma^2), to |k| ~ 130, and J M's eigenvectors for +-i Omega_- near
    # coalescence, so both routes lose digits in proportion to |k|.  The bound
    # is 1e-13 of the largest |k| (2e-14 of it measured; a 50-digit matrix
    # exponential puts the closed form the closer of the two).
    dc = og.derive_couplings(setups.dimensionless_params(
        gamma=math.sqrt(1.0 / (4.0 * 1.01)), omega_b=1.0))
    times = np.linspace(0.0, 10.0 * 2.0 * math.pi, 401)
    common, k = gaussian._flow(dc, times)
    ref_common, ref_k = dense_reference.eig_flow(dc, times)
    scale = np.max(np.abs(ref_k))
    assert scale > 100.0
    assert np.max(np.abs(common - ref_common)) <= 1e-13 * scale
    assert np.max(np.abs(k - ref_k)) <= 1e-13 * scale


def test_needs_no_dense_linear_algebra(monkeypatch):
    p = setups.dimensionless_params(gamma=1e-2, **INPUTS)
    dc = og.derive_couplings(p)
    times = np.linspace(0.0, 3.0 * 2.0 * math.pi, 31)
    expected = (*gaussian._flow(dc, times), gaussian.visibility(dc, 0.5, times))

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in ("eig", "inv", "solve", "eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    got = (*gaussian._flow(dc, times), gaussian.visibility(dc, 0.5, times))
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))


@pytest.mark.parametrize("gamma", [0.5, 0.6, -0.5])
def test_unstable_modes_are_refused(gamma):
    dc = og.derive_couplings(setups.dimensionless_params(gamma=gamma, omega_a=1.0, omega_b=1.0))
    with pytest.raises(ParameterError, match="unstable"):
        gaussian.visibility(dc, 0.0, [1.0])


@pytest.mark.parametrize("times", [[math.nan], [-1.0], [math.inf], [], [[1.0]]])
def test_times_must_be_finite_non_negative_and_one_dimensional(times):
    dc = og.derive_couplings(setups.dimensionless_params(gamma=1e-2))
    with pytest.raises(ParameterError, match="times"):
        gaussian.visibility(dc, 0.0, times)


DIMENSIONLESS = setups.dimensionless_params(gamma=1e-2, **INPUTS)
THERMAL_TIMES = np.array([0.3, 0.7, 1.0, 2.3]) * 2.0 * math.pi


@pytest.mark.parametrize("nbar", [0.0, 0.5, 5.0])
def test_thermal_without_gravity_is_the_law(nbar):
    dc = replace(og.derive_couplings(DIMENSIONLESS), gamma=0.0)
    times = np.linspace(0.0, 5.0 * 2.0 * math.pi, 41)
    got = gaussian.visibility(dc, nbar, times)
    assert np.max(np.abs(got - analytic.thermal_visibility(dc, nbar, times))) <= 1e-15


@pytest.mark.parametrize("config", ["reference", "dimensionless"])
def test_thermal_at_zero_occupation_is_the_coherent_value(config):
    p = setups.reference_params() if config == "reference" else DIMENSIONLESS
    dc = og.derive_couplings(p)
    times = np.linspace(0.0, 3.0 * 2.0 * math.pi / dc.omega_a, 97)
    got = gaussian.visibility(dc, 0.0, times)
    coherent = 2.0 * np.abs(dense_reference.coherence(dc, [p.beta_m], p.beta_M, times)[:, 0])
    assert np.max(np.abs(got - coherent)) <= 1e-15


def test_thermal_log_coherence_is_linear_in_occupation():
    dc = og.derive_couplings(DIMENSIONLESS)
    logs = [np.log(gaussian.visibility(dc, nbar, THERMAL_TIMES)) for nbar in (0.0, 0.5, 1.0, 4.0)]
    slope = logs[2] - logs[0]
    assert np.all(slope < 0.0)
    for nbar, value in zip((0.5, 4.0), (logs[1], logs[3])):
        assert np.max(np.abs(value - logs[0] - nbar * slope)) <= 1e-12


@pytest.mark.parametrize("gamma", [1e-2, 5e-2])
def test_thermal_within_three_sigma_of_a_montecarlo(gamma):
    dc = og.derive_couplings(setups.dimensionless_params(gamma=gamma, **INPUTS))
    means, errors = dense_reference.coupled_thermal_montecarlo(
        dc, DIMENSIONLESS.beta_M, 0.5, THERMAL_TIMES, 4000, seed=23)
    exact = gaussian.visibility(dc, 0.5, THERMAL_TIMES)
    assert np.all(np.abs(means - exact) <= 3.0 * errors + 1e-12)


def test_thermal_rejects_bad_occupation():
    # One check serves the law, the exact visibility and the Monte Carlo.
    dc = og.derive_couplings(DIMENSIONLESS)
    calls = (analytic.thermal_visibility, gaussian.visibility,
             lambda *args: gaussian.thermal_visibility_montecarlo(*args, 100, 0))
    for nbar in (-0.5, math.nan, math.inf):
        for call in calls:
            with pytest.raises(ParameterError) as raised:
                call(dc, nbar, [1.0])
            assert str(raised.value) == f"nbar must be >= 0, got {nbar!r}"
