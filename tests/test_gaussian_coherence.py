"""The exact Gaussian path coherence behind the thermal Monte Carlo's oracle
method, against the truncated Fock-ladder propagation, the gravity-free
closed form and its known deficit at the SI reference."""

import math
from dataclasses import replace

import numpy as np
import pytest

import optograv as og
from optograv import analytic, gaussian
from optograv.errors import ParameterError

INPUTS = {"beta_m": 0.7 - 0.4j, "beta_M": 0.3 + 0.5j}


@pytest.mark.parametrize("omega_b", [1.0, 0.9, 1.0 + 1e-9])
@pytest.mark.parametrize("gamma", [0.0, 1e-9, 1e-6, 1e-2, 5e-2])
def test_matches_the_fock_ladder(gamma, omega_b):
    p = og.dimensionless_params(gamma=gamma, omega_b=omega_b, **INPUTS)
    dc = og.derive_couplings(p)
    spec = og.HilbertSpec(35, 37)
    times = np.array([0.0, 0.3, 2.0, 2.0 * math.pi, 13.0, 5.0 * 2.0 * math.pi])
    states = og.Propagator(dc, spec).evolve(og.initial_state(p, spec), times)
    # Photon c's path-coherence element <cavity-branch| rho |bypass-branch>.
    reference = np.sum(states[:, 1] * np.conj(states[:, 0]), axis=(1, 2, 3))
    got = gaussian.gaussian_coherence(dc, [p.beta_m], p.beta_M, times)
    assert got.shape == (times.size, 1)
    assert np.max(np.abs(got[:, 0] - reference)) <= 1e-12


@pytest.mark.parametrize("config", ["reference", "dimensionless"])
def test_gravity_free_equals_the_closed_form(config):
    p = og.reference_params() if config == "reference" else og.dimensionless_params(gamma=1e-2)
    dc = replace(og.derive_couplings(p), gamma=0.0)
    rng = np.random.default_rng(7)
    betas = (rng.normal(size=200) + 1j * rng.normal(size=200)) / math.sqrt(2.0)
    times = np.linspace(0.0, 5.0 * 2.0 * math.pi / dc.omega_a, 41)
    got = gaussian.gaussian_coherence(dc, betas, 0.3 - 0.8j, times)
    expected = np.array([analytic.photon_offdiagonal(betas, dc.lambda_m, dc.omega_a, t)
                         for t in times])
    assert np.max(np.abs(got - expected)) <= 1e-14


def test_si_reference_deficit_at_the_revivals(ref_params, ref_couplings):
    period = 2.0 * math.pi / ref_couplings.omega_a
    times = np.array([1.0, 2.0, 5.0]) * period

    def deficit(dc):
        coherence = gaussian.gaussian_coherence(dc, [ref_params.beta_m], ref_params.beta_M, times)
        return 1.0 - 2.0 * np.abs(coherence[:, 0])

    deficits = deficit(ref_couplings)
    assert deficits == pytest.approx([2.34e-12, 8.24e-12, 2.44e-11], rel=1e-2)
    doubled = deficit(replace(ref_couplings, gamma=2.0 * ref_couplings.gamma))
    assert doubled / deficits == pytest.approx([4.0, 4.0, 4.0], rel=1e-3)


@pytest.mark.parametrize("gamma", [0.5, 0.6, -0.5])
def test_unstable_modes_are_refused(gamma):
    dc = og.derive_couplings(og.dimensionless_params(gamma=gamma, omega_a=1.0, omega_b=1.0))
    with pytest.raises(ParameterError, match="unstable"):
        gaussian.gaussian_coherence(dc, [1.0], 1.0, [1.0])


@pytest.mark.parametrize("times", [[math.nan], [-1.0], [math.inf], [], [[1.0]]])
def test_times_must_be_finite_non_negative_and_one_dimensional(times):
    dc = og.derive_couplings(og.dimensionless_params(gamma=1e-2))
    with pytest.raises(ParameterError, match="times"):
        gaussian.gaussian_coherence(dc, [1.0], 1.0, times)
