"""Exact propagation layer: operators, states, observables, residuals, sampling."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference
import optograv as og
import setups
from optograv import oracle
from optograv.config import load_params
from optograv.errors import (
    DimensionLimitError,
    ParameterError,
    TruncationError,
)


def small_setup(gamma=0.0, lambda_m=0.35, lambda_M=0.25, n_max=20, **kwargs):
    p = setups.dimensionless_params(gamma=gamma, lambda_m=lambda_m, lambda_M=lambda_M, **kwargs)
    dc = og.derive_couplings(p)
    return p, dc, og.HilbertSpec(n_max, n_max)


class TestHilbertSpec:
    def test_dimensions(self):
        spec = og.HilbertSpec(3, 5)
        assert spec.dims == (2, 2, 4, 6)
        assert spec.total_dim == 4 * 4 * 6

    def test_desk_scale_guard(self):
        with pytest.raises(DimensionLimitError):
            og.HilbertSpec(200, 200)

    def test_truncation_rule(self):
        # displaced amplitude 1 + 2*0.445 = 1.89: rule gives 35
        assert oracle.suggested_n_max(1.0, 0.445) == 35
        assert oracle.suggested_n_max(0.0, 0.0) == 16

    def test_tail_mass_poisson(self):
        # mean occupation 1: tail beyond 4 is 1 - e^{-1} * sum_{0..4} 1/n!
        expected = 1.0 - math.exp(-1) * sum(1.0 / math.factorial(n) for n in range(5))
        assert oracle.coherent_tail_mass(1.0, 4) == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert oracle.coherent_tail_mass(0.0, 4) == 0.0
        # An amplitude past the float range holds all its mass beyond any ladder.
        assert oracle.coherent_tail_mass(1e200, 4) == oracle.coherent_tail_mass(math.inf, 4) == 1.0

    @pytest.mark.parametrize("amplitude, n_max", [(1.0, 4), (3.0, 40), (4.0, 50), (1.89, 35),
                                                  (27.0, 1100), (28.0, 1100)])
    def test_tail_mass_matches_its_60_digit_value(self, amplitude, n_max):
        """Near the tolerance a tail of 1 minus the kept mass cancels, and
        past |amplitude| ~ 27.3 exp(-|amplitude|**2) underflows."""
        with mpmath.workdps(60):
            want = float(mpmath.gammainc(n_max + 1, 0, mpmath.mpf(amplitude) ** 2,
                                         regularized=True))
        got = oracle.coherent_tail_mass(amplitude, n_max)
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_large_amplitude_state_builds(self):
        p, dc, _ = small_setup(beta_m=28.0, beta_M=0.0)
        spec = og.HilbertSpec(1100, 13)
        psi = oracle.closed_form_state(dc, p, spec, 0.0)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_adequacy_guard(self, ref_params, ref_couplings):
        oracle.check_adequacy(og.HilbertSpec(30, 30), ref_couplings, ref_params)
        with pytest.raises(TruncationError) as excinfo:
            oracle.check_adequacy(og.HilbertSpec(10, 10), ref_couplings, ref_params)
        assert excinfo.value.suggested_n_max >= 30


class TestHamiltonian:
    def test_symmetry_and_reality(self):
        p, dc, spec = small_setup(gamma=3e-2, n_max=8)
        for block in dense_reference.hamiltonian_blocks(dc, spec).blocks.values():
            assert block.dtype == np.float64
            assert np.array_equal(block, block.T)

    def test_gravity_off_equals_bare_hamiltonian(self, ref_params):
        """Without gravity the shifted constants are the bare ones, so the
        Hamiltonian of the gravity-free couplings is the bare Hamiltonian."""
        p0 = og.without_gravity(ref_params)
        dc0 = og.derive_couplings(p0)
        spec = og.HilbertSpec(6, 6)
        coupled = dense_reference.hamiltonian_blocks(dc0, spec).blocks
        bare = dense_reference.switched_blocks(dc0, p0, spec, include_gravity=False)
        for key, block in bare.items():
            assert np.array_equal(coupled[key], block)

    def test_vacuum_expectation_vanishes(self):
        for gamma in (0.0, 2e-2):
            p, dc, spec = small_setup(gamma=gamma, n_max=5)
            blocks = dense_reference.hamiltonian_blocks(dc, spec)
            for block in blocks.blocks.values():
                assert block[0, 0] == 0.0

    def test_single_photon_coupling_block(self):
        """The cavity-path sector adds exactly -lam*omega*(a^dag + a) on mode a."""
        p, dc, spec = small_setup(lambda_m=0.7, n_max=2)
        blocks = dense_reference.hamiltonian_blocks(dc, spec)
        delta = blocks.blocks[(1, 0)] - blocks.blocks[(0, 0)]
        ladder = np.array([[0, 1, 0], [1, 0, math.sqrt(2)], [0, math.sqrt(2), 0]])
        expected = -dc.lambda_m * dc.omega_a * np.kron(ladder, np.eye(3))
        assert np.allclose(delta, expected, atol=1e-15)


class TestInitialState:
    def test_vacuum_rods(self):
        p, dc, spec = small_setup(beta_m=0.0, beta_M=0.0, n_max=4)
        psi = og.closed_form_state(dc, p, spec, 0.0)
        assert psi.shape == spec.dims
        for p_bit in (0, 1):
            for q_bit in (0, 1):
                assert psi[p_bit, q_bit, 0, 0] == pytest.approx(0.5)
                assert np.sum(np.abs(psi[p_bit, q_bit, 1:, 1:])) == 0.0

    def test_unit_amplitude_truncation(self, ref_params, ref_couplings):
        spec = og.HilbertSpec(30, 30)
        psi = og.closed_form_state(ref_couplings, ref_params, spec, 0.0)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        number = np.arange(spec.dim_a)
        weights = np.sum(np.abs(psi) ** 2, axis=(0, 1, 3))
        assert float(weights @ number) == pytest.approx(1.0, abs=1e-10)
        assert oracle.coherent_tail_mass(1.0, 30) < 1e-12

    @pytest.mark.parametrize("t", [0.0, 1e-3])
    def test_truncation_error_suggests_n_max(self, ref_params, ref_couplings, t):
        """The input |beta| = 1 is refused at every time, not only at t = 0."""
        with pytest.raises(TruncationError) as excinfo:
            og.closed_form_state(ref_couplings, ref_params, og.HilbertSpec(3, 3), t)
        assert excinfo.value.suggested_n_max == 25


class TestPropagation:
    def test_time_zero_identity(self):
        p, dc, spec = small_setup(gamma=1e-2, n_max=16)
        psi0 = og.closed_form_state(dc, p, spec, 0.0)
        prop = og.Propagator(dc, spec)
        assert np.allclose(prop.evolve(psi0, 0.0), psi0, atol=1e-14)

    def test_full_matrix_route_agrees_with_sector_route(self):
        p, dc, spec = small_setup(gamma=2e-2, n_max=16)
        psi0 = og.closed_form_state(dc, p, spec, 0.0)
        blocks = dense_reference.hamiltonian_blocks(dc, spec)
        full = dense_reference.propagate(dense_reference.full(blocks.blocks, spec), psi0, 1.7)
        sector = og.Propagator(dc, spec).evolve(psi0, 1.7)
        assert np.allclose(full, sector, atol=1e-12)

    def test_matches_closed_form_when_uncoupled(self, ref_params):
        p0 = og.without_gravity(ref_params)
        dc0 = og.derive_couplings(p0)
        spec = og.HilbertSpec(25, 25)
        prop = og.Propagator(dc0, spec)
        psi0 = og.closed_form_state(dc0, p0, spec, 0.0)
        period = 2 * math.pi / dc0.omega_a
        fractions = (0.21, 0.5, 1.37)
        for frac in fractions:
            exact = prop.evolve(psi0, frac * period)
            closed = oracle.closed_form_state(dc0, p0, spec, frac * period)
            assert np.linalg.norm(exact - closed) < 1e-8

    def test_diagonal_hamiltonian_gives_pure_phases(self):
        p, dc, spec = small_setup(lambda_m=0.0, lambda_M=0.0, beta_m=0.9, beta_M=0.4,
                                  n_max=16)
        psi0 = og.closed_form_state(dc, p, spec, 0.0)
        t = 2.31
        psi = og.Propagator(dc, spec).evolve(psi0, t)
        na = np.arange(spec.dim_a)[:, None]
        nb = np.arange(spec.dim_b)[None, :]
        phases = np.exp(-1j * (dc.omega_a * na + dc.omega_b * nb) * t)
        expected = psi0 * phases[None, None, :, :]
        assert np.allclose(psi, expected, atol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(
        gamma=st.floats(-0.05, 0.05),
        lam=st.floats(0.0, 0.6),
        t=st.floats(0.0, 20.0),
    )
    def test_unitarity_and_energy_conservation(self, gamma, lam, t):
        p, dc, spec = small_setup(gamma=gamma, lambda_m=lam, lambda_M=0.8 * lam, n_max=16)
        blocks = dense_reference.hamiltonian_blocks(dc, spec)
        psi0 = og.closed_form_state(dc, p, spec, 0.0)
        psi = og.Propagator(dc, spec).evolve(psi0, t)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)
        e0 = dense_reference.expectation(blocks.blocks, spec, psi0).real
        et = dense_reference.expectation(blocks.blocks, spec, psi).real
        scale = max(1.0, abs(e0))
        assert abs(et - e0) / scale < 1e-10


def photon_c_density(psi):
    """Photon c's 2x2 reduced density matrix, traced over the other three subsystems."""
    branches = psi.reshape(2, -1)
    return branches @ branches.conj().T


def schmidt_state(eps, seed):
    """A state of ``HilbertSpec(20, 20)`` whose (photon c, mode a) |
    (photon d, mode b) Schmidt spectrum is (1 - eps, eps*(8, 4, 2, 1)/15),
    in random bases."""
    rng = np.random.default_rng(seed)
    lam = np.array([1 - eps, *(eps * np.array([8, 4, 2, 1]) / 15)])
    c, d, a, b = og.HilbertSpec(20, 20).dims
    left, right = (np.linalg.qr(rng.normal(size=(n, lam.size))
                                + 1j * rng.normal(size=(n, lam.size)))[0]
                   for n in (c * a, d * b))
    mat = (left * np.sqrt(lam)) @ right.T
    return mat.reshape(c, a, d, b).transpose(0, 2, 1, 3)


class TestReduceAndMeasures:
    @pytest.mark.parametrize("beta, n_max", [(0.7, 16), (0.3 + 0.7j, 20)])
    def test_product_state_purity(self, beta, n_max):
        """The initial state is a product across the cut: its entropy is the
        square of round-off in the Schmidt tail, never negative."""
        p, dc, spec = small_setup(beta_m=beta, beta_M=beta, n_max=n_max)
        entropy = og.linear_entropy_exact(og.closed_form_state(dc, p, spec, 0.0))
        assert 0.0 <= entropy <= 1e-25

    def test_entropy_does_not_depend_on_the_norm(self):
        psi = schmidt_state(1e-3, seed=1)
        assert og.linear_entropy_exact(psi * (1 + 1e-7)) == pytest.approx(
            og.linear_entropy_exact(psi), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
    def test_entropy_matches_its_60_digit_value(self, eps):
        """Schmidt spectrum (1 - eps, eps*(8, 4, 2, 1)/15) in random bases,
        against 1 - Tr(rho**2)/Tr(rho)**2 of the same floats in 60 digits.
        The entropy is about 2*eps, so 1 - sum(lambda**2) would lose a
        factor 1/eps to cancellation; the SVD's own round-off stays near
        1e-13 relative at eps = 1e-9."""
        psi = schmidt_state(eps, seed=2)
        mat = psi.transpose(0, 2, 1, 3).reshape(psi.shape[0] * psi.shape[2], -1)
        with mpmath.workdps(60):
            m = [[mpmath.mpc(complex(x)) for x in row] for row in mat]
            rows = range(len(m))
            gram = [[mpmath.fsum(m[i][k] * mpmath.conj(m[j][k]) for k in rows)
                     for j in rows] for i in rows]
            norm = mpmath.fsum(abs(x) ** 2 for row in m for x in row)
            purity = mpmath.fsum(abs(x) ** 2 for row in gram for x in row)
            want = float(1 - purity / norm**2)
        assert og.linear_entropy_exact(psi) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_bell_fixture_maximally_mixed(self):
        spec = og.HilbertSpec(1, 1)
        psi = np.zeros(spec.dims, dtype=complex)
        psi[0, 0, 0, 0] = 1 / math.sqrt(2)  # photon paths correlated across cavities
        psi[1, 1, 0, 0] = 1 / math.sqrt(2)
        assert np.allclose(photon_c_density(psi), 0.5 * np.eye(2), atol=1e-12)
        assert og.linear_entropy_exact(psi) == pytest.approx(0.5, abs=1e-12)
        assert og.visibility_exact(psi) == 0.0

    def test_photon_purity_tracks_visibility(self, ref_params):
        p0 = og.without_gravity(ref_params)
        dc0 = og.derive_couplings(p0)
        spec = og.HilbertSpec(25, 25)
        t = 0.5 * 2 * math.pi / dc0.omega_a
        psi = og.Propagator(dc0, spec).evolve(og.closed_form_state(dc0, p0, spec, 0.0), t)
        v = og.visibility_exact(psi)
        purity = float(np.sum(np.abs(photon_c_density(psi)) ** 2))
        assert purity == pytest.approx((1.0 + v * v) / 2.0, rel=1e-10)

    def test_visibility_at_time_zero(self):
        p, dc, spec = small_setup(beta_m=1.3, beta_M=0.2, n_max=22)
        psi = og.closed_form_state(dc, p, spec, 0.0)
        assert og.visibility_exact(psi) == pytest.approx(1.0, abs=1e-12)
        off = photon_c_density(psi)[1, 0]
        assert og.visibility_exact(psi) == pytest.approx(2.0 * abs(off), abs=1e-15)

    def test_entropy_zero_for_separable_dynamics(self):
        p, dc, spec = small_setup(gamma=0.0, n_max=16)
        psi0 = og.closed_form_state(dc, p, spec, 0.0)
        propagator = og.Propagator(dc, spec)
        for t in (0.0, 1.0, 4.0):
            s = og.linear_entropy_exact(propagator.evolve(psi0, t))
            assert abs(s) < 1e-10


class TestMonogamySignature:
    def test_revival_deficit_grows_with_entanglement(self):
        """The more the coupling entangles the two rod-cavity systems, the
        further the photon's revival maximum falls below 1."""
        spec = og.HilbertSpec(22, 22)
        period = 2 * math.pi
        deficits, entropies = [], []
        for gamma in (2.5e-3, 5e-3, 1e-2):
            p = setups.dimensionless_params(gamma=gamma, lambda_m=0.3, lambda_M=0.25)
            dc = og.derive_couplings(p)
            propagator, psi0 = og.Propagator(dc, spec), og.closed_form_state(dc, p, spec, 0.0)
            psi_period, psi_early = (propagator.evolve(psi0, t) for t in (period, 0.6 * period))
            deficits.append(1.0 - og.visibility_exact(psi_period))
            entropies.append(og.linear_entropy_exact(psi_early))
        assert all(d > 0 for d in deficits)
        assert deficits == sorted(deficits)
        assert entropies == sorted(entropies)


def residual_at(dc, spec, t):
    return float(oracle.interaction_picture_residual(dc, spec, [t])[0])


class TestInteractionPicture:
    def test_zero_time_residual(self):
        p, dc, spec = small_setup(gamma=1e-2, n_max=16)
        assert residual_at(dc, spec, 0.0) < 1e-12

    def test_free_rotation_exact_in_truncated_space(self):
        p, dc, spec = small_setup(gamma=0.3, lambda_m=0.0, lambda_M=0.0, n_max=16)
        assert residual_at(dc, spec, 2 * math.pi) < 1e-10

    def test_residual_decays_with_margin(self, boosted_couplings):
        # The truncation edge corrupts the compared levels less the more levels
        # lie above them; the library's margin of n_max + 20 leaves round-off.
        spec = og.HilbertSpec(24, 24)
        dense = [dense_reference.mode_residual(boosted_couplings, spec, 4.0, margin)
                 for margin in (6, 12, 18)]
        assert dense[0] > dense[1] > dense[2]
        assert residual_at(boosted_couplings, spec, 4.0) < min(dense[2], 1e-12)

    @pytest.mark.parametrize("n_max", [18, 40, 60, 120])
    def test_residual_stays_at_round_off_as_the_truncation_grows(self, boosted_couplings,
                                                                  n_max):
        # A fixed 20-level margin let the edge's error grow into the compared
        # levels with n_max: 8.9e-9 at 40 and 4.7e-2 at 120 at these times.
        residual = oracle.interaction_picture_residual(boosted_couplings,
                                                       og.HilbertSpec(n_max, n_max),
                                                       [1.0, 4.0, 2.0 * math.pi])
        assert residual.max() < 1e-12

    def test_memory_does_not_grow_with_the_kronecker_product(self, boosted_couplings):
        # A dense sector difference at n_max 60 alone is 61**4 complex entries.
        spec = og.HilbertSpec(60, 60)
        tracemalloc.start()
        try:
            oracle.interaction_picture_residual(boosted_couplings, spec, [1.7])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_ladders_within_the_margin_are_checked_extended(self):
        # The identity involves no state, so every ladder, however short, is
        # rotated on 2*n_max + 21 levels; on its own n_max + 1 levels the
        # truncation edge would dominate the compared levels.
        p, dc, _ = small_setup(gamma=1e-2)
        for spec in (og.HilbertSpec(1, 1), og.HilbertSpec(10, 10), og.HilbertSpec(4, 25)):
            for t in (1.0, 4.0):
                residual = residual_at(dc, spec, t)
                assert residual == pytest.approx(dense_reference.mode_residual(dc, spec, t),
                                                 abs=1e-13)
                assert residual < 1e-12
                assert dense_reference.mode_residual(dc, spec, t, margin=0) > 1e-3


class TestDysonCorrection:
    def test_zero_time_and_zero_gamma(self):
        p, dc, spec = small_setup(gamma=1e-2, n_max=25)
        zero = og.dyson_first_order_state(dc, p, spec, 0.0)
        assert np.all(zero == 0.0)
        p0, dc0, _ = small_setup(gamma=0.0, n_max=25)
        assert np.all(og.dyson_first_order_state(dc0, p0, spec, 2.0) == 0.0)

    def test_linear_in_gamma(self):
        spec = og.HilbertSpec(14, 14)
        psi = {}
        for g in (1e-3, 2e-3):
            p = setups.dimensionless_params(gamma=g, lambda_m=0.3, lambda_M=0.2)
            dc = og.derive_couplings(p)
            psi[g] = og.dyson_first_order_state(dc, p, spec, 3.3)
        assert np.allclose(psi[2e-3], 2.0 * psi[1e-3], rtol=1e-12, atol=1e-16)

    @pytest.mark.parametrize("t", [0.7, 3.3, 25.0])
    def test_matrix_products_match_the_einsum_contraction(self, t):
        p, dc, _ = small_setup(gamma=1e-2, lambda_m=0.445, lambda_M=0.521)
        spec = og.HilbertSpec(30, 34)
        state = og.dyson_first_order_state(dc, p, spec, t)
        expected = dense_reference.dyson_first_order_state(dc, p, spec, t)
        assert np.max(np.abs(state - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_improves_on_zeroth_order(self):
        p, dc, spec = small_setup(gamma=5e-3, lambda_m=0.3, lambda_M=0.2, n_max=18)
        t = 4.0
        exact = og.Propagator(dc, spec).evolve(og.closed_form_state(dc, p, spec, 0.0), t)
        base = oracle.closed_form_state(dc, p, spec, t)
        correction = og.dyson_first_order_state(dc, p, spec, t)
        r0 = np.linalg.norm(exact - base)
        r1 = np.linalg.norm(exact - base - correction)
        assert r1 < 0.05 * r0


class TestThermalMonteCarlo:
    def test_zero_occupation_is_deterministic(self, ref_couplings):
        t = 1.1e-3
        (mean,), (err,) = og.thermal_visibility_montecarlo(ref_couplings, 0.0, [t], 500, seed=5)
        law = og.visibility_uncoupled(ref_couplings, [t])[0]
        assert mean == pytest.approx(law, abs=1e-14)
        assert err < 1e-14

    def test_error_shrinks_with_samples(self, ref_couplings):
        t = 0.9e-3
        _, (err_small,) = og.thermal_visibility_montecarlo(ref_couplings, 1.0, [t], 2000,
                                                           seed=11)
        _, (err_big,) = og.thermal_visibility_montecarlo(ref_couplings, 1.0, [t], 8000,
                                                         seed=11)
        assert err_small / err_big == pytest.approx(2.0, rel=0.25)

    def test_oracle_path_matches_closed_form_path(self):
        # Without gravity, a Monte Carlo of the exact coupled coherence over
        # the library's draws is its gravity-free closed-form Monte Carlo.
        p, dc, _ = small_setup(gamma=0.0, lambda_m=0.3, lambda_M=0.2)
        t = 2.2
        (mean_c,), _ = og.thermal_visibility_montecarlo(dc, 0.4, [t], 150, seed=17)
        (mean_o,), _ = dense_reference.coupled_thermal_montecarlo(dc, p.beta_M, 0.4, [t], 150,
                                                                 seed=17)
        assert mean_o == pytest.approx(mean_c, abs=1e-8)

    def test_sample_floor_enforced(self, ref_couplings):
        with pytest.raises(ParameterError):
            og.thermal_visibility_montecarlo(ref_couplings, 1.0, [1e-3], 50, seed=1)


class TestClosedFormState:
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_bad_times(self, t):
        p, dc, spec = small_setup(gamma=1e-2, n_max=6)
        with pytest.raises(ParameterError, match="times"):
            oracle.closed_form_state(dc, p, spec, t)
        with pytest.raises(ParameterError, match="times"):
            og.dyson_first_order_state(dc, p, spec, t)

    @pytest.mark.parametrize("case", ["reference", "dimensionless", "complex_betas"])
    def test_is_the_kronecker_input_state_at_time_zero(self, case):
        """At t = 0 the state is bit for bit the Kronecker product of the two
        photon qubits and the rods' coherent vectors, in that order."""
        if case == "complex_betas":
            p, _, _ = small_setup(beta_m=0.3 + 0.7j, beta_M=-0.4 + 0.2j)
            spec = og.HilbertSpec(12, 27)
        else:
            p = load_params(setups.REFERENCE_CFG.with_name(f"{case}.cfg"))
            spec = og.HilbertSpec(30, 30)
        qubit = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        rods = (oracle.coherent_vector(p.beta_m, spec.dim_a),
                oracle.coherent_vector(p.beta_M, spec.dim_b))
        expected = np.kron(np.kron(np.kron(qubit, qubit), rods[0]), rods[1]).reshape(spec.dims)
        state = oracle.closed_form_state(og.derive_couplings(p), p, spec, 0.0)
        assert state.tobytes() == expected.tobytes()

    def test_normalised_at_all_times(self):
        p, dc, spec = small_setup(beta_m=1.2, n_max=18)
        for t in (0.3, 2.0, 7.0):
            assert np.linalg.norm(oracle.closed_form_state(dc, p, spec, t)) == pytest.approx(
                1.0, abs=1e-12
            )
