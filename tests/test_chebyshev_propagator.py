"""The Chebyshev propagator against the eigendecomposition route it replaced.

``oracle.Propagator`` applies each sector Hamiltonian in the per-mode
eigenbases, where its free part is diagonal, and expands exp(-i*H*t) in
Chebyshev polynomials, or applies the free phases at gamma = 0; the
test-only ``dense_reference.EighPropagator`` diagonalises every dense sector
block.  Both must agree to 1e-12 absolute per amplitude.  ``evolve`` runs
to one time, and at t = 0 returns the state itself.  The recursion runs on
real amplitudes, a complex state's parts one at a time;
``dense_reference.complex_series``, the complex recursion on the same
eigenbasis operator serving several times at once, must agree with one
production recursion per time to 1e-14.  Each member of a family of
couplings must match the propagator of its single coupling to 1e-13.
"""

import functools
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

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
from optograv.errors import DimensionLimitError, ParameterError

ATOL = 1e-12

#: A family of couplings, one of them negative.
FAMILY = (1e-2, -5e-3, 2.5e-3, 1.25e-3)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def dimensionless_config():
    return load_params(CONFIGS / "dimensionless.cfg")


def random_state(spec, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=spec.dims) + 1j * rng.normal(size=spec.dims)
    return amp / np.linalg.norm(amp)


def assert_matches_reference(dc, spec, psi0, times):
    reference = dense_reference.EighPropagator(dense_reference.hamiltonian_blocks(dc, spec))
    propagator = og.Propagator(dc, spec)
    for t in times:
        psi = propagator.evolve(psi0, t)
        assert psi.shape == spec.dims
        assert np.max(np.abs(psi - reference.evolve(psi0, float(t)))) <= ATOL, t


@pytest.mark.parametrize("n_max", [28, 36])
@pytest.mark.parametrize("gamma", [1e-2, 5e-3, 2.5e-3, 1.25e-3])
def test_sweep_rows(n_max, gamma):
    p = replace(dimensionless_config(), direct_gamma=gamma)
    dc = og.derive_couplings(p)
    spec = og.HilbertSpec(n_max, n_max)
    assert_matches_reference(dc, spec, og.initial_state(p, spec), [1.3 * 2.0 * math.pi])


@pytest.mark.parametrize("gravity", [True, False])
def test_oracle_equivalence_times(gravity):
    p = dimensionless_config()
    if not gravity:
        p = og.without_gravity(p)
    dc = og.derive_couplings(p)
    spec = og.HilbertSpec(30, 30)
    times = np.linspace(0.0, 2.0 * 2.0 * math.pi / dc.omega_a, 48)
    assert_matches_reference(dc, spec, og.initial_state(p, spec), times)


def test_si_reference_criterion_5_times(ref_params, ref_couplings):
    spec = og.HilbertSpec(30, 30)
    times = np.linspace(0.0, 2.0 * 2.0 * math.pi / ref_couplings.omega_a, 128)
    assert_matches_reference(ref_couplings, spec, og.initial_state(ref_params, spec), times)


def test_asymmetric_spec_on_a_generic_state():
    dc = og.derive_couplings(dimensionless_config())
    spec = og.HilbertSpec(12, 27)
    assert_matches_reference(dc, spec, random_state(spec, 3), [0.3, 2.9, 1.3 * 2.0 * math.pi])


def test_lambda_zero_gives_pure_phases():
    p = setups.dimensionless_params(gamma=0.0, lambda_m=0.0, lambda_M=0.0)
    dc = og.derive_couplings(p)
    spec = og.HilbertSpec(16, 21)
    psi0 = random_state(spec, 5)
    times = [0.7, 2.31, 19.0]
    na = np.arange(spec.dim_a)[:, None]
    nb = np.arange(spec.dim_b)[None, :]
    propagator = og.Propagator(dc, spec)
    for t in times:
        phases = np.exp(-1j * (dc.omega_a * na + dc.omega_b * nb) * t)
        expected = psi0 * phases
        assert np.max(np.abs(propagator.evolve(psi0, t) - expected)) <= ATOL
    assert_matches_reference(dc, spec, psi0, times)


@settings(max_examples=20, deadline=None)
@given(
    gamma=st.floats(-0.05, 0.05),
    lam=st.floats(0.0, 0.6),
    t=st.floats(0.0, 20.0),
)
def test_random_couplings_and_times(gamma, lam, t):
    p = setups.dimensionless_params(gamma=gamma, lambda_m=lam, lambda_M=0.8 * lam)
    dc = og.derive_couplings(p)
    spec = og.HilbertSpec(16, 16)
    assert_matches_reference(dc, spec, og.initial_state(p, spec), [t])


def test_time_zero_is_the_identity(monkeypatch):
    p = dimensionless_config()
    dc = og.derive_couplings(p)
    spec = og.HilbertSpec(20, 20)
    psi0 = random_state(spec, 11)
    for gammas in (None, FAMILY):
        propagator = og.Propagator(dc, spec, gammas=gammas)
        # At t = 0, evolve runs no recursion.
        monkeypatch.setattr(propagator, "_evolve_real", None)
        states = propagator.evolve(psi0, 0.0)
        assert states.flags.owndata
        for psi in states.reshape((-1,) + spec.dims):
            assert np.array_equal(psi, psi0)


def test_lambda_m_zero_keeps_cavity_c_sectors_bitwise_equal():
    p = setups.dimensionless_params(gamma=2e-2, lambda_m=0.0, lambda_M=0.4)
    dc = og.derive_couplings(p)
    spec = og.HilbertSpec(20, 24)
    propagator, psi0 = og.Propagator(dc, spec), og.initial_state(p, spec)
    for t in (1.0, 3.3, 17.0):
        psi = propagator.evolve(psi0, t)
        for q_bit in (0, 1):
            assert psi[0, q_bit].tobytes() == psi[1, q_bit].tobytes()


@pytest.mark.parametrize("t", [[1.0], np.array([1.0]), float("nan"), float("inf"), -0.5])
def test_time_must_be_one_finite_value_at_least_zero(t):
    p = dimensionless_config()
    spec = og.HilbertSpec(4, 4)
    propagator = og.Propagator(og.derive_couplings(p), spec)
    with pytest.raises(ParameterError, match="t must be one time|times must be finite and >= 0"):
        propagator.evolve(random_state(spec, 0), t)


@pytest.mark.parametrize("form", [int, np.float64, np.array])
def test_time_may_be_any_real_scalar(form):
    p = dimensionless_config()
    spec = og.HilbertSpec(6, 6)
    propagator = og.Propagator(og.derive_couplings(p), spec)
    psi0 = random_state(spec, 0)
    t = form(2)
    assert np.ndim(t) == 0
    assert np.array_equal(propagator.evolve(psi0, t), propagator.evolve(psi0, 2.0))


def test_evolve_returns_owned_states_and_refuses_other_shapes():
    p = dimensionless_config()
    spec = og.HilbertSpec(4, 4)
    propagator = og.Propagator(og.derive_couplings(p), spec)
    psi0 = random_state(spec, 0)
    for t in (0.0, 0.5):
        psi = propagator.evolve(psi0, t)
        assert psi.shape == spec.dims
        assert psi.flags.owndata and psi.flags.c_contiguous
        assert np.array_equal(propagator.evolve(np.asfortranarray(psi0), t), psi)
    for bad in (psi0.reshape(-1), psi0[:, :, :4]):
        with pytest.raises(ParameterError, match="shape"):
            propagator.evolve(bad, 1.0)


@pytest.mark.parametrize("z", [1e-9, 0.3, 7.0, 140.0, 421.0])
def test_bessel_coefficients_against_mpmath(z):
    values = oracle._bessel_series(np.array([z]))[0]
    assert z < len(values) < z + 12.0 * z ** (1.0 / 3.0) + 40
    assert 2.0 * abs(values[-1]) >= oracle._SERIES_TOL
    for k in range(0, len(values), 3):
        assert values[k] == pytest.approx(float(mpmath.besselj(k, z)), abs=1e-15)
    assert 2.0 * float(abs(mpmath.besselj(len(values), z))) < oracle._SERIES_TOL


def sector_planes(spec, seed, count=1):
    """``count`` random sector-stacked real planes (count, 2, 2, dim_a, 1,
    dim_b), laid out as the slots of the ring in ``Propagator._series`` for
    one coupling."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, 2, 2, spec.dim_a, 1, spec.dim_b))


def eigenbasis_amplitudes(spec, seed):
    """Random real eigenbasis amplitudes (2, 2, dim_a, dim_b), as
    ``Propagator._series`` takes them."""
    return sector_planes(spec, seed)[0, :, :, :, 0]


def as_complex(parts):
    """The complex amplitudes of real and imaginary parts stacked on axis 0."""
    return parts[0] + 1j * parts[1]


def allocating_apply(prop, x, out, scratch=None):
    """out = 2*Ht x for ``prop``'s sector-stacked eigenbasis planes x, each
    product into a fresh temporary; ``scratch`` is ignored."""
    wide, tall = (2, 2, x.shape[2], -1), (2, 2, -1, x.shape[4])
    coupling = (prop._x_a @ x.reshape(wide)).reshape(tall) @ prop._x_b
    out[...] = prop._diagonal * x + prop._gains * coupling.reshape(x.shape)


def test_family_holds_one_diagonal_and_one_gain_array():
    # The diagonal and the couplings are repeated over the family's planes once
    # each; the rest of what a propagator holds is per-mode.
    p = dimensionless_config()
    dc = og.derive_couplings(p)
    spec = og.HilbertSpec(80, 80)
    og.Propagator(dc, spec, gammas=FAMILY)
    tracemalloc.start()
    try:
        propagator = og.Propagator(dc, spec, gammas=FAMILY)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = [a for a in vars(propagator).values() if isinstance(a, np.ndarray)]
    assert sum(a.nbytes for a in arrays) <= held < sum(a.nbytes for a in arrays) + (1 << 14)
    shape = (2, 2, spec.dim_a, len(FAMILY), spec.dim_b)
    assert propagator._diagonal.shape == propagator._gains.shape == shape
    assert sum(a.shape == shape for a in arrays) == 2


@pytest.mark.parametrize("gamma", [1e-2, 0.0])
@pytest.mark.parametrize("n_max, stretch", [(30, 8), (28, 1)])
def test_apply_allocates_no_state_sized_block(gamma, n_max, stretch):
    # Mode b's ladder is `stretch` times as long as mode a's.
    p = setups.dimensionless_params(gamma=gamma, lambda_m=0.445, lambda_M=0.521)
    spec = og.HilbertSpec(n_max, stretch * (n_max + 1) - 1)
    propagator = og.Propagator(og.derive_couplings(p), spec)
    ring = sector_planes(spec, 3, count=3)
    x, out = ring[1], ring[2]
    scratch = np.empty_like(ring[:2])
    propagator._apply(x, out, scratch)
    tracemalloc.start()
    try:
        # One recursion step: the operator, then the slot two before.
        propagator._apply(x, out, scratch)
        out -= ring[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 16


@pytest.mark.parametrize("t", [1.0, 2.5, 5.0])
def test_series_holds_only_its_ring_output_and_scratch(t):
    # No state-sized block beyond the ring of 3 Chebyshev vectors, the 2 slots
    # of scratch shared by the steps and the folds, and the output planes of
    # every coupling, besides the coefficient tables; ring and scratch slots
    # hold one real plane per coupling, however many terms the time takes.
    p = setups.dimensionless_params(gamma=1e-2, lambda_m=0.445, lambda_M=0.521)
    spec = og.HilbertSpec(80, 80)
    state = 16 * math.prod(spec.dims)  # bytes of one complex state
    x0 = eigenbasis_amplitudes(spec, 6)
    for gammas in (None, FAMILY):
        propagator = og.Propagator(og.derive_couplings(p), spec, gammas=gammas)
        members = len(propagator._gammas)
        tables = propagator._coefficients(t)
        assert tables.shape[-1] > 3  # the ring wraps
        slot = members * state // 2
        held = 5 * slot + members * state + tables.nbytes
        propagator._series(x0, t)
        tracemalloc.start()
        try:
            propagator._series(x0, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= peak < held + slot / 2, members


@pytest.mark.parametrize("gamma", [1e-2, 0.0])
def test_series_with_scratch_buffers_equals_allocating_steps(gamma, monkeypatch):
    p = setups.dimensionless_params(gamma=gamma, lambda_m=0.445, lambda_M=0.521)
    spec = og.HilbertSpec(30, 30)
    propagator = og.Propagator(og.derive_couplings(p), spec)
    times = (0.3, 5.0, 17.0, 40.0)
    x0 = eigenbasis_amplitudes(spec, 4)
    buffered = [as_complex(propagator._series(x0, t)) for t in times]
    monkeypatch.setattr(propagator, "_apply", functools.partial(allocating_apply, propagator))
    for t, expected in zip(times, buffered):
        allocating = as_complex(propagator._series(x0, t))
        assert np.max(np.abs(expected - allocating)) <= 1e-15, t


@pytest.mark.parametrize("gamma", [1e-2, 0.0])
@pytest.mark.parametrize("n_max, stretch", [(30, 8), (30, 1)])
def test_real_planes_match_the_complex_recursion(gamma, n_max, stretch):
    p = setups.dimensionless_params(gamma=gamma, lambda_m=0.445, lambda_M=0.521)
    spec = og.HilbertSpec(n_max, stretch * (n_max + 1) - 1)
    propagator = og.Propagator(og.derive_couplings(p), spec)
    x0 = eigenbasis_amplitudes(spec, 8)
    x0 /= np.linalg.norm(x0)
    times = np.array([0.3, 5.0, 17.0, 40.0])
    # One reference recursion serves the four times.
    expected = dense_reference.complex_series(propagator, x0, times)
    for i, t in enumerate(times):
        got = as_complex(propagator._series(x0, t))[..., 0, :]
        assert np.max(np.abs(got - expected[:, :, i])) <= 1e-14, t


@pytest.mark.parametrize("state", ["coherent", "random"])
def test_family_members_match_single_couplings_and_the_reference(state):
    # The random state is complex: each member evolves its real and imaginary parts.
    p = dimensionless_config()
    spec = og.HilbertSpec(20, 24)
    psi0 = og.initial_state(p, spec) if state == "coherent" else random_state(spec, 9)
    assert psi0.imag.any() == (state == "random")
    times = [0.0, 0.7, 1.3 * 2.0 * math.pi]
    propagator = og.Propagator(og.derive_couplings(p), spec, gammas=FAMILY)
    family = [propagator.evolve(psi0, t) for t in times]
    for states in family:
        assert states.shape == (len(FAMILY),) + spec.dims
        assert states.flags.owndata and states.flags.c_contiguous
    for k, gamma in enumerate(FAMILY):
        dc = og.derive_couplings(replace(p, direct_gamma=gamma))
        single = og.Propagator(dc, spec)
        reference = dense_reference.EighPropagator(dense_reference.hamiltonian_blocks(dc, spec))
        for t, states in zip(times, family):
            assert np.max(np.abs(states[k] - single.evolve(psi0, t))) <= 1e-13, (gamma, t)
            assert np.max(np.abs(states[k] - reference.evolve(psi0, t))) <= ATOL, (gamma, t)


def test_free_phases_match_the_eigenbasis_series(monkeypatch):
    p = setups.dimensionless_params(gamma=0.0, lambda_m=0.445, lambda_M=0.521)
    spec = og.HilbertSpec(24, 28)
    propagator = og.Propagator(og.derive_couplings(p), spec)
    x0 = eigenbasis_amplitudes(spec, 12)
    x0 /= np.linalg.norm(x0)
    times = (0.3, 5.0, 17.0, 40.0)
    for t in times:
        series = as_complex(propagator._series(x0, t))
        assert np.max(np.abs(as_complex(propagator._phases(x0, t)) - series)) <= 1e-13, t
    # At gamma = 0, evolve runs no recursion.
    monkeypatch.setattr(propagator, "_series", None)
    psi0 = random_state(spec, 12)
    reference = dense_reference.EighPropagator(dense_reference.hamiltonian_blocks(
        og.derive_couplings(p), spec))
    for t in times:
        assert np.max(np.abs(propagator.evolve(psi0, t) - reference.evolve(psi0, t))) <= ATOL


@pytest.mark.parametrize("gammas", [[], [[1e-2]], [1e-2, float("nan")], [float("inf")]])
def test_gammas_must_be_a_finite_one_dimensional_sequence(gammas):
    with pytest.raises(ParameterError, match="gammas"):
        og.Propagator(og.derive_couplings(dimensionless_config()), og.HilbertSpec(4, 4),
                      gammas=gammas)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gamma=st.floats(-0.05, 0.05), t=st.floats(0.0, 20.0))
def test_evolution_is_linear_over_real_and_imaginary_parts(seed, gamma, t):
    # A complex state evolves as its real part plus i times its imaginary part.
    p = setups.dimensionless_params(gamma=gamma, lambda_m=0.445, lambda_M=0.521)
    spec = og.HilbertSpec(12, 15)
    propagator = og.Propagator(og.derive_couplings(p), spec)
    x = random_state(spec, seed)
    parts = propagator.evolve(x.real, t) + 1j * propagator.evolve(x.imag, t)
    assert np.max(np.abs(propagator.evolve(x, t) - parts)) <= 1e-14


def test_table_bytes_per_entry_bound_the_tables():
    # Long times and few levels: the Bessel and coefficient tables dominate.
    p = dimensionless_config()
    propagator = og.Propagator(og.derive_couplings(p), og.HilbertSpec(4, 4))
    radius = float(propagator._radius.max())
    for t in (1000.0, 2000.0, 5000.0):
        entries = 4 * (oracle._bessel_start(radius * t) + 1)
        tracemalloc.start()
        try:
            tables = propagator._coefficients(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tables.nbytes < peak <= oracle._TABLE_ENTRY_BYTES * entries


def test_chebyshev_tables_beyond_the_budget_name_the_largest_time():
    p = dimensionless_config()
    spec = og.HilbertSpec(4, 4)
    propagator = og.Propagator(og.derive_couplings(p), spec)
    psi0 = random_state(spec, 0)
    with pytest.raises(DimensionLimitError, match="largest admissible time") as info:
        propagator.evolve(psi0, 1e12)
    t_max = float(str(info.value).rsplit(" ", 1)[-1])
    radius = float(propagator._radius.max())
    oracle._check_table_bytes(radius, t_max)
    with pytest.raises(DimensionLimitError):
        oracle._check_table_bytes(radius, t_max * (1.0 + 1e-9))
