"""The Chebyshev propagator against the eigendecomposition route it replaced.

``oracle.Propagator`` applies each sector Hamiltonian in the per-mode
eigenbases, where its free part is diagonal, and expands exp(-i*H*t) in
Chebyshev polynomials, or applies the free phases at gamma = 0; the
test-only ``dense_reference.EighPropagator`` diagonalises every dense sector
block.  Both must agree to 1e-12 absolute per amplitude.  The recursion runs
on real amplitudes, a complex state's parts one at a time;
``dense_reference.complex_series``, the complex recursion on the same
eigenbasis operator, must agree with it to 1e-14.  Each member of a
family of couplings must match the propagator of its single coupling to
1e-13.
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
    states = og.Propagator(dc, spec).evolve(psi0, times)
    assert states.shape == (len(times),) + spec.dims
    for t, psi in zip(times, states):
        expected = reference.evolve(psi0, float(t))
        assert np.max(np.abs(psi - expected)) <= ATOL, t


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
    for t, psi in zip(times, og.Propagator(dc, spec).evolve(psi0, times)):
        phases = np.exp(-1j * (dc.omega_a * na + dc.omega_b * nb) * t)
        expected = psi0 * phases
        assert np.max(np.abs(psi - expected)) <= ATOL
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


def test_one_batched_call_equals_one_call_per_time():
    p = dimensionless_config()
    dc = og.derive_couplings(p)
    spec = og.HilbertSpec(24, 24)
    psi0 = og.initial_state(p, spec)
    propagator = og.Propagator(dc, spec)
    times = [0.0, 0.4, 5.0, 12.5, 3.3]
    batched = propagator.evolve(psi0, times)
    for t, psi in zip(times, batched):
        (single,) = propagator.evolve(psi0, [t])
        assert np.max(np.abs(psi - single)) <= 1e-14


def test_time_zero_is_the_identity():
    p = dimensionless_config()
    dc = og.derive_couplings(p)
    spec = og.HilbertSpec(20, 20)
    psi0 = random_state(spec, 11)
    for times in ([0.0], [0.0, 9.0]):
        psi = og.Propagator(dc, spec).evolve(psi0, times)[0]
        assert np.array_equal(psi, psi0)


def test_lambda_m_zero_keeps_cavity_c_sectors_bitwise_equal():
    p = setups.dimensionless_params(gamma=2e-2, lambda_m=0.0, lambda_M=0.4)
    dc = og.derive_couplings(p)
    spec = og.HilbertSpec(20, 24)
    for psi in og.Propagator(dc, spec).evolve(og.initial_state(p, spec), [1.0, 3.3, 17.0]):
        for q_bit in (0, 1):
            assert psi[0, q_bit].tobytes() == psi[1, q_bit].tobytes()


@pytest.mark.parametrize("times", [[], [[1.0, 2.0]], [1.0, float("nan")], [float("inf")],
                                   [1.0, -0.5]])
def test_times_must_be_a_finite_one_dimensional_sequence(times):
    p = dimensionless_config()
    spec = og.HilbertSpec(4, 4)
    propagator = og.Propagator(og.derive_couplings(p), spec)
    with pytest.raises(ParameterError, match="times"):
        propagator.evolve(random_state(spec, 0), times)


def test_evolve_returns_owned_states_and_refuses_other_shapes():
    p = dimensionless_config()
    spec = og.HilbertSpec(4, 4)
    propagator = og.Propagator(og.derive_couplings(p), spec)
    psi0 = random_state(spec, 0)
    states = propagator.evolve(psi0, [0.5, 1.0])
    assert states.shape == (2,) + spec.dims
    assert states.flags.owndata and states.flags.c_contiguous
    assert np.array_equal(propagator.evolve(np.asfortranarray(psi0), [0.5, 1.0]), states)
    for bad in (psi0.reshape(-1), psi0[:, :, :4]):
        with pytest.raises(ParameterError, match="shape"):
            propagator.evolve(bad, [1.0])


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


def assert_series_holds_only_its_ring_output_and_buffer(spec, count):
    # No state-sized block beyond the ring of 3 Chebyshev vectors, the output
    # planes of every time and coupling and the scratch buffer shared by the
    # steps and the folds; ring and buffer slots hold one real plane per
    # coupling.
    p = setups.dimensionless_params(gamma=1e-2, lambda_m=0.445, lambda_M=0.521)
    state = 16 * math.prod(spec.dims)  # bytes of one complex state
    times = np.linspace(1.0, 2.0, count)
    x0 = eigenbasis_amplitudes(spec, 6)
    for gammas in (None, FAMILY):
        propagator = og.Propagator(og.derive_couplings(p), spec, gammas=gammas)
        members = len(propagator._gammas)
        assert propagator._coefficients(times).shape[-1] > 3  # the ring wraps
        slot = members * state // 2
        held = (3 + max(2, count)) * slot + count * members * state
        propagator._series(x0, times)
        tracemalloc.start()
        try:
            propagator._series(x0, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= peak < held + slot / 2, members


@pytest.mark.parametrize("count", [1, 2, 5])
def test_series_holds_only_its_ring_output_and_buffer(count):
    assert_series_holds_only_its_ring_output_and_buffer(og.HilbertSpec(80, 80), count)


@pytest.mark.parametrize("gamma", [1e-2, 0.0])
def test_series_with_scratch_buffers_equals_allocating_steps(gamma, monkeypatch):
    p = setups.dimensionless_params(gamma=gamma, lambda_m=0.445, lambda_M=0.521)
    spec = og.HilbertSpec(30, 30)
    propagator = og.Propagator(og.derive_couplings(p), spec)
    times = np.array([0.3, 5.0, 17.0, 40.0])
    x0 = eigenbasis_amplitudes(spec, 4)
    buffered = as_complex(propagator._series(x0, times))
    monkeypatch.setattr(propagator, "_apply", functools.partial(allocating_apply, propagator))
    allocating = as_complex(propagator._series(x0, times))
    assert np.max(np.abs(buffered - allocating)) <= 1e-15


@pytest.mark.parametrize("gamma", [1e-2, 0.0])
@pytest.mark.parametrize("n_max, stretch", [(30, 8), (30, 1)])
def test_real_planes_match_the_complex_recursion(gamma, n_max, stretch):
    p = setups.dimensionless_params(gamma=gamma, lambda_m=0.445, lambda_M=0.521)
    spec = og.HilbertSpec(n_max, stretch * (n_max + 1) - 1)
    propagator = og.Propagator(og.derive_couplings(p), spec)
    x0 = eigenbasis_amplitudes(spec, 8)
    x0 /= np.linalg.norm(x0)
    times = np.array([0.3, 5.0, 17.0, 40.0])
    expected = dense_reference.complex_series(propagator, x0, times)
    got = as_complex(propagator._series(x0, times))[..., 0, :]
    assert np.max(np.abs(got - expected)) <= 1e-14


@pytest.mark.parametrize("state", ["coherent", "random"])
def test_family_members_match_single_couplings_and_the_reference(state):
    # The random state is complex: each member evolves its real and imaginary parts.
    p = dimensionless_config()
    spec = og.HilbertSpec(20, 24)
    psi0 = og.initial_state(p, spec) if state == "coherent" else random_state(spec, 9)
    assert psi0.imag.any() == (state == "random")
    times = [0.0, 0.7, 1.3 * 2.0 * math.pi]
    family = og.Propagator(og.derive_couplings(p), spec, gammas=FAMILY).evolve(psi0, times)
    assert family.shape == (len(FAMILY), len(times)) + spec.dims
    assert family.flags.owndata and family.flags.c_contiguous
    for gamma, states in zip(FAMILY, family):
        dc = og.derive_couplings(replace(p, direct_gamma=gamma))
        single = og.Propagator(dc, spec).evolve(psi0, times)
        assert np.max(np.abs(states - single)) <= 1e-13, gamma
        reference = dense_reference.EighPropagator(dense_reference.hamiltonian_blocks(dc, spec))
        for t, psi in zip(times, states):
            assert np.max(np.abs(psi - reference.evolve(psi0, t))) <= ATOL, (gamma, t)


def test_free_phases_match_the_eigenbasis_series(monkeypatch):
    p = setups.dimensionless_params(gamma=0.0, lambda_m=0.445, lambda_M=0.521)
    spec = og.HilbertSpec(24, 28)
    propagator = og.Propagator(og.derive_couplings(p), spec)
    x0 = eigenbasis_amplitudes(spec, 12)
    x0 /= np.linalg.norm(x0)
    times = np.array([0.3, 5.0, 17.0, 40.0])
    series = as_complex(propagator._series(x0, times))
    assert np.max(np.abs(as_complex(propagator._phases(x0, times)) - series)) <= 1e-13
    # At gamma = 0, evolve runs no recursion.
    monkeypatch.setattr(propagator, "_series", None)
    psi0 = random_state(spec, 12)
    reference = dense_reference.EighPropagator(dense_reference.hamiltonian_blocks(
        og.derive_couplings(p), spec))
    for t, psi in zip(times, propagator.evolve(psi0, times)):
        assert np.max(np.abs(psi - reference.evolve(psi0, float(t)))) <= ATOL


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
    parts = propagator.evolve(x.real, [t]) + 1j * propagator.evolve(x.imag, [t])
    assert np.max(np.abs(propagator.evolve(x, [t]) - parts)) <= 1e-14


def test_table_bytes_per_entry_bound_the_tables():
    # Many times and few levels: the Bessel and coefficient tables dominate.
    p = dimensionless_config()
    propagator = og.Propagator(og.derive_couplings(p), og.HilbertSpec(4, 4))
    radius = float(propagator._radius.max())
    for count, t_max in ((4000, 25.0), (500, 400.0), (3, 1000.0)):
        times = np.linspace(0.0, t_max, count)
        entries = 4 * count * (oracle._bessel_start(radius * t_max) + 1)
        tracemalloc.start()
        try:
            tables = propagator._coefficients(times)
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
        propagator.evolve(psi0, [1e12])
    t_max = float(str(info.value).rsplit(" ", 1)[-1])
    radius = float(propagator._radius.max())
    oracle._check_table_bytes(4, radius, t_max)
    with pytest.raises(DimensionLimitError):
        oracle._check_table_bytes(4, radius, t_max * (1.0 + 1e-9))
    with pytest.raises(DimensionLimitError, match="largest admissible time"):
        propagator.evolve(psi0, [0.5, 1e300])
