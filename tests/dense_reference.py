"""Dense reference routes for the factored Fock-space layer (test-only).

The library applies every sector Hamiltonian through its per-mode factors,
propagates by a Chebyshev expansion and computes the frame-rotation
residual from per-mode eigendecompositions.  This module keeps the dense
routes they replaced, as independent cross-checks:

- ``hamiltonian_blocks`` and ``SectorOperator``: each sector block
  assembled from the per-mode Hamiltonians as
  H_a(p) (x) 1 + 1 (x) H_b(q) + gamma * x_a (x) x_b;
- ``EighPropagator``: exp(-i*H*t) from one eigendecomposition per sector
  block, shared between identical blocks;
- ``switched_blocks``: the older sector assembly with the gravity and
  coupled-constant switches, summing full-size Kronecker terms;
- ``full``, ``propagate`` and ``expectation``: the dense matrix of a
  sector operator, propagation by one eigendecomposition of it, and
  expectation values through it;
- ``DenseInteractionResidual``: the frame-rotation residual from one
  eigendecomposition per (n_a+1)*(n_b+1)-dimensional sector block, against
  the closed-form generator written out from its definition;
- ``thermal_visibility_montecarlo_per_time``: the thermal Monte-Carlo
  average at one time per call, re-seeding the generator, redrawing the
  samples and every bootstrap index, and gathering all resamples at once,
  as the library did before it served every time from one draw; its
  oracle method propagates every Fock level of rod m, the truncated
  reference for the library's exact Gaussian coherence;
- ``entropy_expectations``: the entangling coefficient of the first-order
  perturbation at one time, from the system families {a^dag psi, a psi,
  psi} built in the truncated Fock basis, as the library computed it
  before its closed form in a four-dimensional coherent basis;
- ``allocating_apply``: one Chebyshev step of ``oracle.Propagator`` with a
  fresh temporary per matrix product, as before it reused scratch buffers.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from optograv import analytic, oracle
from optograv.errors import ParameterError
from optograv.oracle import TAIL_TOL, _coherent_input, initial_state

SECTORS = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class SectorOperator:
    """Operator block diagonal over the four photon-path sectors:
    ``blocks[(p, q)]`` acts on the (mode a) x (mode b) factor of the sector
    with cavity-path occupations p and q, in frequency units."""

    blocks: dict
    spec: oracle.HilbertSpec


def hamiltonian_blocks(dc, spec) -> SectorOperator:
    """Sector blocks of H / hbar from the per-mode factors of ``oracle``."""
    da, db = spec.dim_a, spec.dim_b
    eye_a, eye_b = np.eye(da), np.eye(db)
    gravity = dc.gamma * np.kron(oracle.position_coupling(da), oracle.position_coupling(db))
    blocks = {
        (p_bit, q_bit): np.kron(oracle._mode_hamiltonian(da, dc.omega_a, dc.lambda_m, p_bit),
                                eye_b)
        + np.kron(eye_a, oracle._mode_hamiltonian(db, dc.omega_b, dc.lambda_M, q_bit))
        + gravity
        for p_bit, q_bit in SECTORS
    }
    return SectorOperator(blocks=blocks, spec=spec)


class EighPropagator:
    """exp(-i*H*t) from one eigendecomposition per sector block; identical
    blocks (e.g. both cavity-c sectors when lambda_m = 0) share one."""

    def __init__(self, op: SectorOperator):
        self.spec = op.spec
        self._eigs = {}
        done = []
        for key in SECTORS:
            block = op.blocks[key]
            shared = next((k for k, b in done if np.array_equal(b, block)), None)
            if shared is not None:
                self._eigs[key] = self._eigs[shared]
            else:
                self._eigs[key] = np.linalg.eigh(block)
                done.append((key, block))

    def evolve(self, psi0, t):
        """The state at time t, as an ``oracle.StateVector``."""
        tensor = psi0.as_tensor()
        out = np.empty(self.spec.dims, dtype=complex)
        for p_bit, q_bit in SECTORS:
            w, v = self._eigs[(p_bit, q_bit)]
            vec = tensor[p_bit, q_bit].reshape(-1)
            out[p_bit, q_bit] = (v @ (np.exp(-1j * w * t) * (v.T @ vec))).reshape(
                self.spec.dim_a, self.spec.dim_b
            )
        return oracle.StateVector(amplitudes=out.reshape(-1), spec=self.spec, time=t)


def switched_blocks(dc, p, spec, include_gravity=True, coupled_constants=None):
    """Sector blocks (H / hbar) keyed by (p, q).

    ``coupled_constants`` (default: ``include_gravity``) selects the
    gravitationally shifted constants (lambda, omega) over the bare ones
    (Lambda, bare frequencies); ``include_gravity=False,
    coupled_constants=True`` is the free part of the interacting system.
    """
    if coupled_constants is None:
        coupled_constants = include_gravity
    bare_a, bare_b, _, _ = p.angular_frequencies()
    if coupled_constants:
        omega_a, omega_b = dc.omega_a, dc.omega_b
        lam_m, lam_M = dc.lambda_m, dc.lambda_M
    else:
        omega_a, omega_b = bare_a, bare_b
        lam_m, lam_M = dc.Lambda_m, dc.Lambda_M
    da, db = spec.dim_a, spec.dim_b
    num_a = omega_a * oracle.number_op(da)
    num_b = omega_b * oracle.number_op(db)
    x_a = oracle.position_coupling(da)
    x_b = oracle.position_coupling(db)
    eye_a = np.eye(da)
    eye_b = np.eye(db)
    free = np.kron(num_a, eye_b) + np.kron(eye_a, num_b)
    gravity = dc.gamma * np.kron(x_a, x_b) if include_gravity else None
    blocks = {}
    for p_bit, q_bit in SECTORS:
        block = free.copy()
        if p_bit:
            block -= lam_m * omega_a * np.kron(x_a, eye_b)
        if q_bit:
            block -= lam_M * omega_b * np.kron(eye_a, x_b)
        if gravity is not None:
            block += gravity
        blocks[(p_bit, q_bit)] = block
    return blocks


def full(blocks, spec) -> np.ndarray:
    """Dense matrix of sector blocks in the fixed tensor ordering."""
    block_dim = spec.dim_a * spec.dim_b
    out = np.zeros((spec.total_dim, spec.total_dim))
    for p_bit, q_bit in SECTORS:
        start = (p_bit * 2 + q_bit) * block_dim
        out[start : start + block_dim, start : start + block_dim] = blocks[(p_bit, q_bit)]
    return out


def propagate(h, psi0, t) -> np.ndarray:
    """Amplitudes of exp(-i*h*t) psi0 for a dense Hermitian h (frequency units)."""
    w, v = np.linalg.eigh(h)
    return v @ (np.exp(-1j * w * t) * (v.conj().T @ psi0.amplitudes))


def expectation(blocks, state) -> complex:
    return complex(np.vdot(state.amplitudes, full(blocks, state.spec) @ state.amplitudes))


def mode_factor(dim, lam, omega, s, bit):
    """e^{i*omega*s} a^dag + e^{-i*omega*s} a + 2*lam*bit*(1 - cos(omega*s))."""
    a = oracle.destroy_op(dim)
    return (
        np.exp(1j * omega * s) * a.T
        + np.exp(-1j * omega * s) * a
        + 2.0 * lam * bit * (1.0 - math.cos(omega * s)) * np.eye(dim)
    )


def interaction_generator_closed(dc, spec, s):
    """Closed-form frame-rotated coupling generator per sector at offset s,
    stripped of the hbar*gamma prefactor."""
    return {
        (p_bit, q_bit): np.kron(
            mode_factor(spec.dim_a, dc.lambda_m, dc.omega_a, s, p_bit),
            mode_factor(spec.dim_b, dc.lambda_M, dc.omega_b, s, q_bit),
        )
        for p_bit, q_bit in SECTORS
    }


class DenseInteractionResidual:
    """Interior-projected relative Frobenius deviation of exp(i*H0*t) X
    exp(-i*H0*t) from its closed form, with X = x_a (x) x_b, H0 the free part
    of each sector block and the interior n <= n_max - margin of both modes."""

    def __init__(self, dc, p, spec, margin=20):
        self.dc, self.spec = dc, spec
        free = switched_blocks(dc, p, spec, include_gravity=False, coupled_constants=True)
        coupling = np.kron(oracle.position_coupling(spec.dim_a),
                           oracle.position_coupling(spec.dim_b))
        self._eigs = {}
        self._rotated = {}
        for key in SECTORS:
            w, v = np.linalg.eigh(free[key])
            self._eigs[key] = (w, v)
            self._rotated[key] = v.T @ coupling @ v
        keep_a = np.arange(spec.dim_a) <= spec.n_max_a - margin
        keep_b = np.arange(spec.dim_b) <= spec.n_max_b - margin
        self._interior = np.where(np.kron(keep_a, keep_b))[0]
        proj = coupling[np.ix_(self._interior, self._interior)]
        self._denominator = math.sqrt(4.0) * float(np.linalg.norm(proj))

    def residual(self, t):
        closed = interaction_generator_closed(self.dc, self.spec, t)
        idx = self._interior
        total = 0.0
        for key in SECTORS:
            w, v = self._eigs[key]
            phases = np.exp(1j * w * t)
            numeric = (v * phases) @ self._rotated[key] @ (v * np.conj(phases)).T
            delta = (numeric - closed[key])[np.ix_(idx, idx)]
            total += float(np.linalg.norm(delta)) ** 2
        return math.sqrt(total) / self._denominator


def per_time_propagate(dc, spec, tensors, times):
    """Amplitudes (T, B, 2, 2, dim_a, dim_b) of exp(-i*H*t) applied to each of
    the B initial tensors (B, 2, 2, dim_a, dim_b) at each time: the layout the
    per-time reference below was written against, from one call of the
    library's ``Propagator.evolve`` per tensor."""
    propagator = oracle.Propagator(dc, spec)
    out = np.empty((len(times),) + tensors.shape, dtype=complex)
    for b, tensor in enumerate(tensors):
        psi0 = oracle.StateVector(amplitudes=tensor.reshape(-1), spec=spec)
        for i, state in enumerate(propagator.evolve(psi0, times)):
            out[i, b] = state.as_tensor()
    return out


def thermal_visibility_montecarlo_per_time(
    dc,
    p,
    spec,
    nbar: float,
    t: float,
    n_samples: int,
    seed: int,
    method: str = "closedform",
    bootstrap_resamples: int = 200,
) -> tuple[float, float]:
    """Monte-Carlo thermal visibility of the rod-m cavity at one time.

    The library's former function, kept verbatim but for its propagation
    call, which goes through :func:`per_time_propagate`.
    """
    if n_samples < 100:
        raise ParameterError(f"n_samples must be >= 100, got {n_samples}")
    if not (math.isfinite(nbar) and nbar >= 0):
        raise ParameterError(f"nbar must be >= 0, got {nbar!r}")
    if t < 0:
        raise ParameterError(f"t must be >= 0, got {t!r}")
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(nbar / 2.0)
    betas = rng.normal(0.0, sigma, n_samples) + 1j * rng.normal(0.0, sigma, n_samples)
    if method == "closedform":
        elements = analytic.photon_offdiagonal(betas, dc.lambda_m, dc.omega_a, t)
    elif method == "oracle":
        if spec is None:
            raise ParameterError("method='oracle' requires a HilbertSpec")
        # A sample's state is linear in its rod-m amplitudes c, so its
        # path-coherence element is c^T G conj(c), G[n, m] the coherence
        # between the evolved states that start with rod m in levels n and m.
        amplitudes = np.array([_coherent_input("a", beta, spec.dim_a, TAIL_TOL)
                               for beta in betas])
        rest = initial_state(replace(p, beta_m=0.0), spec).as_tensor()[:, :, :1]
        levels = np.eye(spec.dim_a)[:, None, None, :, None] * rest[None]
        evolved = per_time_propagate(dc, spec, levels, np.array([float(t)]))[0]
        cavity = evolved[:, 1].reshape(spec.dim_a, -1)
        bypass = evolved[:, 0].reshape(spec.dim_a, -1)
        gram = cavity @ bypass.conj().T
        elements = np.einsum("sn,nm,sm->s", amplitudes, gram, amplitudes.conj())
    else:
        raise ParameterError(f"method must be 'closedform' or 'oracle', got {method!r}")
    mean_vis = 2.0 * abs(elements.mean())
    indices = rng.integers(0, n_samples, size=(bootstrap_resamples, n_samples))
    resampled = 2.0 * np.abs(elements[indices].mean(axis=1))
    std_error = float(resampled.std(ddof=1))
    return float(mean_vis), std_error


def _system_branches(dc, p, spec, t):
    """Per-sector vectors of system 1 (photon-c, mode a) and system 2
    (photon-d, mode b) for the gravity-free product state at time t."""
    m0, m1, m_phase = analytic.coherent_trajectories(p.beta_m, dc.lambda_m, dc.omega_a, t)
    b0, b1, b_phase = analytic.coherent_trajectories(p.beta_M, dc.lambda_M, dc.omega_b, t)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    sys1 = (
        inv_sqrt2 * oracle.coherent_vector(m0, spec.dim_a),
        inv_sqrt2 * np.exp(1j * m_phase) * oracle.coherent_vector(m1, spec.dim_a),
    )
    sys2 = (
        inv_sqrt2 * oracle.coherent_vector(b0, spec.dim_b),
        inv_sqrt2 * np.exp(1j * b_phase) * oracle.coherent_vector(b1, spec.dim_b),
    )
    return sys1, sys2


def _integrated_coefficients(dc, t: float) -> dict:
    """Per sector (p, q), the 3x3 coefficients M[i, j] of O_i (x) O_j, with O
    the operators (a^dag, a, 1), in the time integral over s in [-t, 0] of
    the gamma-stripped frame-rotated coupling generator."""
    weights = analytic.exponential_integrals(dc.omega_a, dc.omega_b, t)
    tables_a = [analytic.mode_factor_coefficients(dc.lambda_m, bit) for bit in (0, 1)]
    tables_b = [analytic.mode_factor_coefficients(dc.lambda_M, bit) for bit in (0, 1)]
    return {
        (p_bit, q_bit): tables_a[p_bit] @ weights @ tables_b[q_bit].T
        for p_bit, q_bit in SECTORS
    }


def _projected_family(branches, ops) -> np.ndarray:
    """Columns |bit> (x) O_i branches[bit] of one system, bit-major over
    bit in (0, 1) and O_i in ``ops``, projected orthogonal to the system's
    own state sum_bit |bit> (x) branches[bit]."""
    dim = ops.shape[1]
    family = np.zeros((2 * dim, 6), dtype=complex)
    for bit in (0, 1):
        family[bit * dim : (bit + 1) * dim, 3 * bit : 3 * bit + 3] = (ops @ branches[bit]).T
    psi = np.concatenate(branches)
    return family - np.outer(psi, psi.conj() @ family)


def entropy_expectations(dc, p, t: float, spec=None) -> tuple[float, dict]:
    """Entangling coefficient ||(1 - P_1)(1 - P_2) A psi||^2 of the
    first-order perturbation at time t, in the truncated Fock basis of
    ``spec`` (default: ``oracle.default_spec``).

    The library's former function, kept verbatim: A*psi = sum K[(p, i),
    (q, j)] u_(p,i) (x) v_(q,j) with u_(p,i) = |p> (x) O_i psi_1[p],
    likewise v, and K the 6x6 integrated sector coefficients, so the
    projected vector is U K V^T with the projected Fock families U and V.
    """
    if t < 0:
        raise ParameterError(f"t must be >= 0, got {t!r}")
    if spec is None:
        spec = oracle.default_spec(p, dc)
    sys1, sys2 = _system_branches(dc, p, spec, t)
    coupling = np.zeros((6, 6), dtype=complex)
    for (p_bit, q_bit), block in _integrated_coefficients(dc, t).items():
        coupling[3 * p_bit : 3 * p_bit + 3, 3 * q_bit : 3 * q_bit + 3] = block
    u = _projected_family(sys1, oracle._mode_operators(spec.dim_a))
    v = _projected_family(sys2, oracle._mode_operators(spec.dim_b))
    coefficient = float(np.linalg.norm(u @ coupling @ v.T)) ** 2
    return coefficient, {"nodes": 0}


def linear_entropy_first_order(dc, p, t: float, spec=None) -> float:
    """The library's former perturbative linear entropy at one time:
    2*gamma**2 times :func:`entropy_expectations`, exactly 0 at gamma = 0 or
    t = 0."""
    if t < 0:
        raise ParameterError(f"t must be >= 0, got {t!r}")
    if dc.gamma == 0.0 or t == 0.0:
        return 0.0
    coefficient, _diag = entropy_expectations(dc, p, spec=spec, t=t)
    return 2.0 * dc.gamma**2 * coefficient


def allocating_apply(prop, x, out, scratch=None):
    """out = 2*Ht x for ``prop``'s sector-stacked amplitudes x, each matrix
    product into a fresh temporary; ``scratch`` is ignored."""
    np.matmul(prop._left, x.view(float), out=out.view(float))
    out += x @ prop._right
    if prop._coupling is not None:
        out += (prop._x_a @ x.view(float)).view(complex) @ prop._coupling
