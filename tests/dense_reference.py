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
- ``mode_residual``: the frame-rotation residual of each mode's position
  factor from a matrix exponential of its free Hamiltonian, against the
  closed-form factor written out from its definition (``mode_factor``);
- ``thermal_visibility_montecarlo_per_time``: the thermal Monte-Carlo
  average at one time per call, re-seeding the generator, redrawing the
  samples and every bootstrap index, and gathering all resamples at once,
  as the library did before it served every time from one draw; its
  oracle method propagates every Fock level of rod m, the truncated
  reference for the library's exact Gaussian coherence;
- ``eig_flow``: ``gaussian._flow``'s common factor and k from a numerical
  inverse of M and eigendecomposition of J M, as the library computed them
  before it wrote the normal modes in closed form;
- ``coherence``: photon c's complex path-coherence element for coherent
  rod inputs, ``common * exp(i b.k)`` from ``gaussian._flow``, as the
  library returned it before ``gaussian.visibility`` dropped the phase
  that no modulus reads;
- ``thermal_coherence``: its closed-form average over a thermal rod m,
  ``common * exp(i b_M.k_b) * exp(-nbar |k_a|^2 / 2)``, the library's
  former coupled thermal element;
- ``coupled_thermal_montecarlo``: the same Monte Carlo over ``coherence``
  with the coupled dynamics, for every time at once, as the library's
  oracle method ran before the coupled thermal average got its closed
  form;
- ``entropy_expectations``: the entangling coefficient of the first-order
  perturbation at one time, from the system families {a^dag psi, a psi,
  psi} built in the truncated Fock basis, as the library computed it
  before its closed form in a four-dimensional coherent basis;
- ``coherent_linear_entropy``: that closed form, U K V^T with the 6x6
  integrated sector coefficients K = tables_a W tables_b^T and the
  projected 4x6 coherent families U and V, as the library computed it
  before it contracted W with two rows per rod;
- ``complex_series`` and ``complex_apply``: ``oracle.Propagator``'s
  Chebyshev recursion in complex arithmetic, on complex vectors of shape
  (2, 2, dim_a, dim_b) holding eigenbasis amplitudes, with the same
  diagonal and rotated positions and the right factor stored as complex,
  serving several times from one recursion, each term added into the
  times whose own series has it, where the library runs one recursion per
  time and folds its terms from a ring;
- ``dyson_first_order_state``: the first-order Dyson correction contracted
  from K by two einsums per sector, as before it was written as matrix
  products of the factor components;
- ``first_order_bracket``: the first-order visibility bracket read off K,
  as the library computed it before it contracted W with the mode-a path
  difference and rod M's branch-averaged factor.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from optograv import analytic, gaussian, oracle
from optograv.errors import ParameterError

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
        """The state at time t, of shape ``spec.dims`` like ``psi0``."""
        out = np.empty(self.spec.dims, dtype=complex)
        for p_bit, q_bit in SECTORS:
            w, v = self._eigs[(p_bit, q_bit)]
            vec = psi0[p_bit, q_bit].reshape(-1)
            out[p_bit, q_bit] = (v @ (np.exp(-1j * w * t) * (v.T @ vec))).reshape(
                self.spec.dim_a, self.spec.dim_b
            )
        return out


def switched_blocks(dc, p, spec, include_gravity=True, coupled_constants=None):
    """Sector blocks (H / hbar) keyed by (p, q).

    ``coupled_constants`` (default: ``include_gravity``) selects the
    gravitationally shifted constants (lambda, omega) over the bare ones
    (Lambda, bare frequencies); ``include_gravity=False,
    coupled_constants=True`` is the free part of the interacting system.
    """
    if coupled_constants is None:
        coupled_constants = include_gravity
    if coupled_constants:
        omega_a, omega_b = dc.omega_a, dc.omega_b
        lam_m, lam_M = dc.lambda_m, dc.lambda_M
    else:
        omega_a, omega_b = p.bare_freq_a, p.bare_freq_b
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
    """exp(-i*h*t) psi0 for a dense Hermitian h (frequency units), shaped like psi0."""
    w, v = np.linalg.eigh(h)
    return (v @ (np.exp(-1j * w * t) * (v.conj().T @ psi0.reshape(-1)))).reshape(psi0.shape)


def expectation(blocks, spec, state) -> complex:
    return complex(np.vdot(state, full(blocks, spec) @ state.reshape(-1)))


def mode_factor(dim, lam, omega, s, bit):
    """e^{i*omega*s} a^dag + e^{-i*omega*s} a + 2*lam*bit*(1 - cos(omega*s))."""
    a = oracle.destroy_op(dim)
    return (
        np.exp(1j * omega * s) * a.T
        + np.exp(-1j * omega * s) * a
        + 2.0 * lam * bit * (1.0 - math.cos(omega * s)) * np.eye(dim)
    )


def mode_residual(dc, spec, t, margin=None):
    """Largest relative Frobenius deviation of exp(i*H*t) x exp(-i*H*t) from
    :func:`mode_factor` on the levels n <= n_max, over both modes and photon
    bits, H one mode's free Hamiltonian (by ``scipy.linalg.expm``) and x its
    position, both on the ladder extended by ``margin`` levels beyond n_max
    (by default n_max + 20, the library's 2*n_max + 21 levels)."""
    worst = 0.0
    for n_max, omega, lam in ((spec.n_max_a, dc.omega_a, dc.lambda_m),
                              (spec.n_max_b, dc.omega_b, dc.lambda_M)):
        levels = n_max + 1 + (n_max + 20 if margin is None else margin)
        keep = slice(0, n_max + 1)
        x = oracle.position_coupling(levels)
        for bit in (0, 1):
            u = scipy.linalg.expm(1j * t * oracle._mode_hamiltonian(levels, omega, lam, bit))
            deviation = u @ x @ u.conj().T - mode_factor(levels, lam, omega, t, bit)
            worst = max(worst, float(np.linalg.norm(deviation[keep, keep])
                                     / np.linalg.norm(x[keep, keep])))
    return worst


def per_time_propagate(dc, spec, tensors, times):
    """Amplitudes (T, B, 2, 2, dim_a, dim_b) of exp(-i*H*t) applied to each of
    the B initial tensors (B, 2, 2, dim_a, dim_b) at each time: the layout the
    per-time reference below was written against, from one call of the
    library's ``Propagator.evolve`` per tensor and time."""
    propagator = oracle.Propagator(dc, spec)
    out = np.empty((len(times),) + tensors.shape, dtype=complex)
    for i, t in enumerate(times):
        for b, tensor in enumerate(tensors):
            out[i, b] = propagator.evolve(tensor, t)
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
    call, which goes through :func:`per_time_propagate`, and its input
    states, which go through the library's one state builder
    :func:`oracle.closed_form_state` at t = 0 and its input refusal.
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
        for beta in betas:
            oracle._require_held("a", abs(beta), 0.0, spec.n_max_a)
        amplitudes = np.array([oracle.coherent_vector(beta, spec.dim_a) for beta in betas])
        rest = oracle.closed_form_state(dc, replace(p, beta_m=0.0), spec, 0.0)[:, :, :1]
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


def eig_flow(dc, times) -> tuple[np.ndarray, np.ndarray]:
    """``gaussian._flow``'s (common, k) at each of ``times``, with S^-1(t) u
    from one eigendecomposition of J M and u, v from M's numerical inverse."""
    omega_a, omega_b, gamma = dc.omega_a, dc.omega_b, dc.gamma
    times = np.asarray(times, dtype=float)
    m = np.array([[omega_a, 0.0, 2.0 * gamma, 0.0], [0.0, omega_a, 0.0, 0.0],
                  [2.0 * gamma, 0.0, omega_b, 0.0], [0.0, 0.0, 0.0, omega_b]])
    j = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    inverse = np.linalg.inv(m)
    u = -math.sqrt(2.0) * dc.lambda_m * omega_a * inverse[0]
    v = -math.sqrt(2.0) * dc.lambda_M * omega_b * inverse[2]
    values, vectors = np.linalg.eig(j @ m)
    back = (np.exp(-np.multiply.outer(times, values))
            @ (vectors * np.linalg.solve(vectors, u)).T).real  # S^-1(t) u, (T, 4)
    w = u - back
    halves = np.stack([0.5 * u, 0.5 * u + v])
    phases = np.multiply.outer(times, halves @ m @ u) - back @ (halves @ j).T
    common = 0.25 * np.exp(1j * phases).sum(axis=1) * np.exp(-0.25 * np.sum(w * w, axis=1))
    return common, w @ j.T


def coherence(dc, betas_m, beta_M, times) -> np.ndarray:
    """Exact photon-c path-coherence element, shape (T, N), with rod m in
    each coherent state |betas_m[n]> (a non-empty 1-D sequence) and rod M in
    |beta_M>, at each of ``times``; see ``gaussian._flow``.
    """
    betas_m = np.asarray(betas_m, dtype=complex)
    if betas_m.ndim != 1 or betas_m.size == 0:
        raise ParameterError("betas_m must be a non-empty 1-D sequence")
    common, k = gaussian._flow(dc, times)
    inputs = np.stack(np.broadcast_arrays(betas_m, complex(beta_M)), -1)
    b = math.sqrt(2.0) * inputs.view(float)  # (N, 4) mean quadratures
    return common[:, None] * np.exp(1j * (k @ b.T))


def thermal_coherence(dc, nbar: float, beta_M, times) -> np.ndarray:
    """Exact photon-c path-coherence element, shape (T,), with rod m thermal
    at mean occupation ``nbar`` and rod M in |beta_M>: the average of
    :func:`coherence` over the thermal mixture,
    common * exp(i b_M^T k_b) * exp(-nbar |k_a|^2 / 2)."""
    if not (math.isfinite(nbar) and nbar >= 0):
        raise ParameterError(f"nbar must be >= 0, got {nbar!r}")
    beta_M = complex(beta_M)
    b = math.sqrt(2.0) * np.array([0.0, 0.0, beta_M.real, beta_M.imag])
    common, k = gaussian._flow(dc, times)
    envelope = np.exp(-0.5 * nbar * np.sum(k[:, :2] * k[:, :2], axis=1))
    return common * np.exp(1j * (k @ b)) * envelope


def coupled_thermal_montecarlo(dc, beta_M, nbar: float, times, n_samples: int,
                               seed: int) -> tuple[np.ndarray, np.ndarray]:
    """2*|mean| of :func:`coherence` over thermal rod-m draws,
    and its bootstrap standard error, one entry per time: the samples are
    drawn as ``thermal_visibility_montecarlo_per_time`` draws them, so both
    see the same amplitudes, and the bootstrap is the library's streamed
    one, which draws the indices that follow the samples."""
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(nbar / 2.0)
    betas = rng.normal(0.0, sigma, n_samples) + 1j * rng.normal(0.0, sigma, n_samples)
    elements = coherence(dc, betas, beta_M, times)
    return gaussian._bootstrap_visibility(elements, rng)


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


def _mode_operators(dim: int) -> np.ndarray:
    """The operators (a^dag, a, 1) that index the rows of a coefficient table
    (``analytic.mode_factor_coefficients``), stacked as (3, dim, dim)."""
    a = oracle.destroy_op(dim)
    return np.stack([a.T, a, np.eye(dim)])


def _integrated_coefficients(dc, times) -> np.ndarray:
    """K[..., 3*p + i, 3*q + j], shape ``times.shape + (6, 6)``: the
    coefficient of O_i (x) O_j, with O the operators (a^dag, a, 1), in the
    sector-(p, q) time integral over s in [-t, 0] of the gamma-stripped
    frame-rotated coupling generator."""
    weights = analytic.exponential_integrals(dc.omega_a, dc.omega_b, times)
    tables_a = np.array([analytic.mode_factor_coefficients(dc.lambda_m, bit) for bit in (0, 1)])
    tables_b = np.array([analytic.mode_factor_coefficients(dc.lambda_M, bit) for bit in (0, 1)])
    k = np.einsum("pik,...kl,qjl->...piqj", tables_a, weights, tables_b)
    return k.reshape(k.shape[:-4] + (6, 6))


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
    u = _projected_family(sys1, _mode_operators(spec.dim_a))
    v = _projected_family(sys2, _mode_operators(spec.dim_b))
    coefficient = float(np.linalg.norm(u @ _integrated_coefficients(dc, t) @ v.T)) ** 2
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


def _coherent_family(lam: float, omega: float, times: np.ndarray) -> np.ndarray:
    """One system's family {a^dag psi[p], a psi[p], psi[p]} (column 3*p + i,
    p the photon bit) projected orthogonal to its state psi, shape (T, 4, 6).

    Up to phases, psi[p] = |p>|phi_p>/sqrt(2) and a^dag|phi> = phi*|phi> +
    D(phi)|1>, so the columns lie in the orthonormal span (|0>|phi_0>,
    |1>|phi_1>, |0>D(phi_0)|1>, |1>D(phi_1)|1>), where psi = (1, 1, 0, 0)/sqrt(2).
    The rod's input amplitude shifts phi_0 and phi_1 alike, adding multiples
    of the identity columns to the a^dag and a columns; the tables' a^dag and
    a rows do not depend on the bit, so that adds a multiple of psi, which the
    projection removes.  Hence phi_0 = 0 and phi_1 = lam*(1 - exp(-i*omega*t)).
    """
    phi = lam * (1.0 - np.exp(-1j * omega * times))
    family = np.zeros((times.size, 4, 6), dtype=complex)
    family[:, 0, 2] = 1.0
    family[:, 1, 3], family[:, 1, 4], family[:, 1, 5] = phi.conj(), phi, 1.0
    family[:, 2, 0] = family[:, 3, 3] = 1.0
    family /= math.sqrt(2.0)
    family[:, :2] -= 0.5 * (family[:, 0] + family[:, 1])[:, None]
    return family


def coherent_linear_entropy(dc, times) -> np.ndarray:
    """The library's former perturbative linear entropy at each of ``times``:
    2*gamma**2 ||U K V^T||^2 with K the :func:`_integrated_coefficients` and
    U, V the :func:`_coherent_family` of each system."""
    times = analytic._check_times(times)
    u = _coherent_family(dc.lambda_m, dc.omega_a, times)
    v = _coherent_family(dc.lambda_M, dc.omega_b, times)
    projected = np.einsum("tai,tij,tbj->tab", u, _integrated_coefficients(dc, times), v)
    return 2.0 * dc.gamma**2 * np.sum(np.abs(projected) ** 2, axis=(1, 2))


def complex_apply(prop, x, out, scratch, right):
    """out = 2*Ht x for ``prop``'s sector-stacked complex eigenbasis
    amplitudes x of shape (2, 2, dim_a, dim_b) at its one coupling;
    ``scratch`` holds two arrays of x's shape and ``right`` is ``prop._x_b``
    (which carries the coupling) as complex."""
    product, mixed = scratch
    np.multiply(prop._diagonal, x, out=out)
    np.matmul(prop._x_a, x.view(float), out=mixed.view(float))
    np.matmul(mixed, right, out=product)
    out += product


def complex_coefficients(prop, times):
    """(T, K) complex expansion coefficients of each time, zero past the
    terms of that time's own series, and each time's count of terms."""
    series = [oracle._bessel_series(prop._radius * t) for t in times]
    terms = np.array([values.size for values in series])
    bessel = np.zeros((len(series), terms.max()))
    for row, values in zip(bessel, series):
        row[: values.size] = values
    order = np.arange(bessel.shape[-1])
    weights = np.where(order == 0, 1.0, 2.0) * oracle._MINUS_I_POWERS[order % 4] * bessel
    return weights * np.exp(-1j * prop._center * times)[:, None], terms


def complex_series(prop, x0, times):
    """Eigenbasis amplitudes (2, 2, T, dim_a, dim_b) of exp(-i*H*t) x0 at each
    time, by the complex three-term recursion with ``prop``'s factors and
    tables; term k is added only into the times whose own series has it."""
    times = np.asarray(times, dtype=float)
    x0 = np.asarray(x0, dtype=complex)
    coefficients, terms = complex_coefficients(prop, times)
    right = prop._x_b.astype(complex)
    steps = np.empty((2,) + x0.shape, dtype=complex)
    previous, current = None, x0
    out = coefficients[:, 0, None, None] * x0[:, :, None]
    for k in range(1, coefficients.shape[-1]):
        following = np.empty_like(x0)
        complex_apply(prop, current, following, steps, right)
        if k == 1:
            following *= 0.5
        else:
            following -= previous
        previous, current = current, following
        for i in np.flatnonzero(terms > k):
            out[:, :, i] += coefficients[i, k] * current
    return out


def dyson_first_order_state(dc, p, spec, t):
    """``oracle.dyson_first_order_state`` from the integrated coefficients K,
    each sector contracted by einsum: sum_ij K[i, j] O_i X O_j^T for the
    sector's amplitudes X."""
    tensor = oracle.closed_form_state(dc, p, spec, t)
    ops_a, ops_b = _mode_operators(spec.dim_a), _mode_operators(spec.dim_b)
    coefficients = _integrated_coefficients(dc, t).reshape(2, 3, 2, 3)
    out = np.empty(spec.dims, dtype=complex)
    for p_bit, q_bit in SECTORS:
        left = np.einsum("ij,iab,bc->jac", coefficients[p_bit, :, q_bit], ops_a,
                         tensor[p_bit, q_bit])
        out[p_bit, q_bit] = np.einsum("jac,jdc->ad", left, ops_b)
    return (-1j * dc.gamma) * out


def first_order_bracket(dc, p, times):
    """The real bracket x(t) with V1 = V0 * |1 + i*x(t)| read off K: only the
    identity row of the mode-a factor depends on the path, so x = gamma/2 *
    Re sum over (q, j) of <O_j>_q * (K[(1, 2), (q, j)] - K[(0, 2), (q, j)]),
    O = (a^dag, a, 1) in rod M's branch q."""
    times = analytic._check_times(times)
    k = _integrated_coefficients(dc, times).reshape(-1, 2, 3, 2, 3)
    path_difference = k[:, 1, 2] - k[:, 0, 2]
    phi0, phi1, _ = analytic.coherent_trajectories(p.beta_M, dc.lambda_M, dc.omega_b, times)
    phi = np.stack([phi0, phi1], axis=-1)
    expectations = np.stack([np.conj(phi), phi, np.ones_like(phi)], axis=-1)
    x = 0.5 * np.sum(expectations * path_difference, axis=(1, 2))
    return dc.gamma * x.real
