"""Exact layer: propagation in a truncated Fock basis.

The four-subsystem state lives on (photon-c qubit) x (photon-d qubit) x
(mode a) x (mode b), in that fixed tensor order.  Each photon is a two-path
qubit: index 0 is the path that bypasses the cavity, index 1 the path whose
photon rides inside it, and the dynamics never leaves the one-photon-per-
cavity sector.  Because the photon operators enter the Hamiltonian only
through the cavity-path projectors, the Hamiltonian is block diagonal over
the four path sectors.  Each sector Hamiltonian is built from per-mode
factors of size n_max+1: the free part is a Kronecker sum of one Hamiltonian
per mode and the gravitational coupling a product of the two positions, so
it acts on a sector's (n_a+1, n_b+1) amplitude matrix through matrix
products and no (n_a+1)*(n_b+1)-dimensional block is ever formed.
Propagation is a Chebyshev expansion of exp(-i*H*t) on each sector's
spectral interval: one recursion serves a whole batch of times, and its
length, hence its cost, grows with the spectral width times the latest
time.  With one BLAS thread, a single time at n_max 28 (36) costs as much
as the dense per-sector eigendecomposition it replaced only beyond about
22 (39) revival periods.

The evolved states are read through the two observables the paper's
signatures need: photon c's path coherence (:func:`visibility_exact`) and
the linear entropy of (photon c, mode a) against (photon d, mode b)
(:func:`linear_entropy_exact`).

The thermal Monte Carlo's oracle method needs no truncation: every sector
Hamiltonian is one quadratic form plus a linear drive, so coherent inputs
stay Gaussian and the photon path coherence is an exact displacement
overlap.

Energy offsets proportional to the identity (the constant photon energies)
are omitted throughout: they contribute a global phase only.  The
closed-form reference state below, built from
:func:`analytic.coherent_trajectories`, drops the same phase, so state
vectors from both routes are directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .errors import DimensionLimitError, NumericalError, ParameterError, TruncationError
from .params import DerivedCouplings, PhysicalParams, derive_couplings

#: Desk-scale guard on the total Hilbert-space dimension.
MAX_TOTAL_DIM = 2**16

#: Coherent tail mass allowed beyond the truncation edge.
TAIL_TOL = 1e-12

_NORM_TOL = 1e-10


@dataclass(frozen=True)
class HilbertSpec:
    """Truncation of the two mechanical modes (photon qubits are fixed 2x2)."""

    n_max_a: int
    n_max_b: int

    def __post_init__(self):
        if self.n_max_a < 1 or self.n_max_b < 1:
            raise ParameterError("n_max_a and n_max_b must be >= 1")
        if self.total_dim > MAX_TOTAL_DIM:
            raise DimensionLimitError(
                f"total dimension {self.total_dim} exceeds the guard {MAX_TOTAL_DIM}"
            )

    @property
    def dim_a(self) -> int:
        return self.n_max_a + 1

    @property
    def dim_b(self) -> int:
        return self.n_max_b + 1

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return (2, 2, self.dim_a, self.dim_b)

    @property
    def total_dim(self) -> int:
        return 4 * self.dim_a * self.dim_b


def coherent_tail_mass(amplitude: float, n_max: int) -> float:
    """Probability mass of |amplitude|-coherent occupation beyond n_max."""
    mu = float(abs(amplitude)) ** 2
    if mu == 0.0:
        return 0.0
    term = math.exp(-mu)
    kept = [term]
    for n in range(1, n_max + 1):
        term *= mu / n
        kept.append(term)
    return max(0.0, 1.0 - math.fsum(kept))


def suggested_n_max(beta_abs: float, lam: float) -> int:
    """Truncation heuristic: the displaced coherent amplitude never exceeds
    |beta| + 2*lam, so size the ladder for that and pad generously.

    Raises :class:`DimensionLimitError` when the ladder could not fit the
    dimension guard even beside the smallest other mode (n_max 1), which
    includes non-finite amplitudes."""
    s = abs(beta_abs) + 2.0 * abs(lam)
    n_max = s * s + 8.0 * s + 16.0
    if not n_max <= MAX_TOTAL_DIM // 8 - 1:
        raise DimensionLimitError(
            f"amplitude |beta| = {beta_abs!r} with lambda = {lam!r} needs n_max = {n_max:.3g}, "
            f"beyond the total dimension guard {MAX_TOTAL_DIM}"
        )
    return math.ceil(n_max)


def default_spec(p: PhysicalParams, dc: DerivedCouplings | None = None) -> HilbertSpec:
    if dc is None:
        dc = derive_couplings(p)
    return HilbertSpec(
        n_max_a=suggested_n_max(abs(p.beta_m), dc.lambda_m),
        n_max_b=suggested_n_max(abs(p.beta_M), dc.lambda_M),
    )


def check_adequacy(spec: HilbertSpec, dc: DerivedCouplings, p: PhysicalParams, tol=TAIL_TOL):
    """Verify that the truncation holds the displaced amplitudes |beta|+2*lam.

    Raises :class:`TruncationError` (with a rule-based suggestion) otherwise.
    """
    for label, beta, lam, n_max in (
        ("a", p.beta_m, dc.lambda_m, spec.n_max_a),
        ("b", p.beta_M, dc.lambda_M, spec.n_max_b),
    ):
        displaced = abs(beta) + 2.0 * abs(lam)
        tail = coherent_tail_mass(displaced, n_max)
        if tail > tol:
            suggestion = suggested_n_max(abs(beta), lam)
            raise TruncationError(
                f"mode {label}: tail mass {tail:.3e} beyond n_max={n_max} exceeds "
                f"{tol:g} for displaced amplitude {displaced:.3f}; "
                f"use n_max_{label} >= {suggestion}",
                suggested_n_max=suggestion,
            )


@dataclass
class StateVector:
    """Flat complex amplitudes in the fixed tensor order (photon c, photon d,
    mode a, mode b)."""

    amplitudes: np.ndarray
    spec: HilbertSpec
    time: float = 0.0

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.spec.total_dim,):
            raise ParameterError(
                f"amplitudes must have shape ({self.spec.total_dim},), got {amp.shape}"
            )
        self.amplitudes = amp

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def as_tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.spec.dims)


def destroy_op(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim))
    idx = np.arange(1, dim)
    a[idx - 1, idx] = np.sqrt(idx)
    return a


def number_op(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=float))


def position_coupling(dim: int) -> np.ndarray:
    """a^dag + a (dimensionless position quadrature, up to sqrt(2))."""
    a = destroy_op(dim)
    return a + a.T


_SECTORS = ((0, 0), (0, 1), (1, 0), (1, 1))

#: Chebyshev terms whose coefficient 2|J_k(r t)| falls below this are round-off.
_SERIES_TOL = np.finfo(float).eps

#: Relative widening of each sector's spectral interval, covering the
#: round-off of the per-mode eigenvalues it is built from.
_INTERVAL_PAD = 1e-12

#: Bytes of Chebyshev vectors held for one batched accumulation.
_CHUNK_BYTES = 8 << 20

#: (-i)^k for k mod 4.
_MINUS_I_POWERS = np.array([1.0, -1.0j, -1.0, 1.0j])

#: Budget for the Bessel and coefficient tables of one recursion, which
#: hold about _TABLE_ENTRY_BYTES per (sector, time, term) entry at once.
_TABLE_BYTES, _TABLE_ENTRY_BYTES = 1 << 30, 64


def _mode_hamiltonian(dim: int, omega: float, lam: float, bit: int) -> np.ndarray:
    """One mode's free Hamiltonian omega*n - bit*lam*omega*(a^dag + a), with
    ``bit`` the photon occupation of the mode's cavity path."""
    return omega * number_op(dim) - bit * (lam * omega) * position_coupling(dim)


def _as_times(times) -> np.ndarray:
    """``times`` as a float array; refused unless non-empty, 1-D and finite."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
        raise ParameterError("times must be a non-empty 1-D sequence of finite values")
    return times


def _check_norms(before: float, after: np.ndarray, times: np.ndarray):
    """Raise unless every evolved norm ``after[t]`` matches ``before``."""
    bad = np.flatnonzero(~(np.abs(after - before) <= _NORM_TOL))
    if bad.size:
        norm_after = float(after[bad[0]])
        raise NumericalError(
            f"propagation failed to preserve the norm to {_NORM_TOL:g}: "
            f"{before!r} before, {norm_after!r} after",
            diagnostics={"norm_before": before, "norm_after": norm_after,
                         "time": float(times[bad[0]])},
        )


def _bessel_start(zmax: float) -> int:
    """Order at which the backward recurrence for arguments up to zmax starts."""
    return int(zmax + 20.0 * zmax ** (1.0 / 3.0)) + 64


def _check_table_bytes(rows: int, radius: float, t_max: float):
    """Raise :class:`DimensionLimitError`, naming the largest admissible time,
    unless the tables for ``rows`` (sector, time) pairs of spectral radius up
    to ``radius`` and times up to ``t_max`` fit :data:`_TABLE_BYTES`."""
    def fits(t):
        entries = rows * (_bessel_start(radius * t) + 1) if math.isfinite(radius * t) else math.inf
        return entries * _TABLE_ENTRY_BYTES <= _TABLE_BYTES

    if fits(t_max):
        return
    lo, hi = 0.0, _TABLE_BYTES / (rows * _TABLE_ENTRY_BYTES * radius)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    raise DimensionLimitError(
        f"the Chebyshev tables of one recursion over {rows // 4} time(s) up to t = {t_max!r} "
        f"exceed the budget of {_TABLE_BYTES} bytes; the largest admissible time is {lo!r}"
    )


def _bessel_series(z: np.ndarray) -> np.ndarray:
    """J_k(z) for each z >= 0 of a 1-D array, k from 0 up to the order past
    max(z) beyond which every row's 2|J_k| stays below :data:`_SERIES_TOL`.

    Miller's backward recurrence J_(k-1) = (2k/z) J_k - J_(k+1), started far
    enough beyond that order to be accurate to round-off there and
    normalised by J_0 + 2 sum J_(2k) = 1; rows are rescaled before they can
    overflow.
    """
    zmax = float(z.max(initial=0.0))
    start = _bessel_start(zmax)
    values = np.zeros((z.size, start + 1))
    # Below 1e-8, J_0 = 1 and J_1 = z/2 to round-off and the rest vanish.
    live = z >= 1e-8
    values[~live, 0] = 1.0
    values[~live, 1] = 0.5 * z[~live]
    zl = z[live]
    tail = np.zeros((zl.size, start + 1))
    upper, current = np.zeros(zl.size), np.full(zl.size, 1e-300)
    tail[:, start] = current
    for k in range(start, 0, -1):
        upper, current = current, (2.0 * k / zl) * current - upper
        tail[:, k - 1] = current
        big = np.abs(current) > 1e200
        if big.any():
            upper[big] *= 1e-200
            current[big] *= 1e-200
            tail[big, k - 1 :] *= 1e-200
    tail /= (tail[:, 0] + 2.0 * tail[:, 2::2].sum(axis=1))[:, None]
    values[live] = tail
    order = np.arange(start + 1)
    below = (2.0 * np.abs(values) < _SERIES_TOL) & (order > z[:, None])
    if not below.any(axis=1).all():
        raise NumericalError(
            f"Chebyshev coefficients of exp(-i z x) did not decay below "
            f"{_SERIES_TOL:g} within {start} terms (max z = {zmax!r})",
            diagnostics={"max_z": zmax, "terms": start},
        )
    return values[:, : int(below.argmax(axis=1).max())]


class Propagator:
    """exp(-i*H*t) on the four photon sectors by a Chebyshev expansion.

    Each sector Hamiltonian is H_a(p) (x) 1 + 1 (x) H_b(q) + gamma*x_a (x) x_b
    with per-mode factors of size n_max+1, so it acts on a sector's
    (dim_a, dim_b) amplitude matrix X as H_a X + X H_b^T + gamma x_a X x_b^T
    and no sector block is ever formed.  The spectrum of each sector lies in
    [min w_a + min w_b - g, max w_a + max w_b + g], with w the eigenvalues of
    the per-mode Hamiltonians and g = |gamma| ||x_a|| ||x_b|| (Weyl); mapping
    it onto [-1, 1] as H = c + r*Ht gives (Tal-Ezer and Kosloff, J. Chem.
    Phys. 81, 3967 (1984))

        exp(-i*H*t) = exp(-i*c*t) sum_k (2 - delta_k0) (-i)^k J_k(r*t) T_k(Ht),

    and one three-term recursion T_(k+1) = 2 Ht T_k - T_(k-1) applied to the
    initial state serves every requested time.  The number of terms is about
    r*t plus a few dozen, so the cost grows with spectral width times time.
    """

    def __init__(self, dc: DerivedCouplings, spec: HilbertSpec):
        self.spec = spec
        x_a, x_b = position_coupling(spec.dim_a), position_coupling(spec.dim_b)
        h_a = [_mode_hamiltonian(spec.dim_a, dc.omega_a, dc.lambda_m, bit) for bit in (0, 1)]
        h_b = [_mode_hamiltonian(spec.dim_b, dc.omega_b, dc.lambda_M, bit) for bit in (0, 1)]
        w_a = [np.linalg.eigvalsh(h) for h in h_a]
        w_b = [np.linalg.eigvalsh(h) for h in h_b]
        coupling = abs(dc.gamma) * np.linalg.norm(x_a, 2) * np.linalg.norm(x_b, 2)
        center, radius = np.empty((2, 2)), np.empty((2, 2))
        for p_bit, q_bit in _SECTORS:
            lo = w_a[p_bit][0] + w_b[q_bit][0] - coupling
            hi = w_a[p_bit][-1] + w_b[q_bit][-1] + coupling
            center[p_bit, q_bit] = 0.5 * (hi + lo)
            radius[p_bit, q_bit] = 0.5 * (hi - lo) * (1.0 + _INTERVAL_PAD)
        self._center, self._radius = center, radius
        # 2*Ht = (2/r)(H - c): the shift rides on the left factor, the scale on all three.
        scale = (2.0 / radius)[:, :, None, None]
        eye_a = np.eye(spec.dim_a)
        self._left = scale * np.array(
            [[h_a[p_bit] - center[p_bit, q_bit] * eye_a for q_bit in (0, 1)] for p_bit in (0, 1)]
        )
        self._right = (scale * np.array([[h_b[0].T, h_b[1].T]] * 2)).astype(complex)
        self._x_a = x_a
        self._coupling = (scale * dc.gamma * x_b.T).astype(complex) if dc.gamma else None

    def _apply(self, x: np.ndarray, out: np.ndarray, scratch: np.ndarray):
        """out = 2*Ht x for sector-stacked amplitudes x of shape
        (2, 2, dim_a, dim_b).  ``scratch`` holds two arrays of x's shape,
        which are overwritten."""
        product, mixed = scratch
        np.matmul(self._left, x.view(float), out=out.view(float))
        out += np.matmul(x, self._right, out=product)
        if self._coupling is not None:
            np.matmul(self._x_a, x.view(float), out=mixed.view(float))
            out += np.matmul(mixed, self._coupling, out=product)

    def _coefficients(self, times: np.ndarray) -> np.ndarray:
        """(2, 2, T, K) expansion coefficients of every sector and time."""
        _check_table_bytes(4 * times.size, float(self._radius.max()), float(np.abs(times).max()))
        z = self._radius[:, :, None] * times
        bessel = _bessel_series(np.abs(z).reshape(-1)).reshape(*z.shape, -1)
        order = np.arange(bessel.shape[-1])
        # J_k(-z) = (-1)^k J_k(z), so negative times turn (-i)^k into i^k.
        powers = _MINUS_I_POWERS[(np.where(z < 0, 3, 1)[..., None] * order) % 4]
        weights = np.where(order == 0, 1.0, 2.0) * powers * bessel
        return weights * np.exp(-1j * self._center[:, :, None] * times)[..., None]

    def _series(self, x0: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Amplitudes (2, 2, T, dim_a*dim_b) of exp(-i*H*t) x0 at each time."""
        coefficients = self._coefficients(times)
        terms = coefficients.shape[-1]
        # T_k(Ht) x0 cycles through `chunk` contiguous ring slots (the
        # recursion reads the two before it); each filled chunk is folded into
        # every time at once by one matrix product per sector.  Both steps and
        # folds write their products into one buffer.
        chunk = max(3, min(terms, _CHUNK_BYTES // x0.nbytes))
        ring = np.empty((chunk,) + x0.shape, dtype=complex)
        flat = ring.reshape(chunk, 2, 2, -1).transpose(1, 2, 0, 3)
        out = np.zeros((2, 2, times.size, x0[0, 0].size), dtype=complex)
        buffer = np.empty(max(2, times.size) * x0.size, dtype=complex)
        steps = buffer[: 2 * x0.size].reshape((2,) + x0.shape)
        folded = buffer[: times.size * x0.size].reshape(out.shape)
        ring[0] = x0
        for k in range(terms):
            slot = k % chunk
            if k == 1:
                self._apply(ring[0], ring[1], steps)
                ring[1] *= 0.5
            elif k > 1:
                self._apply(ring[(k - 1) % chunk], ring[slot], steps)
                ring[slot] -= ring[(k - 2) % chunk]
            if slot == chunk - 1 or k == terms - 1:
                out += np.matmul(coefficients[..., k - slot : k + 1], flat[:, :, : slot + 1],
                                 out=folded)
        return out

    def evolve(self, psi0: StateVector, times) -> list[StateVector]:
        """Propagate a t=0 state to each of ``times`` (a 1-D sequence)."""
        times = _as_times(times)
        out = self._series(psi0.as_tensor(), times)
        v = out.view(float)
        _check_norms(psi0.norm(), np.sqrt(np.einsum("pqtn,pqtn->t", v, v)), times)
        return [StateVector(amplitudes=out[:, :, i].reshape(-1), spec=self.spec, time=t)
                for i, t in enumerate(times.tolist())]


def coherent_vector(beta: complex, dim: int) -> np.ndarray:
    """Truncated, renormalised coherent-state amplitudes."""
    beta = complex(beta)
    amps = np.empty(dim, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(beta) ** 2)
    for n in range(1, dim):
        amps[n] = amps[n - 1] * beta / math.sqrt(n)
    kept = float(np.sum(np.abs(amps) ** 2))
    if kept == 0.0:
        raise TruncationError(f"coherent amplitude {abs(beta):.3f} underflows dim {dim}")
    return amps / math.sqrt(kept)


def _coherent_input(label: str, beta: complex, dim: int, tail_tol: float) -> np.ndarray:
    """Coherent amplitudes of one rod's input state, refused when more than
    ``tail_tol`` of its occupation lies beyond the truncation."""
    tail = coherent_tail_mass(abs(beta), dim - 1)
    if tail > tail_tol:
        suggestion = suggested_n_max(abs(beta), 0.0)
        raise TruncationError(
            f"mode {label}: coherent tail mass {tail:.3e} beyond n_max={dim - 1} exceeds "
            f"{tail_tol:g}; raise n_max_{label} to at least {suggestion} "
            "(more if strong optomechanical displacement is expected)",
            suggested_n_max=suggestion,
        )
    return coherent_vector(beta, dim)


def initial_state(p: PhysicalParams, spec: HilbertSpec, tail_tol: float = TAIL_TOL) -> StateVector:
    """Path superposition in both cavities times coherent rods:
    each photon enters (|no-cavity> + |cavity>)/sqrt(2), rod m in
    |beta_m>, rod M in |beta_M> (truncated and renormalised).
    """
    coh_a = _coherent_input("a", p.beta_m, spec.dim_a, tail_tol)
    coh_b = _coherent_input("b", p.beta_M, spec.dim_b, tail_tol)
    qubit = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    amp = np.kron(np.kron(np.kron(qubit, qubit), coh_a), coh_b)
    return StateVector(amplitudes=amp, spec=spec, time=0.0)


def closed_form_state(
    dc: DerivedCouplings, p: PhysicalParams, spec: HilbertSpec, t: float
) -> StateVector:
    """Gravity-free evolved state mapped into the truncated basis.

    Each photon branch carries its conditional coherent amplitude and
    radiation-pressure phase; the global photon-energy phase is omitted to
    match the Hamiltonians built here.  ``t`` must be finite and >= 0.
    """
    # Per photon bit, one branch of each system; each sector is their product.
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    branches = []
    for beta, lam, omega, dim in ((p.beta_m, dc.lambda_m, dc.omega_a, spec.dim_a),
                                  (p.beta_M, dc.lambda_M, dc.omega_b, spec.dim_b)):
        phi0, phi1, phase = analytic.coherent_trajectories(beta, lam, omega, t)
        branches.append((inv_sqrt2 * coherent_vector(phi0, dim),
                         inv_sqrt2 * np.exp(1j * phase) * coherent_vector(phi1, dim)))
    out = np.empty(spec.dims, dtype=complex)
    for p_bit, q_bit in _SECTORS:
        out[p_bit, q_bit] = np.outer(branches[0][p_bit], branches[1][q_bit])
    return StateVector(amplitudes=out.reshape(-1), spec=spec, time=t)


def off_diagonal_exact(psi: StateVector) -> complex:
    """Complex photon-c path-coherence element <cavity-branch| rho |bypass-branch>."""
    tensor = psi.as_tensor()
    return complex(np.sum(tensor[1] * np.conj(tensor[0])))


def visibility_exact(psi: StateVector) -> float:
    """Interference visibility: twice the magnitude of photon c's
    path-coherence element."""
    return 2.0 * abs(off_diagonal_exact(psi))


def linear_entropy_exact(psi: StateVector) -> float:
    """Linear entropy 1 - Tr(rho_1**2) of (photon c, mode a) against
    (photon d, mode b).

    For the pure states handled here this comes from the Schmidt spectrum of
    the reshaped amplitude matrix, which is numerically stabler than forming
    the reduced matrix first.
    """
    mat = psi.as_tensor().transpose(0, 2, 1, 3).reshape(2 * psi.spec.dim_a, -1)
    s = np.linalg.svd(mat, compute_uv=False)
    return float(1.0 - np.sum(s**4))


def _mode_operators(dim: int) -> np.ndarray:
    """The operators (a^dag, a, 1) that index the rows of a coefficient table
    (:func:`analytic.mode_factor_coefficients`), stacked as (3, dim, dim)."""
    a = destroy_op(dim)
    return np.stack([a.T, a, np.eye(dim)])


def _mode_factor(ops, lam, omega, s, bit):
    """One mode's frame-rotated coupling factor at time offset s."""
    phase = complex(math.cos(omega * s), math.sin(omega * s))
    exponentials = np.array([np.conj(phase), 1.0, phase])
    return np.tensordot(analytic.mode_factor_coefficients(lam, bit) @ exponentials, ops, 1)


class InteractionPictureResidual:
    """Compares the numerically frame-rotated coupling against its closed form.

    In each sector the free Hamiltonian is a Kronecker sum over the modes and
    the coupling x_a (x) x_b a product, so the rotation exp(i*H0*t) X
    exp(-i*H0*t) is the product of the per-mode rotations of x.  Each is
    computed from one eigendecomposition per mode and photon bit, reused
    across times.  Truncation corrupts the Fock levels near the edge (the
    identity holds only on the untruncated algebra), so the comparison is
    projected onto the interior n <= n_max - margin of both modes.  The
    leaked corruption decays factorially in the margin; at couplings ~0.5 a
    margin of 8 still leaves ~1e-2 relative deviation while 20 reaches
    ~1e-10, hence the conservative default.  The hbar*gamma prefactor is
    stripped from both sides, making the residual well defined at gamma = 0.
    """

    def __init__(self, dc: DerivedCouplings, spec: HilbertSpec, margin: int = 20):
        if margin < 1:
            raise ParameterError("margin must be >= 1")
        if margin >= spec.n_max_a or margin >= spec.n_max_b:
            raise ParameterError("margin must be smaller than both Fock truncations")
        self.spec, self.margin = spec, margin
        self._modes = []
        interior_norms = []
        for dim, n_max, omega, lam in (
            (spec.dim_a, spec.n_max_a, dc.omega_a, dc.lambda_m),
            (spec.dim_b, spec.n_max_b, dc.omega_b, dc.lambda_M),
        ):
            keep = n_max - margin + 1
            x = position_coupling(dim)
            eigs = []
            for bit in (0, 1):
                w, v = np.linalg.eigh(_mode_hamiltonian(dim, omega, lam, bit))
                eigs.append((w, v[:keep], v.T @ x @ v))
            self._modes.append((omega, lam, _mode_operators(dim)[:, :keep, :keep], eigs))
            interior_norms.append(float(np.linalg.norm(x[:keep, :keep])))
        self._denominator = 2.0 * interior_norms[0] * interior_norms[1]

    @staticmethod
    def _mode_pairs(mode, t: float) -> list:
        """Per photon bit, the interior (numeric, closed-form) rotated x of one mode."""
        omega, lam, ops, eigs = mode
        pairs = []
        for bit, (w, v, rotated) in enumerate(eigs):
            phases = np.exp(1j * w * t)
            numeric = (v * phases) @ rotated @ (v * np.conj(phases)).T
            pairs.append((numeric, _mode_factor(ops, lam, omega, t, bit)))
        return pairs

    def residual(self, t: float) -> float:
        """Interior-projected relative Frobenius deviation at time t."""
        pairs_a, pairs_b = (self._mode_pairs(mode, t) for mode in self._modes)
        total = 0.0
        for p_bit, q_bit in _SECTORS:
            (numeric_a, closed_a), (numeric_b, closed_b) = pairs_a[p_bit], pairs_b[q_bit]
            delta = np.kron(numeric_a, numeric_b) - np.kron(closed_a, closed_b)
            total += float(np.linalg.norm(delta)) ** 2
        return math.sqrt(total) / self._denominator


def dyson_first_order_state(
    dc: DerivedCouplings,
    p: PhysicalParams,
    spec: HilbertSpec,
    t: float,
) -> StateVector:
    """First-order state correction: psi_exact(t) ~ psi0(t) + correction + O(gamma^2).

    correction = -i*gamma * integral over t' in [0, t] of the frame-rotated
    coupling generator at offset t'-t applied to the gravity-free state
    psi0(t).  Linear in gamma by construction; the time integral is exact.
    ``t`` must be finite and >= 0.
    """
    tensor = closed_form_state(dc, p, spec, t).as_tensor()
    ops_a, ops_b = _mode_operators(spec.dim_a), _mode_operators(spec.dim_b)
    coefficients = analytic.integrated_coefficients(dc, t).reshape(2, 3, 2, 3)
    out = np.empty(spec.dims, dtype=complex)
    for p_bit, q_bit in _SECTORS:
        # sum_ij K[i, j] O_i X O_j^T for the sector's (dim_a, dim_b) amplitudes X.
        left = np.einsum("ij,iab,bc->jac", coefficients[p_bit, :, q_bit], ops_a,
                         tensor[p_bit, q_bit])
        out[p_bit, q_bit] = np.einsum("jac,jdc->ad", left, ops_b)
    amp = (-1j * dc.gamma) * out.reshape(-1)
    return StateVector(amplitudes=amp, spec=spec, time=t)


def _gaussian_coherence(dc, betas_m, beta_M, times) -> np.ndarray:
    """Exact photon-c path-coherence element, shape (T, N), with rod m in
    each coherent state |betas_m[n]> and rod M in |beta_M>, at each time.

    In the quadratures r = (q_a, p_a, q_b, p_b), x = sqrt(2)*q, the sector
    with cavity-path bits (p, q) has the Hamiltonian r^T M r / 2 +
    (p*u + q*v)^T M r (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)):
    one quadratic form about the centre -(p*u + q*v).  Each sector turns its
    displaced input by the common flow S(t) = exp(J M t) about its own
    centre, so the element is a sum of displacement overlaps, in which the
    flow of the common vacuum and its phase cancel:

        1/4 exp(-|w|^2/4 + i b^T J w)
            sum_q exp(i (u/2 + q v)^T (M u t - J S^-1 u)),

    with w = (1 - S^-1) u and b the input's mean quadratures.  One
    eigendecomposition of J M serves every time.  The modes are stable only
    while M is positive definite.
    """
    omega_a, omega_b, gamma = dc.omega_a, dc.omega_b, dc.gamma
    if not omega_a * omega_b > 4.0 * gamma * gamma:
        raise ParameterError(f"unstable coupled modes: omega_a*omega_b = {omega_a * omega_b!r} "
                             f"must exceed 4*gamma**2 = {4.0 * gamma * gamma!r}")
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
    inputs = np.stack(np.broadcast_arrays(np.asarray(betas_m, dtype=complex), complex(beta_M)), -1)
    b = math.sqrt(2.0) * inputs.view(float)  # (N, 4) mean quadratures
    return common[:, None] * np.exp(1j * (w @ (b @ j).T))


#: Bytes of resampled elements gathered at once by the bootstrap (its
#: indices are in range, and mode "clip" skips the checked, buffered take).
_GATHER_BYTES = 1 << 20


def thermal_visibility_montecarlo(
    dc: DerivedCouplings,
    p: PhysicalParams,
    nbar: float,
    times,
    n_samples: int,
    seed: int,
    method: str = "closedform",
    bootstrap_resamples: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo thermal visibility of the rod-m cavity at each of ``times``.

    Samples rod-m amplitudes beta from the circular complex Gaussian with
    E|beta|^2 = nbar (two independent normal draws of standard deviation
    sqrt(nbar/2) from ``numpy.random.default_rng(seed)``, real part first),
    averages the complex path-coherence element over the samples, and
    returns arrays of 2*|mean| and of its bootstrap standard error, one
    entry per time.  The samples, then the bootstrap indices, are drawn once
    and serve every time; each time's bootstrap is streamed, gathering a
    bounded chunk of index rows at a time, so memory does not grow with the
    number of times.

    ``method="closedform"`` evolves each sample with the exactly solvable
    gravity-free dynamics (exact when gamma = 0); ``method="oracle"`` with
    the full coupled dynamics carried by ``dc`` and rod M in |beta_M>,
    exactly and without truncation (:func:`_gaussian_coherence`).
    """
    times = _as_times(times)
    if np.any(times < 0):
        raise ParameterError(f"times must be >= 0, got {times.min()!r}")
    if n_samples < 100:
        raise ParameterError(f"n_samples must be >= 100, got {n_samples}")
    if bootstrap_resamples < 2:
        raise ParameterError(f"bootstrap_resamples must be >= 2, got {bootstrap_resamples}")
    if not (math.isfinite(nbar) and nbar >= 0):
        raise ParameterError(f"nbar must be >= 0, got {nbar!r}")
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(nbar / 2.0)
    betas = rng.normal(0.0, sigma, n_samples) + 1j * rng.normal(0.0, sigma, n_samples)
    if method == "closedform":
        per_time = (analytic.photon_offdiagonal(betas, dc.lambda_m, dc.omega_a, t)
                    for t in times.tolist())
    elif method == "oracle":
        per_time = (_gaussian_coherence(dc, betas, p.beta_M, [t])[0] for t in times.tolist())
    else:
        raise ParameterError(f"method must be 'closedform' or 'oracle', got {method!r}")
    indices = rng.integers(0, n_samples, size=(bootstrap_resamples, n_samples), dtype=np.int32)
    chunk = max(1, _GATHER_BYTES // (16 * n_samples))
    gathered = np.empty((min(chunk, bootstrap_resamples), n_samples), dtype=complex)
    resampled = np.empty(bootstrap_resamples, dtype=complex)
    means, std_errors = np.empty(times.size), np.empty(times.size)
    for i, elements in enumerate(per_time):
        means[i] = 2.0 * abs(elements.mean())
        for first in range(0, bootstrap_resamples, chunk):
            rows = indices[first : first + chunk]
            np.take(elements, rows, mode="clip", out=gathered[: len(rows)])
            resampled[first : first + len(rows)] = gathered[: len(rows)].mean(axis=1)
        std_errors[i] = (2.0 * np.abs(resampled)).std(ddof=1)
    return means, std_errors
