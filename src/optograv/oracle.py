"""Exact layer: propagation in a truncated Fock basis.

The four-subsystem state lives on (photon-c qubit) x (photon-d qubit) x
(mode a) x (mode b), in that fixed tensor order: a state is a plain complex
array of shape ``HilbertSpec.dims`` = (2, 2, dim_a, dim_b), and
:meth:`Propagator.evolve` stacks one per requested time on a leading axis.
Each photon is a two-path qubit: index 0 is the path that bypasses the
cavity, index 1 the path whose photon rides inside it, and the dynamics
never leaves the one-photon-per-cavity sector.  Because the photon operators
enter the Hamiltonian only through the cavity-path projectors, the
Hamiltonian is block diagonal over the four path sectors.  Each sector
Hamiltonian is real and built from per-mode factors of size n_max+1: the free
part is a Kronecker sum of one Hamiltonian per mode and the gravitational
coupling a product of the two positions, so it acts on a sector's
(n_a+1, n_b+1) amplitude matrix through real matrix products and no
(n_a+1)*(n_b+1)-dimensional block is ever formed.  Propagation is a real
Chebyshev recursion for exp(-i*H*t) that serves a whole batch of times at a
cost growing with the spectral width times the latest time.  With one BLAS
thread, a single time of a real state at n_max 28 (36) costs as much as the
dense per-sector eigendecomposition it replaced only beyond about 50 (105)
revival periods.

The evolved states are read through the two observables the paper's
signatures need: photon c's path coherence (:func:`visibility_exact`) and
the linear entropy of (photon c, mode a) against (photon d, mode b)
(:func:`linear_entropy_exact`).

Photon c's path coherence also has an exact, truncation-free form
(:func:`gaussian_coherence`): every sector Hamiltonian is one quadratic form
plus a linear drive, so coherent inputs stay Gaussian and the coherence is a
sum of displacement overlaps.  The thermal Monte Carlo's oracle method runs
on it, and scans measure the Fock truncation error against it.

:func:`interaction_picture_residual` checks the frame-rotation identity
behind the first-order formulas mode by mode, in memory that grows neither
with the number of times nor with the product of the two ladders.

Energy offsets proportional to the identity (the constant photon energies)
are omitted throughout: they contribute a global phase only.  The
closed-form reference state below, built from
:func:`analytic.coherent_trajectories`, drops the same phase, so states
from both routes are directly comparable.
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

#: Budget for the Bessel and coefficient tables of one recursion, which hold at most
#: 40 bytes per (sector, time, term) entry at once: Bessel values (8) beside either
#: their tail and temporaries (< 28) or complex coefficients and their Re and Im (32).
_TABLE_BYTES, _TABLE_ENTRY_BYTES = 1 << 30, 40


def _mode_hamiltonian(dim: int, omega: float, lam: float, bit: int) -> np.ndarray:
    """One mode's free Hamiltonian omega*n - bit*lam*omega*(a^dag + a), with
    ``bit`` the photon occupation of the mode's cavity path."""
    return omega * number_op(dim) - bit * (lam * omega) * position_coupling(dim)


def _as_times(times) -> np.ndarray:
    """``times`` as a float array; refused unless non-empty, 1-D, finite and >= 0."""
    times = analytic._check_times(times, ndmin=0)
    if times.ndim != 1 or times.size == 0:
        raise ParameterError("times must be a non-empty 1-D sequence")
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

    A sector acts on its (dim_a, dim_b) amplitude matrix X as H_a X + X H_b^T
    + gamma x_a X x_b^T.  Its spectrum lies in [min w_a + min w_b - g,
    max w_a + max w_b + g], with w the eigenvalues of the per-mode
    Hamiltonians and g = |gamma| ||x_a|| ||x_b|| (Weyl); mapping it onto
    [-1, 1] as H = c + r*Ht gives (Tal-Ezer and Kosloff, J. Chem. Phys. 81,
    3967 (1984))

        exp(-i*H*t) = exp(-i*c*t) sum_k (2 - delta_k0) (-i)^k J_k(r*t) T_k(Ht),

    and one three-term recursion T_(k+1) = 2 Ht T_k - T_(k-1) applied to the
    initial state serves every requested time.  The number of terms is about
    r*t plus a few dozen, so the cost grows with spectral width times time.
    Ht is real, so the recursion is too: it runs on the state's real and
    imaginary planes, (2, 2, dim_a, P, dim_b) with P = 1 for a real state.
    """

    def __init__(self, dc: DerivedCouplings, spec: HilbertSpec):
        self.spec = spec
        self._x_a, x_b = position_coupling(spec.dim_a), position_coupling(spec.dim_b)
        h_a = [_mode_hamiltonian(spec.dim_a, dc.omega_a, dc.lambda_m, bit) for bit in (0, 1)]
        h_b = [_mode_hamiltonian(spec.dim_b, dc.omega_b, dc.lambda_M, bit) for bit in (0, 1)]
        w_a, w_b = (np.array([np.linalg.eigvalsh(h)[[0, -1]] for h in hs]) for hs in (h_a, h_b))
        coupling = abs(dc.gamma) * np.linalg.norm(self._x_a, 2) * np.linalg.norm(x_b, 2)
        lo = w_a[:, None, 0] + w_b[None, :, 0] - coupling
        hi = w_a[:, None, 1] + w_b[None, :, 1] + coupling
        self._center, self._radius = 0.5 * (hi + lo), 0.5 * (hi - lo) * (1.0 + _INTERVAL_PAD)
        # 2*Ht = (2/r)(H - c): the shift rides on the left factor, the scale on all three.
        scale = (2.0 / self._radius)[:, :, None, None]
        self._left = scale * np.array([[h - c * np.eye(spec.dim_a) for c in centers]
                                        for h, centers in zip(h_a, self._center)])
        self._right = scale * np.array([[h_b[0].T, h_b[1].T]] * 2)
        self._coupling = scale * dc.gamma * x_b.T if dc.gamma else None

    def _apply(self, x: np.ndarray, out: np.ndarray, scratch: np.ndarray):
        """out = 2*Ht x for sector-stacked real planes x (2, 2, dim_a, P, dim_b);
        ``scratch``, an array of shape (2,) + x.shape, is overwritten."""
        wide, tall = (2, 2, x.shape[2], -1), (2, 2, -1, x.shape[4])
        product, mixed = scratch.reshape((2,) + tall)
        total = out.reshape(tall)
        np.matmul(self._left, x.reshape(wide), out=out.reshape(wide))
        total += np.matmul(x.reshape(tall), self._right, out=product)
        if self._coupling is not None:
            np.matmul(self._x_a, x.reshape(wide), out=mixed.reshape(wide))
            total += np.matmul(mixed, self._coupling, out=product)

    def _coefficients(self, times: np.ndarray) -> np.ndarray:
        """Re and Im (2, 2, 2, T, K) of every sector's and time's coefficients."""
        _check_table_bytes(4 * times.size, float(self._radius.max()), float(times.max()))
        z = self._radius[:, :, None] * times
        bessel = _bessel_series(z.reshape(-1)).reshape(*z.shape, -1)
        order = np.arange(bessel.shape[-1])
        weights = np.where(order == 0, 1.0, 2.0) * _MINUS_I_POWERS[order % 4] * bessel
        weights *= np.exp(-1j * self._center[:, :, None] * times)[..., None]
        return np.stack((weights.real, weights.imag))

    def _series(self, x0: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Amplitudes (2, 2, T, dim_a, dim_b) of exp(-i*H*t) x0 at each time."""
        real, imag = self._coefficients(times)
        terms, planes = real.shape[-1], 2 if x0.imag.any() else 1
        shape = (2, 2, x0.shape[2], planes, x0.shape[3])
        size = math.prod(shape)
        # T_k(Ht) x0 cycles through `chunk` contiguous ring slots (the recursion reads the
        # two before it); each filled chunk is folded into every time at once by one matrix
        # product per sector and part of C.  Steps and folds write into one buffer.
        chunk = max(3, min(terms, _CHUNK_BYTES // (8 * size)))
        ring = np.empty((chunk,) + shape)
        flat = ring.reshape(chunk, 2, 2, -1).transpose(1, 2, 0, 3)
        out = np.zeros((2, 2, times.size) + x0.shape[2:], dtype=complex)
        buffer = np.empty(max(2, times.size) * size)
        steps = buffer[: 2 * size].reshape((2,) + shape)
        folded = buffer[: times.size * size].reshape(2, 2, times.size, -1)
        parts = folded.reshape(out.shape[:-1] + shape[3:])
        # Real views (..., dim_a, 2, dim_b) of the complex arrays' real and imaginary parts.
        total = np.moveaxis(out.view(float).reshape(out.shape + (2,)), 5, 4)
        ring[0] = np.moveaxis(x0.view(float).reshape(x0.shape + (2,)), 4, 3)[..., :planes, :]
        for k in range(terms):
            slot = k % chunk
            if k == 1:
                self._apply(ring[0], ring[1], steps)
                ring[1] *= 0.5
            elif k > 1:
                self._apply(ring[(k - 1) % chunk], ring[slot], steps)
                ring[slot] -= ring[(k - 2) % chunk]
            if slot == chunk - 1 or k == terms - 1:
                # out += (Re C + i Im C)(plane 0 + i plane 1), one part of C at a time.
                np.matmul(real[..., k - slot : k + 1], flat[:, :, : slot + 1], out=folded)
                total[..., :planes, :] += parts
                np.matmul(imag[..., k - slot : k + 1], flat[:, :, : slot + 1], out=folded)
                total[..., 1, :] += parts[..., 0, :]
                total[..., : planes - 1, :] -= parts[..., 1:, :]
        return out

    def evolve(self, psi0: np.ndarray, times) -> np.ndarray:
        """Propagate a t=0 state of shape ``spec.dims`` to each of ``times``
        (a 1-D sequence, finite and >= 0): the states, shape (T,) + spec.dims."""
        psi0 = np.ascontiguousarray(psi0, dtype=complex)
        if psi0.shape != self.spec.dims:
            raise ParameterError(f"state must have shape {self.spec.dims}, got {psi0.shape}")
        times = _as_times(times)
        out = self._series(psi0, times)
        v = out.view(float).reshape(2, 2, times.size, -1)
        _check_norms(float(np.linalg.norm(psi0)), np.sqrt(np.einsum("pqtn,pqtn->t", v, v)), times)
        # An owned copy, so callers do not pin the series' output in memory.
        return np.moveaxis(out, 2, 0).copy()


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


def initial_state(p: PhysicalParams, spec: HilbertSpec, tail_tol: float = TAIL_TOL) -> np.ndarray:
    """Path superposition in both cavities times coherent rods:
    each photon enters (|no-cavity> + |cavity>)/sqrt(2), rod m in
    |beta_m>, rod M in |beta_M> (truncated and renormalised).
    """
    coh_a = _coherent_input("a", p.beta_m, spec.dim_a, tail_tol)
    coh_b = _coherent_input("b", p.beta_M, spec.dim_b, tail_tol)
    qubit = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    return np.kron(np.kron(np.kron(qubit, qubit), coh_a), coh_b).reshape(spec.dims)


def closed_form_state(
    dc: DerivedCouplings, p: PhysicalParams, spec: HilbertSpec, t: float
) -> np.ndarray:
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
    return out


def visibility_exact(psi: np.ndarray) -> float:
    """Interference visibility: twice the magnitude of photon c's
    path-coherence element <cavity-branch| rho |bypass-branch>."""
    return 2.0 * abs(complex(np.sum(psi[1] * np.conj(psi[0]))))


def linear_entropy_exact(psi: np.ndarray) -> float:
    """Linear entropy 1 - Tr(rho_1**2) of (photon c, mode a) against
    (photon d, mode b).

    For the pure states handled here this comes from the Schmidt spectrum of
    the reshaped amplitude matrix, which is numerically stabler than forming
    the reduced matrix first.
    """
    mat = psi.transpose(0, 2, 1, 3).reshape(2 * psi.shape[2], -1)
    s = np.linalg.svd(mat, compute_uv=False)
    return float(1.0 - np.sum(s**4))


def _mode_operators(dim: int) -> np.ndarray:
    """The operators (a^dag, a, 1) that index the rows of a coefficient table
    (:func:`analytic.mode_factor_coefficients`), stacked as (3, dim, dim)."""
    a = destroy_op(dim)
    return np.stack([a.T, a, np.eye(dim)])


def interaction_picture_residual(dc: DerivedCouplings, spec: HilbertSpec, times,
                                 margin: int = 20) -> np.ndarray:
    """Relative Frobenius deviation of the numerically frame-rotated coupling
    from its closed form on the Fock interior, at each of ``times`` (a
    non-empty 1-D sequence, finite and >= 0): shape (T,).

    Per sector the rotated coupling is N_a (x) N_b, with N one mode's rotated
    x (one eigendecomposition per mode and photon bit), and its closed form
    C_a (x) C_b (:func:`analytic.mode_factor_coefficients`).  With D = N - C
    the difference is D_a (x) N_b + C_a (x) D_b, so its squared norm is
    |D_a|^2 |N_b|^2 + |C_a|^2 |D_b|^2 + 2 Re(<D_a, C_a> <N_b, D_b>) and no
    Kronecker product is formed.  Truncation corrupts the Fock levels near
    the edge (the identity holds only on the untruncated algebra), so the
    comparison is projected onto the interior n <= n_max - margin of both
    modes.  The leaked corruption decays factorially in the margin; at
    couplings ~0.5 a margin of 8 still leaves ~1e-2 relative deviation while
    20 reaches ~1e-10, hence the conservative default.  The hbar*gamma
    prefactor is stripped from both sides, making the residual well defined
    at gamma = 0.
    """
    if margin < 1:
        raise ParameterError("margin must be >= 1")
    if margin >= spec.n_max_a or margin >= spec.n_max_b:
        raise ParameterError("margin must be smaller than both Fock truncations")
    times = _as_times(times)
    modes, interior_norms = [], []
    for dim, n_max, omega, lam in ((spec.dim_a, spec.n_max_a, dc.omega_a, dc.lambda_m),
                                   (spec.dim_b, spec.n_max_b, dc.omega_b, dc.lambda_M)):
        keep = n_max - margin + 1
        x = position_coupling(dim)
        w, v = np.linalg.eigh([_mode_hamiltonian(dim, omega, lam, bit) for bit in (0, 1)])
        tables = np.array([analytic.mode_factor_coefficients(lam, bit) for bit in (0, 1)])
        modes.append((omega, w[:, None], v[:, :keep], v.transpose(0, 2, 1) @ x @ v, tables,
                      _mode_operators(keep)))
        interior_norms.append(float(np.linalg.norm(x[:keep, :keep])))
    out = np.empty(times.size)
    for i, t in enumerate(times.tolist()):
        pairs = []
        for omega, w, v, rotated, tables, ops in modes:
            phases = np.exp(1j * w * t)
            phase = complex(math.cos(omega * t), math.sin(omega * t))
            exponentials = np.array([phase.conjugate(), 1.0, phase])
            pairs.append(((v * phases) @ rotated @ (v * phases.conj()).transpose(0, 2, 1),
                          np.tensordot(tables @ exponentials, ops, 1)))
        (n_a, c_a), (n_b, c_b) = pairs
        d_a, d_b = n_a - c_a, n_b - c_b
        squared = (np.outer(_inner(d_a, d_a), _inner(n_b, n_b))
                   + np.outer(_inner(c_a, c_a), _inner(d_b, d_b))
                   + 2.0 * np.outer(_inner(d_a, c_a), _inner(n_b, d_b)))
        # A squared norm; round-off may leave it just below zero.
        out[i] = math.sqrt(max(float(squared.real.sum()), 0.0))
    return out / (2.0 * interior_norms[0] * interior_norms[1])


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Frobenius inner products <x[b], y[b]> over the leading (photon-bit) axis."""
    return np.einsum("bij,bij->b", x.conj(), y)


def dyson_first_order_state(
    dc: DerivedCouplings,
    p: PhysicalParams,
    spec: HilbertSpec,
    t: float,
) -> np.ndarray:
    """First-order state correction: psi_exact(t) ~ psi0(t) + correction + O(gamma^2).

    correction = -i*gamma * integral over t' in [0, t] of the frame-rotated
    coupling generator at offset t'-t applied to the gravity-free state
    psi0(t).  Linear in gamma by construction; the time integral is exact.
    ``t`` must be finite and >= 0.
    """
    tensor = closed_form_state(dc, p, spec, t)
    ops_a, ops_b = _mode_operators(spec.dim_a), _mode_operators(spec.dim_b)
    coefficients = analytic.integrated_coefficients(dc, t).reshape(2, 3, 2, 3)
    # Per sector (p, q), sum_ij K[p, i, q, j] O_i X O_j^T for its (dim_a, dim_b) amplitudes X.
    left = np.tensordot(coefficients, ops_a, ([1], [0]))  # (p, q, j, dim_a, dim_a)
    out = np.sum(left @ tensor[:, :, None] @ ops_b.transpose(0, 2, 1), axis=2)
    return (-1j * dc.gamma) * out


def gaussian_coherence(dc, betas_m, beta_M, times) -> np.ndarray:
    """Exact photon-c path-coherence element, shape (T, N), with rod m in
    each coherent state |betas_m[n]> and rod M in |beta_M>, at each of
    ``times`` (a non-empty 1-D sequence, finite and >= 0).

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
    times = _as_times(times)
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
    exactly and without truncation (:func:`gaussian_coherence`).
    """
    times = _as_times(times)
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
        per_time = (gaussian_coherence(dc, betas, p.beta_M, [t])[0] for t in times.tolist())
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
