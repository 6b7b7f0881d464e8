"""Exact layer: propagation in a truncated Fock basis.

A state is a complex array of shape ``HilbertSpec.dims`` = (2, 2, dim_a,
dim_b) over (photon-c qubit) x (photon-d qubit) x (mode a) x (mode b).  Each
photon is a two-path qubit whose index 1 is the path through its cavity, so
the Hamiltonian is block diagonal over the four path sectors.  Each sector
Hamiltonian is real: a Kronecker sum of one free Hamiltonian per mode plus
the gravitational product of the two positions.  In the per-mode eigenbases
the free part is diagonal, so a sector acts on its (dim_a, dim_b) amplitude
matrix through one elementwise scale and two real matrix products, and no
sector block is ever formed.  :class:`Propagator` serves one time, for one
coupling or a family of them, with one real Chebyshev recursion, run once
more for the imaginary part of a complex state; without gravity it applies
one phase per amplitude.  :func:`visibility_exact` and
:func:`linear_entropy_exact` read the paper's signatures from a state (the
exact, untruncated coherence is :mod:`optograv.gaussian`), and
:func:`interaction_picture_residual` checks the frame-rotation identity
behind the first-order formulas mode by mode.

Energy offsets proportional to the identity (the constant photon energies)
are omitted throughout, as in :func:`closed_form_state`: they contribute a
global phase only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .analytic import _as_times, _check_times
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
            raise DimensionLimitError(f"total dimension {self.total_dim} exceeds the guard "
                                      f"{MAX_TOTAL_DIM}")

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
    kept = [math.exp(-mu)]
    for n in range(1, n_max + 1):
        kept.append(kept[-1] * (mu / n))
    return max(0.0, 1.0 - math.fsum(kept))


def suggested_n_max(beta_abs: float, lam: float) -> int:
    """Truncation heuristic: the displaced coherent amplitude never exceeds
    |beta| + 2*lam, so size the ladder for that and pad generously.  Raises
    :class:`DimensionLimitError` when the ladder could not fit the dimension
    guard even beside n_max 1, non-finite amplitudes included."""
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
    return HilbertSpec(n_max_a=suggested_n_max(abs(p.beta_m), dc.lambda_m),
                       n_max_b=suggested_n_max(abs(p.beta_M), dc.lambda_M))


def check_adequacy(spec: HilbertSpec, dc: DerivedCouplings, p: PhysicalParams):
    """Verify that the truncation holds the displaced amplitudes |beta|+2*lam;
    raise :class:`TruncationError` (with a rule-based suggestion) otherwise."""
    for label, beta, lam, n_max in (("a", p.beta_m, dc.lambda_m, spec.n_max_a),
                                    ("b", p.beta_M, dc.lambda_M, spec.n_max_b)):
        displaced = abs(beta) + 2.0 * abs(lam)
        tail = coherent_tail_mass(displaced, n_max)
        if tail > TAIL_TOL:
            suggestion = suggested_n_max(abs(beta), lam)
            raise TruncationError(
                f"mode {label}: tail mass {tail:.3e} beyond n_max={n_max} exceeds "
                f"{TAIL_TOL:g} for displaced amplitude {displaced:.3f}; "
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


#: Chebyshev terms whose coefficient 2|J_k(r t)| falls below this are round-off.
_SERIES_TOL = np.finfo(float).eps

#: Relative widening of each sector's spectral interval, covering the
#: round-off of the per-mode eigenvalues it is built from.
_INTERVAL_PAD = 1e-12

#: (-i)^k for k mod 4.
_MINUS_I_POWERS = np.array([1.0, -1.0j, -1.0, 1.0j])

#: Budget for one recursion's Bessel and coefficient tables, at most 40 bytes per (sector,
#: term) entry at once: Bessel values (8) beside their tail and temporaries (< 28) or
#: beside complex coefficients and their Re and Im (32).
_TABLE_BYTES, _TABLE_ENTRY_BYTES = 1 << 30, 40


def _mode_hamiltonian(dim: int, omega: float, lam: float, bit: int) -> np.ndarray:
    """One mode's free Hamiltonian omega*n - bit*lam*omega*(a^dag + a), with
    ``bit`` the photon occupation of the mode's cavity path."""
    return omega * number_op(dim) - bit * (lam * omega) * position_coupling(dim)


def _mode_eigh(dim: int, omega: float, lam: float):
    """Eigenvalues (2, dim) and vectors (2, dim, dim) of a mode's bit-0 and bit-1 H."""
    return np.linalg.eigh([_mode_hamiltonian(dim, omega, lam, bit) for bit in (0, 1)])


def _rotate(x: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Overwrite the contiguous real array x (..., 2, 2, dim_a, n, dim_b) with
    left[p] X right[q] for each amplitude matrix X of sector (p, q); return x."""
    tall = x.shape[:-3] + (-1, x.shape[-1])
    product = np.matmul(left[:, None], x.reshape(x.shape[:-2] + (-1,)))
    np.matmul(product.reshape(tall), right[None], out=x.reshape(tall))
    return x


def _check_norms(before: float, after: np.ndarray, t: float):
    """Raise unless every evolved norm in ``after`` matches ``before``."""
    bad = np.flatnonzero(~(np.abs(after - before) <= _NORM_TOL))
    if bad.size:
        norm_after = float(after[bad[0]])
        raise NumericalError(
            f"propagation failed to preserve the norm to {_NORM_TOL:g}: "
            f"{before!r} before, {norm_after!r} after",
            diagnostics={"norm_before": before, "norm_after": norm_after, "time": t},
        )


def _bessel_start(zmax: float) -> int:
    """Order at which the backward recurrence for arguments up to zmax starts."""
    return int(zmax + 20.0 * zmax ** (1.0 / 3.0)) + 64


def _check_table_bytes(radius: float, t: float):
    """Raise :class:`DimensionLimitError`, naming the largest admissible time,
    unless the tables of the four sectors, of spectral radius up to
    ``radius``, at time ``t`` fit :data:`_TABLE_BYTES`."""
    def fits(t):
        entries = 4 * (_bessel_start(radius * t) + 1) if math.isfinite(radius * t) else math.inf
        return entries * _TABLE_ENTRY_BYTES <= _TABLE_BYTES

    if fits(t):
        return
    lo, hi = 0.0, _TABLE_BYTES / (4 * _TABLE_ENTRY_BYTES * radius)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    raise DimensionLimitError(
        f"the Chebyshev tables of one recursion up to t = {t!r} exceed the budget of "
        f"{_TABLE_BYTES} bytes; the largest admissible time is {lo!r}"
    )


def _bessel_series(z: np.ndarray) -> np.ndarray:
    """J_k(z) for each z >= 0 of a 1-D array, k from 0 up to the order past
    max(z) beyond which every row's 2|J_k| stays below :data:`_SERIES_TOL`,
    by Miller's backward recurrence J_(k-1) = (2k/z) J_k - J_(k+1), started
    far enough beyond that order to be accurate to round-off there,
    normalised by J_0 + 2 sum J_(2k) = 1 and rescaled before it overflows."""
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
    """exp(-i*H*t) on the four photon sectors, in the per-mode eigenbases.

    With each mode's free Hamiltonian V diag(w) V^T (one eigh per mode and
    photon bit), a sector's amplitude matrix Y = V_a^T X V_b evolves under
    (w_a,i + w_b,j) Y_ij + gamma R_a Y R_b, R = V^T x V: the free part is
    diagonal, and at gamma = 0 :meth:`evolve` applies exp(-i(w_a,i + w_b,j)t).
    Otherwise the spectrum lies in [min w_a + min w_b - g, max w_a + max w_b
    + g], g = |gamma| ||x_a|| ||x_b|| (Weyl), and with H = c + r*Ht
    (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967 (1984))

        exp(-i*H*t) = exp(-i*c*t) sum_k (2 - delta_k0) (-i)^k J_k(r*t) T_k(Ht),

    one recursion T_(k+1) = 2 Ht T_k - T_(k-1) of about r*t plus a few dozen
    terms, on real planes (2, 2, dim_a, K, dim_b) for K couplings.  H is
    real, so a complex state evolves as its real part plus i times its
    imaginary part, one recursion each.  ``gammas`` replaces ``dc.gamma`` by
    a family whose states ride on the plane axis of one recursion (on the
    largest |gamma|'s interval): :meth:`evolve` returns (len(gammas),) +
    ``spec.dims``.
    """

    def __init__(self, dc: DerivedCouplings, spec: HilbertSpec, gammas=None):
        self.spec, self._family = spec, gammas is not None
        gammas = np.array([dc.gamma] if gammas is None else gammas, dtype=float)
        if gammas.ndim != 1 or gammas.size == 0 or not np.isfinite(gammas).all():
            raise ParameterError("gammas must be a non-empty 1-D sequence of finite values")
        self._gammas = gammas
        (self._w_a, self._v_a), (self._w_b, self._v_b) = (
            _mode_eigh(spec.dim_a, dc.omega_a, dc.lambda_m),
            _mode_eigh(spec.dim_b, dc.omega_b, dc.lambda_M))
        x_a, x_b = position_coupling(spec.dim_a), position_coupling(spec.dim_b)
        coupling = np.abs(gammas).max() * np.linalg.norm(x_a, 2) * np.linalg.norm(x_b, 2)
        w_a, w_b = self._w_a, self._w_b
        lo = w_a[:, None, 0] + w_b[None, :, 0] - coupling
        hi = w_a[:, None, -1] + w_b[None, :, -1] + coupling
        self._center, self._radius = 0.5 * (hi + lo), 0.5 * (hi - lo) * (1.0 + _INTERVAL_PAD)
        # 2*Ht = (2/r)(H - c): the shift rides on the diagonal, the scale on it and on R_b.
        scale = (2.0 / self._radius)[:, :, None, None]
        free = w_a[:, None, :, None] + w_b[None, :, None, :] - self._center[:, :, None, None]
        self._x_a = (self._v_a.transpose(0, 2, 1) @ x_a @ self._v_a)[:, None]
        self._x_b = scale * (self._v_b.transpose(0, 2, 1) @ x_b @ self._v_b)
        # The diagonal and the couplings repeated over the K planes: a product broadcast
        # along the plane axis would take numpy's iteration buffers and about three times
        # as long.
        shape = (2, 2, spec.dim_a, gammas.size, spec.dim_b)
        self._diagonal, self._gains = (np.ascontiguousarray(np.broadcast_to(f, shape)) for f in
                                       ((scale * free)[:, :, :, None], gammas[:, None]))

    def _apply(self, x: np.ndarray, out: np.ndarray, scratch: np.ndarray):
        """out = 2*Ht x for eigenbasis planes x (2, 2, dim_a, K, dim_b) of the K
        couplings; ``scratch``, of shape (2,) + x.shape, is overwritten."""
        wide, tall = (2, 2, x.shape[2], -1), (2, 2, -1, x.shape[4])
        product, mixed = scratch.reshape((2,) + tall)
        np.multiply(self._diagonal, x, out=out)
        np.matmul(self._x_a, x.reshape(wide), out=mixed.reshape(wide))
        np.matmul(mixed, self._x_b, out=product)
        product = product.reshape(x.shape)
        product *= self._gains
        out += product

    def _coefficients(self, t: float) -> np.ndarray:
        """Re and Im (2, 2, 2, terms) of every sector's coefficients at time t."""
        _check_table_bytes(float(self._radius.max()), t)
        z = self._radius * t
        bessel = _bessel_series(z.reshape(-1)).reshape(*z.shape, -1)
        order = np.arange(bessel.shape[-1])
        weights = np.where(order == 0, 1.0, 2.0) * _MINUS_I_POWERS[order % 4] * bessel
        del order  # so that the stack below peaks within _TABLE_ENTRY_BYTES per entry
        weights *= np.exp(-1j * self._center * t)[..., None]
        return np.stack((weights.real, weights.imag))

    def _series(self, x0: np.ndarray, t: float) -> np.ndarray:
        """Real and imaginary parts (2, 2, 2, dim_a, K, dim_b) of exp(-i*H*t) x0
        for each of the K couplings, from the real eigenbasis amplitudes x0
        (2, 2, dim_a, dim_b).  The Chebyshev vectors cycle through a ring of
        3 slots, the two a step reads and the one it writes, folded into the
        sum after each third step."""
        real, imag = self._coefficients(t)
        terms, shape = real.shape[-1], self._diagonal.shape
        # Each filled ring is folded in by one product per part of C, written into
        # the steps' scratch.
        ring = np.empty((3,) + shape)
        flat = ring.reshape(3, 2, 2, -1).transpose(1, 2, 0, 3)
        out = np.zeros((2,) + shape)
        steps = np.empty((2,) + shape)
        ring[0] = x0[:, :, :, None]
        for k in range(terms):
            slot = k % 3
            if k == 1:
                self._apply(ring[0], ring[1], steps)
                ring[1] *= 0.5
            elif k > 1:
                self._apply(ring[(k - 1) % 3], ring[slot], steps)
                ring[slot] -= ring[(k - 2) % 3]
            if slot == 2 or k == terms - 1:
                # out += (Re C + i Im C) x for the real x, one part of C at a time.
                for part, weights in zip(out, (real, imag)):
                    np.matmul(weights[:, :, None, k - slot : k + 1], flat[:, :, : slot + 1],
                              out=steps[0].reshape(2, 2, 1, -1))
                    part += steps[0]
        return out

    def _phases(self, x0: np.ndarray, t: float) -> np.ndarray:
        """The parts of :meth:`_series` at gamma = 0, where each eigenbasis
        amplitude turns by exp(-i(w_a,i + w_b,j)t)."""
        a, b = (np.exp(-1j * w * t) for w in (self._w_a, self._w_b))
        y = a[:, None, :, None] * b[None, :, None, :] * x0
        return np.stack((y.real, y.imag))[..., None, :]

    def _evolve_real(self, x: np.ndarray, t: float) -> np.ndarray:
        """Real and imaginary parts (2, K) + ``spec.dims`` of exp(-i*H*t) x for
        a real state x of shape ``spec.dims``."""
        x0 = _rotate(x.copy()[:, :, :, None], self._v_a.transpose(0, 2, 1), self._v_b)
        run = self._series if self._gammas.any() else self._phases
        parts = _rotate(run(x0[:, :, :, 0], t), self._v_a, self._v_b.transpose(0, 2, 1))
        # Parts (p, q, i, k, j) into states (k, p, q, i, j).
        return parts.transpose(0, 4, 1, 2, 3, 5)

    def evolve(self, psi0: np.ndarray, t) -> np.ndarray:
        """Propagate a t=0 state of shape ``spec.dims`` to one time ``t``
        (finite and >= 0): the state, of shape spec.dims, or the states, of
        shape (len(gammas),) + spec.dims, for a family."""
        psi0 = np.ascontiguousarray(psi0, dtype=complex)
        dims, count = self.spec.dims, len(self._gammas)
        if psi0.shape != dims:
            raise ParameterError(f"state must have shape {dims}, got {psi0.shape}")
        t = _check_times(t, ndmin=0)
        if t.ndim != 0:
            raise ParameterError(f"t must be one time, got an array of shape {t.shape}")
        t = float(t)
        out = np.empty(((count,) if self._family else ()) + dims, dtype=complex)
        states = out.reshape((count,) + dims)
        if t == 0.0:
            # exp(-i*H*0) is the identity exactly; the rotations would add round-off.
            states[:] = psi0
            return out
        # H is real, so exp(-i*H*t)(x + iy) = exp(-i*H*t)x + i exp(-i*H*t)y: the real
        # part runs, then the imaginary part only if it is non-zero.
        states.real, states.imag = self._evolve_real(psi0.real, t)
        if psi0.imag.any():
            real, imag = self._evolve_real(psi0.imag, t)
            states.real -= imag
            states.imag += real
        v = states.view(float).reshape(count, -1)
        _check_norms(float(np.linalg.norm(psi0)), np.sqrt(np.einsum("kn,kn->k", v, v)), t)
        return out


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


def _coherent_input(label: str, beta: complex, dim: int) -> np.ndarray:
    """Coherent amplitudes of one rod's input state, refused when more than
    ``TAIL_TOL`` of its occupation lies beyond the truncation."""
    tail = coherent_tail_mass(abs(beta), dim - 1)
    if tail > TAIL_TOL:
        suggestion = suggested_n_max(abs(beta), 0.0)
        raise TruncationError(
            f"mode {label}: coherent tail mass {tail:.3e} beyond n_max={dim - 1} exceeds "
            f"{TAIL_TOL:g}; raise n_max_{label} to at least {suggestion} "
            "(more if strong optomechanical displacement is expected)",
            suggested_n_max=suggestion,
        )
    return coherent_vector(beta, dim)


def initial_state(p: PhysicalParams, spec: HilbertSpec) -> np.ndarray:
    """Each photon in (|no-cavity> + |cavity>)/sqrt(2), rod m in |beta_m>
    and rod M in |beta_M> (truncated and renormalised)."""
    coh_a = _coherent_input("a", p.beta_m, spec.dim_a)
    coh_b = _coherent_input("b", p.beta_M, spec.dim_b)
    qubit = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    return np.kron(np.kron(np.kron(qubit, qubit), coh_a), coh_b).reshape(spec.dims)


def closed_form_state(dc: DerivedCouplings, p: PhysicalParams, spec: HilbertSpec,
                      t: float) -> np.ndarray:
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
        branches.append(np.array([inv_sqrt2 * coherent_vector(phi0, dim),
                                  inv_sqrt2 * np.exp(1j * phase) * coherent_vector(phi1, dim)]))
    return branches[0][:, None, :, None] * branches[1][None, :, None, :]


def visibility_exact(psi: np.ndarray) -> float:
    """Interference visibility: twice the magnitude of photon c's
    path-coherence element <cavity-branch| rho |bypass-branch>."""
    return 2.0 * abs(complex(np.sum(psi[1] * np.conj(psi[0]))))


def linear_entropy_exact(psi: np.ndarray) -> float:
    """Linear entropy 1 - Tr(rho_1**2) of (photon c, mode a) against
    (photon d, mode b), from the Schmidt spectrum of the pure state's
    reshaped amplitudes (stabler than forming the reduced matrix first)."""
    mat = psi.transpose(0, 2, 1, 3).reshape(2 * psi.shape[2], -1)
    s = np.linalg.svd(mat, compute_uv=False)
    return float(1.0 - np.sum(s**4))


def _mode_operators(dim: int) -> np.ndarray:
    """The operators (a^dag, a, 1) that index the rows of a coefficient table
    (:func:`analytic.mode_factor_coefficients`), stacked as (3, dim, dim)."""
    a = destroy_op(dim)
    return np.stack([a.T, a, np.eye(dim)])


def interaction_picture_residual(dc: DerivedCouplings, spec: HilbertSpec, times) -> np.ndarray:
    """Largest relative Frobenius deviation of a numerically frame-rotated
    position factor from its closed form on the levels the propagator uses,
    over both modes and photon bits, at each of ``times`` (a non-empty 1-D
    sequence, finite and >= 0): shape (T,).

    A sector's rotated coupling is N_a (x) N_b, with N = exp(iHt) x exp(-iHt)
    one mode's rotated position (one eigendecomposition per mode and photon
    bit), and its closed form is C_a (x) C_b
    (:func:`analytic.mode_factor_coefficients`), so it holds whenever each
    factor matches its own closed form: the residual is the largest
    ||N - C|| / ||x||.  The identity holds only on the untruncated algebra
    and involves no state, so each factor is rotated on its mode's ladder
    extended to 2*n_max + 21 levels and compared on n <= n_max; the edge's
    corruption decays factorially in the levels between them (~1e-2 at 8,
    ~1e-10 at 20 for couplings ~0.5), and there are n_max + 20 of them, so
    it stays at round-off as the truncation grows.  The hbar*gamma prefactor
    is stripped, so the residual is well defined at gamma = 0.
    """
    times = _as_times(times)
    modes = []
    for n_max, omega, lam in ((spec.n_max_a, dc.omega_a, dc.lambda_m),
                              (spec.n_max_b, dc.omega_b, dc.lambda_M)):
        keep, levels = n_max + 1, 2 * n_max + 21
        x = position_coupling(levels)
        w, v = _mode_eigh(levels, omega, lam)
        tables = np.array([analytic.mode_factor_coefficients(lam, bit) for bit in (0, 1)])
        modes.append((omega, w[:, None], v[:, :keep], v.transpose(0, 2, 1) @ x @ v, tables,
                      _mode_operators(keep), float(np.linalg.norm(x[:keep, :keep]))))
    out = np.zeros(times.size)
    for i, t in enumerate(times.tolist()):
        for omega, w, v, rotated, tables, ops, norm in modes:
            phases = np.exp(1j * w * t)
            phase = complex(math.cos(omega * t), math.sin(omega * t))
            exponentials = np.array([phase.conjugate(), 1.0, phase])
            numeric = (v * phases) @ rotated @ (v * phases.conj()).transpose(0, 2, 1)
            closed = np.tensordot(tables @ exponentials, ops, 1)
            deviation = float(np.linalg.norm(numeric - closed, axis=(1, 2)).max()) / norm
            out[i] = max(out[i], deviation)
    return out


def dyson_first_order_state(dc: DerivedCouplings, p: PhysicalParams, spec: HilbertSpec,
                            t: float) -> np.ndarray:
    """First-order state correction: psi_exact(t) ~ psi0(t) + correction + O(gamma^2),
    with correction = -i*gamma * integral over t' in [0, t] of the frame-rotated
    coupling generator at offset t'-t applied to the gravity-free state psi0(t),
    linear in gamma and integrated exactly.  ``t`` must be finite and >= 0."""
    tensor = closed_form_state(dc, p, spec, t)
    ops_a, ops_b = _mode_operators(spec.dim_a), _mode_operators(spec.dim_b)
    coefficients = analytic.integrated_coefficients(dc, t).reshape(2, 3, 2, 3)
    # Per sector (p, q), sum_ij K[p, i, q, j] O_i X O_j^T for its (dim_a, dim_b) amplitudes X.
    left = np.tensordot(coefficients, ops_a, ([1], [0]))  # (p, q, j, dim_a, dim_a)
    out = np.sum(left @ tensor[:, :, None] @ ops_b.transpose(0, 2, 1), axis=2)
    return (-1j * dc.gamma) * out
