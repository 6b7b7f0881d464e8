"""Exact layer: propagation in a truncated Fock basis.

A state is a complex array of shape ``HilbertSpec.dims`` = (2, 2, dim_a,
dim_b) over (photon-c qubit) x (photon-d qubit) x (mode a) x (mode b).  Each
photon is a two-path qubit whose index 1 is the path through its cavity, so
the Hamiltonian is block diagonal over the four path sectors.  Each sector
Hamiltonian is real: a Kronecker sum of one free Hamiltonian per mode plus
the gravitational product of the two positions.  In the per-mode eigenbases
the free part is diagonal, so a sector acts on its (dim_a, dim_b) amplitude
matrix through one elementwise scale and two real matrix products, and no
sector block is ever formed.  :class:`Propagator` serves one time, with one
coupling per propagator, by one real Chebyshev recursion, run once more
for the imaginary part of a complex state; without gravity it applies one
phase per amplitude.  :func:`visibility_exact` and
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
from .params import DerivedCouplings, PhysicalParams

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
    """Probability mass of |amplitude|-coherent occupation beyond n_max.

    Each Poisson term comes from its logarithm, so none underflows before
    its own value does.  Up to the mean, the kept side holds at most about
    half the mass and the tail is 1 minus it; past the mean, the tail's own
    terms are summed, so a small tail never cancels against 1."""
    magnitude = float(abs(amplitude))
    mu = magnitude * magnitude
    if not math.isfinite(mu):
        return 1.0
    if mu == 0.0:
        return 0.0
    log_mu = math.log(mu)

    def term(n):
        return math.exp(n * log_mu - mu - math.lgamma(n + 1))

    if n_max + 1 <= mu:
        return max(0.0, 1.0 - math.fsum(term(n) for n in range(n_max + 1)))
    # Past the mean the terms fall with n: stop once they no longer change the sum.
    terms = [term(n_max + 1)]
    while terms[-1] > np.finfo(float).eps * terms[0]:
        terms.append(term(n_max + 1 + len(terms)))
    return math.fsum(terms)


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


def default_spec(p: PhysicalParams, dc: DerivedCouplings,
                 n_max: int | None = None) -> HilbertSpec:
    """The truncation of a run: ``HilbertSpec(n_max, n_max)`` when ``n_max``
    is given, else each mode's :func:`suggested_n_max`; either is certified
    by :func:`check_adequacy` before it is returned."""
    spec = (HilbertSpec(n_max, n_max) if n_max is not None
            else HilbertSpec(suggested_n_max(abs(p.beta_m), dc.lambda_m),
                             suggested_n_max(abs(p.beta_M), dc.lambda_M)))
    check_adequacy(spec, dc, p)
    return spec


def _require_held(label: str, beta_abs: float, lam: float, n_max: int):
    """Raise :class:`TruncationError` (with a rule-based suggestion) unless mode
    ``label``'s n_max levels hold the amplitude |beta| + 2*lam to :data:`TAIL_TOL`."""
    displaced = beta_abs + 2.0 * abs(lam)
    tail = coherent_tail_mass(displaced, n_max)
    if tail > TAIL_TOL:
        suggestion = suggested_n_max(beta_abs, lam)
        raise TruncationError(
            f"mode {label}: tail mass {tail:.3e} beyond n_max={n_max} exceeds "
            f"{TAIL_TOL:g} for displaced amplitude {displaced:.3f}; "
            f"use n_max_{label} >= {suggestion}",
            suggested_n_max=suggestion,
        )


def check_adequacy(spec: HilbertSpec, dc: DerivedCouplings, p: PhysicalParams):
    """Verify that the truncation holds the displaced amplitudes |beta|+2*lam;
    raise :class:`TruncationError` (with a rule-based suggestion) otherwise."""
    _require_held("a", abs(p.beta_m), dc.lambda_m, spec.n_max_a)
    _require_held("b", abs(p.beta_M), dc.lambda_M, spec.n_max_b)


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

#: Relative widening of the spectral interval, covering the round-off of the
#: per-mode eigenvalues it is built from.
_INTERVAL_PAD = 1e-12

#: (-i)^k for k mod 4.
_MINUS_I_POWERS = np.array([1.0, -1.0j, -1.0, 1.0j])

#: Budget for one recursion's Bessel and coefficient tables, at most 24 bytes per entry
#: of the backward recurrence at once: its values (8) beside the Re and Im rows of the
#: coefficients (16), or beside their moduli and a mask while the series is cut (9).
_TABLE_BYTES, _TABLE_ENTRY_BYTES = 1 << 30, 24


def _mode_hamiltonian(dim: int, omega: float, lam: float, bit: int) -> np.ndarray:
    """One mode's free Hamiltonian omega*n - bit*lam*omega*(a^dag + a), with
    ``bit`` the photon occupation of the mode's cavity path."""
    return omega * number_op(dim) - bit * (lam * omega) * position_coupling(dim)


def _mode_eigh(dim: int, omega: float, lam: float):
    """Eigenvalues (2, dim) and vectors (2, dim, dim) of a mode's bit-0 and bit-1 H."""
    return np.linalg.eigh([_mode_hamiltonian(dim, omega, lam, bit) for bit in (0, 1)])


def _check_norm(before: float, after: float, t: float):
    """Raise unless the evolved norm ``after`` matches ``before``."""
    if not abs(after - before) <= _NORM_TOL:
        raise NumericalError(
            f"propagation failed to preserve the norm to {_NORM_TOL:g}: "
            f"{before!r} before, {after!r} after",
            diagnostics={"norm_before": before, "norm_after": after, "time": t},
        )


def _bessel_start(z: float) -> int:
    """Order at which the backward recurrence for the argument z starts."""
    return int(z + 20.0 * z ** (1.0 / 3.0)) + 64


def _check_table_bytes(radius: float, t: float):
    """Raise :class:`DimensionLimitError`, naming the largest admissible time,
    unless the tables of one recursion of spectral radius ``radius`` at time
    ``t`` fit :data:`_TABLE_BYTES`."""
    def fits(t):
        entries = _bessel_start(radius * t) + 1 if math.isfinite(radius * t) else math.inf
        return entries * _TABLE_ENTRY_BYTES <= _TABLE_BYTES

    if fits(t):
        return
    lo, hi = 0.0, _TABLE_BYTES / (_TABLE_ENTRY_BYTES * radius)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    raise DimensionLimitError(
        f"the Chebyshev tables of one recursion up to t = {t!r} exceed the budget of "
        f"{_TABLE_BYTES} bytes; the largest admissible time is {lo!r}"
    )


def _bessel_series(z: float) -> np.ndarray:
    """J_k(z) for z >= 0, k from 0 to just before the first order past z whose
    2|J_k| falls below :data:`_SERIES_TOL`, by Miller's backward recurrence
    J_(k-1) = (2k/z) J_k - J_(k+1), started far enough beyond that order to be
    accurate to round-off there, normalised by J_0 + 2 sum J_(2k) = 1 and
    rescaled before it overflows."""
    start = _bessel_start(z)
    values = np.zeros(start + 1)
    if z < 1e-8:
        # J_0 = 1 and J_1 = z/2 to round-off, and the rest vanish.
        values[:2] = 1.0, 0.5 * z
    else:
        upper, current = 0.0, 1e-300
        values[start] = current
        for k in range(start, 0, -1):
            upper, current = current, (2.0 * k / z) * current - upper
            values[k - 1] = current
            if abs(current) > 1e200:
                upper, current = upper * 1e-200, current * 1e-200
                values[k - 1 :] *= 1e-200
        values /= values[0] + 2.0 * values[2::2].sum()
    # Doubling is exact, so 2|J_k| < tol just when |J_k| < tol/2.
    first = int(z) + 1
    below = np.abs(values[first:]) < 0.5 * _SERIES_TOL
    if not below.any():
        raise NumericalError(
            f"Chebyshev coefficients of exp(-i z x) did not decay below "
            f"{_SERIES_TOL:g} within {start} terms (z = {z!r})",
            diagnostics={"z": z, "terms": start},
        )
    return values[: first + int(below.argmax())]


class Propagator:
    """exp(-i*H*t) on the four photon sectors, in the per-mode eigenbases.

    One coupling per propagator: ``dc.gamma``.  With each mode's free
    Hamiltonian V diag(w) V^T (one eigh per mode and photon bit), a sector's
    amplitude matrix Y = V_a^T X V_b evolves under (w_a,i + w_b,j) Y_ij +
    gamma R_a Y R_b, R = V^T x V: the free part is diagonal, and at gamma =
    0 :meth:`evolve` applies exp(-i(w_a,i + w_b,j)t).  Otherwise every
    sector's spectrum lies in the one interval [min w_a + min w_b - g, max
    w_a + max w_b + g] over both photon bits, g = |gamma| ||x_a|| ||x_b||
    (Weyl).  It is sector (1, 1)'s own and costs no terms: x has a zero
    diagonal, so a mode's bit-1 eigenvalues span its bit-0 ones, 0 to
    omega*n_max.  With H = c + r*Ht (Tal-Ezer and Kosloff, J. Chem. Phys.
    81, 3967 (1984))

        exp(-i*H*t) = exp(-i*c*t) sum_k (2 - delta_k0) (-i)^k J_k(r*t) T_k(Ht),

    one recursion T_(k+1) = 2 Ht T_k - T_(k-1) of about r*t plus a few dozen
    terms, on real amplitudes (2, 2, dim_a, dim_b).  H is real, so a complex
    state evolves as its real part plus i times its imaginary part, one
    recursion each.
    """

    def __init__(self, dc: DerivedCouplings, spec: HilbertSpec):
        self.spec, self._gamma = spec, dc.gamma
        (self._w_a, self._v_a), (self._w_b, self._v_b) = (
            _mode_eigh(spec.dim_a, dc.omega_a, dc.lambda_m),
            _mode_eigh(spec.dim_b, dc.omega_b, dc.lambda_M))
        x_a, x_b = position_coupling(spec.dim_a), position_coupling(spec.dim_b)
        coupling = abs(dc.gamma) * np.linalg.norm(x_a, 2) * np.linalg.norm(x_b, 2)
        w_a, w_b = self._w_a, self._w_b
        lo = float(w_a.min() + w_b.min() - coupling)
        hi = float(w_a.max() + w_b.max() + coupling)
        self._center, self._radius = 0.5 * (hi + lo), 0.5 * (hi - lo) * (1.0 + _INTERVAL_PAD)
        # 2*Ht = (2/r)(H - c): the shift rides on the diagonal, the scale on it and,
        # with gamma, on R_b.
        scale = 2.0 / self._radius
        self._diagonal = scale * (w_a[:, None, :, None] + w_b[None, :, None, :] - self._center)
        self._x_a = (self._v_a.transpose(0, 2, 1) @ x_a @ self._v_a)[:, None]
        self._x_b = (scale * dc.gamma) * (self._v_b.transpose(0, 2, 1) @ x_b @ self._v_b)

    def _apply(self, x: np.ndarray, out: np.ndarray, scratch: np.ndarray):
        """out = 2*Ht x for eigenbasis amplitudes x (2, 2, dim_a, dim_b);
        ``scratch``, of shape (2,) + x.shape, is overwritten."""
        mixed, product = scratch
        np.multiply(self._diagonal, x, out=out)
        np.matmul(self._x_a, x, out=mixed)
        np.matmul(mixed, self._x_b, out=product)
        out += product

    def _coefficients(self, t: float) -> np.ndarray:
        """Re and Im (2, terms) of the coefficients at time t."""
        _check_table_bytes(self._radius, t)
        bessel = _bessel_series(self._radius * t)
        bessel[1:] *= 2.0
        # (-i)^k exp(-i*c*t) repeats with period 4 in k.
        cycle = _MINUS_I_POWERS * np.exp(-1j * self._center * t)
        tables = np.empty((2, bessel.size))
        for k, phase in enumerate(cycle.tolist()):
            tables[:, k::4] = [[phase.real], [phase.imag]]
        tables *= bessel
        return tables

    def _series(self, x0: np.ndarray, t: float) -> np.ndarray:
        """Real and imaginary parts (2, 2, 2, dim_a, dim_b) of exp(-i*H*t) x0
        from the real eigenbasis amplitudes x0 (2, 2, dim_a, dim_b).  The
        Chebyshev vectors cycle through a ring of 3 slots, the two a step
        reads and the one it writes, folded into the sum after each third
        step."""
        weights = self._coefficients(t)
        terms, shape = weights.shape[-1], x0.shape
        ring = np.empty((3,) + shape)
        out = np.zeros((2,) + shape)
        steps = np.empty((2,) + shape)
        ring[0] = x0
        for k in range(terms):
            slot = k % 3
            if k == 1:
                self._apply(ring[0], ring[1], steps)
                ring[1] *= 0.5
            elif k > 1:
                self._apply(ring[(k - 1) % 3], ring[slot], steps)
                ring[slot] -= ring[(k - 2) % 3]
            if slot == 2 or k == terms - 1:
                # out += (Re C + i Im C) x for the real x: both parts of C in one
                # product, written into the steps' scratch.
                np.matmul(weights[:, k - slot : k + 1], ring[: slot + 1].reshape(slot + 1, -1),
                          out=steps.reshape(2, -1))
                out += steps
        return out

    def _phases(self, x0: np.ndarray, t: float) -> np.ndarray:
        """The parts of :meth:`_series` at gamma = 0, where each eigenbasis
        amplitude turns by exp(-i(w_a,i + w_b,j)t)."""
        a, b = (np.exp(-1j * w * t) for w in (self._w_a, self._w_b))
        y = a[:, None, :, None] * b[None, :, None, :] * x0
        return np.stack((y.real, y.imag))

    def _evolve_real(self, x: np.ndarray, t: float) -> np.ndarray:
        """Real and imaginary parts (2,) + ``spec.dims`` of exp(-i*H*t) x for
        a real state x of shape ``spec.dims``."""
        # Sector (p, q)'s amplitude matrix X turns into V_a[p]^T X V_b[q] and back;
        # the part of a complex state is strided, and matmul runs BLAS on contiguous rows.
        x0 = self._v_a.transpose(0, 2, 1)[:, None] @ np.ascontiguousarray(x) @ self._v_b
        parts = (self._series if self._gamma else self._phases)(x0, t)
        return np.matmul(self._v_a[:, None] @ parts, self._v_b.transpose(0, 2, 1), out=parts)

    def evolve(self, psi0: np.ndarray, t) -> np.ndarray:
        """Propagate a t=0 state of shape ``spec.dims`` to one time ``t``
        (finite and >= 0): one owned state of shape ``spec.dims``."""
        psi0 = np.ascontiguousarray(psi0, dtype=complex)
        dims = self.spec.dims
        if psi0.shape != dims:
            raise ParameterError(f"state must have shape {dims}, got {psi0.shape}")
        t = _check_times(t, ndmin=0)
        if t.ndim != 0:
            raise ParameterError(f"t must be one time, got an array of shape {t.shape}")
        t = float(t)
        if t == 0.0:
            # exp(-i*H*0) is the identity exactly; the rotations would add round-off.
            return psi0.copy()
        # H is real, so exp(-i*H*t)(x + iy) = exp(-i*H*t)x + i exp(-i*H*t)y: the real
        # part runs, then the imaginary part only if it is non-zero.
        out = np.empty(dims, dtype=complex)
        out.real, out.imag = self._evolve_real(psi0.real, t)
        if psi0.imag.any():
            real, imag = self._evolve_real(psi0.imag, t)
            out.real -= imag
            out.imag += real
        _check_norm(float(np.linalg.norm(psi0)), float(np.linalg.norm(out)), t)
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


def closed_form_state(dc: DerivedCouplings, p: PhysicalParams, spec: HilbertSpec,
                      t: float) -> np.ndarray:
    """Gravity-free evolved state mapped into the truncated basis; at t = 0
    the input state, each photon in (|no-cavity> + |cavity>)/sqrt(2), rod m
    in |beta_m> and rod M in |beta_M>.

    Each photon branch carries its conditional coherent amplitude and
    radiation-pressure phase; the global photon-energy phase is omitted to
    match the Hamiltonians built here.  ``t`` must be finite and >= 0, and
    :class:`TruncationError` refuses an input |beta| whose tail beyond the
    truncation exceeds :data:`TAIL_TOL` (:func:`check_adequacy` certifies
    the displaced amplitudes).
    """
    # Per photon bit, one branch of each system; each sector is their product,
    # scaled by the two qubits' amplitudes in the order of kron(q, q, coh_a, coh_b).
    half = complex(1.0 / math.sqrt(2.0)) ** 2
    branches = []
    for label, beta, lam, omega, n_max in (
            ("a", p.beta_m, dc.lambda_m, dc.omega_a, spec.n_max_a),
            ("b", p.beta_M, dc.lambda_M, dc.omega_b, spec.n_max_b)):
        phi0, phi1, phase = analytic.coherent_trajectories(beta, lam, omega, t)
        _require_held(label, abs(beta), 0.0, n_max)
        branches.append(np.array([coherent_vector(phi0, n_max + 1),
                                  np.exp(1j * phase) * coherent_vector(phi1, n_max + 1)]))
    return (half * branches[0])[:, None, :, None] * branches[1][None, :, None, :]


def visibility_exact(psi: np.ndarray) -> float:
    """Interference visibility: twice the magnitude of photon c's
    path-coherence element <cavity-branch| rho |bypass-branch>."""
    return 2.0 * abs(complex(np.sum(psi[1] * np.conj(psi[0]))))


def linear_entropy_exact(psi: np.ndarray) -> float:
    """Linear entropy 1 - Tr(rho_1**2) of (photon c, mode a) against
    (photon d, mode b), from the Schmidt spectrum of the pure state's
    reshaped amplitudes (stabler than forming the reduced matrix first).

    With lambda = s**2 (lambda_1 the largest) and tau = sum_{i>1} lambda_i,
    the entropy of psi/|psi| is (2 lambda_1 tau + tau**2 - sum_{i>1}
    lambda_i**2) / (lambda_1 + tau)**2: every term is >= 0, so nothing
    cancels against the 1 of 1 - sum(lambda**2) and the norm drops out."""
    mat = psi.transpose(0, 2, 1, 3).reshape(2 * psi.shape[2], -1)
    lam = np.linalg.svd(mat, compute_uv=False) ** 2
    first, rest = lam[0], lam[1:]
    tau = rest.sum()
    return float((2.0 * first * tau + (tau**2 - np.sum(rest**2))) / (first + tau) ** 2)


def _factor_components(dim: int, lam: float) -> np.ndarray:
    """F[p, k], shape (2, 3, dim, dim): a mode's frame-rotated coupling factor
    (:func:`analytic.mode_factor_coefficients`) at photon bit p is sum_k e_k
    F[p, k] over the exponentials e = (e^{-i*omega*s}, 1, e^{+i*omega*s}), so
    F[p] = (a - lam*p, 2*lam*p, a^dag - lam*p)."""
    a = destroy_op(dim)
    tables = np.array([analytic.mode_factor_coefficients(lam, bit) for bit in (0, 1)])
    return np.tensordot(tables, np.stack([a.T, a, np.eye(dim)]), ([1], [0]))


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
        modes.append((omega, w[:, None], v[:, :keep], v.transpose(0, 2, 1) @ x @ v,
                      _factor_components(keep, lam), float(np.linalg.norm(x[:keep, :keep]))))
    out = np.zeros(times.size)
    for i, t in enumerate(times.tolist()):
        for omega, w, v, rotated, components, norm in modes:
            phases = np.exp(1j * w * t)
            phase = complex(math.cos(omega * t), math.sin(omega * t))
            exponentials = np.array([phase.conjugate(), 1.0, phase])
            numeric = (v * phases) @ rotated @ (v * phases.conj()).transpose(0, 2, 1)
            closed = np.tensordot(exponentials, components, ([0], [1]))
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
    weights = analytic.exponential_integrals(dc.omega_a, dc.omega_b, t)
    # Per sector (p, q), sum_kl W_kl F_a[p, k] X F_b[q, l]^T for its (dim_a, dim_b) amplitudes X.
    left = np.einsum("kl,pkab->plab", weights, _factor_components(spec.dim_a, dc.lambda_m))
    right = _factor_components(spec.dim_b, dc.lambda_M).transpose(0, 1, 3, 2)
    out = np.sum(left[:, None] @ tensor[:, :, None] @ right[None], axis=2)
    return (-1j * dc.gamma) * out
