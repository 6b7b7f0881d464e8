"""Closed-form dynamics of the cavity-rod system.

Covers the exactly solvable gravity-free evolution (conditional coherent
trajectories of each rod and the resulting interference visibility), the
first-order-in-gamma visibility of the coupled system, the thermal-mixture
visibility and the perturbative linear entropy, which is exact in a
four-dimensional coherent basis per system and needs no Fock truncation.

One formula, :func:`coherent_trajectories`, gives every conditional
coherent amplitude: the photon's off-diagonal element, the rod-M branches
of the first-order bracket and the oracle's closed-form state all call it.

Every first-order observable reads the time integral over s in [-t, 0] of
the frame-rotated gravitational coupling, a product of one factor per rod.
Each factor is a fixed table of coefficients over the operators (a^dag, a,
1) and the exponentials exp(-i*omega*s), 1, exp(+i*omega*s)
(:func:`mode_factor_coefficients`), so each observable contracts the 3x3
closed-form exponential integrals W of :func:`exponential_integrals` with
one vector over those exponentials per rod.

Every function returns plain numpy arrays, one value per requested time;
callers hold the time axis and label the values themselves.

Conventions: the photon of each cavity is a two-path qubit; "visibility" is
twice the magnitude of the off-diagonal element of its reduced density
matrix between the two path states.  First-order formulas may exceed 1 by
an O(gamma^2) artifact; they are returned as computed, without clipping.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError, ParameterError
from .params import (
    DerivedCouplings,
    PhysicalParams,
    derive_couplings,
    squared_shifts,
    without_gravity,
)

#: Exponents of the columns of a mode-factor coefficient table.
_SIGMA = np.array([-1.0, 0.0, 1.0])

#: Times per block of the first-order entropy, which bounds its temporaries.
_ENTROPY_BLOCK = 64


def coherent_trajectories(beta, lam: float, omega: float, t):
    """Conditional coherent amplitudes (phi0, phi1, phase) of a rod that
    starts in |beta>, under its own cavity coupling lam at frequency omega.

    ``phi0`` is the amplitude when the cavity path is empty (free rotation
    of beta), ``phi1`` the displaced amplitude conditioned on the photon
    being in the cavity, and ``phase`` that branch's accumulated
    radiation-pressure phase:

        phi0 = beta*exp(-i*omega*t),
        phi1 = phi0 + lam*(1 - exp(-i*omega*t)),
        phase = lam**2*(omega*t - sin(omega*t)) + lam*Im[beta*(1 - exp(-i*omega*t))].

    Broadcast over ``beta`` and ``t``; times must be finite and >= 0.
    """
    t = _check_times(t, ndmin=0)
    beta = np.asarray(beta, dtype=complex)
    rot = np.exp(-1j * omega * t)
    alpha = 1.0 - rot
    phi0 = beta * rot
    phi1 = phi0 + lam * alpha
    phase = lam * lam * (omega * t - np.sin(omega * t)) + lam * (beta * alpha).imag
    return phi0, phi1, phase


def photon_offdiagonal(beta, lam, omega, t):
    """Complex off-diagonal photon matrix element for a rod in state |beta>.

    Vectorised over ``beta``.  The visibility is twice its magnitude; thermal
    averaging must average this complex element (its beta-dependent phase is
    what produces the thermal enhancement), never the magnitude alone.
    """
    phi0, phi1, phase = coherent_trajectories(beta, lam, omega, t)
    overlap = np.exp(
        -0.5 * np.abs(phi0) ** 2 - 0.5 * np.abs(phi1) ** 2 + np.conj(phi0) * phi1
    )
    return 0.5 * np.exp(1j * phase) * overlap


def _check_times(times, ndmin: int = 1) -> np.ndarray:
    """``times`` as a float array of at least ``ndmin`` dimensions, refused
    unless finite and >= 0."""
    times = np.array(times, dtype=float, ndmin=ndmin)
    if not np.all(np.isfinite(times)) or np.any(times < 0):
        raise ParameterError("times must be finite and >= 0")
    return times


def check_outputs(dc: DerivedCouplings, times, columns: dict) -> None:
    """Raise NumericalError at the first of ``times`` at which a value column
    (name -> one value per time) is not finite, naming those columns; else at
    the first at which max(omega_a, omega_b)*t exceeds 2**52, where adjacent
    doubles are >= 1 rad apart."""
    times = np.asarray(times, dtype=float)
    finite = np.isfinite(np.array(list(columns.values()), dtype=float).reshape(-1, times.size))
    bad = np.flatnonzero(~finite.all(axis=0))
    if bad.size:
        names = ", ".join(name for name, ok in zip(columns, finite[:, bad[0]]) if not ok)
        raise NumericalError(f"{names} not finite at t = {float(times[bad[0]])!r} s")
    omega = max(dc.omega_a, dc.omega_b)
    bad = np.flatnonzero(times > 2.0**52 / omega)
    if bad.size:
        t = float(times[bad[0]])
        raise NumericalError(f"omega*t = {omega * t!r} exceeds 2**52 at t = {t!r} s: "
                             "a double holds no phase there")


def _check_occupation(nbar: float) -> None:
    """Refuse a mean thermal occupation unless finite and >= 0."""
    if not (math.isfinite(nbar) and nbar >= 0):
        raise ParameterError(f"nbar must be >= 0, got {nbar!r}")


def _as_times(times) -> np.ndarray:
    """``times`` as a float array; refused unless non-empty, 1-D, finite and >= 0."""
    times = _check_times(times, ndmin=0)
    if times.ndim != 1 or times.size == 0:
        raise ParameterError("times must be a non-empty 1-D sequence")
    return times


def visibility_uncoupled(dc: DerivedCouplings, times) -> np.ndarray:
    """Visibility of the rod-m cavity's photon with gravity absent from the
    state dynamics: V(t) = exp(-lam_m**2 * (1 - cos(omega_a*t))), the
    :func:`thermal_visibility` at nbar = 0.

    Uses whatever constants ``dc`` carries, so passing couplings derived
    with G = 0 yields the gravity-free reference pattern.
    """
    return thermal_visibility(dc, 0.0, times)


def mode_factor_coefficients(lam: float, bit: int) -> np.ndarray:
    """Coefficient table of one mode's frame-rotated coupling factor

        e^{i*omega*s} a^dag + e^{-i*omega*s} a + 2*lam*bit*(1 - cos(omega*s)).

    Rows are the operators (a^dag, a, 1); columns the exponentials
    e^{-i*omega*s}, 1, e^{+i*omega*s}.  ``bit`` is the photon occupation of
    the mode's cavity path.
    """
    table = np.zeros((3, 3))
    table[0, 2] = 1.0
    table[1, 0] = 1.0
    table[2] = lam * bit * np.array([-1.0, 2.0, -1.0])
    return table


def exponential_integrals(omega_a: float, omega_b: float, times) -> np.ndarray:
    """W[..., k, l] = integral over s in [-t, 0] of
    exp(i*(sigma_k*omega_a + sigma_l*omega_b)*s), sigma = (-1, 0, +1).

    Evaluated as t*(expm1(z)/z) with z = -i*(sigma_k*omega_a + sigma_l*omega_b)*t,
    the ratio taken as 1 where |z| < 1e-150 (it rounds to 1 there), so
    equal or near-equal mode frequencies and tiny times need no special
    case.  Shape ``times.shape + (3, 3)``; times must be finite and >= 0.
    """
    t = _check_times(times, ndmin=0)[..., None, None]
    z = -1j * (_SIGMA[:, None] * omega_a + _SIGMA[None, :] * omega_b) * t
    small = np.abs(z) < 1e-150
    return t * np.where(small, 1.0, np.expm1(z) / np.where(small, 1.0, z))


def first_order_bracket(dc: DerivedCouplings, p: PhysicalParams, times):
    """The real bracket x(t) with V1 = V0 * |1 + i*x(t)|, to first order in gamma.

    x(t) = gamma * integral over s in [-t, 0] of the cavity-c path difference
    of the coupling generator, averaged over the two rod-M branches q.  Only
    the identity row of the mode-a table depends on the path, and it is zero
    at bit 0, so x = gamma * Re[lam_m*(-1, 2, -1) . W . d], with W the
    :func:`exponential_integrals` and d = 1/2 sum_q (<a^dag>_q, <a>_q, 1) .
    table_b(q) rod M's branch-averaged factor.  Exact for any frequencies and
    any complex beta_M.
    """
    times = _check_times(times)
    phi0, phi1, _ = coherent_trajectories(p.beta_M, dc.lambda_M, dc.omega_b, times)
    drive = 0.5 * sum(np.stack([np.conj(phi), phi, np.ones_like(phi)], axis=-1)
                      @ mode_factor_coefficients(dc.lambda_M, bit)
                      for bit, phi in enumerate((phi0, phi1)))
    weights = exponential_integrals(dc.omega_a, dc.omega_b, times)
    x = np.einsum("k,tkl,tl->t", mode_factor_coefficients(dc.lambda_m, 1)[2], weights, drive)
    return dc.gamma * x.real


def visibility_first_order(dc: DerivedCouplings, p: PhysicalParams, times) -> np.ndarray:
    """Visibility of the rod-m cavity with the gravitational coupling treated
    to first order: V1(t) = exp(-lam_m**2*(1-cos(omega_a*t))) * |1 + i*x(t)|.

    The modulus makes the magnitude shift second order in gamma even though
    the state correction is first order.
    """
    times = _check_times(times)
    return visibility_uncoupled(dc, times) * np.hypot(1.0, first_order_bracket(dc, p, times))


def visibility_shift(dc: DerivedCouplings, p: PhysicalParams, times) -> np.ndarray:
    """Gravitational change of the rod-m visibility pattern, V1 - V0.

    The reference V0 is the fully uncoupled pattern (couplings re-derived
    without gravity), so the shift combines the frequency-pull effect
    omega_a vs. the bare frequency with the first-order state correction.
    With V the :func:`visibility_uncoupled` at ``dc`` and x the
    :func:`first_order_bracket`, it is written without cancellation as

        V1 - V0 = V0*expm1(D) + V*x**2/(1 + hypot(1, x)),
        D = log V - log V0 = (Lam**2 - lam**2)*2sin(bare*t/2)**2
                             - lam**2*2sin((omega_a + bare)*t/2)*sin(pull*t/2),

    pull = omega_a - bare = s/(omega_a + bare) with s = omega_a**2 - bare**2
    recomputed from ``p`` (:func:`squared_shifts`).  Lam, the gravity-free
    lambda_m, gives Lam**2 - lam**2 = Lam**2*pull*(omega_a**2 + omega_a*bare +
    bare**2)/omega_a**3, as lam**2 goes as omega**-3.  In dimensionless mode
    there is no frequency pull and only the state correction remains.
    """
    times = _check_times(times)
    dc0 = derive_couplings(without_gravity(p))
    lam, lam0, omega, bare = dc.lambda_m, dc0.lambda_m, dc.omega_a, dc0.omega_a
    pull = squared_shifts(p)[0] / (omega + bare)
    gap = lam0 * lam0 * pull * (omega * omega + omega * bare + bare * bare) / omega**3
    half = 0.5 * times
    delta = (gap * 2.0 * np.sin(bare * half) ** 2
             - lam * lam * 2.0 * np.sin((omega + bare) * half) * np.sin(pull * half))
    x = first_order_bracket(dc, p, times)
    return (visibility_uncoupled(dc0, times) * np.expm1(delta)
            + visibility_uncoupled(dc, times) * (x * x / (1.0 + np.hypot(1.0, x))))


def thermal_visibility(dc: DerivedCouplings, nbar: float, times) -> np.ndarray:
    """Rod-m visibility when the rod starts in a thermal coherent-state
    mixture with mean occupation nbar:
    V(t) = exp(-lam_m**2 * (2*nbar + 1) * (1 - cos(omega_a*t))).
    """
    _check_occupation(nbar)
    times = _check_times(times)
    lam, omega = dc.lambda_m, dc.omega_a
    return np.exp(-(lam * lam) * (2.0 * nbar + 1.0) * (1.0 - np.cos(omega * times)))


def _entangling_rows(lam: float, omega: float, times: np.ndarray) -> np.ndarray:
    """Rows (T, 2, 3) of one rod's factor components applied to its
    gravity-free state, in the two directions orthogonal to that state that
    they reach: the path difference (lam/2)*(e^{-i*omega*t}, -2, e^{+i*omega*t})
    and the one-phonon row (0, 0, 1)."""
    rot = np.exp(-1j * omega * times)
    rows = np.zeros((times.size, 2, 3), dtype=complex)
    rows[:, 0, 0], rows[:, 0, 1], rows[:, 0, 2] = 0.5 * lam * rot, -lam, 0.5 * lam * rot.conj()
    rows[:, 1, 2] = 1.0
    return rows


def linear_entropy_first_order(dc: DerivedCouplings, times) -> np.ndarray:
    """Perturbative linear entropy between the two rod-cavity systems at each
    of ``times``; exact, non-negative and independent of the rods' input
    amplitudes.

    S = 2*gamma**2 ||(1 - P_1)(1 - P_2) A psi||^2, with psi = psi_1 x psi_2
    the gravity-free product state, P_k the projector onto psi_k and A the
    gamma-stripped time integral of the frame-rotated coupling generator:
    only the component of A*psi orthogonal to both factors entangles, and
    dropping either projection overestimates S at leading order.

    1. A*psi = sum_kl W_kl u_k (x) v_l, u_k = sum_p |p> F_a[p, k] psi_1[p] with
       F[p, k] a rod's factor component at exponential k and photon bit p.
    2. Orthogonal to psi_1, u_k has the coordinates X[:, k] along the path
       difference (|0>|phi_0> - |1>|phi_1>)/sqrt(2) and the one-phonon
       direction (|0>D(phi_0)|1> + |1>D(phi_1)|1>)/sqrt(2), with X the
       :func:`_entangling_rows`: the a^dag row of a table is the same for both
       bits, so a rod's input amplitude adds only multiples of psi_1.
    3. Hence S = 2*gamma**2 ||X W Y^T||_F^2, Y rod b's rows.
    """
    times = _check_times(times)
    out = np.empty(times.size)
    for first in range(0, times.size, _ENTROPY_BLOCK):
        block = times[first : first + _ENTROPY_BLOCK]
        x = _entangling_rows(dc.lambda_m, dc.omega_a, block)
        y = _entangling_rows(dc.lambda_M, dc.omega_b, block)
        weights = exponential_integrals(dc.omega_a, dc.omega_b, block)
        # One einsum: as stacked matmuls, X W Y^T raised a cold fig3 process's peak
        # RSS by 0.2 MB.
        projected = np.einsum("tak,tkl,tbl->tab", x, weights, y)
        out[first : first + block.size] = np.sum(np.abs(projected) ** 2, axis=(1, 2))
    return 2.0 * dc.gamma**2 * out
