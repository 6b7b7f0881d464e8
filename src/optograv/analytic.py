"""Closed-form dynamics of the cavity-rod system.

Covers the exactly solvable gravity-free evolution (conditional coherent
trajectories of each rod and the resulting interference visibility), the
first-order-in-gamma visibility of the coupled system, the thermal-mixture
visibility and the perturbative linear entropy, which is exact in a
four-dimensional coherent basis per system and needs no Fock truncation.

One formula, :func:`coherent_trajectories`, gives every conditional
coherent amplitude: the photon's off-diagonal element, the rod-M branches
of the first-order bracket and the oracle's closed-form state all call it.

Every first-order time integral goes through one exact integrator: each
mode's frame-rotated coupling factor is a fixed table of coefficients over
the operators (a^dag, a, 1) and the exponentials exp(-i*omega*s), 1,
exp(+i*omega*s) (:func:`mode_factor_coefficients`), so an integral over
s in [-t, 0] reduces to the closed-form exponential integrals of
:func:`exponential_integrals`.

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
    of the coupling generator, averaged over the two rod-M branches: with K
    the :func:`integrated_coefficients`, only the identity row of the mode-a
    factor depends on the path, so x = gamma/2 * Re sum over (q, j) of
    <O_j>_q * (K[(1, 1), (q, j)] - K[(0, 1), (q, j)]), O = (a^dag, a, 1) in
    rod M's branch q.  Exact for any frequencies and any complex beta_M.
    """
    times = _check_times(times)
    k = integrated_coefficients(dc, times).reshape(-1, 2, 3, 2, 3)
    path_difference = k[:, 1, 2] - k[:, 0, 2]
    phi0, phi1, _ = coherent_trajectories(p.beta_M, dc.lambda_M, dc.omega_b, times)
    phi = np.stack([phi0, phi1], axis=-1)
    expectations = np.stack([np.conj(phi), phi, np.ones_like(phi)], axis=-1)
    x = 0.5 * np.sum(expectations * path_difference, axis=(1, 2))
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
    In dimensionless mode there is no frequency pull and only the state
    correction remains.
    """
    times = _check_times(times)
    dc0 = derive_couplings(without_gravity(p))
    return visibility_first_order(dc, p, times) - visibility_uncoupled(dc0, times)


def thermal_visibility(dc: DerivedCouplings, nbar: float, times) -> np.ndarray:
    """Rod-m visibility when the rod starts in a thermal coherent-state
    mixture with mean occupation nbar:
    V(t) = exp(-lam_m**2 * (2*nbar + 1) * (1 - cos(omega_a*t))).
    """
    _check_occupation(nbar)
    times = _check_times(times)
    lam, omega = dc.lambda_m, dc.omega_a
    return np.exp(-(lam * lam) * (2.0 * nbar + 1.0) * (1.0 - np.cos(omega * times)))


def integrated_coefficients(dc: DerivedCouplings, times) -> np.ndarray:
    """K[..., 3*p + i, 3*q + j], shape ``times.shape + (6, 6)``: the
    coefficient of O_i (x) O_j, with O the operators (a^dag, a, 1), in the
    sector-(p, q) time integral over s in [-t, 0] of the gamma-stripped
    frame-rotated coupling generator."""
    weights = exponential_integrals(dc.omega_a, dc.omega_b, times)
    tables_a = np.array([mode_factor_coefficients(dc.lambda_m, bit) for bit in (0, 1)])
    tables_b = np.array([mode_factor_coefficients(dc.lambda_M, bit) for bit in (0, 1)])
    k = np.einsum("pik,...kl,qjl->...piqj", tables_a, weights, tables_b)
    return k.reshape(k.shape[:-4] + (6, 6))


def _projected_family(lam: float, omega: float, times: np.ndarray) -> np.ndarray:
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


def linear_entropy_first_order(dc: DerivedCouplings, times) -> np.ndarray:
    """Perturbative linear entropy between the two rod-cavity systems at each
    of ``times``; exact, non-negative and independent of the rods' input
    amplitudes.

    S = 2*gamma**2 ||(1 - P_1)(1 - P_2) A psi||^2, with psi = psi_1 x psi_2
    the gravity-free product state, P_k the projector onto psi_k and A the
    gamma-stripped time integral of the frame-rotated coupling generator:
    only the component of A*psi orthogonal to both factors entangles, and
    dropping either projection overestimates S at leading order.  As
    A*psi = sum K[(p, i), (q, j)] u_(p,i) (x) v_(q,j) with u_(p,i) =
    |p> (x) O_i psi_1[p], O in (a^dag, a, 1), likewise v, and K the
    :func:`integrated_coefficients`, the projected vector is U K V^T with U
    and V from :func:`_projected_family`.
    """
    times = _check_times(times)
    out = np.empty(times.size)
    for first in range(0, times.size, _ENTROPY_BLOCK):
        block = times[first : first + _ENTROPY_BLOCK]
        u = _projected_family(dc.lambda_m, dc.omega_a, block)
        v = _projected_family(dc.lambda_M, dc.omega_b, block)
        projected = np.einsum("tai,tij,tbj->tab", u, integrated_coefficients(dc, block), v)
        out[first : first + block.size] = np.sum(np.abs(projected) ** 2, axis=(1, 2))
    return 2.0 * dc.gamma**2 * out
