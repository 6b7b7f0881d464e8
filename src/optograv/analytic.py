"""Closed-form dynamics of the cavity-rod system.

Covers the exactly solvable gravity-free evolution (conditional coherent
trajectories of each rod and the resulting interference visibility), the
first-order-in-gamma visibility of the coupled system, the thermal-mixture
visibility, the revived-peak width estimate, and the perturbative linear
entropy, which is exact in a four-dimensional coherent basis per system and
needs no Fock truncation.

One formula, :func:`coherent_trajectories`, gives every conditional
coherent amplitude: the photon's off-diagonal element, the rod-M branches
of the first-order bracket and the oracle's closed-form state all call it.

Every first-order time integral goes through one exact integrator: each
mode's frame-rotated coupling factor is a fixed table of coefficients over
the operators (a^dag, a, 1) and the exponentials exp(-i*omega*s), 1,
exp(+i*omega*s) (:func:`mode_factor_coefficients`), so an integral over
s in [-t, 0] reduces to the closed-form exponential integrals of
:func:`exponential_integrals`.

Conventions: the photon of each cavity is a two-path qubit; "visibility" is
twice the magnitude of the off-diagonal element of its reduced density
matrix between the two path states.  First-order formulas may exceed 1 by
an O(gamma^2) artifact; traces carry a flag instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import fingerprint, fingerprint_params
from .constants import K_BOLTZMANN
from .errors import ParameterError
from .params import (
    UNITS_SI,
    DerivedCouplings,
    PhysicalParams,
    derive_couplings,
    without_gravity,
)

#: Values may exceed 1 by this much before a trace is flagged unphysical.
UNITY_SLACK = 1e-9

METHOD_UNCOUPLED = "uncoupled"
METHOD_FIRST_ORDER_CLOSED = "first_order_closed"
METHOD_SHIFT_PREFIX = "shift_"
METHOD_THERMAL = "thermal"

#: Exponents of the columns of a mode-factor coefficient table.
_SIGMA = np.array([-1.0, 0.0, 1.0])

#: Times per block of the first-order entropy, which bounds its temporaries.
_ENTROPY_BLOCK = 64


def _rod_constants(dc: DerivedCouplings, p: PhysicalParams, rod: str):
    if rod == "m":
        return p.beta_m, dc.lambda_m, dc.omega_a
    if rod == "M":
        return p.beta_M, dc.lambda_M, dc.omega_b
    raise ParameterError(f"rod must be 'm' or 'M', got {rod!r}")


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


@dataclass(frozen=True)
class VisibilityTrace:
    """Time series of visibility values (or differences of them).

    ``values`` lie in [0, 1] for physical traces; ``exceeds_unity`` flags
    first-order artifacts beyond the numerical slack.  Shift traces
    (``method`` starting with "shift_") are signed differences and are
    exempt from the bounds.
    """

    times: np.ndarray
    values: np.ndarray
    method: str
    params_fingerprint: str

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise ParameterError("times and values must be matching 1-d arrays")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ParameterError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def exceeds_unity(self) -> bool:
        return bool(np.any(self.values > 1.0 + UNITY_SLACK))

    @property
    def is_shift(self) -> bool:
        return self.method.startswith(METHOD_SHIFT_PREFIX)

    def to_csv_rows(self):
        """Rows for the ``t_seconds,value,method`` trace format."""
        return [
            (repr(float(t)), repr(float(v)), self.method)
            for t, v in zip(self.times, self.values)
        ]

    def to_json_dict(self) -> dict:
        return {
            "times": [float(t) for t in self.times],
            "values": [float(v) for v in self.values],
            "method": self.method,
            "params_fingerprint": self.params_fingerprint,
        }


def _trace_fingerprint(dc, p, extra=None):
    payload = {"params": fingerprint_params(p), "couplings": dc.as_dict()}
    if extra:
        payload.update(extra)
    return fingerprint(payload)


def _check_times(times, ndmin: int = 1) -> np.ndarray:
    """``times`` as a float array of at least ``ndmin`` dimensions, refused
    unless finite and >= 0."""
    times = np.array(times, dtype=float, ndmin=ndmin)
    if not np.all(np.isfinite(times)) or np.any(times < 0):
        raise ParameterError("times must be finite and >= 0")
    return times


def visibility_uncoupled(
    dc: DerivedCouplings, p: PhysicalParams, rod: str = "m", times=None
) -> VisibilityTrace:
    """Visibility of one cavity's photon with gravity absent from the state
    dynamics: V(t) = exp(-lam**2 * (1 - cos(omega*t))).

    Uses whatever constants ``dc`` carries, so passing couplings derived
    with G = 0 yields the gravity-free reference pattern.
    """
    times = _check_times(times)
    _, lam, omega = _rod_constants(dc, p, rod)
    values = np.exp(-(lam * lam) * (1.0 - np.cos(omega * times)))
    return VisibilityTrace(
        times=times,
        values=values,
        method=METHOD_UNCOUPLED,
        params_fingerprint=_trace_fingerprint(dc, p, {"rod": rod}),
    )


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
    of the mode-a factor, 2*lam_m*(1 - cos(omega_a*s)), times the mode-b
    factor's expectation averaged over the two rod-M branches.  Exact for
    any frequencies and any complex beta_M.
    """
    times = _check_times(times)
    lam_M, omega_b = dc.lambda_M, dc.omega_b
    tables_a = [mode_factor_coefficients(dc.lambda_m, bit) for bit in (0, 1)]
    # The cavity-c path changes only the identity row of the mode-a factor.
    diff_a = (tables_a[1] - tables_a[0])[2]
    # Rod-M branch amplitudes phi_q at each time; <a^dag>, <a>, <1> in each.
    phi0, phi1, _ = coherent_trajectories(p.beta_M, lam_M, omega_b, times)
    drive_b = 0.5 * sum(
        np.stack([np.conj(phi), phi, np.ones_like(phi)], axis=-1)
        @ mode_factor_coefficients(lam_M, bit)
        for bit, phi in ((0, phi0), (1, phi1))
    )
    weights = exponential_integrals(dc.omega_a, omega_b, times)
    x = np.einsum("k,tkl,tl->t", diff_a, weights, drive_b)
    return dc.gamma * x.real


def visibility_first_order(dc: DerivedCouplings, p: PhysicalParams, times) -> VisibilityTrace:
    """Visibility of the rod-m cavity with the gravitational coupling treated
    to first order: V1(t) = exp(-lam_m**2*(1-cos(omega_a*t))) * |1 + i*x(t)|.

    The modulus makes the magnitude shift second order in gamma even though
    the state correction is first order.
    """
    times = _check_times(times)
    x = first_order_bracket(dc, p, times)
    envelope = np.exp(-(dc.lambda_m**2) * (1.0 - np.cos(dc.omega_a * times)))
    return VisibilityTrace(
        times=times,
        values=envelope * np.hypot(1.0, x),
        method=METHOD_FIRST_ORDER_CLOSED,
        params_fingerprint=_trace_fingerprint(dc, p, {"form": "closed"}),
    )


def visibility_shift(dc: DerivedCouplings, p: PhysicalParams, times) -> VisibilityTrace:
    """Gravitational change of the rod-m visibility pattern, V1 - V0.

    The reference V0 is the fully uncoupled pattern (couplings re-derived
    with G = 0 in SI mode), so the shift combines the frequency-pull effect
    omega_a vs. the bare frequency with the first-order state correction.
    In dimensionless mode there is no frequency pull and only the state
    correction remains.
    """
    times = _check_times(times)
    v1 = visibility_first_order(dc, p, times)
    dc0 = derive_couplings(without_gravity(p)) if p.units == UNITS_SI else dc
    v0 = visibility_uncoupled(dc0, p, "m", times)
    return VisibilityTrace(
        times=times,
        values=v1.values - v0.values,
        method=METHOD_SHIFT_PREFIX + "closed",
        params_fingerprint=_trace_fingerprint(dc, p, {"shift_form": "closed"}),
    )


def thermal_visibility(
    dc: DerivedCouplings, p: PhysicalParams, nbar: float, times
) -> VisibilityTrace:
    """Rod-m visibility when the rod starts in a thermal coherent-state
    mixture with mean occupation nbar:
    V(t) = exp(-lam_m**2 * (2*nbar + 1) * (1 - cos(omega_a*t))).
    """
    if not (math.isfinite(nbar) and nbar >= 0):
        raise ParameterError(f"nbar must be >= 0, got {nbar!r}")
    times = _check_times(times)
    lam, omega = dc.lambda_m, dc.omega_a
    values = np.exp(-(lam * lam) * (2.0 * nbar + 1.0) * (1.0 - np.cos(omega * times)))
    return VisibilityTrace(
        times=times,
        values=values,
        method=METHOD_THERMAL,
        params_fingerprint=_trace_fingerprint(dc, p, {"nbar": nbar}),
    )


def revival_peak_width(dc: DerivedCouplings, p: PhysicalParams, temperature_T: float) -> float:
    """Scaling estimate of the revived visibility peak's width, in radians of
    omega_a*t: 1 / (lam_m * sqrt(4*k_B*T/(hbar*omega_a) + 2)).

    A scaling estimate, not an exact half-maximum width (it agrees with the
    numerically measured half-width of the thermal pattern to within a
    factor of two).  SI mode only.
    """
    if p.units != UNITS_SI:
        raise ParameterError("revival_peak_width is defined for SI-mode parameters only")
    if not (math.isfinite(temperature_T) and temperature_T >= 0):
        raise ParameterError(f"temperature_T must be >= 0, got {temperature_T!r}")
    ratio = 4.0 * K_BOLTZMANN * temperature_T / (p.hbar * dc.omega_a)
    return 1.0 / (dc.lambda_m * math.sqrt(ratio + 2.0))


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
