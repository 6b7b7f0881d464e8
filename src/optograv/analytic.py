"""Closed-form dynamics of the cavity-rod system.

Covers the exactly solvable gravity-free evolution (conditional coherent
trajectories of each rod and the resulting interference visibility), the
first-order-in-gamma visibility of the coupled system, the thermal-mixture
visibility, the perturbative linear entropy, which is exact in a
four-dimensional coherent basis per system and needs no Fock truncation,
and the exact coupled visibility of the Gaussian flow (:func:`visibility`).

One formula, :func:`coherent_trajectories`, gives every conditional
coherent amplitude: the rod-M branches of the first-order bracket, the
oracle's closed-form state and the thermal Monte Carlo's photon element all
call it.

Every first-order observable reads the time integral over s in [-t, 0] of
the frame-rotated gravitational coupling, a product of one factor per rod.
Each factor is a fixed table of coefficients over the operators (a^dag, a,
1) and the exponentials exp(-i*omega*s), 1, exp(+i*omega*s)
(:func:`mode_factor_coefficients`), so each observable contracts the 3x3
closed-form exponential integrals W of :func:`exponential_integrals` with
one vector over those exponentials per rod.

The module is written with ``math`` alone, so the commands that read only
closed forms (``figure`` and a scan without oracle rows) never load numpy.
Each closed form takes a sequence of times and returns a list with one
float per time; callers hold the time axis and label the values
themselves.  A phase or an exponential that leaves the range of a double
gives a NaN or inf value, not an exception, and :func:`check_outputs`
reports it.

Conventions: the photon of each cavity is a two-path qubit; "visibility" is
twice the magnitude of the off-diagonal element of its reduced density
matrix between the two path states.  First-order formulas may exceed 1 by
an O(gamma^2) artifact; they are returned as computed, without clipping.
"""

from __future__ import annotations

import math

from .errors import NumericalError, ParameterError
from .params import DerivedCouplings, PhysicalParams, squared_shifts


def _cis(angle: float) -> complex:
    """exp(i*angle), or NaN where ``angle`` is not finite (``math.cos``
    raises there)."""
    if not math.isfinite(angle):
        return complex(math.nan, math.nan)
    return complex(math.cos(angle), math.sin(angle))


def _dot(u, v):
    """Sum of the products of two 3-vectors."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


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

    ``t`` is one time, finite and >= 0.  ``beta`` enters through arithmetic
    only, so an array of amplitudes gives arrays of phi0, phi1 and phase.
    """
    t = _check_time(t)
    rot = _cis(-omega * t)
    alpha = 1.0 - rot
    phi0 = beta * rot
    phi1 = phi0 + lam * alpha
    phase = lam * lam * (omega * t + rot.imag) + lam * (beta * alpha).imag
    return phi0, phi1, phase


def _check_time(t) -> float:
    """One time ``t`` as a float, refused unless finite and >= 0."""
    try:
        t = float(t)
    except (TypeError, ValueError):
        raise ParameterError(f"t must be one time, got {t!r}") from None
    if not 0.0 <= t < math.inf:
        raise ParameterError("times must be finite and >= 0")
    return t


def _as_times(times) -> list:
    """``times`` as a list of floats; refused unless a non-empty 1-D
    sequence of times, each finite and >= 0."""
    try:
        times = [float(t) for t in times]
    except (TypeError, ValueError):
        raise ParameterError("times must be a non-empty 1-D sequence of numbers") from None
    if not times:
        raise ParameterError("times must be a non-empty 1-D sequence")
    if not all(0.0 <= t < math.inf for t in times):
        raise ParameterError("times must be finite and >= 0")
    return times


def check_outputs(dc: DerivedCouplings, times, columns: dict) -> None:
    """Raise NumericalError at the first of ``times`` at which a value column
    (name -> one value per time) is not finite, naming those columns; else at
    the first at which max(omega_a, omega_b)*t exceeds 2**52, where adjacent
    doubles are >= 1 rad apart."""
    for i, t in enumerate(times):
        names = [name for name, values in columns.items() if not math.isfinite(values[i])]
        if names:
            raise NumericalError(f"{', '.join(names)} not finite at t = {float(t)!r} s")
    omega = max(dc.omega_a, dc.omega_b)
    limit = 2.0**52 / omega
    for t in times:
        if t > limit:
            raise NumericalError(f"omega*t = {omega * t!r} exceeds 2**52 at t = {float(t)!r} s: "
                                 "a double holds no phase there")


def _check_occupation(nbar: float) -> None:
    """Refuse a mean thermal occupation unless finite and >= 0."""
    if not (math.isfinite(nbar) and nbar >= 0):
        raise ParameterError(f"nbar must be >= 0, got {nbar!r}")


def visibility_uncoupled(dc: DerivedCouplings, times) -> list:
    """Visibility of the rod-m cavity's photon with gravity absent from the
    state dynamics: V(t) = exp(-lam_m**2 * (1 - cos(omega_a*t))), the
    :func:`thermal_visibility` at nbar = 0.

    Uses whatever constants ``dc`` carries, so passing couplings derived
    with G = 0 yields the gravity-free reference pattern.
    """
    return thermal_visibility(dc, 0.0, times)


def mode_factor_coefficients(lam: float, bit: int) -> tuple:
    """Coefficient table of one mode's frame-rotated coupling factor

        e^{i*omega*s} a^dag + e^{-i*omega*s} a + 2*lam*bit*(1 - cos(omega*s)).

    Rows are the operators (a^dag, a, 1); columns the exponentials
    e^{-i*omega*s}, 1, e^{+i*omega*s}.  ``bit`` is the photon occupation of
    the mode's cavity path.
    """
    scale = lam * bit
    return (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (-scale, 2.0 * scale, -scale)


def _exponential_integral(x: float, t: float) -> complex:
    """t*expm1(-i*x)/(-i*x) = t*sin(x)/x - 2i*t*sin(x/2)**2/x at the phase x
    = rate*t: the half-angle sine keeps small phases from cancelling.  It is
    t where |x| < 1e-150 (the ratio rounds to 1 there), NaN where x is not
    finite."""
    if abs(x) < 1e-150:
        return complex(t)
    if not math.isfinite(x):
        return complex(math.nan, math.nan)
    half = math.sin(0.5 * x)
    return complex(t * (math.sin(x) / x), t * (-2.0 * half * half / x))


def exponential_integrals(omega_a: float, omega_b: float, t) -> tuple:
    """W[k][l] = integral over s in [-t, 0] of
    exp(i*(sigma_k*omega_a + sigma_l*omega_b)*s), sigma = (-1, 0, +1), at
    one time ``t`` (finite and >= 0), as a 3x3 nested tuple.

    Equal or near-equal mode frequencies and tiny times need no special
    case (:func:`_exponential_integral`).  Flipping both exponents
    conjugates the integral, so W[2 - k][2 - l] is the conjugate of W[k][l].
    """
    t = _check_time(t)
    w00 = _exponential_integral((-omega_a - omega_b) * t, t)
    w01 = _exponential_integral(-omega_a * t, t)
    w02 = _exponential_integral((-omega_a + omega_b) * t, t)
    w10 = _exponential_integral(-omega_b * t, t)
    return ((w00, w01, w02), (w10, complex(t), w10.conjugate()),
            (w02.conjugate(), w01.conjugate(), w00.conjugate()))


def first_order_bracket(dc: DerivedCouplings, p: PhysicalParams, times) -> list:
    """The real bracket x(t) with V1 = V0 * |1 + i*x(t)|, to first order in gamma.

    x(t) = gamma * integral over s in [-t, 0] of the cavity-c path difference
    of the coupling generator, averaged over the two rod-M branches q.  Only
    the identity row of the mode-a table depends on the path, and it is zero
    at bit 0, so x = gamma * Re[lam_m*(-1, 2, -1) . W . d], with W the
    :func:`exponential_integrals` and d = 1/2 sum_q (<a^dag>_q, <a>_q, 1) .
    table_b(q) rod M's branch-averaged factor.  Branch q's row is
    (phi_q - lam_M*q, 2*lam_M*q, conj(phi_q) - lam_M*q), so d = (delta, lam_M,
    conj(delta)) with delta = (phi_0 + phi_1 - lam_M)/2.  Exact for any
    frequencies and any complex beta_M.
    """
    times = _as_times(times)
    path = mode_factor_coefficients(dc.lambda_m, 1)[2]
    lam = dc.lambda_M
    out = []
    for t in times:
        phi0, phi1, _ = coherent_trajectories(p.beta_M, lam, dc.omega_b, t)
        delta = 0.5 * (phi0 + (phi1 - lam))
        drive = delta, lam, delta.conjugate()
        weights = exponential_integrals(dc.omega_a, dc.omega_b, t)
        out.append(dc.gamma * _dot(path, [_dot(row, drive) for row in weights]).real)
    return out


def visibility_first_order(dc: DerivedCouplings, p: PhysicalParams, times) -> list:
    """Visibility of the rod-m cavity with the gravitational coupling treated
    to first order: V1(t) = exp(-lam_m**2*(1-cos(omega_a*t))) * |1 + i*x(t)|.

    The modulus makes the magnitude shift second order in gamma even though
    the state correction is first order.
    """
    times = _as_times(times)
    return [v * math.hypot(1.0, x) for v, x in
            zip(visibility_uncoupled(dc, times), first_order_bracket(dc, p, times))]


def visibility_shift(dc: DerivedCouplings, p: PhysicalParams, times) -> list:
    """Gravitational change of the rod-m visibility pattern, V1 - V0.

    The reference V0 is the fully uncoupled pattern, the
    :func:`visibility_uncoupled` of the gravity-free coupling Lam =
    ``dc.Lambda_m`` at the bare frequency ``p.bare_freq_a`` (what
    re-deriving the couplings at G = 0 gives), so the shift combines the
    frequency-pull effect omega_a vs. the bare frequency with the
    first-order state correction.  With V the :func:`visibility_uncoupled`
    at ``dc`` and x the :func:`first_order_bracket`, it is written without
    cancellation as

        V1 - V0 = V0*expm1(D) + V*x**2/(1 + hypot(1, x)),
        D = log V - log V0 = (Lam**2 - lam**2)*2sin(bare*t/2)**2
                             - lam**2*2sin((omega_a + bare)*t/2)*sin(pull*t/2),

    pull = omega_a - bare = s/(omega_a + bare) with s = omega_a**2 - bare**2
    recomputed from ``p`` (:func:`squared_shifts`).  Lam gives Lam**2 -
    lam**2 = Lam**2*pull*(omega_a**2 + omega_a*bare + bare**2)/omega_a**3, as
    lam**2 goes as omega**-3.  In dimensionless mode
    there is no frequency pull and only the state correction remains.
    """
    times = _as_times(times)
    lam, lam0, omega, bare = dc.lambda_m, dc.Lambda_m, dc.omega_a, p.bare_freq_a
    pull = squared_shifts(p)[0] / (omega + bare)
    gap = lam0 * lam0 * pull * (omega * omega + omega * bare + bare * bare) / omega**3
    uncoupled = DerivedCouplings(**{**dc.as_dict(), "omega_a": bare, "lambda_m": lam0})
    out = []
    for t, v0, v, x in zip(times, visibility_uncoupled(uncoupled, times),
                           visibility_uncoupled(dc, times), first_order_bracket(dc, p, times)):
        half = 0.5 * t
        sine = _cis(bare * half).imag
        delta = (gap * 2.0 * (sine * sine)
                 - lam * lam * 2.0 * _cis((omega + bare) * half).imag * _cis(pull * half).imag)
        try:
            growth = math.expm1(delta)
        except OverflowError:  # past about 709.78 the double is inf
            growth = math.inf
        out.append(v0 * growth + v * (x * x / (1.0 + math.hypot(1.0, x))))
    return out


def thermal_visibility(dc: DerivedCouplings, nbar: float, times) -> list:
    """Rod-m visibility when the rod starts in a thermal coherent-state
    mixture with mean occupation nbar:
    V(t) = exp(-lam_m**2 * (2*nbar + 1) * (1 - cos(omega_a*t))).
    """
    _check_occupation(nbar)
    times = _as_times(times)
    lam, omega = dc.lambda_m, dc.omega_a
    exponent = -(lam * lam) * (2.0 * nbar + 1.0)
    return [math.exp(exponent * (1.0 - _cis(omega * t).real)) for t in times]


def _path_row(lam: float, omega: float, t: float) -> tuple:
    """One rod's factor components applied to its gravity-free state, along
    the path difference: (lam/2)*(e^{-i*omega*t}, -2, e^{+i*omega*t})."""
    half = 0.5 * lam * _cis(-omega * t)
    return half, -lam, half.conjugate()


def linear_entropy_first_order(dc: DerivedCouplings, times) -> list:
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
       direction (|0>D(phi_0)|1> + |1>D(phi_1)|1>)/sqrt(2): X's rows are the
       :func:`_path_row` x and (0, 0, 1), since the a^dag row of a table is
       the same for both bits, so a rod's input amplitude adds only
       multiples of psi_1.
    3. Hence S = 2*gamma**2 ||X W Y^T||_F^2, Y rod b's rows (y, (0, 0, 1)):
       the entries of X W Y^T are x W y, x W[:, 2], W[2] y and W[2][2].
    """
    times = _as_times(times)
    scale = 2.0 * dc.gamma**2
    out = []
    for t in times:
        x = _path_row(dc.lambda_m, dc.omega_a, t)
        y = _path_row(dc.lambda_M, dc.omega_b, t)
        weights = exponential_integrals(dc.omega_a, dc.omega_b, t)
        weighted_y = [_dot(row, y) for row in weights]
        entries = (_dot(x, weighted_y), _dot(x, [row[2] for row in weights]),
                   weighted_y[2], weights[2][2])
        out.append(scale * sum(z.real * z.real + z.imag * z.imag for z in entries))
    return out


def _flow(dc: DerivedCouplings, times) -> list:
    """Photon c's path coherence, common * exp(i k.b) for an input of mean
    quadratures b: one pair (common, complex; k = J w, a 4-tuple) per time.

    In the quadratures r = (q_a, p_a, q_b, p_b), x = sqrt(2)*q, the sector
    with cavity-path bits (p, q) has the Hamiltonian r^T M r / 2 +
    (p*u + q*v)^T M r (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)):
    one quadratic form about the centre -(p*u + q*v).  Each sector turns its
    displaced input by the common flow S(t) = exp(J M t) about its own
    centre, so the element is a sum of displacement overlaps, in which the
    flow of the common vacuum and its phase cancel:

        1/4 exp(-|w|^2/4 + i b^T J w)
            sum_q exp(i (u/2 + q v)^T (M u t - J S^-1 u)),

    with w = (1 - S^-1) u; k comes from w, not from phases, which wrap.
    b and k are real, so :func:`visibility` reads only ``common`` and k_a.

    The flow's normal modes are in closed form.  With W = diag(omega_a,
    omega_b) and G = [[omega_a, 2 gamma], [2 gamma, omega_b]] the q-block of
    M, dq/dt = W p and dp/dt = -G q, so y = W^-1/2 q obeys y'' = -K y with
    K = W^1/2 G W^1/2, symmetric; one rotation by theta diagonalises it,
    to Omega_+^2 and Omega_-^2 = det K / Omega_+^2 (not mean - half, which
    cancels near the stability edge).  u has no p part, so with R the
    rotation and a = R^T W^-1/2 u its normal-mode amplitudes, S^-1(t) u has
    q part W^1/2 R cos(Omega t) a and p part W^-1/2 R Omega sin(Omega t) a.
    The modes are stable only while M is positive definite.
    """
    omega_a, omega_b, gamma = dc.omega_a, dc.omega_b, dc.gamma
    if not omega_a * omega_b > 4.0 * gamma * gamma:
        raise ParameterError(f"unstable coupled modes: omega_a*omega_b = {omega_a * omega_b!r} "
                             f"must exceed 4*gamma**2 = {4.0 * gamma * gamma!r}")
    times = _as_times(times)
    det_g = omega_a * omega_b - 4.0 * gamma * gamma
    # u and v are the centres' q parts (their p parts are 0), from G's explicit
    # inverse: G u = (drive_a, 0) and G v = (0, drive_b).
    drive_a = -math.sqrt(2.0) * dc.lambda_m * omega_a
    drive_b = -math.sqrt(2.0) * dc.lambda_M * omega_b
    u_a, u_b = omega_b * (drive_a / det_g), -2.0 * gamma * (drive_a / det_g)
    v_a, v_b = -2.0 * gamma * (drive_b / det_g), omega_a * (drive_b / det_g)
    root_a, root_b = math.sqrt(omega_a), math.sqrt(omega_b)  # W^1/2
    coupling = 2.0 * gamma * math.sqrt(omega_a * omega_b)  # K's off-diagonal
    half = math.hypot(0.5 * (omega_a * omega_a - omega_b * omega_b), coupling)
    plus = 0.5 * (omega_a * omega_a + omega_b * omega_b) + half
    fast, slow = math.sqrt(plus), math.sqrt(omega_a * omega_b * det_g / plus)
    theta = 0.5 * math.atan2(2.0 * coupling, omega_a * omega_a - omega_b * omega_b)
    c, s = math.cos(theta), math.sin(theta)  # R = [[c, -s], [s, c]]: K's eigenvectors
    mode_fast = u_a / root_a * c + u_b / root_b * s  # a = R^T W^-1/2 u
    mode_slow = u_b / root_b * c - u_a / root_a * s
    # Sector phases (u/2 + q v)^T (M u t - J S^-1 u), with M u = (drive_a, 0) in q.
    sectors = [(h_a * drive_a, h_a, h_b)
               for h_a, h_b in ((0.5 * u_a, 0.5 * u_b), (0.5 * u_a + v_a, 0.5 * u_b + v_b))]
    out = []
    for t in times:
        # S^-1(t) u: q part W^1/2 R cos(Omega t) a, p part W^-1/2 R Omega sin(Omega t) a.
        turn_fast, turn_slow = _cis(fast * t), _cis(slow * t)
        x, y = turn_fast.real * mode_fast, turn_slow.real * mode_slow
        q_a, q_b = (x * c - y * s) * root_a, (x * s + y * c) * root_b
        x, y = turn_fast.imag * (fast * mode_fast), turn_slow.imag * (slow * mode_slow)
        p_a, p_b = (x * c - y * s) / root_a, (x * s + y * c) / root_b
        w_a, w_b = u_a - q_a, u_b - q_b  # w = (1 - S^-1) u; its p part is -(p_a, p_b)
        turns = sum(_cis(t * pull - (p_a * h_a + p_b * h_b)) for pull, h_a, h_b in sectors)
        squared = (w_a * w_a + w_b * w_b) + (p_a * p_a + p_b * p_b)
        out.append((0.25 * turns * math.exp(-0.25 * squared),
                    (-p_a, -w_a, -p_b, -w_b)))  # k = J w = (w_pa, -w_qa, w_pb, -w_qb)
    return out


def visibility(dc: DerivedCouplings, nbar: float, times) -> list:
    """Exact visibility of photon c with rod m thermal at mean occupation
    ``nbar`` (0: coherent) and any coherent amplitudes.  A thermal rod m is
    a Gaussian mixture of coherent states whose rod-m mean quadratures have
    covariance nbar per quadrature, so the element of :func:`_flow` averages
    to a modulus of 2 |common| exp(-nbar |k_a|^2 / 2), k = (k_a, k_b).
    """
    _check_occupation(nbar)
    return [2.0 * abs(common) * math.exp(-0.5 * nbar * (k[0] * k[0] + k[1] * k[1]))
            for common, k in _flow(dc, times)]
