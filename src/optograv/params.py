"""Physical parameters of the two-rod optomechanical setup and everything
derived from them: gravitationally shifted mode frequencies, optomechanical
and gravitational coupling constants, the revival-period shift, the thermal
occupation, the decoherence-feasibility threshold and the revived-peak width
estimate.  Pure ``math``: nothing here imports numpy.

Geometry: two torsional micro-rods (end masses ``m`` and ``M``) suspended a
vertical distance ``h`` apart, each forming the movable end mirror of an
optical cavity of length ``d``.  Expanding the Newtonian attraction between
the end masses to quadratic order in the relative angle yields a bilinear
position-position coupling between the two mechanical modes and shifts each
bare frequency upward by the other rod's mass term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .constants import G_NEWTON, HBAR, K_BOLTZMANN
from .errors import ParameterError

TWO_PI = 2.0 * math.pi

UNITS_SI = "si"
UNITS_DIMENSIONLESS = "dimensionless"

#: Exponent guard: exp(x) overflows near 710, and the occupation is
#: indistinguishable from zero long before that.
_NBAR_EXP_CUTOFF = 700.0

_POSITIVE_FIELDS = (
    "mass_m",
    "mass_M",
    "separation_h",
    "cavity_length_d",
    "bare_freq_a",
    "bare_freq_b",
    "light_freq_c",
    "light_freq_d",
    "hbar",
)


@dataclass(frozen=True)
class PhysicalParams:
    """Free knobs of the experiment.

    All quantities are SI when ``units == "si"``.  In dimensionless mode
    (``hbar = 1`` convention) the mode frequencies are taken as given and the
    couplings are supplied directly through the ``direct_*`` fields, which is
    the only regime where the exact propagator can resolve first-order
    gravitational effects in double precision.  Frequencies are angular
    (rad/s).
    """

    mass_m: float  # end-mass of rod m, kg
    mass_M: float  # end-mass of rod M, kg
    separation_h: float  # vertical rod separation, m
    cavity_length_d: float  # optical cavity length, m
    bare_freq_a: float  # uncoupled frequency of rod m, rad/s
    bare_freq_b: float  # uncoupled frequency of rod M, rad/s
    light_freq_c: float  # input light frequency, cavity of rod m, rad/s
    light_freq_d: float  # input light frequency, cavity of rod M, rad/s
    beta_m: complex = 1.0 + 0.0j  # initial coherent amplitude, rod m
    beta_M: complex = 1.0 + 0.0j  # initial coherent amplitude, rod M
    grav_constant_G: float = G_NEWTON
    hbar: float = HBAR
    units: str = UNITS_SI
    # Dimensionless-mode couplings, bypassing the SI formulas.
    direct_gamma: float | None = None
    direct_lambda_m: float | None = None
    direct_lambda_M: float | None = None

    def __post_init__(self):
        if self.units not in (UNITS_SI, UNITS_DIMENSIONLESS):
            raise ParameterError(
                f"units must be '{UNITS_SI}' or '{UNITS_DIMENSIONLESS}', got {self.units!r}"
            )
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ParameterError(f"{name} must be a finite positive number, got {value!r}")
        if not (math.isfinite(self.grav_constant_G) and self.grav_constant_G >= 0):
            raise ParameterError(
                f"grav_constant_G must be finite and non-negative, got {self.grav_constant_G!r}"
            )
        for name in ("beta_m", "beta_M"):
            value = complex(getattr(self, name))
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ParameterError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        directs = (self.direct_gamma, self.direct_lambda_m, self.direct_lambda_M)
        if self.units == UNITS_DIMENSIONLESS:
            for name, value in zip(
                ("direct_gamma", "direct_lambda_m", "direct_lambda_M"), directs
            ):
                if value is None or not math.isfinite(value):
                    raise ParameterError(
                        f"dimensionless mode requires a finite {name}, got {value!r}"
                    )
            if self.direct_lambda_m < 0 or self.direct_lambda_M < 0:
                raise ParameterError("direct optomechanical couplings must be >= 0")
        elif any(v is not None for v in directs):
            raise ParameterError("direct_* couplings are only allowed in dimensionless mode")

    def as_dict(self) -> dict:
        """Plain-type field mapping, suitable for fingerprinting and JSON."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, complex):
                value = [value.real, value.imag]
            out[f.name] = value
        return out


@dataclass(frozen=True)
class DerivedCouplings:
    """Coupling constants of the interacting system.

    ``omega_a``/``omega_b`` are the gravitationally shifted mode frequencies,
    ``lambda_m``/``lambda_M`` the optomechanical couplings evaluated at those
    shifted frequencies, and ``Lambda_m``/``Lambda_M`` the couplings of the
    gravity-free system.  ``gamma`` is the bilinear gravitational coupling
    (non-positive; zero exactly when G = 0) and ``delta_T`` the shift of the
    visibility revival period, the most accessible experimental signature.
    """

    omega_a: float  # rad/s
    omega_b: float  # rad/s
    lambda_m: float  # dimensionless
    lambda_M: float  # dimensionless
    Lambda_m: float  # dimensionless, gravity-free
    Lambda_M: float  # dimensionless, gravity-free
    gamma: float  # rad/s, <= 0 in SI mode
    delta_T: float  # s

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _optomech_coupling(light_freq, cavity_length, mass, mech_freq, hbar):
    # Shared by the coupled and uncoupled variants so that they are
    # bitwise-identical when the frequencies coincide (G = 0).
    return light_freq / (2.0 * cavity_length * mech_freq) * math.sqrt(
        hbar / (mass * mech_freq)
    )


def derive_couplings(p: PhysicalParams) -> DerivedCouplings:
    """Compute every derived coupling from the free parameters.

    SI mode evaluates the exact square-root frequency shift
    omega = sqrt(bare**2 + G*other_mass/h**3); the frequently quoted
    small-shift approximation G*other_mass/(2*h**3*bare) is documentation
    only and never used.  Dimensionless mode passes the ``direct_*``
    couplings through unchanged (no frequency shift, delta_T = 0).

    Raises
    ------
    ParameterError
        If any derived quantity fails to be finite (the message names it),
        or a power overflows or a divisor underflows to zero on the way.
    """
    try:
        dc = _couplings(p)
    except (OverflowError, ZeroDivisionError):
        raise ParameterError("derived couplings overflow or underflow double precision; "
                             "check the inputs") from None
    for name, value in dc.as_dict().items():
        if not math.isfinite(value):
            raise ParameterError(f"derived coupling {name} is not finite; check the inputs")
    return dc


def _couplings(p: PhysicalParams) -> DerivedCouplings:
    """:func:`derive_couplings` before its checks: the float arithmetic alone."""
    bare_a, bare_b = p.bare_freq_a, p.bare_freq_b
    if p.units == UNITS_DIMENSIONLESS:
        dc = DerivedCouplings(
            omega_a=bare_a,
            omega_b=bare_b,
            lambda_m=p.direct_lambda_m,
            lambda_M=p.direct_lambda_M,
            Lambda_m=p.direct_lambda_m,
            Lambda_M=p.direct_lambda_M,
            gamma=p.direct_gamma,
            delta_T=0.0,
        )
    else:
        light_c, light_d = p.light_freq_c, p.light_freq_d
        G = p.grav_constant_G
        h3 = p.separation_h**3
        shift_a, shift_b = squared_shifts(p)
        # Keep the G = 0 path bitwise equal to the bare constants.
        omega_a = bare_a if shift_a == 0.0 else math.sqrt(bare_a**2 + shift_a)
        omega_b = bare_b if shift_b == 0.0 else math.sqrt(bare_b**2 + shift_b)
        gamma = (
            0.0
            if G == 0.0
            else -(G / (2.0 * h3)) * math.sqrt(p.mass_M * p.mass_m / (omega_a * omega_b))
        )
        dc = DerivedCouplings(
            omega_a=omega_a,
            omega_b=omega_b,
            lambda_m=_optomech_coupling(light_c, p.cavity_length_d, p.mass_m, omega_a, p.hbar),
            lambda_M=_optomech_coupling(light_d, p.cavity_length_d, p.mass_M, omega_b, p.hbar),
            Lambda_m=_optomech_coupling(light_c, p.cavity_length_d, p.mass_m, bare_a, p.hbar),
            Lambda_M=_optomech_coupling(light_d, p.cavity_length_d, p.mass_M, bare_b, p.hbar),
            gamma=gamma,
            # 2*pi/bare_a - 2*pi/omega_a with omega_a - bare_a = shift_a / (omega_a + bare_a):
            # no cancellation, and exactly 0 at G = 0.
            delta_T=TWO_PI * shift_a / ((omega_a + bare_a) * bare_a * omega_a),
        )
    return dc


def squared_shifts(p: PhysicalParams) -> tuple[float, float]:
    """omega**2 - bare**2 of modes a and b: G*M/h**3 and G*m/h**3 in SI mode,
    0 in dimensionless mode."""
    if p.units == UNITS_DIMENSIONLESS:
        return 0.0, 0.0
    h3 = p.separation_h**3
    return p.grav_constant_G * p.mass_M / h3, p.grav_constant_G * p.mass_m / h3


def without_gravity(p: PhysicalParams) -> PhysicalParams:
    """Same setup with the gravitational interaction switched off."""
    if p.units == UNITS_DIMENSIONLESS:
        return replace(p, direct_gamma=0.0)
    return replace(p, grav_constant_G=0.0)


def thermal_occupation(p: PhysicalParams, temperature_T: float) -> float:
    """Mean thermal phonon number of mode a at temperature T, at the shifted
    frequency omega_a of the coupled system.  SI mode only (temperatures are
    Kelvin)."""
    if p.units != UNITS_SI:
        raise ParameterError("thermal_occupation is defined for SI-mode parameters only")
    if not (math.isfinite(temperature_T) and temperature_T >= 0):
        raise ParameterError(f"temperature_T must be >= 0, got {temperature_T!r}")
    thermal_energy = K_BOLTZMANN * temperature_T
    if thermal_energy == 0.0:  # T = 0, or k_B*T underflows
        return 0.0
    x = p.hbar * derive_couplings(p).omega_a / thermal_energy
    if x == 0.0:  # hbar*omega_a/(k_B*T) underflows: the occupation overflows
        return math.inf
    return 0.0 if x > _NBAR_EXP_CUTOFF else 1.0 / math.expm1(x)


def feasibility_bound(p: PhysicalParams, Q: float | None = None, T: float | None = None):
    """Decoherence-feasibility threshold Q = k_B*T / (hbar*omega_a).

    The underlying condition is an order-of-magnitude criterion (dephasing
    slower than the mechanical frequency); it is treated here as an equality
    and should be read as a threshold estimate, not a sharp bound.  Given Q,
    returns the maximum workable temperature; given T, the required quality
    factor.
    """
    if p.units != UNITS_SI:
        raise ParameterError("feasibility_bound is defined for SI-mode parameters only")
    if (Q is None) == (T is None):
        raise ParameterError("provide exactly one of Q or T")
    omega_a = derive_couplings(p).omega_a
    if Q is not None:
        if not (math.isfinite(Q) and Q >= 0):
            raise ParameterError(f"Q must be >= 0, got {Q!r}")
        return Q * p.hbar * omega_a / K_BOLTZMANN
    if not (math.isfinite(T) and T >= 0):
        raise ParameterError(f"T must be >= 0, got {T!r}")
    return K_BOLTZMANN * T / (p.hbar * omega_a)


def revival_peak_width(dc: DerivedCouplings, p: PhysicalParams, temperature_T: float) -> float:
    """Scaling estimate of the revived visibility peak's width, in radians of
    omega_a*t: 1 / (lam_m * sqrt(4*k_B*T/(hbar*omega_a) + 2)), evaluated as
    1 / (2*lam_m * sqrt(k_B*T/(hbar*omega_a) + 1/2)), the same double wherever
    4*k_B*T/(hbar*omega_a) does not overflow.

    A scaling estimate, not an exact half-maximum width (it agrees with the
    numerically measured half-width of the thermal pattern to within a
    factor of two).  SI mode only.
    """
    if p.units != UNITS_SI:
        raise ParameterError("revival_peak_width is defined for SI-mode parameters only")
    if not (math.isfinite(temperature_T) and temperature_T >= 0):
        raise ParameterError(f"temperature_T must be >= 0, got {temperature_T!r}")
    ratio = K_BOLTZMANN * temperature_T / (p.hbar * dc.omega_a)
    return 1.0 / (2.0 * dc.lambda_m * math.sqrt(ratio + 0.5))
