"""Parameter sets shared by the tests.

``reference_params`` reads the micro-rod reference setup from
``configs/reference.cfg``, so the tests and the command line run the same
file.  ``dimensionless_params`` builds an hbar = 1 set with the couplings
given directly, the regime of the exact-propagator scaling studies.
"""

from pathlib import Path

from optograv.config import load_params
from optograv.params import UNITS_DIMENSIONLESS, PhysicalParams

REFERENCE_CFG = Path(__file__).resolve().parent.parent / "configs" / "reference.cfg"


def reference_params() -> PhysicalParams:
    """Micro-rod reference setup: 1e-13 kg end masses 10 nm apart, 3 krad/s
    torsional frequency (second rod detuned to 0.9 of that), 450 Trad/s light
    in 10 cm cavities, both rods cooled to coherent amplitude 1."""
    return load_params(REFERENCE_CFG)


def dimensionless_params(
    gamma: float,
    omega_a: float = 1.0,
    omega_b: float = 0.9,
    lambda_m: float = 0.445,
    lambda_M: float = 0.521,
    beta_m: complex = 1.0 + 0.0j,
    beta_M: complex = 1.0 + 0.0j,
) -> PhysicalParams:
    """hbar = 1 parameter set with couplings given directly.

    The physical gravitational coupling (|gamma|/omega_a ~ 4e-7 at the
    reference values) sits below double-precision resolvability, so
    validation runs boost gamma by hand.  Mass/geometry fields are inert
    placeholders here.
    """
    return PhysicalParams(
        mass_m=1.0,
        mass_M=1.0,
        separation_h=1.0,
        cavity_length_d=1.0,
        bare_freq_a=omega_a,
        bare_freq_b=omega_b,
        light_freq_c=1.0,
        light_freq_d=1.0,
        beta_m=beta_m,
        beta_M=beta_M,
        hbar=1.0,
        units=UNITS_DIMENSIONLESS,
        direct_gamma=gamma,
        direct_lambda_m=lambda_m,
        direct_lambda_M=lambda_M,
    )
