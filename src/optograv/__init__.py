"""Simulation of two gravitationally coupled optomechanical oscillators.

The package predicts the experimental signatures of the Newtonian coupling
between two cavity-mirror micro-rods: the shift of the interference
visibility's revival period, the change of the visibility pattern, and the
entanglement the coupling generates; an exact truncated-Fock-space
propagator cross-checks every closed-form result.
"""

from ._version import __version__
from .errors import (
    ConfigError,
    DimensionLimitError,
    NumericalError,
    OptogravError,
    ParameterError,
    ToleranceError,
    TruncationError,
)
from .params import (
    DerivedCouplings,
    PhysicalParams,
    ThermalEnv,
    derive_couplings,
    dimensionless_params,
    feasibility_bound,
    gravitational_potential,
    reference_params,
    thermal_env,
    without_gravity,
)
from .analytic import (
    VisibilityTrace,
    coherent_trajectories,
    linear_entropy_first_order,
    revival_peak_width,
    thermal_visibility,
    visibility_first_order,
    visibility_shift,
    visibility_uncoupled,
)
from .oracle import (
    HilbertSpec,
    Propagator,
    StateVector,
    closed_form_state,
    dyson_first_order_state,
    initial_state,
    linear_entropy_exact,
    thermal_visibility_montecarlo,
    visibility_exact,
)
from .scan import ScanPlan, ScanResult, run_scan, scaling_study

__all__ = [
    "__version__",
    "OptogravError",
    "ConfigError",
    "ParameterError",
    "DimensionLimitError",
    "TruncationError",
    "NumericalError",
    "ToleranceError",
    "PhysicalParams",
    "DerivedCouplings",
    "ThermalEnv",
    "derive_couplings",
    "without_gravity",
    "gravitational_potential",
    "thermal_env",
    "feasibility_bound",
    "reference_params",
    "dimensionless_params",
    "VisibilityTrace",
    "coherent_trajectories",
    "visibility_uncoupled",
    "visibility_first_order",
    "visibility_shift",
    "thermal_visibility",
    "revival_peak_width",
    "linear_entropy_first_order",
    "HilbertSpec",
    "StateVector",
    "Propagator",
    "initial_state",
    "closed_form_state",
    "visibility_exact",
    "linear_entropy_exact",
    "dyson_first_order_state",
    "thermal_visibility_montecarlo",
    "ScanPlan",
    "ScanResult",
    "run_scan",
    "scaling_study",
]
