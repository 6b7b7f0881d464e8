"""Simulation of two gravitationally coupled optomechanical oscillators.

The package predicts the experimental signatures of the Newtonian coupling
between two cavity-mirror micro-rods: the shift of the interference
visibility's revival period, the change of the visibility pattern, and the
entanglement the coupling generates; an exact truncated-Fock-space
propagator cross-checks every closed-form result.
"""

import importlib

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
    derive_couplings,
    feasibility_bound,
    revival_peak_width,
    thermal_occupation,
    without_gravity,
)

#: Names of the closed forms, the Fock layer, the sweeps and the Gaussian
#: layer, each loaded on first use (PEP 562): these modules import numpy, and
#: ``import optograv`` and the scalar commands ``derive`` and ``feasibility``
#: need none of them.
_LAZY = {
    "analytic": ("coherent_trajectories", "linear_entropy_first_order", "thermal_visibility",
                 "visibility_first_order", "visibility_shift", "visibility_uncoupled"),
    "oracle": ("HilbertSpec", "Propagator", "closed_form_state", "dyson_first_order_state",
               "linear_entropy_exact", "visibility_exact"),
    "scan": ("ScanPlan", "ScanResult", "run_scan", "scaling_study"),
    "gaussian": ("thermal_visibility_montecarlo",),
}


def __getattr__(name):
    module = next((m for m, names in _LAZY.items() if name == m or name in names), None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    return value if name == module else getattr(value, name)


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
    "derive_couplings",
    "without_gravity",
    "thermal_occupation",
    "feasibility_bound",
    "coherent_trajectories",
    "visibility_uncoupled",
    "visibility_first_order",
    "visibility_shift",
    "thermal_visibility",
    "revival_peak_width",
    "linear_entropy_first_order",
    "HilbertSpec",
    "Propagator",
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
