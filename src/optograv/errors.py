"""Exception hierarchy.

The CLI maps these onto its exit-code contract:
user/config problems -> 1, tolerance failures -> 2, numerical
failures (inadequate truncation, dimension guard, lost norm, eigensolver)
-> 3.
"""


class OptogravError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(OptogravError):
    """Malformed or incomplete configuration input (carries line numbers)."""


class ParameterError(OptogravError):
    """Physically invalid parameter value; message names the offending field."""


class DimensionLimitError(OptogravError):
    """Requested Hilbert-space dimension, or the Chebyshev tables of one
    propagation, exceed their desk-scale guard."""


class TruncationError(OptogravError):
    """Fock truncation too small for the requested coherent amplitudes."""

    def __init__(self, message, suggested_n_max=None):
        super().__init__(message)
        self.suggested_n_max = suggested_n_max


class NumericalError(OptogravError):
    """A numerical invariant failed (e.g. propagation lost the state's norm);
    carries the measured values in ``diagnostics``."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ToleranceError(OptogravError):
    """A verification run measured a value outside its allowed tolerance."""
