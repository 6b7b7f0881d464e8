"""Parameter sweeps and gamma-scaling studies.

A sweep returns plain data: :class:`ScanResult` holds the axis, observable
and diagnostic names, one dict per row and the provenance, and the command
line writes it as CSV or JSON.

The scaling study is the quantitative backbone of verification: the
physical gravitational coupling is too weak for the exact propagator to
resolve in double precision (|gamma|/omega_a ~ 4e-7 at the reference
parameters), so the first-order formulas are validated in dimensionless
mode with boosted gamma, where their residuals against exact propagation
must fall off with the predicted powers of gamma.  Its gammas must be
nonzero and span at least a factor of 4.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from . import analytic
from ._version import __version__
from .config import fingerprint, fingerprint_params
from .errors import OptogravError, ParameterError
from .params import (
    UNITS_DIMENSIONLESS,
    PhysicalParams,
    derive_couplings,
)

if TYPE_CHECKING:
    from .oracle import HilbertSpec

VALID_AXES = frozenset(f.name for f in fields(PhysicalParams) if f.name != "units")

#: Each observable and what it needs: "" nothing but the couplings, "t" the
#: plan's time, "oracle" the time and oracle_enabled.
OBSERVABLES = {
    **dict.fromkeys(("delta_T", "omega_a", "omega_b", "gamma", "lambda_m", "lambda_M"), ""),
    **dict.fromkeys(("visibility", "visibility_shift", "entropy"), "t"),
    **dict.fromkeys(("visibility_exact", "entropy_exact", "interaction_residual"), "oracle"),
}

MAX_GRID = 1_000_000


@dataclass(frozen=True)
class ScanPlan:
    """Cartesian sweep description.

    ``axes`` holds (parameter name, values) pairs; an empty tuple means a
    single run at the base parameters.  Time-dependent observables read
    ``observable_time`` (finite and >= 0); oracle-backed ones additionally
    require ``oracle_enabled`` (and honour ``n_max`` when set).
    """

    axes: tuple = ()
    observables: tuple = ("delta_T",)
    mode: str = "si"
    oracle_enabled: bool = False
    seed: int = 0
    observable_time: float | None = None
    n_max: int | None = None

    def __post_init__(self):
        if not self.observables:
            raise ParameterError(f"empty observable list; valid observables: {tuple(OBSERVABLES)}")
        for kind, names in (("axis", [name for name, _ in self.axes]),
                            ("observable", self.observables)):
            repeated = sorted({name for name in names if names.count(name) > 1})
            if repeated:
                raise ParameterError(f"{kind} listed more than once: {', '.join(repeated)}")
        size = 1
        for name, values in self.axes:
            if name not in VALID_AXES:
                raise ParameterError(
                    f"unknown axis key {name!r}; valid keys: {sorted(VALID_AXES)}"
                )
            if len(values) == 0:
                raise ParameterError(f"axis {name!r} has no values")
            size *= len(values)
        if size > MAX_GRID:
            raise ParameterError(f"grid size {size} exceeds {MAX_GRID}")
        for obs in self.observables:
            if obs not in OBSERVABLES:
                raise ParameterError(
                    f"unknown observable {obs!r}; valid observables: {tuple(OBSERVABLES)}"
                )
            if OBSERVABLES[obs] == "oracle" and not self.oracle_enabled:
                raise ParameterError(f"observable {obs!r} requires oracle_enabled = true")
            if OBSERVABLES[obs] and self.observable_time is None:
                raise ParameterError(f"observable {obs!r} requires a 't' value in the plan")
        if self.oracle_enabled and self.observable_time is None:
            raise ParameterError("oracle_enabled scans need a 't' value for diagnostics")
        if self.n_max is not None:
            if not self.oracle_enabled:
                raise ParameterError("n_max sets the oracle truncation; it needs "
                                     "oracle_enabled = true")
            if self.n_max < 1:
                raise ParameterError(f"n_max must be >= 1, got {self.n_max}")
        t = self.observable_time
        if t is not None and not (math.isfinite(t) and t >= 0):
            raise ParameterError(f"the plan's 't' must be finite and >= 0, got {t!r}")


@dataclass
class ScanResult:
    """One sweep: each row holds ``axes``, ``values`` and ``diagnostics``
    dicts keyed by the corresponding names."""

    axis_names: tuple
    observable_names: tuple
    diagnostic_names: tuple
    rows: list
    provenance: dict


def _apply_axis(base: PhysicalParams, name: str, value) -> PhysicalParams:
    if name in ("beta_m", "beta_M"):
        return replace(base, **{name: complex(value)})
    return replace(base, **{name: float(value)})


def _row_values(plan: ScanPlan, p: PhysicalParams) -> tuple[dict, dict]:
    dc = derive_couplings(p)
    t = plan.observable_time
    values: dict = {}
    diagnostics: dict = {"error": ""}
    if plan.oracle_enabled:
        from . import gaussian, oracle

        spec = (oracle.HilbertSpec(plan.n_max, plan.n_max) if plan.n_max is not None
                else oracle.default_spec(p, dc))
        oracle.check_adequacy(spec, dc, p)
        psi_t = oracle.Propagator(dc, spec).evolve(oracle.initial_state(p, spec), t)
    closed_forms = {
        "visibility": lambda: analytic.visibility_uncoupled(dc, [t]),
        "visibility_shift": lambda: analytic.visibility_shift(dc, p, [t]),
        "entropy": lambda: analytic.linear_entropy_first_order(dc, [t]),
    }
    for obs in plan.observables:
        if not OBSERVABLES[obs]:
            values[obs] = getattr(dc, obs)
        elif obs in closed_forms:
            # An overflow is reported once, as the row's error, not as a numpy warning.
            with np.errstate(over="ignore", invalid="ignore"):
                values[obs] = float(closed_forms[obs]()[0])
        elif obs == "visibility_exact":
            values[obs] = oracle.visibility_exact(psi_t)
        elif obs == "entropy_exact":
            values[obs] = oracle.linear_entropy_exact(psi_t)
        elif obs == "interaction_residual":
            values[obs] = float(oracle.interaction_picture_residual(dc, spec, [t])[0])
    if plan.oracle_enabled or any(OBSERVABLES[obs] for obs in plan.observables):
        analytic.check_outputs(dc, [t], values)
    if plan.oracle_enabled:
        exact = float(gaussian.visibility(dc, 0.0, [t])[0])
        diagnostics["truncation_delta"] = abs(oracle.visibility_exact(psi_t) - exact)
    return values, diagnostics


def run_scan(plan: ScanPlan, base: PhysicalParams) -> ScanResult:
    """Evaluate the plan's observables on the Cartesian grid.

    Rows keep the axis iteration order (last axis fastest).  Per-row
    parameter, truncation, numerical and arithmetic errors are captured in
    the diagnostics instead of aborting the sweep, and the affected
    observables become NaN; any other exception propagates.  Oracle rows
    report ``truncation_delta``, the distance of the truncated visibility
    from the exact one (:func:`gaussian.visibility`).  Identical
    (plan, base, seed) re-runs produce byte-identical emissions.
    """
    axis_names = tuple(name for name, _ in plan.axes)
    diagnostic_names = ("error",) + (("truncation_delta",) if plan.oracle_enabled else ())
    rows = []
    for combo in itertools.product(*(values for _, values in plan.axes)):
        try:
            p_row = base
            for name, value in zip(axis_names, combo):
                p_row = _apply_axis(p_row, name, value)
            values, diagnostics = _row_values(plan, p_row)
        except (OptogravError, ArithmeticError, np.linalg.LinAlgError) as exc:
            # A row's bad inputs or numerics never abort the sweep; bugs propagate.
            values = {obs: float("nan") for obs in plan.observables}
            diagnostics = {name: float("nan") for name in diagnostic_names}
            diagnostics["error"] = f"{type(exc).__name__}: {exc}"
        rows.append({"axes": dict(zip(axis_names, combo)), "values": values,
                     "diagnostics": diagnostics})
    provenance = {
        "version": __version__,
        "seed": plan.seed,
        "plan_fingerprint": fingerprint(asdict(plan)),
        "params_fingerprint": fingerprint_params(base),
    }
    return ScanResult(
        axis_names=axis_names,
        observable_names=tuple(plan.observables),
        diagnostic_names=diagnostic_names,
        rows=rows,
        provenance=provenance,
    )


def scaling_study(base: PhysicalParams, gammas, t: float, spec: HilbertSpec) -> dict:
    """Residual decay of the first-order machinery against exact propagation.

    One recursion propagates every boosted gamma exactly (a
    :class:`oracle.Propagator` family on ``spec``).  For each gamma,
    assemble the first-order state and record
      state      |psi_exact - psi0 - psi1|        (expected slope 2),
      visibility |V_exact - V_first_order|        (expected slope >= 2),
      entropy    |S_exact - S_perturbative|       (expected slope >= 3).
    Returns {family: (slope, monotone)}: the log-log least-squares slope of
    the family's residuals against |gamma| (NaN unless all are positive)
    and whether they grow strictly with |gamma|.  Dimensionless mode only;
    ``t`` must be finite and > 0, since at t = 0 no residual is positive.
    """
    if base.units != UNITS_DIMENSIONLESS:
        raise ParameterError("scaling_study requires dimensionless-mode parameters")
    if not (math.isfinite(t) and t > 0):
        raise ParameterError(f"the scaling study's t must be finite and > 0, got {t!r}")
    gammas = tuple(float(g) for g in gammas)
    if len(gammas) < 3:
        raise ParameterError("need at least 3 gamma values for a slope fit")
    magnitudes = sorted(abs(g) for g in gammas)
    if magnitudes[0] <= 0 or magnitudes[-1] / magnitudes[0] < 4.0:
        raise ParameterError("gamma values must be nonzero and span at least a factor of 4")
    from . import oracle

    order = np.argsort(np.abs(np.asarray(gammas)))
    gammas = tuple(gammas[i] for i in order)
    dc0 = derive_couplings(replace(base, direct_gamma=0.0))
    oracle.check_adequacy(spec, dc0, base)
    psi0_t = oracle.closed_form_state(dc0, base, spec, t)
    # The input state does not depend on gamma.
    psi0 = oracle.initial_state(base, spec)
    exact = oracle.Propagator(dc0, spec, gammas=gammas).evolve(psi0, t)
    residuals = {"state": [], "visibility": [], "entropy": []}
    for g, psi_exact in zip(gammas, exact):
        p_g = replace(base, direct_gamma=g)
        dc = derive_couplings(p_g)
        psi1 = oracle.dyson_first_order_state(dc, p_g, spec, t)
        residuals["state"].append(float(np.linalg.norm(psi_exact - psi0_t - psi1)))
        v_formula = float(analytic.visibility_first_order(dc, p_g, [t])[0])
        residuals["visibility"].append(abs(oracle.visibility_exact(psi_exact) - v_formula))
        s_pert = float(analytic.linear_entropy_first_order(dc, [t])[0])
        residuals["entropy"].append(abs(oracle.linear_entropy_exact(psi_exact) - s_pert))
    log_gammas = np.log([abs(g) for g in gammas])
    study = {}
    for name, r in residuals.items():
        positive = all(x > 0.0 for x in r)
        slope = float(np.polyfit(log_gammas, np.log(r), 1)[0]) if positive else math.nan
        study[name] = (slope, all(r2 > r1 > 0.0 for r1, r2 in zip(r, r[1:])))
    return study
