"""Parameter sweeps and gamma-scaling studies.

The scaling study is the quantitative backbone of verification: the
physical gravitational coupling is too weak for the exact propagator to
resolve in double precision (|gamma|/omega_a ~ 4e-7 at the reference
parameters), so the first-order formulas are validated in dimensionless
mode with boosted gamma, where their residuals against exact propagation
must fall off with the predicted powers of gamma.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import analytic, oracle
from ._version import __version__
from .config import fingerprint, fingerprint_params
from .errors import OptogravError, ParameterError
from .params import (
    UNITS_DIMENSIONLESS,
    PhysicalParams,
    derive_couplings,
)

VALID_AXES = frozenset(
    f.name
    for f in fields(PhysicalParams)
    if f.name not in ("units", "frequency_convention")
)

#: Observables that need a time value.
_TIME_OBSERVABLES = frozenset(
    ("visibility", "visibility_shift", "entropy", "visibility_exact", "entropy_exact",
     "interaction_residual")
)
#: Observables that need oracle_enabled.
_ORACLE_OBSERVABLES = frozenset(("visibility_exact", "entropy_exact", "interaction_residual"))

OBSERVABLES = (
    "delta_T",
    "omega_a",
    "omega_b",
    "gamma",
    "lambda_m",
    "lambda_M",
    "visibility",
    "visibility_shift",
    "entropy",
    "visibility_exact",
    "entropy_exact",
    "interaction_residual",
)

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
            raise ParameterError(f"empty observable list; valid observables: {OBSERVABLES}")
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
                    f"unknown observable {obs!r}; valid observables: {OBSERVABLES}"
                )
            if obs in _ORACLE_OBSERVABLES and not self.oracle_enabled:
                raise ParameterError(f"observable {obs!r} requires oracle_enabled = true")
            if obs in _TIME_OBSERVABLES and self.observable_time is None:
                raise ParameterError(f"observable {obs!r} requires a 't' value in the plan")
        if self.oracle_enabled and self.observable_time is None:
            raise ParameterError("oracle_enabled scans need a 't' value for diagnostics")
        t = self.observable_time
        if t is not None and not (math.isfinite(t) and t >= 0):
            raise ParameterError(f"the plan's 't' must be finite and >= 0, got {t!r}")

    def as_dict(self) -> dict:
        return {
            "axes": [[name, list(values)] for name, values in self.axes],
            "observables": list(self.observables),
            "mode": self.mode,
            "oracle_enabled": self.oracle_enabled,
            "seed": self.seed,
            "observable_time": self.observable_time,
            "n_max": self.n_max,
        }


@dataclass
class ScanResult:
    axis_names: tuple
    observable_names: tuple
    diagnostic_names: tuple
    rows: list
    provenance: dict

    def to_csv_text(self) -> str:
        lines = [f"# optograv scan" ]
        for key in sorted(self.provenance):
            lines.append(f"# {key}={self.provenance[key]}")
        header = list(self.axis_names) + list(self.observable_names) + list(
            self.diagnostic_names
        )
        lines.append(",".join(header))
        for row in self.rows:
            cells = [_fmt(row["axes"][name]) for name in self.axis_names]
            cells += [_fmt(row["values"][name]) for name in self.observable_names]
            cells += [_fmt(row["diagnostics"][name]) for name in self.diagnostic_names]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "provenance": self.provenance,
            "axis_names": list(self.axis_names),
            "observable_names": list(self.observable_names),
            "diagnostic_names": list(self.diagnostic_names),
            "rows": self.rows,
        }


def _fmt(value) -> str:
    if isinstance(value, str):
        return '"' + value.replace('"', "'") + '"' if "," in value or '"' in value else value
    if isinstance(value, complex):
        return repr(value)
    if value is None:
        return ""
    return repr(float(value))


def _apply_axis(base: PhysicalParams, name: str, value) -> PhysicalParams:
    if name in ("beta_m", "beta_M"):
        return replace(base, **{name: complex(value)})
    return replace(base, **{name: float(value)})


def _row_values(plan: ScanPlan, p: PhysicalParams) -> tuple[dict, dict]:
    dc = derive_couplings(p)
    t = plan.observable_time
    values: dict = {}
    diagnostics: dict = {"error": ""}
    spec = None
    if plan.oracle_enabled:
        spec = oracle.HilbertSpec(plan.n_max, plan.n_max) if plan.n_max else oracle.default_spec(p, dc)
    psi_t = None

    def get_state():
        nonlocal psi_t
        if psi_t is None:
            oracle.check_adequacy(spec, dc, p)
            psi_t = oracle.Propagator(dc, spec).evolve(oracle.initial_state(p, spec), [t])[0]
        return psi_t

    for obs in plan.observables:
        if obs in ("delta_T", "omega_a", "omega_b", "gamma", "lambda_m", "lambda_M"):
            values[obs] = getattr(dc, obs)
        elif obs == "visibility":
            values[obs] = float(analytic.visibility_uncoupled(dc, p, "m", [t]).values[0])
        elif obs == "visibility_shift":
            values[obs] = float(analytic.visibility_shift(dc, p, [t]).values[0])
        elif obs == "entropy":
            values[obs] = float(analytic.linear_entropy_first_order(dc, [t])[0])
        elif obs == "visibility_exact":
            values[obs] = oracle.visibility_exact(get_state())
        elif obs == "entropy_exact":
            values[obs] = oracle.linear_entropy_exact(get_state())
        elif obs == "interaction_residual":
            values[obs] = oracle.InteractionPictureResidual(dc, spec).residual(t)
    if plan.oracle_enabled:
        state = get_state()
        bigger = oracle.HilbertSpec(spec.n_max_a + 8, spec.n_max_b + 8)
        psi_big = oracle.Propagator(dc, bigger).evolve(oracle.initial_state(p, bigger), [t])[0]
        diagnostics["truncation_delta"] = abs(
            oracle.visibility_exact(state) - oracle.visibility_exact(psi_big)
        )
    return values, diagnostics


def run_scan(plan: ScanPlan, base: PhysicalParams) -> ScanResult:
    """Evaluate the plan's observables on the Cartesian grid.

    Rows keep the axis iteration order (last axis fastest).  Per-row
    parameter, truncation, numerical and arithmetic errors are captured in
    the diagnostics instead of aborting the sweep, and the affected
    observables become NaN; any other exception propagates.  Identical
    (plan, base, seed) re-runs produce byte-identical emissions.
    """
    axis_names = tuple(name for name, _ in plan.axes)
    diagnostic_names = ("error",) + (("truncation_delta",) if plan.oracle_enabled else ())
    rows = []
    value_lists = [values for _, values in plan.axes]
    for combo in itertools.product(*value_lists):
        p_row = base
        axes_out = {}
        for name, value in zip(axis_names, combo):
            axes_out[name] = value
        row = {"axes": axes_out, "values": {}, "diagnostics": {"error": ""}}
        try:
            for name, value in zip(axis_names, combo):
                p_row = _apply_axis(p_row, name, value)
            values, diagnostics = _row_values(plan, p_row)
            row["values"] = values
            row["diagnostics"] = diagnostics
        except (OptogravError, ArithmeticError, np.linalg.LinAlgError) as exc:
            # A row's bad inputs or numerics never abort the sweep; bugs propagate.
            row["values"] = {obs: float("nan") for obs in plan.observables}
            diagnostics = {"error": f"{type(exc).__name__}: {exc}"}
            for name in diagnostic_names[1:]:
                diagnostics[name] = float("nan")
            row["diagnostics"] = diagnostics
        for name in diagnostic_names:
            row["diagnostics"].setdefault(name, "")
        rows.append(row)
    provenance = {
        "version": __version__,
        "seed": plan.seed,
        "plan_fingerprint": fingerprint(plan.as_dict()),
        "params_fingerprint": fingerprint_params(base),
    }
    return ScanResult(
        axis_names=axis_names,
        observable_names=tuple(plan.observables),
        diagnostic_names=diagnostic_names,
        rows=rows,
        provenance=provenance,
    )


@dataclass
class ScalingStudy:
    """Log-log residual fits against gamma.

    ``slopes`` maps residual family ("state", "visibility", "entropy") to
    (slope, half_width) where half_width is the 1.96-sigma band from the
    least-squares fit.  ``monotone`` records whether each residual family
    decays monotonically with gamma before fitting; ``refused`` is set when
    every gamma is zero (nothing to fit).
    """

    gammas: tuple
    time: float
    state_residuals: tuple
    visibility_residuals: tuple
    entropy_residuals: tuple
    slopes: dict
    monotone: dict
    refused: bool = False
    reason: str = ""


def _fit_loglog(gammas, residuals):
    x = np.log(np.asarray(gammas))
    y = np.log(np.asarray(residuals))
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    dof = max(len(x) - 2, 1)
    s2 = float(np.sum((y - fitted) ** 2)) / dof
    half_width = 1.96 * math.sqrt(s2 / float(np.sum((x - x.mean()) ** 2)))
    return float(slope), float(half_width)


def scaling_study(
    base: PhysicalParams,
    gammas,
    t: float,
    spec: oracle.HilbertSpec | None = None,
) -> ScalingStudy:
    """Residual decay of the first-order machinery against exact propagation.

    For each boosted gamma: propagate exactly, assemble the first-order
    state, and record
      state      |psi_exact - psi0 - psi1|        (expected slope 2),
      visibility |V_exact - V_first_order|        (expected slope >= 2),
      entropy    |S_exact - S_perturbative|       (expected slope >= 3).
    Dimensionless mode only.
    """
    if base.units != UNITS_DIMENSIONLESS:
        raise ParameterError("scaling_study requires dimensionless-mode parameters")
    gammas = tuple(float(g) for g in gammas)
    if all(g == 0.0 for g in gammas):
        return ScalingStudy(
            gammas=gammas,
            time=t,
            state_residuals=(),
            visibility_residuals=(),
            entropy_residuals=(),
            slopes={},
            monotone={},
            refused=True,
            reason="all gamma values are zero; residuals vanish identically",
        )
    if len(gammas) < 3:
        raise ParameterError("need at least 3 gamma values for a slope fit")
    magnitudes = sorted(abs(g) for g in gammas)
    if magnitudes[0] <= 0 or magnitudes[-1] / magnitudes[0] < 4.0:
        raise ParameterError("gamma values must be nonzero and span at least a factor of 4")
    order = np.argsort(np.abs(np.asarray(gammas)))
    gammas = tuple(gammas[i] for i in order)
    dc0 = derive_couplings(replace(base, direct_gamma=0.0))
    if spec is None:
        spec = oracle.default_spec(base, dc0)
    oracle.check_adequacy(spec, dc0, base)
    psi0_t = oracle.closed_form_state(dc0, base, spec, t)
    state_res, vis_res, ent_res = [], [], []
    for g in gammas:
        p_g = replace(base, direct_gamma=g)
        dc = derive_couplings(p_g)
        psi_exact = oracle.Propagator(dc, spec).evolve(oracle.initial_state(p_g, spec), [t])[0]
        psi1 = oracle.dyson_first_order_state(dc, p_g, spec, t)
        state_res.append(
            float(np.linalg.norm(psi_exact.amplitudes - psi0_t.amplitudes - psi1.amplitudes))
        )
        v_exact = oracle.visibility_exact(psi_exact)
        v_formula = float(analytic.visibility_first_order(dc, p_g, [t]).values[0])
        vis_res.append(float(abs(v_exact - v_formula)))
        s_exact = oracle.linear_entropy_exact(psi_exact)
        s_pert = float(analytic.linear_entropy_first_order(dc, [t])[0])
        ent_res.append(float(abs(s_exact - s_pert)))
    families = {
        "state": state_res,
        "visibility": vis_res,
        "entropy": ent_res,
    }
    slopes, monotone = {}, {}
    for name, residuals in families.items():
        monotone[name] = all(r2 > r1 > 0.0 for r1, r2 in zip(residuals, residuals[1:]))
        if all(r > 0.0 for r in residuals):
            slopes[name] = _fit_loglog([abs(g) for g in gammas], residuals)
        else:
            slopes[name] = (float("nan"), float("nan"))
    return ScalingStudy(
        gammas=gammas,
        time=t,
        state_residuals=tuple(state_res),
        visibility_residuals=tuple(vis_res),
        entropy_residuals=tuple(ent_res),
        slopes=slopes,
        monotone=monotone,
    )
