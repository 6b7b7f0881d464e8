"""Command-line interface.

Subcommands: ``derive`` (coupling report), ``figure`` (plot datasets for the
uncoupled visibility, the gravitational visibility shift, and the
perturbative entanglement growth), ``oracle`` (exact-vs-analytic
verification suite), ``feasibility`` (quality-factor/temperature frontier),
``scan`` (parameter sweeps), ``thermal`` (thermal visibility law vs. its
Monte-Carlo average).

Exit codes: 0 success, 1 user/config error, 2 tolerance failure,
3 numerical failure.  Every output embeds a provenance header
(config fingerprint, seed, version) and identical inputs reproduce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import analytic, oracle, scan as scan_mod
from ._version import __version__
from .config import fingerprint_params, load_params, load_scan_plan
from .errors import (
    ConfigError,
    DimensionLimitError,
    NumericalError,
    ParameterError,
    ToleranceError,
    TruncationError,
)
from .params import (
    UNITS_DIMENSIONLESS,
    UNITS_SI,
    derive_couplings,
    feasibility_bound,
    thermal_env,
    without_gravity,
)

_USER_ERRORS = (ConfigError, ParameterError)
_NUMERICAL_ERRORS = (TruncationError, NumericalError, DimensionLimitError, np.linalg.LinAlgError)

#: Verification tolerances used by the ``oracle`` subcommand.
EQUIVALENCE_TOL = 1e-8
RESIDUAL_TOL = 1e-8
STATE_SLOPE_TARGET = (1.9, 2.1)
VISIBILITY_SLOPE_MIN = 1.9
ENTROPY_SLOPE_MIN = 2.5
SCALING_GAMMA_FACTORS = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
#: Equivalence times evolved per batched call, which bounds the states held at once.
EQUIVALENCE_SLICE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; route to code 1
        raise ConfigError(message)


def _add_common(sub, time_grid=False):
    sub.add_argument("--params", required=True, help="parameter config file")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default=None)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--mode",
        choices=(UNITS_SI, UNITS_DIMENSIONLESS),
        default=None,
        help="override the config's units mode (must match the derived keys)",
    )
    if time_grid:
        sub.add_argument("--t-start", type=float, default=None, help="default: 0")
        sub.add_argument("--t-stop", type=float, default=None, help="default: 3 periods")
        sub.add_argument("--t-points", type=int, default=None, help="default: 2048")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="optograv", description=__doc__)
    parser.add_argument("--version", action="version", version=f"optograv {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_derive = subs.add_parser("derive", help="derived couplings and period-shift report")
    _add_common(p_derive)
    p_derive.set_defaults(func=cmd_derive)

    p_figure = subs.add_parser("figure", help="emit plot datasets")
    _add_common(p_figure, time_grid=True)
    p_figure.add_argument("--which", choices=("fig2a", "fig2b", "fig3"), required=True)
    p_figure.set_defaults(func=cmd_figure)

    p_oracle = subs.add_parser("oracle", help="exact-vs-analytic verification suite")
    _add_common(p_oracle)
    p_oracle.add_argument("--n-max", type=int, default=None, help="Fock truncation override")
    p_oracle.add_argument("--equivalence-points", type=int, default=48)
    p_oracle.add_argument("--residual-times", type=int, default=8)
    p_oracle.add_argument("--scaling-t", type=float, default=None,
                          help="time for the scaling study (dimensionless mode)")
    p_oracle.set_defaults(func=cmd_oracle)

    p_feas = subs.add_parser("feasibility", help="quality-factor / temperature frontier")
    _add_common(p_feas)
    p_feas.add_argument("--q-values", default="1e4,1e5,1e6,1e7,1e8,1e9")
    p_feas.add_argument("--t-values", default="0,0.01,0.05,0.1,0.23,0.5,1.0")
    p_feas.set_defaults(func=cmd_feasibility)

    p_scan = subs.add_parser("scan", help="parameter sweep from a plan file")
    _add_common(p_scan)
    p_scan.add_argument("--plan", required=True, help="scan plan config file")
    p_scan.set_defaults(func=cmd_scan)

    p_thermal = subs.add_parser("thermal", help="thermal visibility vs Monte-Carlo average")
    _add_common(p_thermal, time_grid=True)
    p_thermal.add_argument("--nbar", type=float, default=1.0)
    p_thermal.add_argument("--mc-samples", type=int, default=10000)
    p_thermal.add_argument("--mc-method", choices=("closedform", "oracle"), default="closedform",
                           help="closedform: gravity-free sample dynamics; oracle: the full "
                                "coupled dynamics, exact (Gaussian) with no truncation")
    p_thermal.set_defaults(func=cmd_thermal)
    return parser


def _load(args):
    p = load_params(args.params)
    if args.mode is not None and args.mode != p.units:
        raise ConfigError(
            f"--mode {args.mode} conflicts with units={p.units!r} in {args.params}"
        )
    return p


def _provenance(p, args, **extra) -> dict:
    out = {
        "version": __version__,
        "params_fingerprint": fingerprint_params(p),
        "seed": args.seed,
        "command": args.command,
    }
    out.update(extra)
    return out


def _emit(args, text: str):
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _emit_json(args, payload: dict):
    _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _csv_text(provenance: dict, header: list, rows: list) -> str:
    lines = [f"# optograv {provenance.get('command', '')}".rstrip()]
    for key in sorted(provenance):
        lines.append(f"# {key}={provenance[key]}")
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit_table(args, provenance: dict, header: list, records: list):
    """Records (tuples of strings and floats) as JSON rows, or as CSV with
    each float written by ``repr``."""
    if args.format == "json":
        _emit_json(args, {"rows": [dict(zip(header, r)) for r in records],
                          "provenance": provenance})
    else:
        rows = [[v if isinstance(v, str) else repr(v) for v in r] for r in records]
        _emit(args, _csv_text(provenance, header, rows))


def _time_grid(args, dc):
    period = 2.0 * math.pi / dc.omega_a
    start = args.t_start if args.t_start is not None else 0.0
    stop = args.t_stop if args.t_stop is not None else 3.0 * period
    points = args.t_points if args.t_points is not None else 2048
    if points < 2:
        raise ConfigError("--t-points must be >= 2")
    if not stop > start >= 0.0:
        raise ConfigError("time grid must satisfy 0 <= t-start < t-stop")
    return np.linspace(start, stop, points)


def cmd_derive(args) -> int:
    p = _load(args)
    dc = derive_couplings(p)
    payload = dict(dc.as_dict())
    payload["delta_T_ns"] = dc.delta_T * 1e9
    payload["provenance"] = _provenance(p, args)
    if args.format == "csv":
        rows = [
            (key, repr(float(value)))
            for key, value in sorted(payload.items())
            if key != "provenance"
        ]
        _emit(args, _csv_text(payload["provenance"], ["quantity", "value"],
                              [list(r) for r in rows]))
    else:
        _emit_json(args, payload)
    return 0


def cmd_figure(args) -> int:
    p = _load(args)
    dc = derive_couplings(p)
    times = _time_grid(args, dc)
    period = 2.0 * math.pi / dc.omega_a
    if args.which == "fig2a":
        trace = analytic.visibility_uncoupled(dc, p, "m", times)
        header = ["t_seconds", "value", "method"]
        rows = [list(r) for r in trace.to_csv_rows()]
        payload = trace.to_json_dict()
    elif args.which == "fig2b":
        trace = analytic.visibility_shift(dc, p, times)
        header = ["t_seconds", "value", "method"]
        rows = [list(r) for r in trace.to_csv_rows()]
        payload = trace.to_json_dict()
    else:  # fig3: entanglement growth, time in revival periods
        values = analytic.linear_entropy_first_order(dc, times)
        header = ["t_periods", "value", "method"]
        rows = [
            [repr(float(t / period)), repr(float(v)), "first_order_entropy"]
            for t, v in zip(times, values)
        ]
        payload = {
            "times_periods": [float(t / period) for t in times],
            "values": [float(v) for v in values],
            "method": "first_order_entropy",
        }
    provenance = _provenance(
        p, args, which=args.which,
        t_start=repr(float(times[0])), t_stop=repr(float(times[-1])),
        t_points=len(times),
    )
    if args.format == "json":
        payload["provenance"] = provenance
        _emit_json(args, payload)
    else:
        _emit(args, _csv_text(provenance, header, rows))
    return 0


def cmd_oracle(args) -> int:
    if args.equivalence_points < 2:
        raise ConfigError("--equivalence-points must be >= 2")
    if args.residual_times < 1:
        raise ConfigError("--residual-times must be >= 1")
    p = _load(args)
    dc = derive_couplings(p)
    if args.n_max is not None:
        spec = oracle.HilbertSpec(args.n_max, args.n_max)
    else:
        spec = oracle.default_spec(p, dc)
    oracle.check_adequacy(spec, dc, p)
    period = 2.0 * math.pi / dc.omega_a
    checks = []

    # Gravity-free equivalence: exact propagation against the closed form.
    p0 = without_gravity(p)
    dc0 = derive_couplings(p0)
    propagator = oracle.Propagator(dc0, spec)
    psi0 = oracle.initial_state(p0, spec)
    times = np.linspace(0.0, 2.0 * period, args.equivalence_points)
    closed = analytic.visibility_uncoupled(dc0, p0, "m", times)
    worst = 0.0
    for start in range(0, times.size, EQUIVALENCE_SLICE):
        stop = start + EQUIVALENCE_SLICE
        for psi, v_closed in zip(propagator.evolve(psi0, times[start:stop]),
                                 closed.values[start:stop]):
            worst = max(worst, abs(oracle.visibility_exact(psi) - float(v_closed)))
    checks.append(
        {"name": "gravity_free_equivalence", "measured": worst,
         "allowed": EQUIVALENCE_TOL, "passed": worst < EQUIVALENCE_TOL}
    )

    # Frame-rotation identity on the Fock interior.
    checker = oracle.InteractionPictureResidual(dc, spec)
    residual_times = np.linspace(period / args.residual_times, 2.0 * period,
                                 args.residual_times)
    worst_residual = max(checker.residual(float(t)) for t in residual_times)
    checks.append(
        {"name": "interaction_picture_residual", "measured": worst_residual,
         "allowed": RESIDUAL_TOL, "passed": worst_residual < RESIDUAL_TOL}
    )

    # Boosted-coupling scaling study (resolvable only in dimensionless mode).
    if p.units == UNITS_DIMENSIONLESS:
        t_scaling = args.scaling_t if args.scaling_t is not None else 1.3 * period
        gammas = [f * dc.omega_a for f in SCALING_GAMMA_FACTORS]
        study = scan_mod.scaling_study(p, gammas, t_scaling, spec=spec)
        slope_state = study.slopes["state"][0]
        slope_vis = study.slopes["visibility"][0]
        slope_ent = study.slopes["entropy"][0]
        checks.append(
            {"name": "state_residual_slope", "measured": slope_state,
             "allowed": list(STATE_SLOPE_TARGET),
             "passed": STATE_SLOPE_TARGET[0] <= slope_state <= STATE_SLOPE_TARGET[1]}
        )
        checks.append(
            {"name": "visibility_residual_slope", "measured": slope_vis,
             "allowed": VISIBILITY_SLOPE_MIN, "passed": slope_vis >= VISIBILITY_SLOPE_MIN}
        )
        checks.append(
            {"name": "entropy_residual_slope", "measured": slope_ent,
             "allowed": ENTROPY_SLOPE_MIN, "passed": slope_ent >= ENTROPY_SLOPE_MIN}
        )
    payload = {
        "checks": checks,
        "spec": {"n_max_a": spec.n_max_a, "n_max_b": spec.n_max_b},
        "provenance": _provenance(p, args),
        "passed": all(c["passed"] for c in checks),
    }
    _emit_json(args, payload)
    if not payload["passed"]:
        failures = ", ".join(
            f"{c['name']}: measured {c['measured']:.3e}, allowed {c['allowed']}"
            for c in checks if not c["passed"]
        )
        print(f"tolerance failure: {failures}", file=sys.stderr)
        return 2
    return 0


def _parse_float_list(raw: str, flag: str):
    try:
        return [float(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{flag} expects a comma-separated number list, got {raw!r}") from None


def cmd_feasibility(args) -> int:
    p = _load(args)
    dc = derive_couplings(p)
    q_values = _parse_float_list(args.q_values, "--q-values")
    t_values = _parse_float_list(args.t_values, "--t-values")
    gamma_a_placeholder = dc.omega_a  # Q = 1 damping; only ratios matter below
    entries = []
    for q in q_values:
        t_max = feasibility_bound(p, Q=q)
        env = thermal_env(p, t_max, gamma_a_placeholder)
        entries.append(("Q", q, q, t_max, env.nbar, analytic.revival_peak_width(dc, p, t_max)))
    for t in t_values:
        q_req = feasibility_bound(p, T=t)
        env = thermal_env(p, t, gamma_a_placeholder)
        entries.append(("T", t, q_req, t, env.nbar, analytic.revival_peak_width(dc, p, t)))
    records = [(kind, *(float(v) for v in values)) for kind, *values in entries]
    header = ["given", "given_value", "Q", "T_kelvin", "nbar", "peak_width_rad"]
    _emit_table(args, _provenance(p, args), header, records)
    return 0


def cmd_scan(args) -> int:
    p = _load(args)
    plan_dict = load_scan_plan(args.plan)
    plan_dict.setdefault("seed", args.seed)
    plan_dict.setdefault("mode", p.units)
    plan = scan_mod.ScanPlan(**plan_dict)
    if plan.mode != p.units:
        raise ConfigError(f"plan mode {plan.mode!r} conflicts with params units {p.units!r}")
    result = scan_mod.run_scan(plan, p)
    result.provenance["command"] = "scan"
    if args.format == "json":
        _emit_json(args, result.to_json_dict())
    else:
        _emit(args, result.to_csv_text())
    return 0


def cmd_thermal(args) -> int:
    p = _load(args)
    dc = derive_couplings(p)
    if args.t_start is None and args.t_stop is None and args.t_points is None:
        # No time flag given: 8 samples across one revival period.
        period = 2.0 * math.pi / dc.omega_a
        times = np.linspace(period / 8.0, period, 8)
    else:
        times = _time_grid(args, dc)
    nbar = args.nbar
    law = analytic.thermal_visibility(dc, p, nbar, times).values.tolist()
    means, errors = oracle.thermal_visibility_montecarlo(
        dc, p, nbar, times, args.mc_samples, args.seed, method=args.mc_method
    )
    records = [
        (t, expected, mean, err, abs(mean - expected) / err if err > 0 else 0.0)
        for t, expected, mean, err in zip(times.tolist(), law, means.tolist(), errors.tolist())
    ]
    provenance = _provenance(p, args, nbar=repr(float(nbar)), mc_samples=args.mc_samples,
                             mc_method=args.mc_method)
    header = ["t_seconds", "thermal_law", "mc_mean", "mc_std_error", "sigma_distance"]
    _emit_table(args, provenance, header, records)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ToleranceError as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
