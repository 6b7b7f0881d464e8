"""Command-line interface.

Subcommands: ``derive`` (coupling report), ``figure`` (plot datasets for the
uncoupled visibility, the gravitational visibility shift, and the
perturbative entanglement growth), ``oracle`` (exact-vs-analytic
verification suite), ``feasibility`` (quality-factor/temperature frontier),
``scan`` (parameter sweeps), ``thermal`` (thermal visibility law vs. its
Monte-Carlo average, beside the exact, amplitude-free coupled one).

Exit codes: 0 success, 1 user/config error (parameters whose coupling
arithmetic overflows or underflows to a zero divisor included), 2 tolerance
failure, 3 numerical failure (running out of memory, a non-finite
``figure``, ``thermal`` or ``feasibility`` value and a time with
omega*t > 2**52 included).  Every output embeds a provenance header
(config fingerprint and version; ``thermal``, whose Monte Carlo draws
random numbers, and ``scan``, whose plan carries a seed, add the seed) and
identical inputs reproduce byte-identical files.

numpy is imported by the commands that compute arrays (``figure``,
``oracle``, ``scan``, ``thermal``) when they start, never at import, so
``derive`` and ``feasibility`` run without it.  Fingerprints use the
interpreter's built-in SHA-256, not ``hashlib``, and ``thermal`` keeps
``numpy.random`` from loading OpenSSL's ``_hashlib`` when the built-in hash
modules are all present, so no command loads OpenSSL's libcrypto.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

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
    derive_couplings,
    feasibility_bound,
    revival_peak_width,
    thermal_occupation,
    without_gravity,
)

_USER_ERRORS = (ConfigError, ParameterError)
_NUMERICAL_ERRORS = (TruncationError, NumericalError, DimensionLimitError, MemoryError)

#: Verification tolerances used by the ``oracle`` subcommand.
EQUIVALENCE_TOL = 1e-8
RESIDUAL_TOL = 1e-8
STATE_SLOPE_TARGET = (1.9, 2.1)
VISIBILITY_SLOPE_MIN = 1.9
ENTROPY_SLOPE_MIN = 2.5
SCALING_GAMMA_FACTORS = (1e-2, 5e-3, 2.5e-3, 1.25e-3)


def _linalg_errors() -> tuple:
    """numpy's ``LinAlgError`` if numpy is loaded: only a command that loaded
    numpy can raise it, so the scalar commands need not import numpy for it."""
    numpy = sys.modules.get("numpy")
    return () if numpy is None else (numpy.linalg.LinAlgError,)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; route to code 1
        raise ConfigError(message)


def _add_common(sub, time_grid=(), table=True):
    """--params, --out, --format if ``table``, and --t-start, --t-stop and
    --t-points if ``time_grid`` holds their three help texts."""
    sub.add_argument("--params", required=True, help="parameter config file")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    if table:
        sub.add_argument("--format", choices=("csv", "json"), default=None)
    if time_grid:
        start, stop, points = time_grid
        sub.add_argument("--t-start", type=float, default=None, help=start)
        sub.add_argument("--t-stop", type=float, default=None, help=stop)
        sub.add_argument("--t-points", type=int, default=None, help=points)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="optograv", description=__doc__)
    parser.add_argument("--version", action="version", version=f"optograv {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_derive = subs.add_parser("derive", help="derived couplings and period-shift report")
    _add_common(p_derive)
    p_derive.set_defaults(func=cmd_derive)

    p_figure = subs.add_parser("figure", help="emit plot datasets")
    _add_common(p_figure, time_grid=("default: 0", "default: 3 periods", "default: 2048"))
    p_figure.add_argument("--which", choices=("fig2a", "fig2b", "fig3"), required=True)
    p_figure.set_defaults(func=cmd_figure)

    p_oracle = subs.add_parser("oracle", help="exact-vs-analytic verification suite")
    _add_common(p_oracle, table=False)
    p_oracle.add_argument("--n-max", type=int, default=None, help="Fock truncation override")
    p_oracle.add_argument("--equivalence-points", type=int, default=48)
    p_oracle.add_argument("--residual-times", type=int, default=8)
    p_oracle.set_defaults(func=cmd_oracle)

    p_feas = subs.add_parser("feasibility", help="quality-factor / temperature frontier")
    _add_common(p_feas)
    p_feas.add_argument("--q-values", default="1e4,1e5,1e6,1e7,1e8,1e9")
    p_feas.add_argument("--t-values", default="0,0.01,0.05,0.1,0.23,0.5,1.0")
    p_feas.set_defaults(func=cmd_feasibility)

    p_scan = subs.add_parser("scan", help="parameter sweep from a plan file")
    _add_common(p_scan)
    p_scan.add_argument("--plan", required=True, help="scan plan config file")
    p_scan.add_argument("--seed", type=int, default=None,
                        help="overrides the plan's seed key")
    p_scan.set_defaults(func=cmd_scan)

    p_thermal = subs.add_parser("thermal", help="thermal visibility law vs Monte-Carlo average, "
                                                "and the exact coupled value")
    _add_common(p_thermal, time_grid=(
        "default: 0, or 1/8 period if no time flag is given",
        "default: 3 periods, or 1 period if no time flag is given",
        "default: 2048, or 8 if no time flag is given"))
    p_thermal.add_argument("--nbar", type=float, default=1.0)
    p_thermal.add_argument("--mc-samples", type=int, default=10000)
    p_thermal.add_argument("--seed", type=int, default=0)
    p_thermal.set_defaults(func=cmd_thermal)
    return parser


def _provenance(p, args, **extra) -> dict:
    out = {
        "version": __version__,
        "params_fingerprint": fingerprint_params(p),
        "command": args.command,
    }
    out.update(extra)
    return out


def _emit(args, text: str):
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out}: {exc}") from None


def _json_safe(value):
    """``value`` with every float that is not finite as None, JSON's null:
    strict JSON has no NaN or Infinity."""
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _emit_json(args, payload: dict):
    text = json.dumps(_json_safe(payload), indent=2, sort_keys=True, allow_nan=False)
    _emit(args, text + "\n")


def _cell(value) -> str:
    """One CSV cell: a string as is (quoted when it holds a comma or a
    double quote, which becomes a single quote), a number by ``repr``."""
    if isinstance(value, str):
        return '"' + value.replace('"', "'") + '"' if "," in value or '"' in value else value
    return repr(float(value))


def _csv_text(provenance: dict, header: list, records: list) -> str:
    lines = [f"# optograv {provenance.get('command', '')}".rstrip()]
    for key in sorted(provenance):
        lines.append(f"# {key}={provenance[key]}")
    lines.append(",".join(header))
    lines.extend(",".join(_cell(v) for v in record) for record in records)
    return "\n".join(lines) + "\n"


def _emit_table(args, provenance: dict, header: list, records: list):
    """Records (tuples of strings and floats) as JSON rows or CSV lines."""
    if args.format == "json":
        _emit_json(args, {"rows": [dict(zip(header, r)) for r in records],
                          "provenance": provenance})
    else:
        _emit(args, _csv_text(provenance, header, records))


def _time_grid(args, dc):
    import numpy as np

    period = 2.0 * math.pi / dc.omega_a
    start = args.t_start if args.t_start is not None else 0.0
    stop = args.t_stop if args.t_stop is not None else 3.0 * period
    points = args.t_points if args.t_points is not None else 2048
    if points < 2:
        raise ConfigError("--t-points must be >= 2")
    if not (math.isfinite(stop) and stop > start >= 0.0):
        raise ConfigError("time grid must satisfy 0 <= t-start < t-stop, both finite")
    return np.linspace(start, stop, points)


def cmd_derive(args) -> int:
    p = load_params(args.params)
    dc = derive_couplings(p)
    payload = dict(dc.as_dict())
    payload["delta_T_ns"] = dc.delta_T * 1e9
    payload["provenance"] = _provenance(p, args)
    if args.format == "csv":
        rows = [(key, value) for key, value in sorted(payload.items()) if key != "provenance"]
        _emit(args, _csv_text(payload["provenance"], ["quantity", "value"], rows))
    else:
        _emit_json(args, payload)
    return 0


def cmd_figure(args) -> int:
    from . import analytic
    # After analytic, which loads numpy itself: imported first, numpy raised the
    # cold fig3 process's peak RSS from 34.3 to 34.6 MB.
    import numpy as np

    p = load_params(args.params)
    dc = derive_couplings(p)
    times = _time_grid(args, dc)
    axis, column, key = times, "t_seconds", "times"
    # An overflow is reported once, by check_outputs, not also as a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if args.which == "fig2a":
            values, method = analytic.visibility_uncoupled(dc, times), "uncoupled"
        elif args.which == "fig2b":
            values, method = analytic.visibility_shift(dc, p, times), "shift_closed"
        else:  # fig3: entanglement growth, time in revival periods
            values, method = analytic.linear_entropy_first_order(dc, times), "first_order_entropy"
            axis, column, key = times / (2.0 * math.pi / dc.omega_a), "t_periods", "times_periods"
    analytic.check_outputs(dc, times, {method: values})
    provenance = _provenance(
        p, args, which=args.which,
        t_start=repr(float(times[0])), t_stop=repr(float(times[-1])),
        t_points=len(times),
    )
    if args.format == "json":
        _emit_json(args, {key: [float(t) for t in axis], "values": [float(v) for v in values],
                          "method": method, "provenance": provenance})
    else:
        rows = [(t, v, method) for t, v in zip(axis, values)]
        _emit(args, _csv_text(provenance, [column, "value", "method"], rows))
    return 0


def cmd_oracle(args) -> int:
    if args.equivalence_points < 2:
        raise ConfigError("--equivalence-points must be >= 2")
    if args.residual_times < 1:
        raise ConfigError("--residual-times must be >= 1")
    p = load_params(args.params)
    import numpy as np

    from . import analytic, oracle, scan as scan_mod

    dc = derive_couplings(p)
    if args.n_max is not None:
        spec = oracle.HilbertSpec(args.n_max, args.n_max)
    else:
        spec = oracle.default_spec(p, dc)
    oracle.check_adequacy(spec, dc, p)
    period = 2.0 * math.pi / dc.omega_a

    # Gravity-free equivalence: exact propagation against the closed form.
    p0 = without_gravity(p)
    dc0 = derive_couplings(p0)
    propagator = oracle.Propagator(dc0, spec)
    psi0 = oracle.initial_state(p0, spec)
    times = np.linspace(0.0, 2.0 * period, args.equivalence_points)
    closed = analytic.visibility_uncoupled(dc0, times)
    worst = 0.0
    for t, v_closed in zip(times.tolist(), closed.tolist()):
        worst = max(worst, abs(oracle.visibility_exact(propagator.evolve(psi0, t)) - v_closed))
    checks = [_check("gravity_free_equivalence", worst, EQUIVALENCE_TOL,
                     worst < EQUIVALENCE_TOL)]

    # Frame-rotation identity on every level the propagator uses.
    residual_times = np.linspace(period / args.residual_times, 2.0 * period,
                                 args.residual_times)
    residual = float(oracle.interaction_picture_residual(dc, spec, residual_times).max())
    checks.append(_check("interaction_picture_residual", residual, RESIDUAL_TOL,
                         residual < RESIDUAL_TOL))

    # Boosted-coupling scaling study (resolvable only in dimensionless mode).
    if p.units == UNITS_DIMENSIONLESS:
        gammas = [f * dc.omega_a for f in SCALING_GAMMA_FACTORS]
        study = scan_mod.scaling_study(p, gammas, 1.3 * period, spec=spec)
        slope_state = study["state"][0]
        slope_vis = study["visibility"][0]
        slope_ent = study["entropy"][0]
        checks += [
            _check("state_residual_slope", slope_state, list(STATE_SLOPE_TARGET),
                   STATE_SLOPE_TARGET[0] <= slope_state <= STATE_SLOPE_TARGET[1]),
            _check("visibility_residual_slope", slope_vis, VISIBILITY_SLOPE_MIN,
                   slope_vis >= VISIBILITY_SLOPE_MIN),
            _check("entropy_residual_slope", slope_ent, ENTROPY_SLOPE_MIN,
                   slope_ent >= ENTROPY_SLOPE_MIN),
        ]
    payload = {
        "checks": checks,
        "spec": {"n_max_a": spec.n_max_a, "n_max_b": spec.n_max_b},
        "provenance": _provenance(p, args),
        "passed": all(c["passed"] for c in checks),
    }
    _emit_json(args, payload)
    if not payload["passed"]:
        raise ToleranceError(", ".join(
            f"{c['name']}: measured {c['measured']:.3e}, allowed {c['allowed']}"
            for c in checks if not c["passed"]
        ))
    return 0


def _check(name: str, measured: float, allowed, passed: bool) -> dict:
    """One verification record of the ``oracle`` payload."""
    return {"name": name, "measured": measured, "allowed": allowed, "passed": passed}


def _parse_float_list(raw: str, flag: str):
    try:
        return [float(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{flag} expects a comma-separated number list, got {raw!r}") from None


def cmd_feasibility(args) -> int:
    p = load_params(args.params)
    dc = derive_couplings(p)
    q_values = _parse_float_list(args.q_values, "--q-values")
    t_values = _parse_float_list(args.t_values, "--t-values")
    entries = []
    for q in q_values:
        t_max = feasibility_bound(p, Q=q)
        entries.append(("Q", q, q, t_max, thermal_occupation(p, t_max),
                        revival_peak_width(dc, p, t_max)))
    for t in t_values:
        q_req = feasibility_bound(p, T=t)
        entries.append(("T", t, q_req, t, thermal_occupation(p, t),
                        revival_peak_width(dc, p, t)))
    records = [(kind, *(float(v) for v in values)) for kind, *values in entries]
    header = ["given", "given_value", "Q", "T_kelvin", "nbar", "peak_width_rad"]
    for kind, given, *values in records:
        bad = [name for name, value in zip(header[2:], values) if not math.isfinite(value)]
        if bad:
            raise NumericalError(f"{', '.join(bad)} not finite at {kind} = {given!r}")
    _emit_table(args, _provenance(p, args), header, records)
    return 0


def cmd_scan(args) -> int:
    from . import scan as scan_mod

    p = load_params(args.params)
    plan_dict = load_scan_plan(args.plan)
    if args.seed is not None:
        plan_dict["seed"] = args.seed
    plan_dict.setdefault("mode", p.units)
    plan = scan_mod.ScanPlan(**plan_dict)
    if plan.mode != p.units:
        raise ConfigError(f"plan mode {plan.mode!r} conflicts with params units {p.units!r}")
    result = scan_mod.run_scan(plan, p)
    result.provenance["command"] = "scan"
    if args.format == "json":
        _emit_json(args, dataclasses.asdict(result))
    else:
        parts = (("axes", result.axis_names), ("values", result.observable_names),
                 ("diagnostics", result.diagnostic_names))
        header = [name for _, names in parts for name in names]
        records = [[row[part][name] for part, names in parts for name in names]
                   for row in result.rows]
        _emit(args, _csv_text(result.provenance, header, records))
    return 0


#: The interpreter's built-in hash modules, which ``hashlib`` serves every
#: digest from when OpenSSL's ``_hashlib`` cannot be imported.
_BUILTIN_HASHES = (("_md5", "_sha1", "_sha2", "_blake2", "_sha3") if sys.version_info >= (3, 12)
                   else ("_md5", "_sha1", "_sha256", "_sha512", "_blake2", "_sha3"))


def _skip_openssl() -> None:
    """Keep OpenSSL's libcrypto out of a process that has not loaded it yet.

    ``numpy.random`` imports ``secrets``, which imports ``hmac``, which loads
    ``_hashlib``; nothing here hashes through OpenSSL.  Marking ``_hashlib``
    absent makes ``hashlib`` use the built-in modules, so this is done only
    when every one of them is present (a missing one makes ``hashlib`` log a
    traceback).  ``setdefault`` leaves an already loaded ``_hashlib`` alone.
    """
    from importlib.util import find_spec

    if all(find_spec(name) is not None for name in _BUILTIN_HASHES):
        sys.modules.setdefault("_hashlib", None)


def cmd_thermal(args) -> int:
    _skip_openssl()
    import numpy as np

    from . import analytic, gaussian

    p = load_params(args.params)
    dc = derive_couplings(p)
    if args.t_start is None and args.t_stop is None and args.t_points is None:
        # No time flag given: 8 samples across one revival period.
        period = 2.0 * math.pi / dc.omega_a
        times = np.linspace(period / 8.0, period, 8)
    else:
        times = _time_grid(args, dc)
    nbar = args.nbar
    # An overflow is reported once, by check_outputs, not also as a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        law = analytic.thermal_visibility(dc, nbar, times)
        coupled = gaussian.visibility(dc, nbar, times)
        means, errors = gaussian.thermal_visibility_montecarlo(dc, nbar, times,
                                                               args.mc_samples, args.seed)
    analytic.check_outputs(dc, times, {"thermal_law": law, "mc_mean": means,
                                       "mc_std_error": errors, "coupled_exact": coupled})
    records = [
        (t, expected, mean, err, abs(mean - expected) / err if err > 0 else 0.0, exact)
        for t, expected, mean, err, exact
        in zip(times.tolist(), law.tolist(), means.tolist(), errors.tolist(), coupled.tolist())
    ]
    provenance = _provenance(p, args, nbar=repr(float(nbar)), mc_samples=args.mc_samples,
                             seed=args.seed)
    header = ["t_seconds", "thermal_law", "mc_mean", "mc_std_error", "sigma_distance",
              "coupled_exact"]
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
    except (*_NUMERICAL_ERRORS, *_linalg_errors()) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
