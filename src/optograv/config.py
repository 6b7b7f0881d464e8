"""Flat key = value configuration files and provenance fingerprints.

Parameter files use one ``key = value`` pair per line, ``#`` comments, and
keys that match the :class:`~optograv.params.PhysicalParams` field names.
A ``units`` key ("si", the default, or "dimensionless") selects the mode.
Scan plans use the same syntax with their own key set (see
:func:`plan_from_text`); :func:`load_scan_plan` builds the plan that a scan
runs.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields

# hashlib loads OpenSSL's libcrypto (about 4 MB resident) to offer digests this
# module never asks for; the interpreter's own SHA-256 gives the same digest.
try:
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .errors import ConfigError
from .params import UNITS_DIMENSIONLESS, UNITS_SI, PhysicalParams

_FIELDS = fields(PhysicalParams)
PARAM_KEYS = frozenset(f.name for f in _FIELDS)
_COMPLEX_KEYS = frozenset(f.name for f in _FIELDS if f.type == "complex")
#: SI files name every field without a default; dimensionless files name the
#: mode frequencies and the direct couplings, and there the other fields
#: without a default, and hbar, default to 1.
_REQUIRED_SI = tuple(f.name for f in _FIELDS if f.default is MISSING)
_REQUIRED_DIMENSIONLESS = tuple(f.name for f in _FIELDS
                                if f.name.startswith(("bare_freq_", "direct_")))
_DIMENSIONLESS_DEFAULTS = dict.fromkeys(_REQUIRED_SI + ("hbar",), 1.0)

_PLAN_KEYS = frozenset(
    ("axes", "observables", "t", "oracle_enabled", "seed", "n_max", "mode")
)


def parse_kv_text(text: str, label: str = "<config>") -> dict[str, tuple[int, str]]:
    """Parse ``key = value`` lines into {key: (line_number, raw_value)}."""
    entries: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{label}: line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{label}: line {lineno}: empty key")
        if key in entries:
            raise ConfigError(f"{label}: line {lineno}: duplicate key {key!r}")
        entries[key] = (lineno, value)
    return entries


def _unquote(value: str) -> str:
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
        return value[1:-1]
    return value


def _parse_float(label, key, lineno, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(
            f"{label}: line {lineno}: cannot parse value for {key!r}: {raw!r}"
        ) from None


def _parse_complex(label, key, lineno, raw):
    try:
        return complex(raw.replace(" ", ""))
    except ValueError:
        raise ConfigError(
            f"{label}: line {lineno}: cannot parse value for {key!r}: {raw!r}"
        ) from None


def params_from_text(text: str, label: str = "<config>") -> PhysicalParams:
    """Build :class:`PhysicalParams` from config text, with line-numbered errors."""
    entries = parse_kv_text(text, label)
    for key, (lineno, _) in entries.items():
        if key not in PARAM_KEYS:
            raise ConfigError(f"{label}: line {lineno}: unknown key {key!r}")
    units = UNITS_SI
    if "units" in entries:
        units = _unquote(entries["units"][1])
    if units not in (UNITS_SI, UNITS_DIMENSIONLESS):
        lineno = entries["units"][0]
        raise ConfigError(f"{label}: line {lineno}: units must be 'si' or 'dimensionless'")
    required = _REQUIRED_SI if units == UNITS_SI else _REQUIRED_DIMENSIONLESS
    for key in required:
        if key not in entries:
            raise ConfigError(f"{label}: missing required key {key!r} for units={units!r}")
    kwargs: dict = {"units": units}
    for key, (lineno, raw) in entries.items():
        if key == "units":
            continue
        if key in _COMPLEX_KEYS:
            kwargs[key] = _parse_complex(label, key, lineno, raw)
        else:
            kwargs[key] = _parse_float(label, key, lineno, raw)
    if units == UNITS_DIMENSIONLESS:
        kwargs = {**_DIMENSIONLESS_DEFAULTS, **kwargs}
    return PhysicalParams(**kwargs)


def load_params(path) -> PhysicalParams:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read parameter file {path}: {exc}") from None
    return params_from_text(text, label=str(path))


def plan_from_text(text: str, label: str = "<plan>") -> dict:
    """Parse a scan-plan config into a plain dict of plan settings.

    Keys: ``axes`` (comma-separated parameter names), one ``values_<axis>``
    comma-separated number list per axis, ``observables`` (comma-separated),
    and optional ``t`` (seconds), ``oracle_enabled`` (true/false), ``seed``,
    ``n_max``, ``mode``.
    """
    entries = parse_kv_text(text, label)
    if "axes" not in entries:
        raise ConfigError(f"{label}: missing required key 'axes'")
    if "observables" not in entries:
        raise ConfigError(f"{label}: missing required key 'observables'")
    axes_raw = entries["axes"][1].strip()
    axis_names = [a.strip() for a in axes_raw.split(",") if a.strip()] if axes_raw else []
    axes = []
    for name in axis_names:
        key = f"values_{name}"
        if key not in entries:
            raise ConfigError(f"{label}: missing {key!r} for axis {name!r}")
        lineno, raw = entries[key]
        values = tuple(
            _parse_float(label, key, lineno, item.strip()) for item in raw.split(",")
        )
        axes.append((name, values))
    observables = tuple(
        o.strip() for o in entries["observables"][1].split(",") if o.strip()
    )
    plan = {"axes": tuple(axes), "observables": observables}
    known = _PLAN_KEYS | {f"values_{name}" for name in axis_names}
    for key, (lineno, raw) in entries.items():
        if key not in known:
            raise ConfigError(f"{label}: line {lineno}: unknown key {key!r}")
        if key in ("axes", "observables") or key.startswith("values_"):
            continue
        if key == "t":
            plan["observable_time"] = _parse_float(label, key, lineno, raw)
        elif key == "oracle_enabled":
            lowered = raw.strip().lower()
            if lowered not in ("true", "false", "1", "0"):
                raise ConfigError(f"{label}: line {lineno}: oracle_enabled must be true/false")
            plan["oracle_enabled"] = lowered in ("true", "1")
        elif key in ("seed", "n_max"):
            try:
                plan[key] = int(raw)
            except ValueError:
                raise ConfigError(
                    f"{label}: line {lineno}: cannot parse integer for {key!r}: {raw!r}"
                ) from None
        elif key == "mode":
            plan["mode"] = _unquote(raw)
    return plan


def load_scan_plan(path, units: str, seed: int | None = None):
    """The :class:`~optograv.scan.ScanPlan` of a plan file, for parameters in
    ``units``: ``seed``, when given, overrides the plan's ``seed`` key, the
    mode defaults to ``units``, and a plan whose mode differs is refused."""
    from .scan import ScanPlan  # here, so that loading parameters loads no closed form

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read scan plan {path}: {exc}") from None
    settings = plan_from_text(text, label=str(path))
    if seed is not None:
        settings["seed"] = seed
    plan = ScanPlan(**{"mode": units, **settings})
    if plan.mode != units:
        raise ConfigError(f"plan mode {plan.mode!r} conflicts with params units {units!r}")
    return plan


def fingerprint(payload: dict) -> str:
    """Stable hex digest of a JSON-serialisable mapping."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()[:16]


def fingerprint_params(p: PhysicalParams) -> str:
    return fingerprint(p.as_dict())
