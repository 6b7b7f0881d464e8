"""Output checks for benchmark invocations.

Every invocation's output is parsed into columns and must satisfy:

* the invariants its :class:`workloads.Invocation` names (finite numbers,
  visibilities in [0, 1], entropies >= 0, the program's own verdicts);
* where its command line equals the one stored in ``reference.json``, the
  stored reference values, at the per-column tolerance stored with them.

Tolerances are relative to the largest magnitude in the reference column, so
a numerically equivalent rewrite passes and a changed result fails.  Run
``python3 bench/checks.py`` from the checkout root to regenerate
``reference.json`` from the current program at the default seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys

import workloads

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

#: At most this many values of a reference column are stored (evenly strided).
REFERENCE_SAMPLES = 64

#: Slack for values that are exact bounds up to rounding (a visibility of
#: 1.0000000000000002, an entropy that cancels to -1e-20).
ROUNDING = 1e-12

DEFAULT_RTOL = 1e-9
#: Column-scaled relative tolerances, keyed by (invocation, column).  None
#: stores no reference: the value is rounding noise or a diagnostic whose
#: only contract is its verdict or bound.
RTOL = {
    # First-order shift: a small difference of visibilities.
    ("fig2b", "value"): 1e-7,
    # The perturbative entropy quadrature stops at a 1e-6 relative change.
    ("fig3", "value"): 1e-5,
    ("sweep", "entropy"): 1e-5,
    ("sweep", "entropy_exact"): 1e-8,
    ("sweep", "truncation_delta"): None,
    ("sweep", "quadrature_delta"): None,
    ("thermal", "sigma_distance"): 1e-6,
    # The slopes are log-log fits over residuals that carry the quadrature
    # error of the first-order terms.
    ("oracle", "checks.state_residual_slope.measured"): 5e-3,
    ("oracle", "checks.visibility_residual_slope.measured"): 5e-3,
    ("oracle", "checks.entropy_residual_slope.measured"): 5e-3,
    ("oracle", "checks.gravity_free_equivalence.measured"): None,
    ("oracle", "checks.interaction_picture_residual.measured"): None,
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _flatten(obj, key: str, out: dict):
    if isinstance(obj, dict):
        for name, value in obj.items():
            if name != "provenance":
                _flatten(value, f"{key}.{name}" if key else name, out)
    elif isinstance(obj, list) and obj and all(isinstance(v, dict) and "name" in v for v in obj):
        for item in obj:
            rest = {k: v for k, v in item.items() if k != "name"}
            _flatten(rest, f"{key}.{item['name']}", out)
    elif isinstance(obj, list):
        out[key] = list(obj)
    else:
        out[key] = [obj]


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_output(text: str) -> dict:
    """Columns of a CSV or JSON output: name -> list of values.

    CSV columns come from the header after the ``#`` provenance lines.  JSON
    keys are flattened to dotted paths, lists of named records are keyed by
    their ``name``, and the provenance block is dropped.  Raises ValueError
    when the text is neither.
    """
    if text.lstrip().startswith("{"):
        out: dict = {}
        _flatten(json.loads(text), "", out)
        return out
    rows = list(csv.reader(line for line in io.StringIO(text) if not line.startswith("#")))
    if len(rows) < 2:
        raise ValueError("no CSV header and rows")
    header, body = rows[0], rows[1:]
    if any(len(row) != len(header) for row in body):
        raise ValueError("ragged CSV rows")
    return {name: [_cell(row[i]) for row in body] for i, name in enumerate(header)}


def reference_entry(inv: workloads.Invocation, text: str) -> dict:
    """The stored form of an invocation's reference output."""
    columns = {}
    for name, values in read_output(text).items():
        rtol = RTOL.get((inv.name, name), DEFAULT_RTOL)
        if rtol is None or not values or not all(_is_number(v) for v in values):
            continue
        stride = max(1, math.ceil(len(values) / REFERENCE_SAMPLES))
        columns[name] = {
            "length": len(values),
            "stride": stride,
            "rtol": rtol,
            "values": [float(v) for v in values[::stride]],
        }
    return {"args": list(inv.args), "columns": columns}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _against_reference(entry: dict, columns: dict) -> list[str]:
    problems = []
    for name, ref in entry["columns"].items():
        got = columns.get(name)
        if got is None:
            problems.append(f"column {name!r} missing")
            continue
        if len(got) != ref["length"]:
            problems.append(f"column {name!r} has {len(got)} values, reference {ref['length']}")
            continue
        scale = max(abs(v) for v in ref["values"])
        allowed = ref["rtol"] * scale
        for i, (value, expected) in enumerate(zip(got[:: ref["stride"]], ref["values"])):
            if not _is_number(value) or not abs(value - expected) <= allowed:
                problems.append(
                    f"{name}[{i * ref['stride']}] = {value!r}, reference {expected!r} "
                    f"(allowed {allowed:.3g})"
                )
                break
    return problems


def check(inv: workloads.Invocation, text: str, reference: dict) -> list[str]:
    """Problems with one invocation's output; empty when it is correct."""
    try:
        columns = read_output(text)
    except ValueError as exc:
        return [f"unparsable output: {exc}"]
    problems = []

    def values(name):
        if name not in columns:
            problems.append(f"column {name!r} missing")
            return []
        return columns[name]

    for name, column in columns.items():
        if any(_is_number(v) and not math.isfinite(v) for v in column):
            problems.append(f"column {name!r} has a non-finite value")
    for name in inv.unit_interval:
        if any(not (_is_number(v) and -ROUNDING <= v <= 1.0 + ROUNDING) for v in values(name)):
            problems.append(f"column {name!r} leaves [0, 1]")
    for name in inv.non_negative:
        column = values(name)
        floor = -ROUNDING * max((abs(v) for v in column if _is_number(v)), default=0.0)
        if any(not (_is_number(v) and v >= floor) for v in column):
            problems.append(f"column {name!r} is negative")
    for name in inv.verdicts:
        if values(name) != [True]:
            problems.append(f"verdict {name!r} is not true")
    for name in inv.empty:
        if any(v != "" for v in values(name)):
            problems.append(f"column {name!r} is not empty")
    for name, limit in inv.below:
        if any(not (_is_number(v) and abs(v) < limit) for v in values(name)):
            problems.append(f"column {name!r} reaches {limit:g}")
    entry = reference.get(inv.name)
    if entry is not None and entry["args"] == list(inv.args):
        problems.extend(_against_reference(entry, columns))
    return problems


def main() -> int:
    """Regenerate reference.json from the program at the default seed."""
    env = workloads.child_env(os.getcwd())
    reference = {}
    for workload in workloads.WORKLOADS:
        for inv in workloads.build(workload, workloads.DEFAULT_SEED):
            out = subprocess.run(
                [sys.executable, "-m", "optograv.cli", *inv.args],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            problems = check(inv, out, {})
            if problems:
                raise SystemExit(f"{inv.name}: {problems}")
            reference[inv.name] = reference_entry(inv, out)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
