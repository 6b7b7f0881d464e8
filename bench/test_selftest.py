"""Self-test of the benchmark: every workload at tiny sizes, both modes.

Run from the checkout root (about a minute)::

    python3 -m pytest -q bench/test_selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import checks  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

#: Metric names the benchmark is defined to report.
REQUIRED_END_TO_END = {"wall_s", "setup_s", "peak_rss_mb"}
REQUIRED_PER_LAYER = {
    "cli.import_s", "cli.self_s", "config.load_params_s",
    "params.derive_couplings_s", "params.derive_couplings.calls",
    "analytic.closed_form_s", "analytic.linear_entropy_first_order_s",
    "analytic.linear_entropy_first_order.calls",
    "oracle.entropy_expectations_s", "oracle.entropy_expectations.calls",
    "oracle.entropy_nodes", "oracle.hamiltonian_blocks_s",
    "oracle.propagator_build_s", "oracle.propagator_build.calls", "oracle.eigh_flops",
    "oracle.evolve_s", "oracle.evolve.calls", "oracle.evolve_flops",
    "oracle.residual_build_s", "oracle.residual_s", "oracle.residual.calls",
    "oracle.residual_bytes", "oracle.dyson_first_order_state_s", "oracle.observables_s",
    "oracle.thermal_montecarlo_s", "scan.scaling_study_s", "scan.run_scan_s",
    "scan.rows", "scan.row_errors", "trace.overhead_s", "fail_frac",
}


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_spec_names_every_required_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert REQUIRED_END_TO_END <= {m["name"] for m in SPEC["end_to_end"]}
    assert REQUIRED_PER_LAYER <= {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert any(line.startswith("machine {") for line in proc.stdout.splitlines())
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        self_sum = sum(v for name, v in values.items()
                       if name.endswith("_s") and not name.startswith("trace.")
                       and name != "cli.import_s")
        gap = values["trace.wall_s"] - self_sum
        assert 0.0 <= gap <= abs(values["trace.overhead_s"]) + 1e-3, (gap, values)


def test_refuses_without_sources():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run(bare, "--workload", "quicklook", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_reference_checks_catch_a_changed_value():
    entry = checks.load_reference()["derive"]
    inv = workloads.build("quicklook", workloads.DEFAULT_SEED)[0]
    good = json.dumps({name: col["values"][0] for name, col in entry["columns"].items()})
    assert checks.check(inv, good, {"derive": entry}) == []
    bad = json.loads(good)
    bad["omega_a"] *= 1.0 + 1e-6
    assert checks.check(inv, json.dumps(bad), {"derive": entry})
