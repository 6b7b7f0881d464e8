"""Traced in-process run of one workload: per-layer self times and counts.

Run by ``run.py --trace 1`` as a child process with the pinned BLAS
environment, from the checkout root::

    python3 bench/tracing.py --workload verify --seed 1 --seconds 20

It imports ``optograv.cli`` (timed as ``cli.import_s``), then repeats pairs of
passes over the workload's invocations through ``optograv.cli.main``: one
untraced, one with timing wrappers installed around the public functions of
``config``, ``params``, ``analytic``, ``oracle`` and ``scan``, and around
``cli.main``.  A wrapper replaces every binding of its function in the
package, so names that ``cli`` and ``scan`` import directly, such as
``derive_couplings`` and ``load_params``, are traced too.

A span opens only where a call crosses into another module; calls inside a
module are that module's own work.  A layer's ``_s`` metric is its self time:
span durations minus the time covered by their child spans.  Self times,
call counts and the computed kernel counts are means per traced pass, so the
self times of one pass sum to its traced wall time.  ``trace.overhead_s`` is
the mean traced pass minus the mean untraced pass.  The last line of output
is one JSON object: metrics, attempted, failed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time
from collections import Counter

import checks
import workloads

MODULES = ("config", "params", "analytic", "oracle", "scan")

#: Public functions with a metric of their own; every other public function
#: of a module counts towards ``<module>.other``.
LAYERS = {
    "cli.main": "cli.self",
    "config.load_params": "config.load_params",
    "params.derive_couplings": "params.derive_couplings",
    "analytic.visibility_uncoupled": "analytic.closed_form",
    "analytic.visibility_shift": "analytic.closed_form",
    "analytic.visibility_first_order": "analytic.closed_form",
    "analytic.thermal_visibility": "analytic.closed_form",
    "analytic.revival_peak_width": "analytic.closed_form",
    "analytic.linear_entropy_first_order": "analytic.linear_entropy_first_order",
    "oracle.entropy_expectations": "oracle.entropy_expectations",
    "oracle.hamiltonian_blocks": "oracle.hamiltonian_blocks",
    "oracle.Propagator.__init__": "oracle.propagator_build",
    "oracle.Propagator.evolve": "oracle.evolve",
    "oracle.InteractionPictureResidual.__init__": "oracle.residual_build",
    "oracle.InteractionPictureResidual.residual": "oracle.residual",
    "oracle.dyson_first_order_state": "oracle.dyson_first_order_state",
    "oracle.visibility_exact": "oracle.observables",
    "oracle.linear_entropy_exact": "oracle.observables",
    "oracle.initial_state": "oracle.observables",
    "oracle.closed_form_state": "oracle.observables",
    "oracle.off_diagonal_exact": "oracle.observables",
    "oracle.reduce": "oracle.observables",
    "oracle.thermal_visibility_montecarlo": "oracle.thermal_montecarlo",
    "scan.scaling_study": "scan.scaling_study",
    "scan.run_scan": "scan.run_scan",
}

#: Metrics that also report their call count as ``<metric>.calls``.
COUNTED = (
    "params.derive_couplings",
    "analytic.linear_entropy_first_order",
    "oracle.entropy_expectations",
    "oracle.propagator_build",
    "oracle.evolve",
    "oracle.residual",
)

#: The four photon-path sectors; each is one dense block of the oracle.
SECTORS = 4
#: Flops of one dense symmetric eigendecomposition with eigenvectors, 9 n^3
#: (Golub and Van Loan, symmetric QR).
EIGH_FLOPS_PER_N3 = 9
#: Flops of one evolve per sector: two products of a real n x n matrix with a
#: complex vector, 4 n^2 each.
EVOLVE_FLOPS_PER_N2 = 8
#: Bytes one residual moves per sector: (V e^{iwt}) @ R reads a complex and a
#: real n x n matrix and writes a complex one (40 n^2); the product with
#: (V e^{-iwt})^T reads two complex matrices and writes one (48 n^2).
RESIDUAL_BYTES_PER_N2 = 88


def _block_dim(spec) -> int:
    return spec.dim_a * spec.dim_b


def _count_eigh(counts, args, result):
    counts["oracle.eigh_flops"] += SECTORS * EIGH_FLOPS_PER_N3 * _block_dim(args[0].spec) ** 3


def _count_evolve(counts, args, result):
    counts["oracle.evolve_flops"] += SECTORS * EVOLVE_FLOPS_PER_N2 * _block_dim(args[0].spec) ** 2


def _count_residual(counts, args, result):
    counts["oracle.residual_bytes"] += SECTORS * RESIDUAL_BYTES_PER_N2 * _block_dim(args[0].spec) ** 2


def _count_nodes(counts, args, result):
    counts["oracle.entropy_nodes"] += result[1]["nodes"]


def _count_rows(counts, args, result):
    counts["scan.rows"] += len(result.rows)
    counts["scan.row_errors"] += sum(1 for row in result.rows if row["diagnostics"].get("error"))


#: Computed counts, added after each call of the keyed function.
COUNTERS = {
    "oracle.Propagator.__init__": _count_eigh,
    "oracle.Propagator.evolve": _count_evolve,
    "oracle.InteractionPictureResidual.residual": _count_residual,
    "oracle.entropy_expectations": _count_nodes,
    "scan.run_scan": _count_rows,
}
COUNT_NAMES = ("oracle.entropy_nodes", "oracle.eigh_flops", "oracle.evolve_flops",
               "oracle.residual_bytes", "scan.rows", "scan.row_errors")


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []  # [metric, start, end, parent index or -1]
        self.calls = Counter()
        self.counts = Counter()
        self._open = []  # (module, span index)

    def wrap(self, module: str, metric: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[metric] += 1
            if self._open and self._open[-1][0] == module:
                result = fn(*args, **kwargs)
            else:
                parent = self._open[-1][1] if self._open else -1
                span = [metric, time.perf_counter(), None, parent]
                self.spans.append(span)
                self._open.append((module, len(self.spans) - 1))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    self._open.pop()
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def self_times(self) -> Counter:
        """Span duration minus the duration of its child spans, per metric."""
        out = Counter()
        for metric, start, end, parent in self.spans:
            out[metric] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out


def _targets():
    """(owner, attribute, qualified name, module) of every traced callable."""
    yield sys.modules["optograv.cli"], "main", "cli.main", "cli"
    for module_name in MODULES:
        module = importlib.import_module(f"optograv.{module_name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield module, name, f"{module_name}.{name}", module_name
            elif inspect.isclass(obj):
                for method in ("__init__", *(m for m in vars(obj) if not m.startswith("_"))):
                    qualified = f"{module_name}.{name}.{method}"
                    if qualified in LAYERS and inspect.isfunction(vars(obj).get(method)):
                        yield obj, method, qualified, module_name


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace every traced callable, in every module binding it, by its wrapper."""
    modules = [m for name, m in sys.modules.items()
               if name == "optograv" or name.startswith("optograv.")]
    undo = []
    try:
        for owner, attr, qualified, module_name in list(_targets()):
            original = getattr(owner, attr)
            metric = LAYERS.get(qualified, f"{module_name}.other")
            wrapper = tracer.wrap(module_name, metric, original, COUNTERS.get(qualified))
            if inspect.isclass(owner):
                bindings = [owner]
            else:
                bindings = [m for m in modules if any(v is original for v in vars(m).values())]
            for binding in bindings:
                for name, value in list(vars(binding).items()):
                    if value is original:
                        setattr(binding, name, wrapper)
                        undo.append((binding, name, original))
        yield tracer
    finally:
        for binding, name, original in reversed(undo):
            setattr(binding, name, original)


def run_pass(cli, invocations, reference) -> tuple[float, list]:
    """Wall seconds of one in-process pass and its problems per invocation."""
    outputs = []
    start = time.perf_counter()
    for inv in invocations:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(inv.args))
        except Exception as exc:  # a crash is a failed invocation, not a crashed benchmark
            code, err = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
        outputs.append((inv, code, out.getvalue(), err.getvalue()))
    wall = time.perf_counter() - start
    problems = []
    for inv, code, text, err in outputs:
        found = [f"exit code {code}: {err.strip()[-300:]}"] if code != 0 else \
            checks.check(inv, text, reference)
        problems.append((inv.name, found))
    return wall, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import optograv.cli as cli

    import_s = time.perf_counter() - start

    invocations = workloads.build(args.workload, args.seed, tiny=args.tiny)
    reference = checks.load_reference()
    untraced, traced = [], []
    self_s, calls, counts = Counter(), Counter(), Counter()
    attempted = failed = 0
    budget_start = time.perf_counter()
    while True:
        for tracing in (False, True):
            tracer = Tracer()
            with installed(tracer) if tracing else contextlib.nullcontext():
                wall, problems = run_pass(cli, invocations, reference)
            (traced if tracing else untraced).append(wall)
            self_s.update(tracer.self_times())
            calls.update(tracer.calls)
            counts.update(tracer.counts)
            for name, found in problems:
                attempted += 1
                if found:
                    failed += 1
                    print(f"{name}: {'; '.join(found)}", file=sys.stderr)
        elapsed = time.perf_counter() - budget_start
        if elapsed + elapsed / len(traced) > args.seconds:
            break

    passes = len(traced)
    metrics = {"cli.import_s": import_s}
    for metric in sorted({*LAYERS.values(), *(f"{m}.other" for m in MODULES)}):
        metrics[f"{metric}_s"] = self_s[metric] / passes
    for metric in COUNTED:
        metrics[f"{metric}.calls"] = calls[metric] / passes
    for name in COUNT_NAMES:
        metrics[name] = counts[name] / passes
    metrics["trace.wall_s"] = sum(traced) / passes
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - sum(untraced) / len(untraced)
    metrics["fail_frac"] = failed / attempted
    print(json.dumps({"passes": passes, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
