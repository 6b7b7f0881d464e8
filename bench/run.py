"""Benchmark of the optograv command line: cold-process time to a verified result.

Run from the root of a checkout::

    python3 bench/run.py --workload quicklook --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``), each a pass of cold ``optograv`` processes
run one at a time from this single parent process:

* ``quicklook``: six cheap subcommands at the SI reference.  Interpreter start
  and import are most of each call, so set-up changes show here and the Fock
  kernels do no work.
* ``entropy-curve``: ``figure --which fig3 --t-points 512``.  The first-order
  entropy quadrature is nearly all of it and no eigendecomposition runs.
* ``verify``: ``oracle --n-max 30`` at the dimensionless config.  One
  decomposition reused over 48 times, 8 frame-rotation residuals and the
  4-gamma scaling study: residual and evolve changes show here.
* ``sweep``: an oracle-enabled 4-gamma ``scan``.  Every row builds fresh
  decompositions and evaluates them at one time, so eigendecomposition cost
  dominates and ``scan.run_scan`` with its row-error capture runs.

With ``--trace 0`` a run first starts ``SETUP_PROBES`` cold processes that
import ``optograv.cli`` and load the workload's parameter file, then repeats
passes while another one fits into ``--seconds`` (at least one).  Metrics:

* ``wall_s``: median seconds of a pass, from the spawn of its first process
  to the exit of its last, import included;
* ``setup_s``: median seconds of a set-up probe;
* ``peak_rss_mb``: median over passes of the largest resident set of any
  process of the pass, in 10^6 bytes.

A pass counts only if every output passes ``checks.check``; ``attempted`` and
``failed`` count invocations, set-up probes included, so their ratio is the
failure fraction.  With ``--trace 1`` the run instead starts ``tracing.py``,
which reports the per-layer metrics and counts its in-process invocations
the same way.  Every child gets the pinned BLAS thread counts of
``workloads.PINNED_THREADS``; the machine record printed before the result
names them.  The last line of output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import checks
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5
#: A run ends within this many seconds: a child still running then is killed.
RUN_DEADLINE_S = 170.0

SETUP_PROBE = (
    "import sys, optograv.cli\n"
    "from optograv.config import load_params\n"
    "load_params(sys.argv[1])\n"
)
MACHINE_PROBE = (
    "import json, sys, numpy, scipy, optograv.cli\n"
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,\n"
    "                  'scipy': scipy.__version__,\n"
    "                  'blas': f\"{blas.get('name')} {blas.get('version')}\"}))\n"
)


def spawn(argv, env, stem: str, deadline: float) -> tuple[int, int]:
    """Run one child to its exit with stdout and stderr in ``stem``.out/.err.

    Returns its exit code and peak resident set in bytes, from the child's
    own resource usage.  The child is killed at ``deadline``
    (``time.perf_counter`` seconds).
    """
    with open(stem + ".out", "wb") as out, open(stem + ".err", "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        killer = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss * 1024


def _read(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def machine_record(env, args) -> dict:
    """Machine, library versions, pinned threads, commit and seed of this run."""
    probe = subprocess.run([sys.executable, "-c", MACHINE_PROBE], env=env,
                           capture_output=True, text=True, timeout=120)
    if probe.returncode != 0:
        raise RuntimeError(f"cannot import optograv: {probe.stderr.strip()[-500:]}")
    record = {"nproc": len(os.sched_getaffinity(0)), **json.loads(probe.stdout)}
    record["threads"] = dict(workloads.PINNED_THREADS)
    record["commit"] = None
    if os.path.isdir(".git"):
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=30)
        record["commit"] = git.stdout.strip() if git.returncode == 0 else None
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace)
    return record


class Tally:
    """Attempted and failed processes, with a report of each failure."""

    def __init__(self):
        self.attempted = self.failed = 0

    def record(self, label: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)


def _describe(name: str, values: list[float], unit: str):
    print(f"{name} = {statistics.median(values):.6g} {unit} (median of {len(values)}; "
          f"min {min(values):.6g}, max {max(values):.6g})")


def measure_cold(args, env, tally: Tally) -> dict:
    """End-to-end metrics from set-up probes and cold-process passes."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    invocations = workloads.build(args.workload, args.seed, tiny=args.tiny)
    reference = checks.load_reference()
    stem = os.path.join(workloads.WORK_DIR, args.workload)

    setups = []
    probe = [sys.executable, "-c", SETUP_PROBE, workloads.parameter_file(args.workload)]
    for _ in range(1 if args.tiny else SETUP_PROBES):
        start = time.perf_counter()
        code, _ = spawn(probe, env, stem + "-setup", deadline)
        setups.append(time.perf_counter() - start)
        tally.record("setup probe", [f"exit code {code}: {_read(stem + '-setup.err')[-300:]}"]
                     if code else [])

    walls, peaks = [], []
    budget_start = time.perf_counter()
    while True:
        results = []
        start = time.perf_counter()
        for inv in invocations:
            results.append(spawn([sys.executable, "-m", "optograv.cli", *inv.args], env,
                               f"{stem}-{inv.name}", deadline))
        walls.append(time.perf_counter() - start)
        peaks.append(max(rss for _, rss in results) / 1e6)
        for inv, (code, _) in zip(invocations, results):
            path = f"{stem}-{inv.name}"
            problems = [f"exit code {code}: {_read(path + '.err')[-300:]}"] if code else \
                checks.check(inv, _read(path + ".out"), reference)
            tally.record(inv.name, problems)
        now = time.perf_counter()
        per_pass = (now - budget_start) / len(walls)
        if now - budget_start + per_pass > args.seconds or now + per_pass > deadline:
            break

    _describe("wall_s", walls, "s")
    _describe("setup_s", setups, "s")
    _describe("peak_rss_mb", peaks, "MB")
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(peaks), "unit": "MB"},
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_flops"):
        return "flop"
    if name.endswith("_bytes"):
        return "B"
    if name == "fail_frac":
        return "fraction"
    return "count"


def measure_traced(args, env, tally: Tally) -> dict:
    """Per-layer metrics from one traced in-process child."""
    argv = [sys.executable, os.path.join(BENCH_DIR, "tracing.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.tiny:
        argv.append("--tiny")
    stem = os.path.join(workloads.WORK_DIR, f"{args.workload}-trace")
    code, _ = spawn(argv, env, stem, time.perf_counter() + RUN_DEADLINE_S)
    sys.stderr.write(_read(stem + ".err"))
    if code != 0:
        raise RuntimeError(f"traced run exited with code {code}")
    result = json.loads(_read(stem + ".out").splitlines()[-1])
    tally.attempted += result["attempted"]
    tally.failed += result["failed"]
    metrics = result["metrics"]
    layers = {k: v for k, v in metrics.items() if k.endswith("_s") and not k.startswith("trace.")}
    top = max(layers, key=layers.get)
    print(f"largest self time: {top} = {layers[top]:.6g} s of "
          f"{metrics['trace.wall_s'] + metrics['cli.import_s']:.6g} s traced "
          f"(import plus the mean of {result['passes']} traced passes)")
    return {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every size; for the benchmark's self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "optograv", "cli.py")):
        print("error: run from the root of an optograv checkout (no src/optograv/cli.py)",
              file=sys.stderr)
        return 2
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    env = workloads.child_env(os.getcwd())
    print("machine " + json.dumps(machine_record(env, args), sort_keys=True))
    tally = Tally()
    metrics = measure_traced(args, env, tally) if args.trace else measure_cold(args, env, tally)
    print(f"fail_frac = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} failed of {tally.attempted} invocations)")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
