"""The benchmark's four workloads, as `optograv` command lines.

Each workload is a list of :class:`Invocation` objects: the arguments after
``optograv`` and the invariants its output must satisfy.  The workload seed
changes inputs only where the amount of work stays the same: the ``--seed``
of ``thermal`` and ``scan``, the fig3 window start and the sweep's gamma
values.  Point counts, Fock truncations, row counts and time counts are fixed
per workload, so timings compare across seeds.  ``DEFAULT_SEED`` gives the
canonical inputs whose outputs are stored in ``reference.json``.

``tiny=True`` shrinks every size so that the self-test runs each workload in
seconds; tiny runs are checked by invariants only, because their command
lines differ from the stored reference ones.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("quicklook", "entropy-curve", "verify", "sweep")
DEFAULT_SEED = 0

REFERENCE_CFG = "configs/reference.cfg"
DIMENSIONLESS_CFG = "configs/dimensionless.cfg"
SWEEP_PLAN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sweep_plan.cfg")
#: Generated plan files and child outputs, relative to the checkout root.
WORK_DIR = os.path.join(".bench_build", "optograv-bench")

#: Largest relative jitter applied to the sweep's gamma values.
GAMMA_JITTER = 0.1

#: BLAS thread counts pinned in every child process: the single-threaded
#: baseline, which still shows any parallelism the program adds itself.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env(root: str) -> dict:
    """Environment of a child process: pinned threads, the checkout's sources."""
    return dict(os.environ, **PINNED_THREADS, PYTHONPATH=os.path.join(root, "src"))


@dataclass(frozen=True)
class Invocation:
    """One cold `optograv` call and the invariants its output must meet.

    Column names refer to the CSV header, or to the dotted key path of a JSON
    output (see ``checks.read_output``).
    """

    name: str
    args: tuple
    unit_interval: tuple = ()  # columns whose values lie in [0, 1]
    non_negative: tuple = ()  # columns whose values are >= 0
    verdicts: tuple = ()  # boolean columns that must be true
    empty: tuple = ()  # string columns that must be empty
    below: tuple = ()  # (column, limit) pairs: every |value| < limit


def parameter_file(workload: str) -> str:
    """The parameter file a workload's invocations read."""
    return DIMENSIONLESS_CFG if workload in ("verify", "sweep") else REFERENCE_CFG


def _config_value(path: str, key: str) -> float:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            name, sep, value = line.partition("=")
            if sep and name.strip() == key:
                return float(value.split("#")[0])
    raise KeyError(f"{path} has no {key!r}")


def _sweep_plan(gammas, n_max: int) -> str:
    """Write the sweep plan with the given gammas and truncation.

    The file name carries a digest of the content, so a command line names
    its plan's content and can be matched against the stored reference.
    """
    lines = []
    with open(SWEEP_PLAN, encoding="utf-8") as fh:
        for line in fh:
            key = line.partition("=")[0].strip()
            if key == "values_direct_gamma":
                line = "values_direct_gamma = " + ", ".join(repr(g) for g in gammas) + "\n"
            elif key == "n_max":
                line = f"n_max = {n_max}\n"
            lines.append(line)
    text = "".join(lines)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
    path = os.path.join(WORK_DIR, f"sweep-{digest}.cfg")
    os.makedirs(WORK_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def build(workload: str, seed: int, tiny: bool = False) -> list[Invocation]:
    """Invocations of one pass of ``workload`` at ``seed``."""
    rng = random.Random(seed)
    s = str(seed)
    if workload == "quicklook":
        points = ("--t-points", "16") if tiny else ()
        samples = ("--mc-samples", "100") if tiny else ()
        return [
            Invocation("derive", ("derive", "--params", REFERENCE_CFG)),
            Invocation("feasibility", ("feasibility", "--params", REFERENCE_CFG)),
            Invocation(
                "fig2a",
                ("figure", "--which", "fig2a", "--params", REFERENCE_CFG, *points),
                unit_interval=("value",),
            ),
            Invocation("fig2b", ("figure", "--which", "fig2b", "--params", REFERENCE_CFG, *points)),
            Invocation(
                "scan",
                ("scan", "--params", REFERENCE_CFG, "--plan", "configs/scan_example.cfg",
                 "--seed", s),
                unit_interval=("visibility",),
            ),
            Invocation(
                "thermal",
                ("thermal", "--params", REFERENCE_CFG, "--seed", s, *samples),
                unit_interval=("thermal_law", "mc_mean"),
            ),
        ]
    if workload == "entropy-curve":
        window = ()
        if seed != DEFAULT_SEED:
            # Shift the three-period window by up to 1/8 period; its length
            # and point count stay fixed.
            period = 2.0 * math.pi / _config_value(REFERENCE_CFG, "bare_freq_a")
            start = rng.uniform(0.0, period / 8.0)
            window = ("--t-start", repr(start), "--t-stop", repr(start + 3.0 * period))
        points = "4" if tiny else "512"
        return [
            Invocation(
                "fig3",
                ("figure", "--which", "fig3", "--params", REFERENCE_CFG,
                 "--t-points", points, *window),
                non_negative=("value",),
            )
        ]
    if workload == "verify":
        sizes = ("--n-max", "25", "--equivalence-points", "4", "--residual-times", "1") if tiny \
            else ("--n-max", "30")
        return [
            Invocation("oracle", ("oracle", "--params", DIMENSIONLESS_CFG, *sizes),
                       verdicts=("passed",))
        ]
    if workload == "sweep":
        gammas = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
        if seed != DEFAULT_SEED:
            gammas = [g * rng.uniform(1.0 - GAMMA_JITTER, 1.0 + GAMMA_JITTER) for g in gammas]
        plan = _sweep_plan(gammas[:1] if tiny else gammas, 25 if tiny else 28)
        return [
            Invocation(
                "sweep",
                ("scan", "--params", DIMENSIONLESS_CFG, "--plan", plan, "--seed", s),
                unit_interval=("visibility", "visibility_exact"),
                non_negative=("entropy", "entropy_exact"),
                empty=("error",),
                below=(("truncation_delta", 1e-9),),
            )
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
