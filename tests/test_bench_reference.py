"""The benchmark's invocations at its default seed meet its stored reference.

Runs every ``bench/workloads.py`` command line in-process through
``cli.main``, from a scratch working directory that holds a copy of
``configs/``, and checks each output with ``bench/checks.py`` against
``bench/reference.json``, so a change of any reference value fails here
before the benchmark runs.
"""

import shutil
import sys
from pathlib import Path

from optograv.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402
import workloads  # noqa: E402


def test_default_seed_invocations_match_the_reference(capsys, monkeypatch, tmp_path):
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    reference = checks.load_reference()
    for workload in workloads.WORKLOADS:
        for inv in workloads.build(workload, workloads.DEFAULT_SEED):
            code = main(list(inv.args))
            captured = capsys.readouterr()
            assert code == 0, (inv.name, captured.err)
            assert checks.check(inv, captured.out, reference) == [], inv.name
