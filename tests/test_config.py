"""Provenance fingerprints: SHA-256 of a canonical JSON, whichever module computes it."""

import hashlib
import importlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from optograv import config
from optograv.scan import ScanPlan

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def configs():
    return [config.load_params(CONFIGS / name) for name in ("reference.cfg", "dimensionless.cfg")]


def example_plan():
    return asdict(ScanPlan(**config.load_scan_plan(CONFIGS / "scan_example.cfg")))


def hashlib_digest(payload):
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def test_fingerprints_are_the_sha256_of_the_canonical_json():
    for p in configs():
        assert config.fingerprint_params(p) == hashlib_digest(p.as_dict())
    assert config.fingerprint(example_plan()) == hashlib_digest(example_plan())


@pytest.fixture()
def config_without_builtin_sha256(monkeypatch):
    """``config`` reloaded where neither built-in SHA-256 module imports."""
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)
    try:
        yield importlib.reload(config)
    finally:
        monkeypatch.undo()
        importlib.reload(config)


def test_hashlib_fallback_gives_the_same_digests(config_without_builtin_sha256):
    fallback = config_without_builtin_sha256
    assert fallback.sha256 is hashlib.sha256
    for p in configs():
        assert fallback.fingerprint_params(p) == hashlib_digest(p.as_dict())
    assert fallback.fingerprint(example_plan()) == hashlib_digest(example_plan())
