"""Provenance fingerprints: SHA-256 of a canonical JSON, whichever module computes it."""

import hashlib
import importlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from optograv import config
from optograv.errors import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def configs():
    return [config.load_params(CONFIGS / name) for name in ("reference.cfg", "dimensionless.cfg")]


def example_plan():
    return asdict(config.load_scan_plan(CONFIGS / "scan_example.cfg", "si"))


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


@pytest.mark.parametrize("units, seed, expected", [
    ("si", None, (1234, "si")),
    ("si", 0, (0, "si")),
    ("si", 3, (3, "si")),
    ("dimensionless", None, (1234, "dimensionless")),
])
def test_scan_plan_takes_the_seed_override_and_the_params_units(units, seed, expected):
    plan = config.load_scan_plan(CONFIGS / "scan_example.cfg", units, seed)
    assert (plan.seed, plan.mode) == expected


def test_scan_plan_refuses_a_mode_other_than_the_params_units():
    with pytest.raises(ConfigError) as info:
        config.load_scan_plan(CONFIGS.parent / "bench" / "sweep_plan.cfg", "si")
    assert str(info.value) == "plan mode 'dimensionless' conflicts with params units 'si'"
