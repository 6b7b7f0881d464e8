"""The factored Fock layer against the dense routes it replaced.

``dense_reference.hamiltonian_blocks`` assembles each sector from the
per-mode Hamiltonians of ``oracle`` and must reproduce the older switched
assembly bit for bit.
``oracle.interaction_picture_residual`` rotates each mode's position by
per-mode eigendecompositions and must match the residual of the same
factors rotated by matrix exponentials (``dense_reference.mode_residual``)
to 1e-13 absolute.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import optograv as og
from optograv import oracle
from optograv.config import load_params

import dense_reference
import setups

ATOL = 1e-13

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _period_grid(count):
    """Residual times of the oracle check: ``count`` points up to two periods."""
    return lambda period: np.linspace(period / count, 2.0 * period, count)


def _boosted():
    return setups.dimensionless_params(gamma=1e-2, lambda_m=0.445, lambda_M=0.521)


def _boosted_at(n_max):
    return (_boosted, og.HilbertSpec(n_max, n_max), lambda period: (0.0, 1.0, 4.0))


#: name -> (parameters, spec, times as a function of the period).  The
#: ``margin_<n>`` cases hold the boosted couplings at n_max = n, truncations
#: within the 20 levels that a fixed margin at the ladder's top would span.
CASES = {
    "si_reference": (setups.reference_params, og.HilbertSpec(30, 30), _period_grid(16)),
    "dimensionless": (lambda: load_params(CONFIGS / "dimensionless.cfg"),
                      og.HilbertSpec(30, 30), _period_grid(8)),
    "margin_6": _boosted_at(6),
    "margin_12": _boosted_at(12),
    "margin_18": _boosted_at(18),
    "asymmetric_spec": (lambda: load_params(CONFIGS / "dimensionless.cfg"),
                        og.HilbertSpec(12, 27), lambda period: (0.3 * period, 1.3 * period)),
    "lambda_zero": (lambda: setups.dimensionless_params(gamma=0.3, lambda_m=0.0, lambda_M=0.0),
                    og.HilbertSpec(16, 16), lambda period: (1.0, period, 2.5 * period)),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    make_params, spec, times = CASES[request.param]
    p = make_params()
    dc = og.derive_couplings(p)
    return p, dc, spec, times(2.0 * math.pi / dc.omega_a)


def test_hamiltonian_blocks_equal_dense_assembly(case):
    p, dc, spec, _ = case
    factored = dense_reference.hamiltonian_blocks(dc, spec).blocks
    dense = dense_reference.switched_blocks(dc, p, spec)
    assert factored.keys() == dense.keys()
    for key, block in dense.items():
        assert factored[key].dtype == block.dtype
        assert np.array_equal(factored[key], block), key


def test_factored_residual_matches_dense_residual(case):
    _, dc, spec, times = case
    residual = oracle.interaction_picture_residual(dc, spec, times)
    assert residual.shape == (len(times),)
    expected = [dense_reference.mode_residual(dc, spec, float(t)) for t in times]
    assert residual == pytest.approx(expected, abs=ATOL)


def test_residual_times_batch_equals_one_call_per_time(case):
    _, dc, spec, times = case
    batch = oracle.interaction_picture_residual(dc, spec, times)
    single = [oracle.interaction_picture_residual(dc, spec, [t])[0] for t in times]
    assert np.array_equal(batch, single)
