"""The batched thermal Monte Carlo against its former one-time-per-call form.

``gaussian.thermal_visibility_montecarlo`` draws the samples once and serves
every time; it draws the bootstrap indices a chunk of rows at a time, each
chunk serving a block of up to 16 times through a bounded gather buffer, so
it holds no index table.  ``dense_reference.thermal_visibility_montecarlo_per_time``
re-seeds, redraws and gathers every resample at once for each time.  The
two must agree bit for bit.  The reference's oracle method, a propagation
in a truncated Fock ladder, must agree to 1e-12 with a Monte Carlo of the
exact Gaussian coherence over the same draws, whatever the bootstrap's
gather size.
"""

import math

import numpy as np
import pytest

import dense_reference
import optograv as og
from optograv import gaussian
from optograv.errors import ParameterError

from test_oracle import small_setup
from test_scan import traced_peak

ORACLE_ATOL = 1e-12


def period(dc):
    return 2.0 * math.pi / dc.omega_a


def per_time(dc, p, spec, nbar, times, n_samples, seed, **kwargs):
    rows = [dense_reference.thermal_visibility_montecarlo_per_time(
        dc, p, spec, nbar, float(t), n_samples, seed, **kwargs) for t in times]
    return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])


def assert_bitwise(batched, reference):
    for got, want in zip(batched, reference):
        assert np.array_equal(got, want)


class TestClosedFormBitwise:
    @pytest.mark.parametrize("seed", [0, 5, 20240817])
    @pytest.mark.parametrize("nbar", [0.0, 0.5, 5.0])
    @pytest.mark.parametrize("n_samples", [100, 10000])
    def test_matches_per_time_calls(self, ref_params, ref_couplings, seed, nbar, n_samples):
        # One revival period in 8 steps (the `thermal` default grid): the
        # last time is the revival, where the standard error is exactly 0.
        times = np.linspace(period(ref_couplings) / 8.0, period(ref_couplings), 8)
        batched = og.thermal_visibility_montecarlo(ref_couplings, nbar, times, n_samples, seed)
        assert_bitwise(batched, per_time(ref_couplings, ref_params, None, nbar, times,
                                         n_samples, seed))

    @staticmethod
    def assert_partial_chunks_match(p, dc, monkeypatch, n_samples, times):
        # Seven resamples per gather and 37 resamples: five full chunks and
        # a partial one.
        monkeypatch.setattr(gaussian, "_GATHER_BYTES", 16 * n_samples * 7)
        monkeypatch.setattr(gaussian, "_BOOTSTRAP_RESAMPLES", 37)
        batched = og.thermal_visibility_montecarlo(dc, 1.0, times, n_samples, 3)
        assert_bitwise(batched, per_time(dc, p, None, 1.0, times, n_samples, 3,
                                         bootstrap_resamples=37))

    @pytest.mark.parametrize("n_samples", [100, 10000])
    def test_partial_gather_chunks(self, ref_params, ref_couplings, monkeypatch, n_samples):
        # A grid from t = 0 past the revival.
        T = period(ref_couplings)
        self.assert_partial_chunks_match(ref_params, ref_couplings, monkeypatch, n_samples,
                                         [0.0, 0.37 * T, T, 2.0 * T, 2.6 * T])

    @pytest.mark.parametrize("n_samples", [100, 10000])
    def test_partial_time_blocks(self, ref_params, ref_couplings, monkeypatch, n_samples):
        # 37 times: two full blocks of 16 and a partial one of 5, each
        # redrawing the same index rows.
        times = np.linspace(0.0, 2.6 * period(ref_couplings), 37)
        self.assert_partial_chunks_match(ref_params, ref_couplings, monkeypatch, n_samples,
                                         times)

    def test_revival_error_is_exactly_zero(self, ref_couplings):
        _, errors = og.thermal_visibility_montecarlo(
            ref_couplings, 1.0, [period(ref_couplings)], 10000, 0)
        assert errors[0] == 0.0


class TestOracleBatch:
    TIMES = [7.0, 0.5, 2.0 * math.pi, 2.2]  # unsorted, with the revival of omega_a = 1

    @pytest.mark.parametrize("gather_bytes", [None, 1])
    def test_matches_per_time_calls(self, monkeypatch, gather_bytes):
        # The Fock-ladder reference at n_max 30 is within 1.1e-15 of the
        # exact coherence (5.3e-12 at n_max 20).
        p, dc, spec = small_setup(gamma=5e-3, lambda_m=0.3, lambda_M=0.2, n_max=30)
        reference = per_time(dc, p, spec, 0.4, self.TIMES, 150, 17, method="oracle")
        if gather_bytes is not None:  # one bootstrap resample per gather
            monkeypatch.setattr(gaussian, "_GATHER_BYTES", gather_bytes)
        means, errors = dense_reference.coupled_thermal_montecarlo(
            dc, p.beta_M, 0.4, self.TIMES, 150, 17)
        assert np.max(np.abs(means - reference[0])) <= ORACLE_ATOL
        assert np.max(np.abs(errors - reference[1])) <= ORACLE_ATOL


class TestIndexDraw:
    @pytest.mark.parametrize("seed", [0, 5, 20240817])
    @pytest.mark.parametrize("n_samples", [100, 10000])
    def test_int32_draw_equals_default_draw(self, seed, n_samples):
        draws = []
        for dtype in (np.int64, np.int32):
            rng = np.random.default_rng(seed)
            rng.normal(size=2 * n_samples)
            draws.append(rng.integers(0, n_samples, size=(200, n_samples), dtype=dtype))
        assert np.array_equal(draws[0], draws[1])

    @pytest.mark.parametrize("n_samples", [100, 101, 12345])
    def test_row_chunked_draw_equals_one_draw(self, n_samples):
        # The bootstrap draws its index table in gather-sized row chunks.
        def table(chunk, rows=200):
            rng = np.random.default_rng(11)
            rng.normal(size=2 * n_samples)
            return np.concatenate([
                rng.integers(0, n_samples, size=(min(chunk, rows - first), n_samples),
                             dtype=np.int32)
                for first in range(0, rows, chunk)])
        whole = table(200)
        for chunk in (1, 6, 7):
            assert np.array_equal(table(chunk), whole), chunk


class TestMemory:
    @pytest.mark.parametrize("n_times, limit", [(8, 4e6), (256, 8e6)])
    def test_no_index_table_is_held(self, ref_couplings, n_times, limit):
        # The (200, 10^4) int32 index table alone is 8 MB; a block of 16
        # times' elements is 2.56 MB and the gather buffer 1 MiB.
        times = np.linspace(0.0, 2.6 * period(ref_couplings), n_times)
        peak = traced_peak(
            lambda: og.thermal_visibility_montecarlo(ref_couplings, 1.0, times, 10000, 0))
        assert peak < limit


class TestValidation:
    @pytest.mark.parametrize("times", [[], [[1e-3]], [float("nan")], [float("inf")],
                                       [1e-3, -1e-3], 1e-3])
    def test_rejects_bad_times(self, ref_couplings, times):
        with pytest.raises(ParameterError):
            og.thermal_visibility_montecarlo(ref_couplings, 1.0, times, 500, seed=1)

    def test_rejects_negative_seed(self, ref_couplings):
        with pytest.raises(ParameterError, match="seed"):
            og.thermal_visibility_montecarlo(ref_couplings, 1.0, [1e-3], 500, seed=-1)
