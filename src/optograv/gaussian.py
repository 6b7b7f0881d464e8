"""Thermal Monte Carlo, the one part of the visibility that needs numpy.

It holds only the photon element of coherent rods (:func:`photon_offdiagonal`,
vectorised over amplitudes), its Monte-Carlo average over a thermal rod m
(:func:`thermal_visibility_montecarlo`), which checks the gravity-free law,
and the streamed bootstrap.  The exact coupled visibility, thermal or
coherent, is the closed form :func:`analytic.visibility`.
"""

from __future__ import annotations

import math

import numpy as np

from . import analytic
from .errors import ParameterError
from .params import DerivedCouplings


def photon_offdiagonal(beta, lam, omega, t):
    """Complex off-diagonal photon matrix element for a rod in state |beta>
    at one time ``t``, without gravity (:func:`analytic.coherent_trajectories`).

    Vectorised over ``beta``.  The visibility is twice its magnitude; thermal
    averaging must average this complex element (its beta-dependent phase is
    what produces the thermal enhancement), never the magnitude alone.
    """
    phi0, phi1, phase = analytic.coherent_trajectories(beta, lam, omega, t)
    overlap = np.exp(
        -0.5 * np.abs(phi0) ** 2 - 0.5 * np.abs(phi1) ** 2 + np.conj(phi0) * phi1
    )
    return 0.5 * np.exp(1j * phase) * overlap


#: Bytes of resampled elements gathered at once by the bootstrap (its
#: indices are in range, and mode "clip" skips the checked, buffered take).
_GATHER_BYTES = 1 << 20
#: Bootstrap resamples behind each standard error.
_BOOTSTRAP_RESAMPLES = 200
#: Times that share each chunk of bootstrap index rows: more times per draw
#: let the gathered rows fall out of cache.
_TIME_BLOCK = 16


def thermal_visibility_montecarlo(
    dc: DerivedCouplings, nbar: float, times, n_samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo thermal visibility of the rod-m cavity at each of ``times``.

    Samples rod-m amplitudes beta from the circular complex Gaussian with
    E|beta|^2 = nbar (two independent normal draws of standard deviation
    sqrt(nbar/2) from ``numpy.random.default_rng(seed)``, real part first),
    evolves each sample with the exactly solvable gravity-free dynamics,
    averages the complex path-coherence element over the samples, and
    returns arrays of 2*|mean| and of its bootstrap standard error, one
    entry per time.  It checks :func:`analytic.thermal_visibility`, the
    gravity-free law; :func:`analytic.visibility` is the coupled average in
    closed form.  The samples are drawn once and serve every time; the
    bootstrap indices that follow them in the generator are redrawn, from
    the same state, for each block of up to ``_TIME_BLOCK`` times, a bounded
    chunk of index rows at a time, so no index table is held and memory
    does not grow with the number of times.
    """
    times = analytic._as_times(times)
    if n_samples < 100:
        raise ParameterError(f"n_samples must be >= 100, got {n_samples}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    analytic._check_occupation(nbar)
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(nbar / 2.0)
    betas = rng.normal(0.0, sigma, n_samples) + 1j * rng.normal(0.0, sigma, n_samples)
    after_samples = rng.bit_generator.state
    elements = np.empty((min(_TIME_BLOCK, len(times)), n_samples), dtype=complex)
    means, std_errors = [], []
    for first in range(0, len(times), _TIME_BLOCK):
        block = times[first : first + _TIME_BLOCK]
        for row, t in zip(elements, block):
            row[:] = photon_offdiagonal(betas, dc.lambda_m, dc.omega_a, t)
        rng.bit_generator.state = after_samples
        block_means, block_errors = _bootstrap_visibility(elements[: len(block)], rng)
        means.append(block_means)
        std_errors.append(block_errors)
    return np.concatenate(means), np.concatenate(std_errors)


def _bootstrap_visibility(elements: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """2*|mean| of each row of ``elements`` (T, N), one row per time, and its
    bootstrap standard error over ``_BOOTSTRAP_RESAMPLES`` resamples.

    The (resamples, N) int32 index table is drawn from ``rng`` a chunk of
    rows at a time; a table drawn in row chunks from one generator is the
    table one call would draw, so every row of ``elements`` sees the same
    resamples as it would from one table.  Each chunk serves every row
    before the next is drawn, and at most ``_GATHER_BYTES`` of resampled
    elements are gathered at a time.  The means and errors are reduced one
    row at a time, as 1-D arrays, so they do not depend on the block.
    """
    n_samples = elements.shape[1]
    chunk = max(1, _GATHER_BYTES // (16 * n_samples))
    gathered = np.empty((min(chunk, _BOOTSTRAP_RESAMPLES), n_samples), dtype=complex)
    resampled = np.empty((len(elements), _BOOTSTRAP_RESAMPLES), dtype=complex)
    for first in range(0, _BOOTSTRAP_RESAMPLES, chunk):
        rows = min(chunk, _BOOTSTRAP_RESAMPLES - first)
        chosen = rng.integers(0, n_samples, size=(rows, n_samples), dtype=np.int32)
        for row, out in zip(elements, resampled):
            np.take(row, chosen, mode="clip", out=gathered[:rows])
            out[first : first + rows] = gathered[:rows].mean(axis=1)
    means = [2.0 * abs(row.mean()) for row in elements]
    std_errors = [(2.0 * np.abs(out)).std(ddof=1) for out in resampled]
    return np.array(means), np.array(std_errors)
