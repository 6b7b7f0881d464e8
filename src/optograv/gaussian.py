"""Exact Gaussian layer: photon c's path coherence with no Fock truncation.

Coherent inputs stay Gaussian under the quadratic sector Hamiltonians, so the
coherence is exact (:func:`gaussian_coherence`).  The thermal Monte Carlo
samples it and scans measure the Fock truncation error against it; numpy is
all it needs, so the commands that use it do not load the Fock layer.
"""

from __future__ import annotations

import math

import numpy as np

from . import analytic
from .analytic import _as_times
from .errors import ParameterError
from .params import DerivedCouplings, PhysicalParams


def gaussian_coherence(dc, betas_m, beta_M, times) -> np.ndarray:
    """Exact photon-c path-coherence element, shape (T, N), with rod m in
    each coherent state |betas_m[n]> and rod M in |beta_M>, at each of
    ``times`` (a non-empty 1-D sequence, finite and >= 0).

    In the quadratures r = (q_a, p_a, q_b, p_b), x = sqrt(2)*q, the sector
    with cavity-path bits (p, q) has the Hamiltonian r^T M r / 2 +
    (p*u + q*v)^T M r (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)):
    one quadratic form about the centre -(p*u + q*v).  Each sector turns its
    displaced input by the common flow S(t) = exp(J M t) about its own
    centre, so the element is a sum of displacement overlaps, in which the
    flow of the common vacuum and its phase cancel:

        1/4 exp(-|w|^2/4 + i b^T J w)
            sum_q exp(i (u/2 + q v)^T (M u t - J S^-1 u)),

    with w = (1 - S^-1) u and b the input's mean quadratures.  One
    eigendecomposition of J M serves every time.  The modes are stable only
    while M is positive definite.
    """
    omega_a, omega_b, gamma = dc.omega_a, dc.omega_b, dc.gamma
    if not omega_a * omega_b > 4.0 * gamma * gamma:
        raise ParameterError(f"unstable coupled modes: omega_a*omega_b = {omega_a * omega_b!r} "
                             f"must exceed 4*gamma**2 = {4.0 * gamma * gamma!r}")
    times = _as_times(times)
    m = np.array([[omega_a, 0.0, 2.0 * gamma, 0.0], [0.0, omega_a, 0.0, 0.0],
                  [2.0 * gamma, 0.0, omega_b, 0.0], [0.0, 0.0, 0.0, omega_b]])
    j = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    inverse = np.linalg.inv(m)
    u = -math.sqrt(2.0) * dc.lambda_m * omega_a * inverse[0]
    v = -math.sqrt(2.0) * dc.lambda_M * omega_b * inverse[2]
    values, vectors = np.linalg.eig(j @ m)
    back = (np.exp(-np.multiply.outer(times, values))
            @ (vectors * np.linalg.solve(vectors, u)).T).real  # S^-1(t) u, (T, 4)
    w = u - back
    halves = np.stack([0.5 * u, 0.5 * u + v])
    phases = np.multiply.outer(times, halves @ m @ u) - back @ (halves @ j).T
    common = 0.25 * np.exp(1j * phases).sum(axis=1) * np.exp(-0.25 * np.sum(w * w, axis=1))
    inputs = np.stack(np.broadcast_arrays(np.asarray(betas_m, dtype=complex), complex(beta_M)), -1)
    b = math.sqrt(2.0) * inputs.view(float)  # (N, 4) mean quadratures
    return common[:, None] * np.exp(1j * (w @ (b @ j).T))


#: Bytes of resampled elements gathered at once by the bootstrap (its
#: indices are in range, and mode "clip" skips the checked, buffered take).
_GATHER_BYTES = 1 << 20


def thermal_visibility_montecarlo(
    dc: DerivedCouplings,
    p: PhysicalParams,
    nbar: float,
    times,
    n_samples: int,
    seed: int,
    method: str = "closedform",
    bootstrap_resamples: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo thermal visibility of the rod-m cavity at each of ``times``.

    Samples rod-m amplitudes beta from the circular complex Gaussian with
    E|beta|^2 = nbar (two independent normal draws of standard deviation
    sqrt(nbar/2) from ``numpy.random.default_rng(seed)``, real part first),
    averages the complex path-coherence element over the samples, and
    returns arrays of 2*|mean| and of its bootstrap standard error, one
    entry per time.  The samples, then the bootstrap indices, are drawn once
    and serve every time; each time's bootstrap is streamed, gathering a
    bounded chunk of index rows at a time, so memory does not grow with the
    number of times.

    ``method="closedform"`` evolves each sample with the exactly solvable
    gravity-free dynamics (exact when gamma = 0); ``method="oracle"`` with
    the full coupled dynamics carried by ``dc`` and rod M in |beta_M>,
    exactly and without truncation (:func:`gaussian_coherence`).
    """
    times = _as_times(times)
    if n_samples < 100:
        raise ParameterError(f"n_samples must be >= 100, got {n_samples}")
    if bootstrap_resamples < 2:
        raise ParameterError(f"bootstrap_resamples must be >= 2, got {bootstrap_resamples}")
    if not (math.isfinite(nbar) and nbar >= 0):
        raise ParameterError(f"nbar must be >= 0, got {nbar!r}")
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(nbar / 2.0)
    betas = rng.normal(0.0, sigma, n_samples) + 1j * rng.normal(0.0, sigma, n_samples)
    if method == "closedform":
        per_time = (analytic.photon_offdiagonal(betas, dc.lambda_m, dc.omega_a, t)
                    for t in times.tolist())
    elif method == "oracle":
        per_time = (gaussian_coherence(dc, betas, p.beta_M, [t])[0] for t in times.tolist())
    else:
        raise ParameterError(f"method must be 'closedform' or 'oracle', got {method!r}")
    indices = rng.integers(0, n_samples, size=(bootstrap_resamples, n_samples), dtype=np.int32)
    chunk = max(1, _GATHER_BYTES // (16 * n_samples))
    gathered = np.empty((min(chunk, bootstrap_resamples), n_samples), dtype=complex)
    resampled = np.empty(bootstrap_resamples, dtype=complex)
    means, std_errors = np.empty(times.size), np.empty(times.size)
    for i, elements in enumerate(per_time):
        means[i] = 2.0 * abs(elements.mean())
        for first in range(0, bootstrap_resamples, chunk):
            rows = indices[first : first + chunk]
            np.take(elements, rows, mode="clip", out=gathered[: len(rows)])
            resampled[first : first + len(rows)] = gathered[: len(rows)].mean(axis=1)
        std_errors[i] = (2.0 * np.abs(resampled)).std(ddof=1)
    return means, std_errors
