"""Exact Gaussian layer: photon c's visibility with no Fock truncation.

Coherent inputs stay Gaussian under the quadratic sector Hamiltonians, so
photon c's path coherence is exact, and so is its average over a thermal
rod m, a Gaussian mixture of coherent states.  Neither rod's coherent
amplitude enters its modulus, so :func:`visibility` takes none.  Scans
measure the Fock truncation error against it, and the thermal Monte Carlo
checks the gravity-free law.  The coupled flow's normal modes are written
in closed form, so the layer calls no LAPACK routine; numpy is all it
needs, so the commands that use it do not load the Fock layer.
"""

from __future__ import annotations

import math

import numpy as np

from . import analytic
from .analytic import _as_times
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


def _flow(dc, times) -> tuple[np.ndarray, np.ndarray]:
    """Photon c's path coherence at each of ``times`` (a non-empty 1-D
    sequence, finite and >= 0) as ``common[:, None] * exp(1j * (k @ b.T))``
    for inputs of mean quadratures b (N, 4): returns ``common``, shape (T,),
    and ``k`` = J w, shape (T, 4).

    In the quadratures r = (q_a, p_a, q_b, p_b), x = sqrt(2)*q, the sector
    with cavity-path bits (p, q) has the Hamiltonian r^T M r / 2 +
    (p*u + q*v)^T M r (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)):
    one quadratic form about the centre -(p*u + q*v).  Each sector turns its
    displaced input by the common flow S(t) = exp(J M t) about its own
    centre, so the element is a sum of displacement overlaps, in which the
    flow of the common vacuum and its phase cancel:

        1/4 exp(-|w|^2/4 + i b^T J w)
            sum_q exp(i (u/2 + q v)^T (M u t - J S^-1 u)),

    with w = (1 - S^-1) u; k comes from w, not from phases, which wrap.
    b and k are real, so :func:`visibility` reads only ``common`` and k_a.

    The flow's normal modes are in closed form.  With W = diag(omega_a,
    omega_b) and G = [[omega_a, 2 gamma], [2 gamma, omega_b]] the q-block of
    M, dq/dt = W p and dp/dt = -G q, so y = W^-1/2 q obeys y'' = -K y with
    K = W^1/2 G W^1/2, symmetric; one rotation by theta diagonalises it,
    to Omega_+^2 and Omega_-^2 = det K / Omega_+^2 (not mean - half, which
    cancels near the stability edge).  u has no p part, so with R the
    rotation and a = R^T W^-1/2 u its normal-mode amplitudes, S^-1(t) u has
    q part W^1/2 R cos(Omega t) a and p part W^-1/2 R Omega sin(Omega t) a.
    The modes are stable only while M is positive definite.
    """
    omega_a, omega_b, gamma = dc.omega_a, dc.omega_b, dc.gamma
    if not omega_a * omega_b > 4.0 * gamma * gamma:
        raise ParameterError(f"unstable coupled modes: omega_a*omega_b = {omega_a * omega_b!r} "
                             f"must exceed 4*gamma**2 = {4.0 * gamma * gamma!r}")
    times = np.asarray(_as_times(times))
    det_g = omega_a * omega_b - 4.0 * gamma * gamma
    # u and v are the centres' q parts (their p parts are 0), from G's explicit
    # inverse: G u = (drive_a, 0) and G v = (0, drive_b).
    drive_a = -math.sqrt(2.0) * dc.lambda_m * omega_a
    drive_b = -math.sqrt(2.0) * dc.lambda_M * omega_b
    u = np.array([omega_b, -2.0 * gamma]) * (drive_a / det_g)
    v = np.array([-2.0 * gamma, omega_a]) * (drive_b / det_g)
    root = np.sqrt([omega_a, omega_b])  # W^1/2
    coupling = 2.0 * gamma * math.sqrt(omega_a * omega_b)  # K's off-diagonal
    half = math.hypot(0.5 * (omega_a * omega_a - omega_b * omega_b), coupling)
    plus = 0.5 * (omega_a * omega_a + omega_b * omega_b) + half
    omegas = np.sqrt([plus, omega_a * omega_b * det_g / plus])
    theta = 0.5 * math.atan2(2.0 * coupling, omega_a * omega_a - omega_b * omega_b)
    c, s = math.cos(theta), math.sin(theta)
    rotation = np.array([[c, -s], [s, c]])  # columns: K's eigenvectors for omegas**2
    modes = (u / root) @ rotation  # a = R^T W^-1/2 u
    angles = np.multiply.outer(times, omegas)
    back_q = (np.cos(angles) * modes) @ rotation.T * root  # S^-1(t) u, q part (T, 2)
    back_p = (np.sin(angles) * (omegas * modes)) @ rotation.T / root  # and p part
    # Sector phases (u/2 + q v)^T (M u t - J S^-1 u), with M u = (drive_a, 0) in q.
    halves = np.stack([0.5 * u, 0.5 * u + v])
    phases = np.multiply.outer(times, halves[:, 0] * drive_a) - back_p @ halves.T
    w_q = u - back_q  # w = (1 - S^-1) u; its p part is -back_p
    common = (0.25 * np.exp(1j * phases).sum(axis=1)
              * np.exp(-0.25 * (np.sum(w_q * w_q, axis=1) + np.sum(back_p * back_p, axis=1))))
    # k = J w = (w_pa, -w_qa, w_pb, -w_qb).
    k = np.stack([-back_p[:, 0], -w_q[:, 0], -back_p[:, 1], -w_q[:, 1]], axis=1)
    return common, k


def visibility(dc, nbar: float, times) -> np.ndarray:
    """Exact visibility of photon c, shape (T,), with rod m thermal at mean
    occupation ``nbar`` (0: coherent) and any coherent amplitudes, at each
    of ``times`` (a non-empty 1-D sequence, finite and >= 0).  A thermal rod
    m is a Gaussian mixture of coherent states whose rod-m mean quadratures
    have covariance nbar per quadrature, so the element of :func:`_flow`
    averages to a modulus of 2 |common| exp(-nbar |k_a|^2 / 2), k = (k_a, k_b).
    """
    analytic._check_occupation(nbar)
    common, k = _flow(dc, times)
    return 2.0 * np.abs(common) * np.exp(-0.5 * nbar * np.sum(k[:, :2] * k[:, :2], axis=1))


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
    gravity-free law; :func:`visibility` is the coupled average in closed
    form.  The samples are drawn once and serve every time; the
    bootstrap indices that follow them in the generator are redrawn, from
    the same state, for each block of up to ``_TIME_BLOCK`` times, a bounded
    chunk of index rows at a time, so no index table is held and memory
    does not grow with the number of times.
    """
    times = _as_times(times)
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
