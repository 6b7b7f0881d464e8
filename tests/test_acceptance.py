"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a PASS line with the measured value (run with ``-s`` to see
them inline).  The heavyweight shared objects (truncated propagators, the
frame-rotation checker, the scaling study) are session-scoped fixtures so
criteria report their own marginal runtimes.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

import optograv as og
from optograv import oracle
from optograv.cli import main


def report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status} ({detail})")
    assert passed, f"criterion {number} {name}: {detail}"


@pytest.fixture(scope="session")
def si_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "reference.cfg"
    path.write_text(
        "units = si\n"
        "mass_m = 1e-13\n"
        "mass_M = 1e-13\n"
        "separation_h = 1e-8\n"
        "cavity_length_d = 0.1\n"
        "bare_freq_a = 3e3\n"
        "bare_freq_b = 2.7e3\n"
        "light_freq_c = 450e12\n"
        "light_freq_d = 450e12\n"
        "beta_m = 1\n"
        "beta_M = 1\n"
    )
    return path


@pytest.fixture(scope="session")
def spec30():
    return og.HilbertSpec(30, 30)


@pytest.fixture(scope="session")
def uncoupled_propagator(ref_params, spec30):
    p0 = og.without_gravity(ref_params)
    dc0 = og.derive_couplings(p0)
    return p0, dc0, og.Propagator(dc0, spec30), og.closed_form_state(dc0, p0, spec30, 0.0)


@pytest.fixture(scope="session")
def scaling_result(boosted_params, boosted_couplings):
    base = replace(boosted_params, direct_gamma=0.0)
    gammas = [f * boosted_couplings.omega_a for f in (1e-2, 5e-3, 2.5e-3, 1.25e-3)]
    t = 1.3 * 2.0 * math.pi / boosted_couplings.omega_a
    return og.scaling_study(base, gammas, t, oracle.default_spec(base, og.derive_couplings(base)))


def test_criterion_01_period_shift(capsys, si_config, tmp_path):
    out = tmp_path / "derive.json"
    start = time.perf_counter()
    code = main(["derive", "--params", str(si_config), "--out", str(out)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    payload = json.loads(out.read_text())
    delta_ns = payload["delta_T_ns"]
    ok = code == 0 and abs(delta_ns - 0.78) / 0.78 <= 0.02 and elapsed < 1.0
    with capsys.disabled():
        report(1, "revival period shift", ok,
               f"delta_T={delta_ns:.4f} ns vs 0.78 ns +-2%, {elapsed:.2f} s")


def test_criterion_02_feasibility_temperature(capsys, ref_params):
    start = time.perf_counter()
    t_max = og.feasibility_bound(ref_params, Q=1e7)
    elapsed = time.perf_counter() - start
    ok = abs(t_max - 0.23) / 0.23 <= 0.05 and elapsed < 1.0
    with capsys.disabled():
        report(2, "decoherence feasibility", ok,
               f"T_max(Q=1e7)={t_max:.4f} K vs 0.23 K +-5%, {elapsed:.2f} s")


def test_criterion_03_visibility_pattern(capsys, ref_params, ref_couplings):
    start = time.perf_counter()
    period = 2.0 * math.pi / ref_couplings.omega_a
    trace = og.visibility_uncoupled(
        ref_couplings, [0.0, period / 2.0, period]
    )
    v0, v_half, v_full = trace
    v_min_expected = math.exp(-2.0 * ref_couplings.lambda_m**2)

    def slope(t, h=1e-8 * period):
        values = og.visibility_uncoupled(ref_couplings,
                                         [t - h, t + h])
        return values[1] - values[0]

    measured_period = brentq(slope, 0.8 * period, 1.2 * period, xtol=1e-18)
    elapsed = time.perf_counter() - start
    ok = (
        abs(v0 - 1.0) <= 1e-9
        and abs(v_full - 1.0) <= 1e-9
        and abs(v_half - v_min_expected) <= 1e-9
        and abs(measured_period - period) / period <= 1e-9
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(3, "uncoupled visibility pattern", ok,
               f"V(0)={v0:.12f}, V(T/2)={v_half:.9f} vs {v_min_expected:.9f}, "
               f"V(T)={v_full:.12f}, period rel err "
               f"{abs(measured_period - period) / period:.2e}, {elapsed:.2f} s")


def test_criterion_04_visibility_shift_magnitude(capsys, ref_params, ref_couplings):
    start = time.perf_counter()
    period = 2.0 * math.pi / ref_couplings.omega_a
    times = np.linspace(0.0, 3.0 * period, 2048)
    shift = np.abs(og.visibility_shift(ref_couplings, ref_params, times))
    peak = float(shift.max())
    early = float(shift[times <= period].max())
    late = float(shift[times >= 2.0 * period].max())
    elapsed = time.perf_counter() - start
    ok = 1e-7 <= peak <= 1e-5 and late > early and elapsed < 5.0
    with capsys.disabled():
        report(4, "gravitational visibility shift", ok,
               f"max|shift|={peak:.3e} in [1e-7, 1e-5], envelope {early:.3e} -> "
               f"{late:.3e}, {elapsed:.2f} s")


def test_criterion_05_exact_vs_closed_form(capsys, uncoupled_propagator):
    p0, dc0, propagator, psi0 = uncoupled_propagator
    start = time.perf_counter()
    period = 2.0 * math.pi / dc0.omega_a
    times = np.linspace(0.0, 2.0 * period, 128)
    closed = og.visibility_uncoupled(dc0, times)
    worst = 0.0
    for t, v_closed in zip(times, closed):
        v_exact = og.visibility_exact(propagator.evolve(psi0, t))
        worst = max(worst, abs(v_exact - float(v_closed)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 120.0
    with capsys.disabled():
        report(5, "exact vs closed-form visibility", ok,
               f"max|dV|={worst:.3e} < 1e-8 over 2 periods at dim "
               f"{4 * 31 * 31}, {elapsed:.1f} s")


def test_criterion_06_frame_rotation_identity(capsys, ref_params, ref_couplings, spec30):
    start = time.perf_counter()
    period = 2.0 * math.pi / ref_couplings.omega_a
    times = np.linspace(period / 16.0, 2.0 * period, 16)
    worst = float(oracle.interaction_picture_residual(ref_couplings, spec30, times).max())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 300.0
    with capsys.disabled():
        report(6, "frame-rotation identity", ok,
               f"max residual={worst:.3e} < 1e-8 at 16 times, {elapsed:.1f} s")


def test_criterion_07_first_order_scaling(capsys, scaling_result):
    start = time.perf_counter()
    study = scaling_result
    state_slope, vis_slope, ent_slope = (study[name][0]
                                         for name in ("state", "visibility", "entropy"))
    elapsed = time.perf_counter() - start
    ok = (
        all(monotone for _, monotone in study.values())
        and abs(state_slope - 2.0) <= 0.1
        and vis_slope >= 1.9
        and ent_slope >= 2.5
    )
    with capsys.disabled():
        report(7, "first-order residual scaling", ok,
               f"slopes: state={state_slope:.3f} (2 +-0.1), visibility="
               f"{vis_slope:.3f} (>=1.9), entropy={ent_slope:.3f} (>=2.5)")


def test_criterion_08_thermal_law(capsys, ref_couplings):
    start = time.perf_counter()
    period = 2.0 * math.pi / ref_couplings.omega_a
    times = np.linspace(period / 8.0, period, 8)
    worst_sigma = 0.0
    all_within = True
    for nbar in (0.5, 1.0, 5.0):
        law = og.thermal_visibility(ref_couplings, nbar, times)
        means, errs = og.thermal_visibility_montecarlo(
            ref_couplings, nbar, times, 10000, seed=20240817,
        )
        for expected, mean, err in zip(law, means, errs):
            gap = abs(mean - float(expected))
            all_within = all_within and gap <= 3.0 * err + 1e-12
            if err > 0:
                worst_sigma = max(worst_sigma, gap / err)
    elapsed = time.perf_counter() - start
    ok = all_within and elapsed < 300.0
    with capsys.disabled():
        report(8, "thermal visibility law", ok,
               f"worst deviation {worst_sigma:.2f} sigma <= 3 over nbar in "
               f"{{0.5, 1, 5}}, 1e4 samples, {elapsed:.1f} s")


def test_criterion_09_gravitational_entanglement(capsys, boosted_params,
                                                 boosted_couplings):
    start = time.perf_counter()
    period = 2.0 * math.pi / boosted_couplings.omega_a
    spec = oracle.default_spec(boosted_params, boosted_couplings)
    fractions = np.linspace(1.0 / 8.0, 1.0, 8)

    p0 = og.without_gravity(boosted_params)
    dc0 = og.derive_couplings(p0)
    prop0 = og.Propagator(dc0, spec)
    psi0 = og.closed_form_state(dc0, p0, spec, 0.0)
    max_uncoupled = max(
        og.linear_entropy_exact(prop0.evolve(psi0, t)) for t in fractions * period
    )

    prop = og.Propagator(boosted_couplings, spec)
    entropies = [og.linear_entropy_exact(prop.evolve(psi0, t)) for t in fractions * period]
    growth_window = [s for f, s in zip(fractions, entropies) if f <= 0.75]
    # Strict growth holds through three quarters of the period; close to the
    # full revival the systems partially disentangle again, so the criterion
    # is growth of the envelope, not pointwise monotonicity at the revival.
    strictly_growing = all(b > a for a, b in zip(growth_window, growth_window[1:]))
    late_over_early = min(entropies[4:]) > max(entropies[:2])
    elapsed = time.perf_counter() - start
    ok = (
        max_uncoupled < 1e-10
        and all(s > 0.0 for s in entropies)
        and strictly_growing
        and late_over_early
        and elapsed < 300.0
    )
    with capsys.disabled():
        report(9, "entanglement from gravity", ok,
               f"S(gamma=0) max={max_uncoupled:.2e} < 1e-10; boosted S grows "
               f"{entropies[0]:.2e} -> {max(entropies):.2e}, {elapsed:.1f} s")


def test_criterion_10_deterministic_outputs(capsys, si_config, tmp_path):
    start = time.perf_counter()
    plan = tmp_path / "plan.cfg"
    plan.write_text(
        "axes = separation_h\nvalues_separation_h = 1e-8, 2e-8\n"
        "observables = delta_T, gamma\nseed = 11\n"
    )
    commands = {
        "derive": ["derive", "--params", str(si_config)],
        "figure": ["figure", "--params", str(si_config), "--which", "fig2b",
                   "--t-points", "256"],
        "scan": ["scan", "--params", str(si_config), "--plan", str(plan),
                 "--seed", "11"],
        "thermal": ["thermal", "--params", str(si_config), "--nbar", "0.5",
                    "--mc-samples", "500", "--seed", "7"],
    }
    identical = True
    for name, argv in commands.items():
        out_a = tmp_path / f"{name}_a.out"
        out_b = tmp_path / f"{name}_b.out"
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        identical = identical and out_a.read_bytes() == out_b.read_bytes()
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    with capsys.disabled():
        report(10, "byte-identical re-runs", identical,
               f"derive/figure/scan/thermal re-runs compared, {elapsed:.1f} s")
