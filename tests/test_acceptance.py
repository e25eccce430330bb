"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from bohmpart import (RK45Adaptive, ThermalSpec, TrajectoryConfig,
                      WavepacketInit, bohmian_velocity,
                      classical_Z, density, DivergentIntegral,
                      equivariance_check, evolve, free_system,
                      gaussian_correction, harmonic_system, integrate,
                      marginal_Z, marginal_curve, phase_space_integral,
                      potential_value, quantum_potential, quantum_Z,
                      spectral_project, unified_integral, unified_Z_gaussian)
from bohmpart.numdiff import central_first, central_second
from bohmpart.partition import quantum_Z_closed_form
from bohmpart.trajectories import scaling_solution
from bohmpart.verify import run_verification
from bohmpart.wavepacket import default_spectral_grid, total_phase

HO = harmonic_system(1.0, 1.0)
FREE = free_system(1.0)
# CLI children turn RuntimeWarning into an error, as pytest does in process
PYTHON = [sys.executable, "-W", "error::RuntimeWarning"]


def report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:>2}: {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {label} {detail}"


def test_criterion_01_gaussian_correction_oracle():
    t0 = time.time()
    th = ThermalSpec(1.0)
    closed = gaussian_correction(1.0, 1.0, th, 1.0)
    # the u-axis integral: both oracles are products of 1-D rules
    quad_val = (unified_integral(1.0, 1.0, 1.0, th, 1.0)[0]
                / phase_space_integral(1.0, 1.0, th)[0])
    rel = abs(closed - quad_val) / closed
    elapsed = time.time() - t0
    report(1, "gaussian correction closed form vs unified / phase-space "
           "quadrature",
           rel < 1e-8 and elapsed < 1.0,
           f"rel={rel:.2e}, {elapsed:.2f}s")


def test_criterion_02_unified_Z_nested_quadrature():
    t0 = time.time()
    th = ThermalSpec(1.0)
    closed = unified_Z_gaussian(HO, 1.0, th)
    # raw-measure triple integral over dGamma = dx dp / (2 pi hbar)
    nested = unified_integral(1.0, 1.0, 1.0, th, 1.0)[0] / (2.0 * math.pi)
    rel = abs(closed - nested) / closed
    elapsed = time.time() - t0
    report(2, "unified Z nested 3D quadrature vs factorized closed form",
           rel < 1e-7 and elapsed < 30.0,
           f"rel={rel:.2e}, {elapsed:.1f}s")


def test_criterion_03_temperature_bound_gates_divergence():
    # ratio = beta/4 with m = sigma = hbar = 1; threshold at beta = 4
    ok = True
    for beta in list(np.linspace(3.0, 5.0, 20)) + [4.0]:
        th = ThermalSpec(float(beta))
        ratio = beta / 4.0
        try:
            gaussian_correction(1.0, 1.0, th, 1.0)
            diverged = False
        except DivergentIntegral:
            diverged = True
        ok = ok and (diverged == (ratio >= 1.0))
    report(3, "divergence detected exactly at beta hbar^2/(4 m sigma^2) >= 1", ok)


def test_criterion_04_quantum_classical_chain():
    x = 0.01
    params = harmonic_system(1.0, x)
    th = ThermalSpec(1.0)
    ratio = quantum_Z(params, th)[0] / classical_Z(params, th)
    in_band = (1.0 - x**2 / 12.0 * 1.5) <= ratio <= 1.0
    worst = 0.0
    for xx in np.geomspace(0.01, 50.0, 12):
        p = harmonic_system(1.0, float(xx))
        eigensum = quantum_Z(p, th)[0]
        closed = quantum_Z_closed_form(p, th)
        worst = max(worst, abs(eigensum - closed) / closed)
    report(4, "quantum/classical Z chain and eigensum vs 1/(2 sinh(x/2))",
           in_band and worst < 1e-10,
           f"ratio={ratio:.8f}, worst eigensum rel={worst:.2e}")


def test_criterion_05_fig1_properties():
    t0 = time.time()
    times = np.linspace(0.0, 4.0 * math.pi, 400)
    curves = {}
    for sigma, kbt in [(0.45, 2.0), (0.45, 5.0), (0.65, 2.0)]:
        curves[(sigma, kbt)] = marginal_curve(
            HO, WavepacketInit(1.0, 0.0, sigma), ThermalSpec.from_kbt(kbt),
            times)
    elapsed = time.time() - t0

    starts_at_one = all(c[0] == 1.0 for c in curves.values())

    worst_period = 0.0
    th = ThermalSpec.from_kbt(2.0)
    init = WavepacketInit(1.0, 0.0, 0.45)
    for t in np.linspace(0.0, 3.0 * math.pi, 25):
        a = marginal_Z(HO, init, th, float(t))
        b = marginal_Z(HO, init, th, float(t) + math.pi)
        worst_period = max(worst_period, abs(a - b) / a)

    def amp(key):
        return max(curves[key]) - min(curves[key])

    ordering = amp((0.45, 5.0)) < amp((0.45, 2.0)) \
        and amp((0.65, 2.0)) < amp((0.45, 2.0))

    report(5, "marginal curves: start at 1, period pi/w, amplitude orderings",
           starts_at_one and worst_period < 1e-6 and ordering
           and elapsed < 60.0,
           f"period rel={worst_period:.2e}, curves in {elapsed:.1f}s")


def test_criterion_06_quantum_potential_and_energy_identities():
    rng = np.random.default_rng(123)
    ok = True
    worst_q = worst_e = 0.0
    for params, init in [(HO, WavepacketInit(1.0, 0.5, 0.45)),
                         (FREE, WavepacketInit(0.3, 1.2, 0.6))]:
        hbar, m = params.hbar, params.mass
        for _ in range(100):
            t = rng.uniform(0.0, 6.0)
            st = evolve(params, init, t)
            x = st.q + rng.uniform(-2.5, 2.5) * st.width
            q_fd = -hbar**2 / (2 * m) * central_second(
                lambda xx: density(st, xx) ** 0.5, x) / density(st, x) ** 0.5
            q_cf = quantum_potential(st, x)
            q_scale = hbar**2 * st.alpha.real / m
            worst_q = max(worst_q, abs(q_fd - q_cf) / max(abs(q_cf), q_scale))
            e_fd = -central_first(
                lambda tt: total_phase(evolve(params, init, tt), x), t)
            from bohmpart import energy_pointwise
            e_cf = energy_pointwise(st, x)
            e_scale = (st.p**2 / (2 * m) + q_scale
                       + abs(potential_value(params, st.q)) + 0.1)
            worst_e = max(worst_e, abs(e_fd - e_cf) / max(abs(e_cf), e_scale))
    ok = worst_q < 1e-6 and worst_e < 1e-6
    report(6, "Q vs -(hbar^2/2mR)R'' and E vs -dS/dt at 100 random points",
           ok, f"Q rel={worst_q:.2e}, E rel={worst_e:.2e}")


def test_criterion_07_energy_conservation_and_spectral_sum(mean_energy):
    rng = np.random.default_rng(321)
    drift_worst = spectral_worst = 0.0
    for _ in range(5):
        init = WavepacketInit(float(rng.uniform(-1.5, 1.5)),
                              float(rng.uniform(-1.5, 1.5)),
                              float(rng.uniform(0.35, 1.2)))
        values = [mean_energy(evolve(HO, init, t))
                  for t in np.linspace(0.0, 6.0, 20)]
        drift_worst = max(drift_worst, max(values) - min(values))
        dec = spectral_project(evolve(HO, init, 0.0), 90,
                               default_spectral_grid(HO, init, 90))
        spectral_worst = max(spectral_worst,
                             abs(values[0] - dec.mean_energy()))
    # coherent packet: <H> = hbar w (lam + 1/2)
    x0, p0 = math.sqrt(2.0), 0.6
    lam = (x0**2 / 2.0 + p0**2 / 2.0)
    coh = WavepacketInit(x0, p0, math.sqrt(0.5))
    coherent_err = abs(mean_energy(evolve(HO, coh, 0.0))
                       - (lam + 0.5))
    report(7, "<H> constant in t, equals spectral sum, coherent value",
           drift_worst < 1e-8 and spectral_worst < 1e-8
           and coherent_err < 1e-8,
           f"drift={drift_worst:.2e}, spectral={spectral_worst:.2e}, "
           f"coherent={coherent_err:.2e}")


def test_criterion_08_trajectories():
    cfg = TrajectoryConfig(stepper=RK45Adaptive(), t_max=5.0)
    worst_path = 0.0
    for params, init in [(FREE, WavepacketInit(0.0, 2.0, 1.0)),
                         (HO, WavepacketInit(1.0, 0.0, 0.7))]:
        for c in (-1.5, 0.5, 2.0):
            x_start = init.x0 + c * init.sigma
            path = integrate(params, init, x_start, cfg)
            exact = scaling_solution(params, init, x_start, path.times)
            worst_path = max(worst_path,
                             float(np.max(np.abs(path.positions - exact))))

    quantiles = (0.1, 0.25, 0.5, 0.75, 0.9)
    worst_eq = max(
        equivariance_check(FREE, WavepacketInit(0.0, 2.0, 1.0), quantiles, 3.0),
        equivariance_check(HO, WavepacketInit(1.0, 0.0, 0.45), quantiles, 2.2))

    init = WavepacketInit(1.0, 0.0, 0.5)
    starts = np.linspace(init.x0 - 2.0, init.x0 + 2.0, 50)
    paths = [integrate(HO, init, x0, cfg) for x0 in starts]
    grid = paths[0].times
    xs = np.vstack([np.interp(grid, p.times, p.positions) for p in paths])
    non_crossing = bool(np.all(np.diff(xs, axis=0) > 0))

    report(8, "RK45 vs scaling solutions, equivariance, non-crossing",
           worst_path < 1e-6 and worst_eq < 1e-6 and non_crossing,
           f"path={worst_path:.2e}, equivariance={worst_eq:.2e}")


def test_criterion_09_classical_limit_mechanics():
    th = ThermalSpec(1.0)
    ratios = []
    for sigma in (1.0, 0.5, 0.25, 0.125):
        params = harmonic_system(1.0 / sigma**2, 1.0)  # m sigma^2 = 1
        z_u = unified_Z_gaussian(params, sigma, th)
        z_cl = classical_Z(params, th)
        ratios.append(z_u / z_cl)
    constant = max(ratios) - min(ratios) < 1e-10

    def accel(sigma, c=1.0):
        params = free_system(1.0 / sigma**2)
        init = WavepacketInit(0.0, 0.0, sigma)
        x = init.x0 + c * sigma
        dv_dt = central_first(
            lambda tt: bohmian_velocity(evolve(params, init, tt), x), 0.0,
            h=1e-5)
        st = evolve(params, init, 0.0)
        dv_dx = central_first(lambda xx: bohmian_velocity(st, xx), x, h=1e-5)
        return dv_dt + bohmian_velocity(st, x) * dv_dx

    halving_ok = True
    for coarse, fine in [(0.5, 0.25), (0.25, 0.125)]:
        r = accel(coarse) / accel(fine)
        halving_ok = halving_ok and abs(r - 2.0) <= 0.2
    report(9, "Z_u/Z_cl constant at fixed m sigma^2; acceleration halves "
              "with sigma",
           constant and halving_ok,
           f"ratio spread={max(ratios) - min(ratios):.2e}")


def test_criterion_10_bath():
    from bohmpart import BathSpec, Oscillator, large_N_ratio, unified_bath_Z
    th = ThermalSpec(1.0)
    bath = BathSpec((Oscillator(1.0, 1.0, 1.5),), sigma=1.0, q0=0.7)
    exact_cf, _ = unified_bath_Z(bath, th, 1.0)
    # raw measure, one oscillator centred at c q0 / w^2
    exact_qd, _ = unified_integral(1.0, 1.0, 1.0, th, 1.0, center=1.5 * 0.7)
    quad_rel = abs(exact_cf - exact_qd) / exact_cf

    rng = np.random.default_rng(77)
    largen_ok = True
    for _ in range(20):
        n = int(rng.integers(1, 30))
        r = float(rng.uniform(1e-4, 0.9))
        _, _, rel = large_N_ratio(n, 1.0, 1.0, ThermalSpec(4.0 * r), 1.0)
        largen_ok = largen_ok and \
            abs(rel - abs(1.0 - (1.0 - r) ** (n / 2))) < 1e-12

    gating_ok = True
    for beta in list(np.linspace(3.0, 5.0, 10)) + [4.0]:
        b = BathSpec((Oscillator(1.0, 1.0, 1.0),), sigma=1.0)
        t = ThermalSpec(float(beta))
        try:
            unified_bath_Z(b, t, 1.0)
            diverged = False
        except DivergentIntegral:
            diverged = True
        gating_ok = gating_ok and (diverged == (beta / 4.0 >= 1.0))

    rep = run_verification()
    two_pi = [d for d in rep.discrepancies if "2 pi" in d.name]
    listed = len(two_pi) == 1 and \
        abs(two_pi[0].residual - (2.0 * math.pi - 1.0)) < 1e-9

    report(10, "bath: 3D quadrature, large-N error formula, gating, 2 pi entry",
           quad_rel < 1e-8 and largen_ok and gating_ok and listed,
           f"quad rel={quad_rel:.2e}")


def test_criterion_11_verify_command_and_determinism(tmp_path: Path):
    t0 = time.time()
    cp = subprocess.run([*PYTHON, "-m", "bohmpart", "verify"],
                        capture_output=True, text=True)
    verify_ok = cp.returncode == 0 and (time.time() - t0) < 300.0

    digests = []
    for name in ("r1", "r2"):
        out = tmp_path / f"{name}.csv"
        run = subprocess.run(
            [*PYTHON, "-m", "bohmpart", "fig1", "--samples", "50",
             "--tmax", "6.0", "--out", str(out)],
            capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        manifest = json.loads(
            (tmp_path / f"{name}.csv.manifest.json").read_text())
        digests.append(manifest["digest"])
    deterministic = digests[0] == digests[1]

    report(11, "verify exits 0 in time; fig1 digests byte-identical",
           verify_ok and deterministic,
           f"verify {time.time() - t0:.0f}s, digest={digests[0][:12]}...")
