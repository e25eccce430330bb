"""Expected outcomes for every benchmark operation.

Each check takes the operation's parameters and what the program produced
and returns None when they agree, or a one-line reason when they do not.
No check calls the code path it judges: the marginal curves are checked
against the Gaussian closed form of the integral the program evaluates by
quadrature, the partition tables against the textbook closed forms, and the
trajectories against the exact scaling solution written out here.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# Natural units of every generated input: hbar = k_B = m = 1.
HBAR = 1.0
MASS = 1.0

MARGINAL_RTOL = 1e-7
TABLE_RTOL = 1e-12
QUADRATURE_RTOL = 1e-8
RK45_TOL = 1e-6
RK4_TOL = 1e-9
SCALING_TOL = 1e-10
EQUIVARIANCE_TOL = 1e-6
SPECTRAL_RTOL = 1e-6
GRID_RTOL = 1e-8


def correction(r: float) -> float:
    """Hidden-coordinate factor (1 - r)^(-1/2) exp(-r)."""
    return math.exp(-r) / math.sqrt(1.0 - r)


def criterion_ratio(sigma: float, kbt: float, mass: float = MASS) -> float:
    """r = beta hbar^2 / (4 m sigma^2); the curves and tables diverge at r >= 1."""
    return (1.0 / kbt) * HBAR**2 / (4.0 * mass * sigma**2)


def _close(value: float, expected: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= rtol * abs(expected)


def _rows(stdout: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(stdout)))[1:]


# ---------------------------------------------------------------------------
# Marginal partition function (fig1, marginal)
# ---------------------------------------------------------------------------

def log_marginal_z(lib, params, init, beta: float, t: float) -> float | None:
    """log of sqrt(2 Re a / kappa) exp(-beta A0 + beta^2 A1^2 / (4 kappa)).

    The quadratic coefficients of E(x, t) = A2 u^2 + A1 u + A0 (u = x - q)
    are read off energy_pointwise at u = -1, 0, 1.  Returns None where
    kappa = 2 Re a + beta A2 <= 0, i.e. where the integral diverges.
    """
    state = lib.evolve(params, init, t)
    lo, mid, hi = (lib.energy_pointwise(state, state.q + u) for u in (-1.0, 0.0, 1.0))
    a0 = mid
    a1 = 0.5 * (hi - lo)
    a2 = 0.5 * (hi + lo) - mid
    two_re_a = 2.0 * state.alpha.real
    kappa = two_re_a + beta * a2
    if kappa <= 0.0:
        return None
    return 0.5 * math.log(two_re_a / kappa) - beta * a0 + beta**2 * a1**2 / (4.0 * kappa)


def expected_curve(lib, x0: float, p0: float, sigma: float, kbt: float,
                   times) -> np.ndarray | None:
    """Normalized marginal Z at each time, or None if any sample diverges."""
    params = lib.harmonic_system(MASS, 1.0)
    init = lib.WavepacketInit(x0, p0, sigma)
    logs = [log_marginal_z(lib, params, init, 1.0 / kbt, t) for t in times]
    if any(v is None for v in logs):
        return None
    return np.exp(np.array(logs) - logs[0])


def check_curves(lib, curves: list[tuple], rc: int, stdout: str,
                 z_column: int) -> str | None:
    """curves: (x0, p0, sigma, kbt, times) per series, in output order."""
    expected = [expected_curve(lib, *c) for c in curves]
    if any(e is None for e in expected):
        return None if rc == 2 else f"expected exit 2 (divergent sample), got {rc}"
    if rc != 0:
        return f"expected exit 0, got {rc}"
    values = [float(row[z_column]) for row in _rows(stdout)]
    want = np.concatenate(expected)
    if len(values) != want.size:
        return f"expected {want.size} rows, got {len(values)}"
    for i, (v, w) in enumerate(zip(values, want)):
        if not _close(v, w, MARGINAL_RTOL):
            return f"row {i}: z={v!r}, closed form {w!r}"
    return None


# ---------------------------------------------------------------------------
# Closed-form tables (partition, limits, bath)
# ---------------------------------------------------------------------------

def check_partition(sigma: float, kbt: float, omega: float, oracle: bool,
                    rc: int, stdout: str) -> str | None:
    if rc != 0:
        return f"expected exit 0, got {rc}"
    r = criterion_ratio(sigma, kbt)
    z_cl = kbt / (HBAR * omega)
    z_q = 1.0 / (2.0 * math.sinh(0.5 * HBAR * omega / kbt))
    want = {("z_classical", "closed_form"): (z_cl, TABLE_RTOL),
            ("z_quantum", "eigen_sum"): (z_q, TABLE_RTOL),
            ("z_quantum", "closed_form"): (z_q, TABLE_RTOL),
            ("gaussian_correction", "closed_form"): (correction(r), TABLE_RTOL),
            ("z_unified", "closed_form"): (z_cl * correction(r), TABLE_RTOL),
            ("criterion_ratio", "closed_form"): (r, TABLE_RTOL)}
    if oracle:
        want[("z_classical", "quadrature")] = (z_cl, QUADRATURE_RTOL)
        want[("z_unified", "quadrature")] = (z_cl * correction(r), QUADRATURE_RTOL)
    got = {(row[0], row[1]): float(row[2]) for row in _rows(stdout)}
    for key, (value, rtol) in want.items():
        if key not in got:
            return f"missing row {key}"
        if not _close(got[key], value, rtol):
            return f"{key}: {got[key]!r}, closed form {value!r}"
    return None


def check_limits(var: str, sigma: float, kbt: float, rc: int,
                 stdout: str) -> str | None:
    if rc != 0:
        return f"expected exit 0, got {rc}"
    for row in _rows(stdout):
        v = float(row[0])
        s, k = (v, kbt) if var == "sigma" else (sigma, v)
        r = criterion_ratio(s, k)
        status = "ok" if r < 1.0 else "divergent"
        if row[5] != status:
            return f"{var}={v!r}: status {row[5]!r}, expected {status!r}"
        want = [("z_cl", float(row[2]), k), ("criterion", float(row[4]), r)]
        if r < 1.0:
            want += [("z_u", float(row[1]), k * correction(r)),
                     ("ratio", float(row[3]), correction(r))]
        for name, got, value in want:
            if not _close(got, value, TABLE_RTOL):
                return f"{var}={v!r} {name}: {got!r}, closed form {value!r}"
    return None


def check_bath(n: int, m0: float, omega_max: float, sigma: float, beta: float,
               rc: int, stdout: str) -> str | None:
    r = beta * HBAR**2 / (4.0 * m0 * sigma**2)
    if r >= 1.0:
        return None if rc == 2 else f"expected exit 2 (r = {r!r}), got {rc}"
    if rc != 0:
        return f"expected exit 0, got {rc}"
    z_b = math.prod(2.0 * math.pi / (beta * omega_max * k / n) for k in range(1, n + 1))
    factor = correction(r) ** n
    approx = math.exp(-n * r)
    want = {"z_b": z_b, "z_b_unified_exact": z_b * factor,
            "z_b_unified_with_2pi": z_b * factor * (2.0 * math.pi) ** n,
            "correction_factor": factor, "large_n_factor_approx": approx,
            "large_n_factor_exact": factor,
            "large_n_rel_err": abs(approx - factor) / factor}
    got = {row[0]: float(row[1]) for row in _rows(stdout)}
    for key, value in want.items():
        if key not in got:
            return f"missing row {key}"
        if not _close(got[key], value, 1e-10):
            return f"{key}: {got[key]!r}, closed form {value!r}"
    return None


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def center_width(system: str, x0: float, p0: float, sigma: float, t):
    """Packet center q(t) and position spread width(t), written out per system."""
    t = np.asarray(t, dtype=float)
    if system == "harmonic":  # omega = 1
        c, s = np.cos(t), np.sin(t)
        q = x0 * c + p0 / MASS * s
        width = np.sqrt(sigma**2 * c**2 + (HBAR / (2.0 * MASS * sigma)) ** 2 * s**2)
    else:
        q = x0 + p0 * t / MASS
        width = sigma * np.sqrt(1.0 + (HBAR * t / (2.0 * MASS * sigma**2)) ** 2)
    return q, width


def exact_path(system: str, x0: float, p0: float, sigma: float, x_start: float,
               t) -> np.ndarray:
    """x(t) = q(t) + (x_start - x0) * width(t) / sigma."""
    q, width = center_width(system, x0, p0, sigma, t)
    return q + (x_start - x0) * width / sigma


def check_positions(system: str, x0: float, p0: float, sigma: float,
                    x_start: float, times, positions, tol: float) -> str | None:
    want = exact_path(system, x0, p0, sigma, x_start, times)
    scale = sigma + np.abs(want)
    err = np.abs(np.asarray(positions, dtype=float) - want) / scale
    if not np.all(np.isfinite(err)):
        return "non-finite position"
    worst = int(np.argmax(err))
    if err[worst] > tol:
        return f"t={float(np.asarray(times)[worst])!r}: relative error {err[worst]:.3e}"
    return None


def check_trajectory_cli(system: str, x0: float, p0: float, sigma: float,
                         x_start: float, rc: int, stdout: str) -> str | None:
    if rc != 0:
        return f"expected exit 0, got {rc}"
    rows = np.array([[float(c) for c in row[:2]] for row in _rows(stdout)])
    return check_positions(system, x0, p0, sigma, x_start, rows[:, 0], rows[:, 1],
                           RK45_TOL)


# ---------------------------------------------------------------------------
# Spectral sums, pointwise kernels, verify
# ---------------------------------------------------------------------------

def check_spectral(mean_energy: float, exact: float) -> str | None:
    if not _close(mean_energy, exact, SPECTRAL_RTOL):
        return f"sum |c_k|^2 E_k = {mean_energy!r}, closed form {exact!r}"
    return None


def check_grid_moments(x, density, energy, exact: float) -> str | None:
    """integral P dx = 1 and integral P E dx = <H> on the sampled grid."""
    norm = float(np.trapezoid(density, x))
    mean = float(np.trapezoid(density * energy, x))
    if not _close(norm, 1.0, GRID_RTOL):
        return f"integral of P = {norm!r}"
    if not _close(mean, exact, GRID_RTOL):
        return f"integral of P E = {mean!r}, closed form {exact!r}"
    return None


def check_verify(rc: int, stdout: str) -> str | None:
    if rc != 0 or "verification PASSED" not in stdout:
        return f"expected exit 0 and PASSED, got exit {rc}"
    return None
