"""Oracle cross-checks and the closed-form discrepancy report.

Two kinds of entries come out of a verification run:

* checks: the library's closed forms against independent numerical
  definitions (finite-difference quantum potential and energy, the quantum
  Hamilton-Jacobi residual, the time derivative of the marginal Z, the bath
  correction factor against 3D quadrature).  These must pass.
* discrepancies: alternate closed-form variants that circulate for the same
  quantities but disagree with the defining integrals/derivatives.  These
  are measured and reported, never silently adopted or corrected:
    1. the energy form E = p^2/2m + V(q) + Q with the center-potential
       convention (and, for the free packet, a squared width factor in the
       quadratic coefficient) versus E = -dS/dt;
    2. the marginal-Z rate bracket without the -beta weight versus the exact
       derivative;
    3. the bath hidden-coordinate factor with an extra 2 pi per oscillator
       versus the quadrature value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bath import BathSpec, Oscillator, unified_bath_Z
from .core import QuadratureConfig, SystemParams, ThermalSpec, free_system, \
    harmonic_system, potential_value
from .numdiff import central_first, central_second
from .partition import Method, marginal_Z, marginal_Z_derivative
from .trajectories import quantum_force
from .wavepacket import (WavepacketInit, WavepacketState, amplitude,
                         energy_pointwise, evolve, phase_gradient,
                         quantum_potential, total_phase)


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance


@dataclass(frozen=True)
class DiscrepancyEntry:
    name: str
    description: str
    residual: float


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)
    discrepancies: list[DiscrepancyEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = []
        for c in self.checks:
            tag = "ok  " if c.passed else "FAIL"
            lines.append(f"[{tag}] {c.name}: residual={c.residual:.3e} tol={c.tolerance:.1e}")
        lines.append("")
        lines.append("closed-form discrepancy report "
                     "(documented variants vs defining oracles):")
        for d in self.discrepancies:
            lines.append(f"  - {d.name}: measured residual {d.residual:.6e}")
            lines.append(f"      {d.description}")
        lines.append("")
        lines.append("verification " + ("PASSED" if self.passed else "FAILED"))
        return "\n".join(lines)


@dataclass(frozen=True)
class ToleranceProfile:
    q_fd: float = 1e-6
    energy_fd: float = 1e-6
    qhj: float = 1e-9
    dzdt_fd: float = 1e-6
    bath_factor: float = 1e-8
    n_points: int = 100
    seed: int = 2024

    @classmethod
    def named(cls, name: str) -> "ToleranceProfile":
        if name == "default":
            return cls()
        if name == "strict":
            return cls(q_fd=5e-7, energy_fd=1e-9, qhj=1e-12, dzdt_fd=1e-8,
                       bath_factor=1e-10, n_points=200)
        raise ValueError(f"unknown tolerance profile {name!r}")


def _sample_systems() -> list[tuple[str, SystemParams, WavepacketInit]]:
    return [
        ("harmonic", harmonic_system(1.0, 1.0), WavepacketInit(1.0, 0.5, 0.45)),
        ("free", free_system(1.0), WavepacketInit(0.3, 1.2, 0.6)),
    ]


def _energy_scale(state: WavepacketState) -> float:
    hbar, m = state.params.constants.hbar, state.params.mass
    return (state.p**2 / (2 * m) + hbar**2 * state.alpha.real / m
            + abs(potential_value(state.params, state.q)) + 0.1)


def _sample_points(profile: ToleranceProfile, offset: int, lo: float = -2.5,
                   hi: float = 2.5):
    """Yield (system name, state, x) at n_points // 2 random points per system.

    Each point draws t uniform in [0, 6] and then x = q + uniform(lo, hi)
    times the packet width, from a generator seeded with seed + offset.
    """
    rng = np.random.default_rng(profile.seed + offset)
    for name, params, init in _sample_systems():
        for _ in range(profile.n_points // 2):
            state = evolve(params, init, rng.uniform(0.0, 6.0))
            yield name, state, state.q + rng.uniform(lo, hi) * state.width


def check_quantum_potential_fd(profile: ToleranceProfile,
                               q_scale: float = 1.0) -> CheckResult:
    """Closed-form Q against -(hbar^2 / 2 m R) R'' by finite differences.

    q_scale is a fault-injection hook: it multiplies the closed form, so any
    value other than 1 must make the check fail.
    """
    worst = 0.0
    for _, state, x in _sample_points(profile, 0):
        hbar, m = state.params.constants.hbar, state.params.mass
        fd = -hbar**2 / (2 * m) * central_second(
            lambda xx: amplitude(state, xx), x) / amplitude(state, x)
        cf = q_scale * quantum_potential(state, x)
        scale = hbar**2 * state.alpha.real / m
        worst = max(worst, abs(fd - cf) / max(abs(cf), scale))
    return CheckResult("quantum potential vs finite-difference R''", worst,
                       profile.q_fd)


def check_energy_fd(profile: ToleranceProfile) -> CheckResult:
    """Closed-form E(x,t) against -dS/dt by central time differences."""
    worst = 0.0
    for _, state, x in _sample_points(profile, 1):
        fd = -central_first(
            lambda tt: total_phase(evolve(state.params, state.init, tt), x),
            state.t)
        cf = energy_pointwise(state, x)
        worst = max(worst, abs(fd - cf) / max(abs(cf), _energy_scale(state)))
    return CheckResult("pointwise energy vs -dS/dt", worst, profile.energy_fd)


def check_qhj_residual(profile: ToleranceProfile) -> CheckResult:
    """-dS/dt - [(dS/dx)^2/2m + V + Q] = 0 with all closed forms."""
    worst = 0.0
    for _, state, x in _sample_points(profile, 2):
        res = energy_pointwise(state, x) - (
            phase_gradient(state, x) ** 2 / (2 * state.params.mass)
            + potential_value(state.params, x) + quantum_potential(state, x))
        worst = max(worst, abs(res) / _energy_scale(state))
    return CheckResult("quantum Hamilton-Jacobi residual", worst, profile.qhj)


def check_quantum_force_fd(profile: ToleranceProfile) -> CheckResult:
    """Analytic -dQ/dx against a central difference of Q."""
    worst = 0.0
    for _, state, x in _sample_points(profile, 3, lo=0.2):
        hbar, m = state.params.constants.hbar, state.params.mass
        fd = -central_first(lambda xx: quantum_potential(state, xx), x)
        cf = quantum_force(state, x)
        scale = 4 * hbar**2 * state.alpha.real**2 * state.width / m
        worst = max(worst, abs(fd - cf) / max(abs(cf), scale))
    return CheckResult("quantum force vs finite-difference dQ/dx", worst, 1e-8)


def check_marginal_rate_fd(profile: ToleranceProfile,
                           quad: QuadratureConfig) -> CheckResult:
    """Exact marginal-Z derivative against Richardson central differences."""
    params = harmonic_system(1.0, 1.0)
    init = WavepacketInit(1.0, 0.0, 0.45)
    thermal = ThermalSpec.from_kbt(2.0)
    tight = QuadratureConfig(quad.window_sigmas, 1e-12, 1e-15)
    worst = 0.0
    for t in (0.4, 1.3, 2.9):
        rate = marginal_Z_derivative(params, init, thermal, t, tight).exact
        h = 1e-3

        def z_of(tt: float) -> float:
            return marginal_Z(params, init, thermal, tt, tight)

        d1 = (z_of(t + h) - z_of(t - h)) / (2 * h)
        d2 = (z_of(t + h / 2) - z_of(t - h / 2)) / h
        fd = (4 * d2 - d1) / 3
        worst = max(worst, abs(rate - fd) / max(abs(fd), 1e-12))
    return CheckResult("marginal dZ/dt vs finite difference", worst,
                       profile.dzdt_fd)


def check_bath_factor(profile: ToleranceProfile,
                      quad: QuadratureConfig) -> CheckResult:
    """Per-oscillator hidden-coordinate factor: quadrature vs closed form."""
    bath = BathSpec((Oscillator(1.0, 1.0, 1.5),), sigma=1.0, q0=0.7)
    thermal = ThermalSpec(1.0)
    exact_cf, _ = unified_bath_Z(bath, thermal)
    exact_qd, _ = unified_bath_Z(bath, thermal, quad, method=Method.QUADRATURE)
    rel = abs(exact_cf.value - exact_qd.value) / exact_cf.value
    return CheckResult("bath correction factor vs 3D quadrature", rel,
                       profile.bath_factor)


# ---------------------------------------------------------------------------
# Documented closed-form variants (measured, not adopted)
# ---------------------------------------------------------------------------

def energy_center_potential_variant(state: WavepacketState, x):
    """Energy written as p(t)^2/2m + V(q(t)) + Q-variant.

    Matches -dS/dt only where V(x) = V(q); for the free packet the variant
    additionally squares the (1 - tau^2) factor of the quadratic coefficient.
    """
    params = state.params
    hbar, m = params.constants.hbar, params.mass
    u = x - state.q
    if params.is_harmonic:
        w = params.omega
        a = m * w / (2.0 * hbar)
        a0 = state.init.alpha0
        wt = w * state.t
        s, c = math.sin(wt), math.cos(wt)
        den = a0**2 * s * s + a * a * c * c
        quad_c = -(2 * hbar**2 * a * a / m) * (
            a * a * a0 * a0 - (a * a - a0 * a0) ** 2 * s * s * c * c) / den**2
        lin_c = -(2 * a * hbar * state.p / m) * (a * a - a0 * a0) * s * c / den
        const = (hbar**2 / m) * a * a * a0 / den
        center = state.p**2 / (2 * m) + 0.5 * m * w * w * state.q**2
    else:
        a0 = state.init.alpha0
        tau = 2.0 * hbar * a0 * state.t / m
        den = 1.0 + tau * tau
        quad_c = -(2 * hbar**2 / m) * a0 * a0 * (1.0 - tau * tau) ** 2 / den**2
        lin_c = (2 * hbar * a0 * state.p / m) * tau / den
        const = (hbar**2 / m) * a0 / den
        center = state.p**2 / (2 * m)
    return quad_c * (u * u) + lin_c * u + const + center


def measure_energy_variant(profile: ToleranceProfile) -> DiscrepancyEntry:
    worst = {name: 0.0 for name, _, _ in _sample_systems()}
    for name, state, x in _sample_points(profile, 4):
        diff = abs(energy_center_potential_variant(state, x)
                   - energy_pointwise(state, x))
        worst[name] = max(worst[name], diff / _energy_scale(state))
    return DiscrepancyEntry(
        "energy form with center potential V(q)",
        "variant E = p^2/2m + V(q) + Q differs from -dS/dt by V(x) - V(q) "
        f"(harmonic) and by a squared width factor (free); worst relative "
        f"residuals: harmonic {worst['harmonic']:.3e}, free {worst['free']:.3e}",
        max(worst.values()))


def measure_dzdt_bracket(quad: QuadratureConfig) -> DiscrepancyEntry:
    params = harmonic_system(1.0, 1.0)
    init = WavepacketInit(1.0, 0.0, 0.45)
    thermal = ThermalSpec.from_kbt(2.0)
    rate = marginal_Z_derivative(params, init, thermal, 1.3, quad)
    z_val = marginal_Z(params, init, thermal, 1.3, quad)
    resid = abs(rate.bracket - rate.exact) / z_val
    return DiscrepancyEntry(
        "marginal-Z rate bracket without -beta weight",
        "integral (dP/dt + P dE/dt) e^(-beta E) dx vs the exact "
        f"d/dt: exact={rate.exact:.6e}, bracket={rate.bracket:.6e} "
        "(residual relative to Z)",
        resid)


def measure_bath_2pi(quad: QuadratureConfig) -> DiscrepancyEntry:
    bath = BathSpec((Oscillator(1.0, 1.0, 1.0),), sigma=1.0)
    thermal = ThermalSpec(1.0)
    exact_qd, printed = unified_bath_Z(bath, thermal, quad,
                                       method=Method.QUADRATURE)
    ratio = printed.value / exact_qd.value
    return DiscrepancyEntry(
        "bath factor with extra 2 pi per oscillator",
        f"variant/quadrature = {ratio:.12f} per oscillator "
        "(the defining integral carries no 2 pi)",
        abs(ratio - 1.0))


def run_verification(profile: ToleranceProfile | None = None,
                     quad: QuadratureConfig | None = None,
                     q_scale: float = 1.0) -> VerificationReport:
    """Run every oracle check plus the discrepancy measurements."""
    profile = profile or ToleranceProfile()
    quad = quad or QuadratureConfig()
    report = VerificationReport()
    report.checks.append(check_quantum_potential_fd(profile, q_scale))
    report.checks.append(check_energy_fd(profile))
    report.checks.append(check_qhj_residual(profile))
    report.checks.append(check_quantum_force_fd(profile))
    report.checks.append(check_marginal_rate_fd(profile, quad))
    report.checks.append(check_bath_factor(profile, quad))
    report.discrepancies.append(measure_energy_variant(profile))
    report.discrepancies.append(measure_dzdt_bracket(quad))
    report.discrepancies.append(measure_bath_2pi(quad))
    return report
