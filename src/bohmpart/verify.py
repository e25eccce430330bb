"""Oracle cross-checks and the closed-form discrepancy report.

Two kinds of entries come out of a verification run:

* checks: the library's closed forms against independent numerical
  definitions (finite-difference quantum potential and energy, the quantum
  Hamilton-Jacobi residual, the time derivative of the marginal Z, the bath
  correction factor against 3D quadrature).  These must pass, each with its
  residual below a fixed module tolerance (Q_FD_TOL, ..., BATH_FACTOR_TOL),
  its worst over the samples as core._worst keeps it, NaN included; the
  pointwise checks sample N_POINTS seeded random points, drawn with the
  standard library's random.Random, and the quantum-potential check takes
  its finite-difference steps in units of the packet's width.  Every
  finite difference, in x or in t, is a numdiff stencil.
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

The bath check and entry 3 share one bath, BATH, and one quadrature of it,
which run_verification computes once.

The quadrature oracles are separate functions of `partition`
(unified_integral here), never a branch of the closed form they check.
Every check evaluates its kernels one float at a time, so a run imports
no numpy.
"""

from __future__ import annotations

import math
import random

from .bath import BathSpec, Oscillator, unified_bath_Z
from .core import SystemParams, ThermalSpec, _worst, free_system, \
    harmonic_system, potential_value, record
from .numdiff import central_first, central_second
from .partition import marginal_Z, marginal_Z_derivative, unified_integral
from .trajectories import quantum_force
from .wavepacket import (WavepacketInit, WavepacketState, _log_density,
                         energy_pointwise, evolve, phase_gradient,
                         quantum_potential, total_phase)


@record
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance


@record
class DiscrepancyEntry:
    name: str
    description: str
    residual: float


@record
class VerificationReport:
    checks: list[CheckResult]
    discrepancies: list[DiscrepancyEntry]

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


# Sample size and seed of the pointwise checks (see _sample_points).
N_POINTS, SEED = 100, 2024
# Each check's tolerance, at least five times its residual at N_POINTS.
Q_FD_TOL, ENERGY_FD_TOL, QHJ_TOL = 5e-7, 1e-9, 1e-12
QUANTUM_FORCE_FD_TOL, DZDT_FD_TOL, BATH_FACTOR_TOL = 1e-9, 1e-8, 1e-10

# The one-oscillator bath of check_bath_factor and measure_bath_2pi, with its
# well displaced by the coupling (q0 != 0) and its inverse temperature.
BATH = BathSpec((Oscillator(1.0, 1.0, 1.5),), sigma=1.0, q0=0.7)
BATH_THERMAL = ThermalSpec(1.0)
# The packet of check_marginal_rate_fd and measure_dzdt_bracket.
MARGINAL_RUN = (harmonic_system(1.0, 1.0), WavepacketInit(1.0, 0.0, 0.45),
                ThermalSpec.from_kbt(2.0))


def _sample_systems() -> list[tuple[str, SystemParams, WavepacketInit]]:
    return [
        ("harmonic", harmonic_system(1.0, 1.0), WavepacketInit(1.0, 0.5, 0.45)),
        ("free", free_system(1.0), WavepacketInit(0.3, 1.2, 0.6)),
    ]


def _energy_scale(state: WavepacketState) -> float:
    hbar, m = state.params.hbar, state.params.mass
    return (state.p**2 / (2 * m) + hbar**2 * state.alpha.real / m
            + abs(potential_value(state.params, state.q)) + 0.1)


def _sample_points(offset: int, lo: float = -2.5, hi: float = 2.5):
    """Yield (system name, state, x) at N_POINTS // 2 random points per system.

    Each point draws t uniform in [0, 6] and then x = q + uniform(lo, hi)
    times the packet width, from random.Random(SEED + offset).
    """
    rng = random.Random(SEED + offset)
    for name, params, init in _sample_systems():
        for _ in range(N_POINTS // 2):
            state = evolve(params, init, rng.uniform(0.0, 6.0))
            yield name, state, state.q + rng.uniform(lo, hi) * state.width


def check_quantum_potential_fd() -> CheckResult:
    """Closed-form Q against -(hbar^2 / 2 m) R''/R by finite differences.

    With L = log R = log P / 2, R''/R = L'' + L'^2; both derivatives take
    steps in units of the packet's width.
    """
    def residual(state: WavepacketState, x: float) -> float:
        hbar, m, width = state.params.hbar, state.params.mass, state.width

        def log_r(xx: float) -> float:
            return 0.5 * _log_density(state, xx)
        fd = -hbar**2 / (2 * m) * (central_second(log_r, x, 1e-3 * width)
                                   + central_first(log_r, x, 1e-4 * width) ** 2)
        cf = quantum_potential(state, x)
        return abs(fd - cf) / max(abs(cf), hbar**2 * state.alpha.real / m)
    return CheckResult("quantum potential vs finite-difference R''",
                       _worst(residual(s, x) for _, s, x in _sample_points(0)),
                       Q_FD_TOL)


def check_energy_fd() -> CheckResult:
    """Closed-form E(x,t) against -dS/dt by central time differences."""
    def residual(state: WavepacketState, x: float) -> float:
        fd = -central_first(
            lambda tt: total_phase(evolve(state.params, state.init, tt), x),
            state.t)
        cf = energy_pointwise(state, x)
        return abs(fd - cf) / max(abs(cf), _energy_scale(state))
    return CheckResult("pointwise energy vs -dS/dt",
                       _worst(residual(s, x) for _, s, x in _sample_points(1)),
                       ENERGY_FD_TOL)


def check_qhj_residual() -> CheckResult:
    """-dS/dt - [(dS/dx)^2/2m + V + Q] = 0 with all closed forms."""
    def residual(state: WavepacketState, x: float) -> float:
        res = energy_pointwise(state, x) - (
            phase_gradient(state, x) ** 2 / (2 * state.params.mass)
            + potential_value(state.params, x) + quantum_potential(state, x))
        return abs(res) / _energy_scale(state)
    return CheckResult("quantum Hamilton-Jacobi residual",
                       _worst(residual(s, x) for _, s, x in _sample_points(2)),
                       QHJ_TOL)


def check_quantum_force_fd() -> CheckResult:
    """Analytic -dQ/dx against a central difference of Q."""
    def residual(state: WavepacketState, x: float) -> float:
        hbar, m = state.params.hbar, state.params.mass
        fd = -central_first(lambda xx: quantum_potential(state, xx), x)
        cf = quantum_force(state, x)
        scale = 4 * hbar**2 * state.alpha.real**2 * state.width / m
        return abs(fd - cf) / max(abs(cf), scale)
    return CheckResult("quantum force vs finite-difference dQ/dx",
                       _worst(residual(s, x)
                              for _, s, x in _sample_points(3, lo=0.2)),
                       QUANTUM_FORCE_FD_TOL)


def check_marginal_rate_fd() -> CheckResult:
    """Exact marginal-Z derivative against central_first of marginal_Z in t."""
    def z_of(tt: float) -> float:
        return marginal_Z(*MARGINAL_RUN, tt)

    def residual(t: float) -> float:
        rate = marginal_Z_derivative(*MARGINAL_RUN, t).exact
        fd = central_first(z_of, t, 1e-3)
        return abs(rate - fd) / max(abs(fd), 1e-12)
    return CheckResult("marginal dZ/dt vs finite difference",
                       _worst(map(residual, (0.4, 1.3, 2.9))), DZDT_FD_TOL)


def bath_oracle() -> float:
    """The exact unified Z of BATH (raw measure, hbar = 1) by quadrature: one
    3D unified_integral per oscillator, centred where the coupling shifts it."""
    val = 1.0
    for o in BATH.oscillators:
        factor, _ = unified_integral(o.mass, o.omega, BATH.sigma, BATH_THERMAL,
                                     1.0, center=o.coupling * BATH.q0 / o.omega**2)
        val *= factor
    return val


def check_bath_factor(oracle: float) -> CheckResult:
    """Per-oscillator hidden-coordinate factor: closed form vs bath_oracle()."""
    exact_cf, _ = unified_bath_Z(BATH, BATH_THERMAL, 1.0)
    rel = abs(exact_cf - oracle) / exact_cf
    return CheckResult("bath correction factor vs 3D quadrature", rel,
                       BATH_FACTOR_TOL)


# ---------------------------------------------------------------------------
# Documented closed-form variants (measured, not adopted)
# ---------------------------------------------------------------------------

def energy_center_potential_variant(state: WavepacketState, x):
    """Energy written as p(t)^2/2m + V(q(t)) + Q-variant.

    Matches -dS/dt only where V(x) = V(q); for the free packet the variant
    additionally squares the (1 - tau^2) factor of the quadratic coefficient.
    """
    params = state.params
    hbar, m = params.hbar, params.mass
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


def measure_energy_variant() -> DiscrepancyEntry:
    residuals = [(name, abs(energy_center_potential_variant(state, x)
                            - energy_pointwise(state, x)) / _energy_scale(state))
                 for name, state, x in _sample_points(4)]
    worst = {name: _worst(r for n, r in residuals if n == name)
             for name, _, _ in _sample_systems()}
    return DiscrepancyEntry(
        "energy form with center potential V(q)",
        "variant E = p^2/2m + V(q) + Q differs from -dS/dt by V(x) - V(q) "
        f"(harmonic) and by a squared width factor (free); worst relative "
        f"residuals: harmonic {worst['harmonic']:.3e}, free {worst['free']:.3e}",
        _worst(worst.values()))


def measure_dzdt_bracket() -> DiscrepancyEntry:
    rate = marginal_Z_derivative(*MARGINAL_RUN, 1.3)
    z_val = marginal_Z(*MARGINAL_RUN, 1.3)
    resid = abs(rate.bracket - rate.exact) / z_val
    return DiscrepancyEntry(
        "marginal-Z rate bracket without -beta weight",
        "integral (dP/dt + P dE/dt) e^(-beta E) dx vs the exact "
        f"d/dt: exact={rate.exact:.6e}, bracket={rate.bracket:.6e} "
        "(residual relative to Z)",
        resid)


def measure_bath_2pi(oracle: float) -> DiscrepancyEntry:
    """The 2 pi variant against `oracle`, the value of bath_oracle()."""
    _, printed = unified_bath_Z(BATH, BATH_THERMAL, 1.0)
    ratio = printed / oracle
    return DiscrepancyEntry(
        "bath factor with extra 2 pi per oscillator",
        f"variant/quadrature = {ratio:.12f} per oscillator "
        "(the defining integral carries no 2 pi)",
        abs(ratio - 1.0))


def run_verification() -> VerificationReport:
    """Run every oracle check plus the discrepancy measurements; the bath
    quadrature runs once, for both of its entries."""
    oracle = bath_oracle()
    return VerificationReport(
        checks=[check_quantum_potential_fd(), check_energy_fd(),
                check_qhj_residual(), check_quantum_force_fd(),
                check_marginal_rate_fd(), check_bath_factor(oracle)],
        discrepancies=[measure_energy_variant(), measure_dzdt_bracket(),
                       measure_bath_2pi(oracle)])
