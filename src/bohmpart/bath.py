"""Harmonic-bath crossover: kernel, noise force, and bath partition functions.

A tagged particle at q couples bilinearly to N oscillators; the bath
Hamiltonian is a sum of completed squares

    H_B = 1/2 sum_a [ P_a^2/m_a + m_a w_a^2 (X_a - c_a q / w_a^2)^2 ],

so the classical bath partition function (raw measure, matching the
Langevin-average convention) is the product of 2 pi / (beta w_a) factors and
never depends on the couplings or on q.  When every oscillator is prepared
in a shared-width Gaussian instead of a point, integrating out the hidden
coordinates multiplies Z_B by the same correction factor as the single
particle case, once per oscillator:

    (1 - r_a)^(-1/2) exp(-r_a),   r_a = beta hbar^2 / (4 m_a sigma^2).

A variant with an extra 2 pi per oscillator is retained alongside the exact
factor because it circulates in closed-form write-ups; the quadrature oracle
in the verification suite pins down which one the integral actually gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DivergentIntegral, QuadratureConfig, ThermalSpec
from .partition import (CriterionReport, Method, PartitionResult,
                        _phase_space_integral, _unified_integral,
                        classicality_criterion)


@dataclass(frozen=True)
class Oscillator:
    mass: float
    omega: float
    coupling: float

    def __post_init__(self):
        if not (0 < self.mass < math.inf and 0 < self.omega < math.inf):
            raise ValueError("oscillator mass and frequency must be finite "
                             "and positive")
        if not math.isfinite(self.coupling):
            raise ValueError("oscillator coupling must be finite")


@dataclass(frozen=True)
class BathSpec:
    """N oscillators, the shared packet width, and the tagged position q(0)."""

    oscillators: tuple[Oscillator, ...]
    sigma: float
    q0: float = 0.0

    def __post_init__(self):
        if not self.oscillators:
            raise ValueError("bath must contain at least one oscillator")
        if not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be finite and strictly positive")
        if not math.isfinite(self.q0):
            raise ValueError("q0 must be finite")

    @property
    def size(self) -> int:
        return len(self.oscillators)


@dataclass(frozen=True)
class BathInitialState:
    positions: tuple[float, ...]
    momenta: tuple[float, ...]

    def __post_init__(self):
        if len(self.positions) != len(self.momenta):
            raise ValueError("positions and momenta must have equal length")


def uniform_bath(n: int, m0: float = 1.0, omega_max: float = 1.0,
                 coupling_scale: float = 1.0, sigma: float = 1.0,
                 q0: float = 0.0) -> BathSpec:
    """Convenience bath: equal masses, linear frequency and coupling grids."""
    oscillators = tuple(
        Oscillator(m0, omega_max * k / n, coupling_scale * k / n)
        for k in range(1, n + 1))
    return BathSpec(oscillators, sigma, q0)


def memory_kernel(bath: BathSpec, t) -> float | np.ndarray:
    """Friction kernel nu(t) = sum_a (c_a^2 / w_a^2) cos(w_a t)."""
    return sum((o.coupling**2 / o.omega**2) * np.cos(o.omega * t)
               for o in bath.oscillators)


def noise_force(bath: BathSpec, init: BathInitialState, t) -> float | np.ndarray:
    """Stochastic force from the bath initial conditions.

    F(t) = sum_a { m_a c_a [X_a(0) - c_a q0 / w_a^2] cos(w_a t)
                   + c_a P_a(0) sin(w_a t) / w_a }.
    """
    if len(init.positions) != bath.size:
        raise ValueError("initial state size does not match bath size")
    out = 0.0
    for o, x_a, p_a in zip(bath.oscillators, init.positions, init.momenta):
        shift = x_a - o.coupling * bath.q0 / o.omega**2
        out = out + o.mass * o.coupling * shift * np.cos(o.omega * t) \
            + o.coupling * p_a * np.sin(o.omega * t) / o.omega
    return out


def bath_ratios(bath: BathSpec, thermal: ThermalSpec, hbar: float = 1.0) -> np.ndarray:
    """Per-oscillator convergence ratios beta hbar^2 / (4 m_a sigma^2)."""
    return np.array([thermal.beta * hbar**2 / (4.0 * o.mass * bath.sigma**2)
                     for o in bath.oscillators])


def classical_bath_Z(bath: BathSpec, thermal: ThermalSpec,
                     quad: QuadratureConfig | None = None,
                     method: Method = Method.CLOSED_FORM) -> PartitionResult:
    """Z_B = prod_a 2 pi / (beta w_a), raw measure; quadrature oracle optional."""
    beta = thermal.beta
    if method is Method.CLOSED_FORM:
        val = 1.0
        for o in bath.oscillators:
            val *= 2.0 * math.pi / (beta * o.omega)
        return PartitionResult(val, 0.0, method)
    if method is not Method.QUADRATURE:
        raise ValueError("classical_bath_Z supports CLOSED_FORM and QUADRATURE")

    quad = quad or QuadratureConfig()
    val, relerr = 1.0, 0.0
    for o in bath.oscillators:
        factor, err = _phase_space_integral(
            o.mass, o.omega, thermal, quad,
            center=o.coupling * bath.q0 / o.omega**2)
        relerr += err / factor
        val *= factor
    return PartitionResult(val, abs(val) * relerr, method)


def unified_bath_Z(bath: BathSpec, thermal: ThermalSpec,
                   quad: QuadratureConfig | None = None,
                   hbar: float = 1.0,
                   method: Method = Method.CLOSED_FORM
                   ) -> tuple[PartitionResult, PartitionResult]:
    """Bath partition function with the hidden coordinates integrated out.

    Returns (exact, with_2pi): the exact result multiplies Z_B by
    (1 - r_a)^(-1/2) exp(-r_a) per oscillator; with_2pi carries an extra
    2 pi per oscillator and is reported only for the discrepancy ledger.
    """
    ratios = bath_ratios(bath, thermal, hbar)
    if np.any(ratios >= 1.0):
        worst = float(np.max(ratios))
        raise DivergentIntegral(
            f"bath ratio {worst:g} >= 1: hidden-coordinate integral diverges")
    z_b = classical_bath_Z(bath, thermal).value

    if method is Method.CLOSED_FORM:
        factor = 1.0
        for r in ratios:
            factor *= math.exp(-r) / math.sqrt(1.0 - r)
        exact = PartitionResult(z_b * factor, 0.0, method)
        printed = PartitionResult(z_b * factor * (2.0 * math.pi) ** bath.size,
                                  0.0, method)
        return exact, printed
    if method is not Method.QUADRATURE:
        raise ValueError("unified_bath_Z supports CLOSED_FORM and QUADRATURE")

    quad = quad or QuadratureConfig()
    factor = 1.0
    for o in bath.oscillators:
        val, _ = _unified_integral(o.mass, o.omega, bath.sigma, thermal, hbar,
                                   quad, center=o.coupling * bath.q0 / o.omega**2)
        factor *= val / (2.0 * math.pi / (thermal.beta * o.omega))
    exact = PartitionResult(z_b * factor, 0.0, method)
    printed = PartitionResult(z_b * factor * (2.0 * math.pi) ** bath.size,
                              0.0, method)
    return exact, printed


def large_N_ratio(n: int, m0: float, sigma: float, thermal: ThermalSpec,
                  hbar: float = 1.0) -> tuple[float, float, float]:
    """Uniform-mass large-N approximation vs the exact product factor.

    Returns (approx, exact, rel_err) for Z'_B / Z_B:
        approx  = exp(-N r)
        exact   = [(1 - r)^(-1/2) exp(-r)]^N
        rel_err = |approx - exact| / exact = |1 - (1 - r)^(N/2)|.
    """
    r = thermal.beta * hbar**2 / (4.0 * m0 * sigma**2)
    if r >= 1.0:
        raise DivergentIntegral(f"ratio {r:g} >= 1: bath factor diverges")
    approx = math.exp(-n * r)
    exact = (math.exp(-r) / math.sqrt(1.0 - r)) ** n
    return approx, exact, abs(approx - exact) / exact


def bath_classicality(bath: BathSpec, thermal: ThermalSpec,
                      hbar: float = 1.0, kb: float = 1.0) -> list[CriterionReport]:
    """Per-oscillator temperature criterion; the bath passes iff all do."""
    return [classicality_criterion(o.mass, bath.sigma, thermal, hbar, kb)
            for o in bath.oscillators]
