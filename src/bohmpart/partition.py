"""Partition functions: classical, quantum, unified Gaussian, and marginal.

Conventions
-----------
* The phase-space measure is dGamma = dx dp / (2 pi hbar) by default; pass
  measure="raw" for plain dx dp.  Ratios such as Z_u/Z_cl do not depend on
  the choice.
* The unified Gaussian form integrates the packet density against
  exp(-beta E) over the hidden coordinate and the trajectory initial
  conditions.  The x-integral converges only while

      beta hbar^2 / (4 m sigma^2) < 1,

  which is the classicality temperature bound; every entry point checks it
  before integrating and raises DivergentIntegral at or beyond the threshold.
* The marginal partition function at fixed (x0, p0) keeps the single
  prepared packet in the distribution sum; it is evaluated by Gauss-Legendre
  quadrature (core.integrate_window) of exp(log P - beta E) with the window
  sized from the completed square of the full exponent.
* Every QUADRATURE method integrates a vectorized integrand over a box of
  window_sigmas standard deviations per axis; est_error is the difference
  between the last two rules of the Gauss-Legendre ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .core import (DivergentIntegral, QuadratureConfig, SystemParams,
                   ThermalSpec, integrate_window)
from .wavepacket import (WavepacketInit, energy_dt, energy_pointwise, evolve,
                         _energy_coefficients, _log_density, _log_density_dt)


class Method(Enum):
    CLOSED_FORM = "closed_form"
    QUADRATURE = "quadrature"
    EIGEN_SUM = "eigen_sum"


@dataclass(frozen=True)
class PartitionResult:
    value: float
    est_error: float
    method: Method

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError("partition value must be positive")
        if self.est_error < 0:
            raise ValueError("est_error must be non-negative")


@dataclass(frozen=True)
class MarginalCurve:
    """Time series of the marginal partition function for one (sigma, kbt)."""

    times: np.ndarray
    values: np.ndarray
    normalized: bool
    sigma: float
    kbt: float
    x0: float
    p0: float


@dataclass(frozen=True)
class CriterionReport:
    """Classicality diagnostic for one (m, sigma, beta) combination."""

    t_min: float
    dimensionless_ratio: float
    classical_ok: bool
    thermal_de_broglie: float


def _measure_factor(params: SystemParams, measure: str) -> float:
    if measure == "dGamma":
        return 2.0 * math.pi * params.constants.hbar
    if measure == "raw":
        return 1.0
    raise ValueError(f"unknown measure {measure!r}; use 'dGamma' or 'raw'")


def quantum_ratio(params_mass: float, sigma: float, thermal: ThermalSpec,
                  hbar: float) -> float:
    """The dimensionless convergence ratio beta hbar^2 / (4 m sigma^2)."""
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be finite and strictly positive")
    return thermal.beta * hbar**2 / (4.0 * params_mass * sigma**2)


# ---------------------------------------------------------------------------
# Classical and quantum references
# ---------------------------------------------------------------------------

def classical_Z(params: SystemParams, thermal: ThermalSpec,
                quad: QuadratureConfig, method: Method = Method.CLOSED_FORM,
                measure: str = "dGamma") -> PartitionResult:
    """Phase-space integral of exp(-beta H); closed form k_B T/(hbar omega).

    Only the harmonic well has a convergent configuration integral; the free
    particle raises DivergentIntegral.
    """
    if not params.is_harmonic:
        raise DivergentIntegral("free particle: unbounded configuration integral")
    beta = thermal.beta
    m, w = params.mass, params.omega
    norm = _measure_factor(params, measure)

    if method is Method.CLOSED_FORM:
        return PartitionResult(2.0 * math.pi / (beta * w) / norm, 0.0, method)
    if method is not Method.QUADRATURE:
        raise ValueError("classical_Z supports CLOSED_FORM and QUADRATURE")

    val, err = _phase_space_integral(m, w, thermal, quad)
    return PartitionResult(val / norm, err / norm, method)


def _phase_space_integral(m: float, w: float, thermal: ThermalSpec,
                          quad: QuadratureConfig, center: float = 0.0,
                          times_energy: bool = False) -> tuple[float, float]:
    """(value, error) of the raw-measure integral of [H] exp(-beta H) dx dp.

    H = p^2/2m + m w^2 (x - center)^2 / 2; the bracketed factor H is
    included when times_energy is set.
    """
    beta = thermal.beta
    ws = quad.window_sigmas
    sx = 1.0 / math.sqrt(beta * m) / w
    sp = math.sqrt(m / beta)

    def f(x, p):
        h = p * p / (2 * m) + 0.5 * m * w * w * (x - center) ** 2
        boltz = np.exp(-beta * h)
        return h * boltz if times_energy else boltz

    return integrate_window(f, (center - ws * sx, -ws * sp),
                            (center + ws * sx, ws * sp), quad)


# Bound on the dropped tail of quantum_Z's eigenvalue sum, relative to the sum.
TAIL_TOL = 1e-14


def quantum_Z(params: SystemParams, thermal: ThermalSpec) -> PartitionResult:
    """Eigenvalue sum over the harmonic ladder, truncated at the tail bound.

    The K kept terms exp(-x (k + 1/2)), x = beta hbar omega, are summed as
    the finite geometric series exp(-x/2) (1 - exp(-x K)) / (1 - exp(-x)),
    so the cost does not grow with K.  The geometric tail after the last
    kept term is below TAIL_TOL relative to the partial sum; the closed form
    1/(2 sinh(x / 2)) is the exact limit.
    """
    if not params.is_harmonic:
        raise DivergentIntegral("free particle: continuous spectrum")
    x = thermal.beta * params.constants.hbar * params.omega
    ratio = math.exp(-x)
    # tail after K terms: exp(-x(K+1/2)) * ratio/(1-ratio)
    n_terms = max(2, math.ceil((math.log(1.0 / TAIL_TOL)
                                + math.log(1.0 / (1.0 - ratio))) / x) + 2)
    partial = math.exp(-0.5 * x) * math.expm1(-x * n_terms) / math.expm1(-x)
    tail = math.exp(-x * (n_terms + 0.5)) / (1.0 - ratio)
    return PartitionResult(partial, tail, Method.EIGEN_SUM)


def quantum_Z_closed_form(params: SystemParams, thermal: ThermalSpec) -> float:
    x = thermal.beta * params.constants.hbar * params.omega
    return 1.0 / (2.0 * math.sinh(0.5 * x))


# ---------------------------------------------------------------------------
# Unified Gaussian form
# ---------------------------------------------------------------------------

def gaussian_correction(m: float, sigma: float, thermal: ThermalSpec,
                        hbar: float = 1.0,
                        quad: QuadratureConfig | None = None,
                        method: Method = Method.CLOSED_FORM) -> float:
    """Factor C multiplying the classical Z in the unified Gaussian form.

    C = (1 - r)^(-1/2) exp(-r) with r = beta hbar^2/(4 m sigma^2), from
    integrating the packet density against the Boltzmann weight of its own
    quantum potential.  Diverges (is raised) at r >= 1.
    """
    r = quantum_ratio(m, sigma, thermal, hbar)
    if r >= 1.0:
        raise DivergentIntegral(
            f"beta hbar^2/(4 m sigma^2) = {r:g} >= 1: x-integral diverges")
    if method is Method.CLOSED_FORM:
        return math.exp(-r) / math.sqrt(1.0 - r)
    if method is not Method.QUADRATURE:
        raise ValueError("gaussian_correction supports CLOSED_FORM and QUADRATURE")

    quad = quad or QuadratureConfig()
    beta = thermal.beta
    sig_eff = sigma / math.sqrt(1.0 - r)
    half = quad.window_sigmas * sig_eff

    def f(u):
        qpot = hbar**2 / (4 * m * sigma**2) - hbar**2 * u * u / (8 * m * sigma**4)
        return np.exp(-u * u / (2 * sigma**2) - beta * qpot) \
            / (math.sqrt(2 * math.pi) * sigma)

    val, _ = integrate_window(f, -half, half, quad)
    return val


def unified_Z_gaussian(params: SystemParams, sigma: float, thermal: ThermalSpec,
                       quad: QuadratureConfig,
                       method: Method = Method.CLOSED_FORM,
                       measure: str = "dGamma") -> PartitionResult:
    """Unified partition function for the prepared Gaussian ensemble.

    Triple integral over trajectory initial conditions (x0, p0) and the
    hidden coordinate x of P_G(x; x0) exp(-beta E(x; x0, p0)) at t = 0.
    Factorizes exactly into sqrt(2 pi m/beta) * C * integral exp(-beta V);
    the QUADRATURE method performs the honest nested integral instead.
    """
    if not params.is_harmonic:
        raise DivergentIntegral("free particle: unbounded x0 integral")
    beta = thermal.beta
    m, w = params.mass, params.omega
    hbar = params.constants.hbar
    r = quantum_ratio(m, sigma, thermal, hbar)
    if r >= 1.0:
        raise DivergentIntegral(
            f"beta hbar^2/(4 m sigma^2) = {r:g} >= 1: x-integral diverges")
    norm = _measure_factor(params, measure)

    if method is Method.CLOSED_FORM:
        c = gaussian_correction(m, sigma, thermal, hbar)
        zcl_raw = 2.0 * math.pi / (beta * w)
        return PartitionResult(zcl_raw * c / norm, 0.0, method)
    if method is not Method.QUADRATURE:
        raise ValueError("unified_Z_gaussian supports CLOSED_FORM and QUADRATURE")

    val, err = _unified_integral(m, w, sigma, thermal, hbar, quad)
    return PartitionResult(val / norm, err / norm, method)


def _unified_integral(m: float, w: float, sigma: float, thermal: ThermalSpec,
                      hbar: float, quad: QuadratureConfig,
                      center: float = 0.0) -> tuple[float, float]:
    """(value, error) of the raw-measure triple integral of P_G exp(-beta E).

    Axes are the initial conditions (x0, p0) and u = x - x0, with
    E = p0^2/2m + m w^2 (x0 - center)^2/2 + hbar^2/(4 m sigma^2)
    - hbar^2 u^2/(8 m sigma^4) at t = 0.  The exponents are summed before
    exponentiating, since near r = 1 the u-window reaches where
    exp(-beta E) alone overflows.
    """
    beta = thermal.beta
    ws = quad.window_sigmas
    sx0 = 1.0 / math.sqrt(beta * m) / w
    sp0 = math.sqrt(m / beta)
    sig_eff = sigma / math.sqrt(1.0 - quantum_ratio(m, sigma, thermal, hbar))
    log_pref = -0.5 * math.log(2 * math.pi * sigma**2)
    const_q = hbar**2 / (4 * m * sigma**2)

    def f(x0, p0, u):
        energy = (p0 * p0 / (2 * m) + 0.5 * m * w * w * (x0 - center) ** 2
                  + const_q - hbar**2 * u * u / (8 * m * sigma**4))
        return np.exp(log_pref - u * u / (2 * sigma**2) - beta * energy)

    return integrate_window(
        f, (center - ws * sx0, -ws * sp0, -ws * sig_eff),
        (center + ws * sx0, ws * sp0, ws * sig_eff), quad)


# ---------------------------------------------------------------------------
# Marginal partition function and its time derivative
# ---------------------------------------------------------------------------

def _marginal_window(state, beta: float,
                     quad: QuadratureConfig) -> tuple[float, float]:
    """x-window of the marginal integrand; DivergentIntegral if unbounded."""
    kappa, u_star, width = _marginal_exponent_shape(state, beta)
    if kappa <= 0.0:
        raise DivergentIntegral(
            f"marginal integrand not normalizable at t={state.t:g} "
            f"(quadratic coefficient {-kappa:g} >= 0)")
    center = state.q + u_star
    half = quad.window_sigmas * width
    return center - half, center + half


def _boltzmann_density(state, beta: float, x):
    """P(x,t) exp(-beta E(x,t)), exponentiated once so that no sample point
    multiplies an underflowed density by an overflowed Boltzmann factor."""
    return np.exp(_log_density(state, x) - beta * energy_pointwise(state, x))


def _marginal_exponent_shape(state, beta: float) -> tuple[float, float, float]:
    """(kappa, u_star, width) of the full integrand exponent in u = x - q.

    log(P e^(-beta E)) = -kappa u^2 - beta A1 u + const; kappa <= 0 means the
    integral diverges.  u_star is the completed-square center, width the
    effective Gaussian standard deviation.
    """
    a2, a1, _ = _energy_coefficients(state)
    kappa = 2.0 * state.alpha.real + beta * a2
    if kappa <= 0.0:
        return kappa, 0.0, math.inf
    u_star = -beta * a1 / (2.0 * kappa)
    return kappa, u_star, 1.0 / math.sqrt(2.0 * kappa)


def marginal_convergent(params: SystemParams, init: WavepacketInit,
                        thermal: ThermalSpec, t: float) -> bool:
    """Whether the marginal integrand is normalizable at this t."""
    state = evolve(params, init, t)
    kappa, _, _ = _marginal_exponent_shape(state, thermal.beta)
    return kappa > 0.0


def marginal_Z(params: SystemParams, init: WavepacketInit, thermal: ThermalSpec,
               t: float, quad: QuadratureConfig) -> float:
    """integral P(x,t) exp(-beta E(x,t)) dx at fixed (x0, p0).

    Time-dependent away from the quantum and classical limits; raises
    DivergentIntegral when the total quadratic exponent coefficient is
    non-negative at this t.
    """
    beta = thermal.beta
    state = evolve(params, init, t)
    lo, hi = _marginal_window(state, beta, quad)
    val, _ = integrate_window(lambda x: _boltzmann_density(state, beta, x),
                              lo, hi, quad)
    return val


@dataclass(frozen=True)
class MarginalRate:
    """Time derivative of the marginal Z.

    exact   : integral (dP/dt - beta P dE/dt) exp(-beta E) dx, the true
              d/dt of the marginal integral.
    bracket : integral (dP/dt + P dE/dt) exp(-beta E) dx, the same bracket
              without the -beta weight on the energy term, kept for the
              cross-check report.
    """

    exact: float
    bracket: float


def marginal_Z_derivative(params: SystemParams, init: WavepacketInit,
                          thermal: ThermalSpec, t: float,
                          quad: QuadratureConfig) -> MarginalRate:
    beta = thermal.beta
    state = evolve(params, init, t)
    lo, hi = _marginal_window(state, beta, quad)

    def rate(energy_weight: float):
        return lambda x: (_log_density_dt(state, x)
                          + energy_weight * energy_dt(state, x)) \
            * _boltzmann_density(state, beta, x)

    exact, _ = integrate_window(rate(-beta), lo, hi, quad)
    bracket, _ = integrate_window(rate(1.0), lo, hi, quad)
    return MarginalRate(exact, bracket)


def marginal_curve(params: SystemParams, init: WavepacketInit,
                   thermal: ThermalSpec, times: Sequence[float],
                   quad: QuadratureConfig, normalized: bool = True) -> MarginalCurve:
    """Marginal Z sampled on a time grid, optionally normalized to 1 at t=0."""
    times = np.asarray(times, dtype=float)
    values = np.array([marginal_Z(params, init, thermal, t, quad) for t in times])
    if normalized:
        z0 = marginal_Z(params, init, thermal, 0.0, quad) \
            if times[0] != 0.0 else values[0]
        values = values / z0
    return MarginalCurve(times, values, normalized, init.sigma,
                         thermal.kbt, init.x0, init.p0)


# ---------------------------------------------------------------------------
# Classicality criterion and average energy
# ---------------------------------------------------------------------------

def classicality_criterion(m: float, sigma: float, thermal: ThermalSpec,
                           hbar: float = 1.0, kb: float = 1.0) -> CriterionReport:
    """Temperature bound T > hbar^2/(4 m sigma^2 k_B) and related scales."""
    ratio = quantum_ratio(m, sigma, thermal, hbar)
    t_min = hbar**2 / (4.0 * m * sigma**2 * kb)
    lam = math.sqrt(2.0 * math.pi * hbar**2 * thermal.beta / m)
    return CriterionReport(t_min, ratio, ratio < 1.0, lam)


class AverageEnergyMode(Enum):
    QUANTUM_EIGEN = "quantum_eigen"
    CLASSICAL_LIMIT = "classical_limit"
    UNIFIED_GAUSSIAN = "unified_gaussian"


def classical_average_energy(params: SystemParams, thermal: ThermalSpec,
                             quad: QuadratureConfig) -> float:
    """<H> over the classical Boltzmann weight, by 2D Gaussian moment quadrature."""
    if not params.is_harmonic:
        raise DivergentIntegral("free particle: unbounded configuration integral")
    m, w = params.mass, params.omega
    weighted, _ = _phase_space_integral(m, w, thermal, quad, times_energy=True)
    plain, _ = _phase_space_integral(m, w, thermal, quad)
    return weighted / plain


def average_energy(mode: AverageEnergyMode, params: SystemParams,
                   thermal: ThermalSpec, sigma: float,
                   quad: QuadratureConfig) -> float:
    """<E> in the requested regime.

    QUANTUM_EIGEN    : hbar w/2 + hbar w/(exp(beta hbar w) - 1)
    CLASSICAL_LIMIT  : classical <H> plus the additive hbar^2/(4 m sigma^2)
    UNIFIED_GAUSSIAN : -d/d(beta) log Z_u by central differences with one
                       Richardson step (relative step 1e-5)
    """
    hbar = params.constants.hbar
    m = params.mass
    if mode is AverageEnergyMode.QUANTUM_EIGEN:
        if not params.is_harmonic:
            raise DivergentIntegral("free particle: continuous spectrum")
        x = thermal.beta * hbar * params.omega
        return 0.5 * hbar * params.omega + hbar * params.omega / math.expm1(x)
    if mode is AverageEnergyMode.CLASSICAL_LIMIT:
        return classical_average_energy(params, thermal, quad) \
            + hbar**2 / (4.0 * m * sigma**2)
    if mode is not AverageEnergyMode.UNIFIED_GAUSSIAN:
        raise ValueError(f"unknown mode {mode!r}")

    def log_zu(beta: float) -> float:
        res = unified_Z_gaussian(params, sigma, ThermalSpec(beta), quad)
        return math.log(res.value)

    beta0 = thermal.beta
    h = 1e-5 * beta0

    def diff(step: float) -> float:
        return (log_zu(beta0 + step) - log_zu(beta0 - step)) / (2.0 * step)

    d1, d2 = diff(h), diff(h / 2)
    return -(4.0 * d2 - d1) / 3.0


def heat_capacity(mode: AverageEnergyMode, params: SystemParams,
                  thermal: ThermalSpec, sigma: float,
                  quad: QuadratureConfig) -> float:
    """d<E>/dT = -k_B beta^2 d<E>/d(beta) by central differences."""
    kb = params.constants.boltzmann
    beta0 = thermal.beta
    h = 1e-4 * beta0

    def e_of(beta: float) -> float:
        return average_energy(mode, params, ThermalSpec(beta), sigma, quad)

    d = (e_of(beta0 + h) - e_of(beta0 - h)) / (2.0 * h)
    return -kb * beta0**2 * d
