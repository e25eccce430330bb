"""Partition functions: classical, quantum, unified Gaussian, and marginal.

Conventions
-----------
* classical_Z, gaussian_correction and unified_Z_gaussian each have one
  code path, their closed form.  The phase-space measure is
  dGamma = dx dp / (2 pi hbar); ratios such as Z_u/Z_cl do not depend on it.
* The unified Gaussian form integrates the packet density against
  exp(-beta E) over the hidden coordinate and the trajectory initial
  conditions.  The x-integral converges only while

      beta hbar^2 / (4 m sigma^2) < 1,

  which is the classicality temperature bound.  Only _convergent_ratio
  (r >= 1) and _marginal_gaussian (kappa <= 0) decide where an integral
  diverges; each raises DivergentIntegral, which callers such as the CLI catch.
* The closed forms are backed by separate Gauss-Legendre oracles, used by
  `verify`, `partition --oracle` and the tests: phase_space_integral
  (classical Z), gaussian_correction_integral (the factor C) and
  unified_integral (unified Z).  Each integrates a vectorized integrand over
  a box of WINDOW_SIGMAS standard deviations per axis to core's tolerances,
  returns the raw-measure (value, est_error) with est_error the difference
  between the last two rules of the ladder, and calls no closed form it checks.
* The marginal partition function at fixed (x0, p0) keeps the single
  prepared packet in the distribution sum; it is evaluated by Gauss-Legendre
  quadrature (core.integrate_window) of exp(log P - beta E) with the window
  sized from the completed square of the full exponent.  Its time
  derivative is that Z times a two-point Gauss-Hermite mean of the rate
  brackets, exact because they are quadratic in x.
* average_energy and heat_capacity are closed forms, the exact
  -d log Z/d beta and -beta^2 d<E>/d beta (in units of k_B) of each mode's
  Z.  The tests hold them to finite differences (numdiff) of log quantum_Z
  and log unified_Z_gaussian, and the classical <H> to the ratio of two
  phase_space_integral calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .core import (WINDOW_SIGMAS, DivergentIntegral, SystemParams,
                   ThermalSpec, check_scale, integrate_window, np)
from .wavepacket import (WavepacketInit, energy_dt, energy_pointwise, evolve,
                         _energy_coefficients, _log_density, _log_density_dt)


@dataclass(frozen=True)
class PartitionResult:
    value: float
    est_error: float

    def __post_init__(self):
        if not 0 < self.value < math.inf:
            raise ValueError("partition value must be positive and finite")
        if self.est_error < 0:
            raise ValueError("est_error must be non-negative")


@dataclass(frozen=True)
class CriterionReport:
    """Classicality diagnostic for one (m, sigma, beta) combination."""

    t_min: float
    dimensionless_ratio: float
    classical_ok: bool
    thermal_de_broglie: float


def quantum_ratio(params_mass: float, sigma: float, thermal: ThermalSpec,
                  hbar: float) -> float:
    """The dimensionless convergence ratio beta hbar^2 / (4 m sigma^2);
    ValueError unless sigma, m and hbar each pass core.check_scale."""
    check_scale("sigma", sigma)
    check_scale("mass", params_mass)
    check_scale("hbar", hbar)
    return thermal.beta * hbar**2 / (4.0 * params_mass * sigma**2)


def _convergent_ratio(m: float, sigma: float, thermal: ThermalSpec,
                      hbar: float) -> float:
    """quantum_ratio, or DivergentIntegral where the x-integral diverges."""
    r = quantum_ratio(m, sigma, thermal, hbar)
    if r >= 1.0:
        raise DivergentIntegral(
            f"beta hbar^2/(4 m sigma^2) = {r:g} >= 1: x-integral diverges")
    return r


# ---------------------------------------------------------------------------
# Classical and quantum references
# ---------------------------------------------------------------------------

# x = beta hbar omega where the ladder's Z are positive finite doubles: below,
# 1/x (classical Z) and quantum_Z's term count, about -log(TAIL_TOL x)/x,
# overflow; above, exp(-x/2) (quantum Z) underflows.
LADDER_X_MIN, LADDER_X_MAX = 1e-305, 1400.0


def _ladder_x(params: SystemParams, thermal: ThermalSpec,
              x_max: float = LADDER_X_MAX) -> float:
    """x = beta hbar omega, or ValueError outside [LADDER_X_MIN, x_max]."""
    x = thermal.beta * params.hbar * params.omega
    if not LADDER_X_MIN <= x <= x_max:
        raise ValueError(f"beta hbar omega = {x:g} lies outside "
                         f"[{LADDER_X_MIN:g}, {x_max:g}], where a partition "
                         "function of the ladder leaves the range of a double")
    return x


def classical_Z(params: SystemParams, thermal: ThermalSpec) -> PartitionResult:
    """Phase-space integral of exp(-beta H); closed form k_B T/(hbar omega).

    Only the harmonic well has a convergent configuration integral; the free
    particle raises DivergentIntegral, and beta hbar omega < LADDER_X_MIN a
    ValueError.  Oracle: phase_space_integral.
    """
    if not params.is_harmonic:
        raise DivergentIntegral("free particle: unbounded configuration integral")
    _ladder_x(params, thermal, math.inf)
    norm = 2.0 * math.pi * params.hbar
    return PartitionResult(2.0 * math.pi / (thermal.beta * params.omega) / norm,
                           0.0)


def phase_space_integral(m: float, w: float, thermal: ThermalSpec,
                         center: float = 0.0, times_energy: bool = False
                         ) -> tuple[float, float]:
    """(value, error) of the raw-measure integral of [H] exp(-beta H) dx dp.

    H = p^2/2m + m w^2 (x - center)^2 / 2; the bracketed factor H is
    included when times_energy is set.  Divide by 2 pi hbar for classical_Z.
    """
    beta = thermal.beta
    ws = WINDOW_SIGMAS
    sx = 1.0 / math.sqrt(beta * m) / w
    sp = math.sqrt(m / beta)

    def f(x, p):
        h = p * p / (2 * m) + 0.5 * m * w * w * (x - center) ** 2
        boltz = np.exp(-beta * h)
        return h * boltz if times_energy else boltz

    return integrate_window(f, (center - ws * sx, -ws * sp),
                            (center + ws * sx, ws * sp))


# Bound on the dropped tail of quantum_Z's eigenvalue sum, relative to the sum.
TAIL_TOL = 1e-14


def quantum_Z(params: SystemParams, thermal: ThermalSpec) -> PartitionResult:
    """Eigenvalue sum over the harmonic ladder, truncated at the tail bound.

    The K kept terms exp(-x (k + 1/2)), x = beta hbar omega, are summed as
    the finite geometric series exp(-x/2) (1 - exp(-x K)) / (1 - exp(-x)),
    so the cost does not grow with K.  The geometric tail after the last
    kept term is below TAIL_TOL relative to the partial sum; the closed form
    1/(2 sinh(x / 2)) is the exact limit.  ValueError unless LADDER_X_MIN
    <= x <= LADDER_X_MAX.
    """
    if not params.is_harmonic:
        raise DivergentIntegral("free particle: continuous spectrum")
    x = _ladder_x(params, thermal)
    gap = -math.expm1(-x)  # 1 - exp(-x), positive however small x is
    # tail after K terms: exp(-x(K+1/2)) * exp(-x)/(1 - exp(-x))
    n_terms = max(2, math.ceil((math.log(1.0 / TAIL_TOL)
                                + math.log(1.0 / gap)) / x) + 2)
    partial = math.exp(-0.5 * x) * math.expm1(-x * n_terms) / math.expm1(-x)
    tail = math.exp(-x * (n_terms + 0.5)) / gap
    return PartitionResult(partial, tail)


def quantum_Z_closed_form(params: SystemParams, thermal: ThermalSpec) -> float:
    x = _ladder_x(params, thermal)
    return 1.0 / (2.0 * math.sinh(0.5 * x))


# ---------------------------------------------------------------------------
# Unified Gaussian form
# ---------------------------------------------------------------------------

def gaussian_correction(m: float, sigma: float, thermal: ThermalSpec,
                        hbar: float = 1.0) -> float:
    """Factor C multiplying the classical Z in the unified Gaussian form.

    C = (1 - r)^(-1/2) exp(-r) with r = beta hbar^2/(4 m sigma^2), from
    integrating the packet density against the Boltzmann weight of its own
    quantum potential.  Diverges (is raised) at r >= 1.  Oracle:
    gaussian_correction_integral.
    """
    r = _convergent_ratio(m, sigma, thermal, hbar)
    return math.exp(-r) / math.sqrt(1.0 - r)


def gaussian_correction_integral(m: float, sigma: float, thermal: ThermalSpec,
                                 hbar: float) -> tuple[float, float]:
    """(value, error) of integral P_G(u) exp(-beta Q(u)) du, the factor C.

    P_G is the normalized packet density of width sigma and Q its quantum
    potential hbar^2/(4 m sigma^2) - hbar^2 u^2/(8 m sigma^4).
    """
    r = _convergent_ratio(m, sigma, thermal, hbar)
    beta = thermal.beta
    sig_eff = sigma / math.sqrt(1.0 - r)
    half = WINDOW_SIGMAS * sig_eff

    def f(u):
        qpot = hbar**2 / (4 * m * sigma**2) - hbar**2 * u * u / (8 * m * sigma**4)
        return np.exp(-u * u / (2 * sigma**2) - beta * qpot) \
            / (math.sqrt(2 * math.pi) * sigma)

    return integrate_window(f, -half, half)


def unified_Z_gaussian(params: SystemParams, sigma: float,
                       thermal: ThermalSpec) -> PartitionResult:
    """Unified partition function for the prepared Gaussian ensemble.

    Triple integral over trajectory initial conditions (x0, p0) and the
    hidden coordinate x of P_G(x; x0) exp(-beta E(x; x0, p0)) at t = 0.
    Factorizes exactly into sqrt(2 pi m/beta) * C * integral exp(-beta V);
    unified_integral performs the honest nested integral instead.
    """
    if not params.is_harmonic:
        raise DivergentIntegral("free particle: unbounded x0 integral")
    c = gaussian_correction(params.mass, sigma, thermal, params.hbar)
    zcl_raw = 2.0 * math.pi / (thermal.beta * params.omega)
    norm = 2.0 * math.pi * params.hbar
    return PartitionResult(zcl_raw * c / norm, 0.0)


def unified_integral(m: float, w: float, sigma: float, thermal: ThermalSpec,
                     hbar: float, center: float = 0.0) -> tuple[float, float]:
    """(value, error) of the raw-measure triple integral of P_G exp(-beta E).

    Axes are the initial conditions (x0, p0) and u = x - x0, with
    E = p0^2/2m + m w^2 (x0 - center)^2/2 + hbar^2/(4 m sigma^2)
    - hbar^2 u^2/(8 m sigma^4) at t = 0.  The exponents are summed before
    exponentiating, since near r = 1 the u-window reaches where
    exp(-beta E) alone overflows.  Divide by 2 pi hbar for
    unified_Z_gaussian.
    """
    beta = thermal.beta
    ws = WINDOW_SIGMAS
    sx0 = 1.0 / math.sqrt(beta * m) / w
    sp0 = math.sqrt(m / beta)
    sig_eff = sigma / math.sqrt(1.0 - _convergent_ratio(m, sigma, thermal, hbar))
    log_pref = -0.5 * math.log(2 * math.pi * sigma**2)
    const_q = hbar**2 / (4 * m * sigma**2)

    def f(x0, p0, u):
        energy = (p0 * p0 / (2 * m) + 0.5 * m * w * w * (x0 - center) ** 2
                  + const_q - hbar**2 * u * u / (8 * m * sigma**4))
        return np.exp(log_pref - u * u / (2 * sigma**2) - beta * energy)

    return integrate_window(
        f, (center - ws * sx0, -ws * sp0, -ws * sig_eff),
        (center + ws * sx0, ws * sp0, ws * sig_eff))


# ---------------------------------------------------------------------------
# Marginal partition function and its time derivative
# ---------------------------------------------------------------------------

def _marginal_gaussian(state, thermal: ThermalSpec) -> tuple[float, float]:
    """(center, width) in x of the Gaussian P e^(-beta E); DivergentIntegral
    if it is unbounded.

    log(P e^(-beta E)) = -kappa u^2 - beta A1 u + const in u = x - q.
    """
    beta = thermal.beta
    a2, a1, _ = _energy_coefficients(state)
    kappa = 2.0 * state.alpha.real + beta * a2
    if kappa <= 0.0:
        raise DivergentIntegral(
            f"marginal integrand not normalizable at t={state.t:g}, "
            f"sigma={state.init.sigma:g}, kbt={thermal.kbt:g} "
            f"(quadratic coefficient {-kappa:g} >= 0)")
    u_star = -beta * a1 / (2.0 * kappa)
    width = 1.0 / math.sqrt(2.0 * kappa)
    return state.q + u_star, width


def _boltzmann_density(state, beta: float, x):
    """P(x,t) exp(-beta E(x,t)), exponentiated once so that no sample point
    multiplies an underflowed density by an overflowed Boltzmann factor."""
    return np.exp(_log_density(state, x) - beta * energy_pointwise(state, x))


def _marginal_quadrature(state, thermal: ThermalSpec, center: float,
                         width: float) -> float:
    """marginal_Z of an evolved state whose _marginal_gaussian is given."""
    half = WINDOW_SIGMAS * width
    val, _ = integrate_window(
        lambda x: _boltzmann_density(state, thermal.beta, x),
        center - half, center + half)
    return val


def marginal_Z(params: SystemParams, init: WavepacketInit, thermal: ThermalSpec,
               t: float) -> float:
    """integral P(x,t) exp(-beta E(x,t)) dx at fixed (x0, p0).

    Time-dependent away from the quantum and classical limits; raises
    DivergentIntegral when the total quadratic exponent coefficient is
    non-negative at this t.
    """
    state = evolve(params, init, t)
    return _marginal_quadrature(state, thermal,
                                *_marginal_gaussian(state, thermal))


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
                          thermal: ThermalSpec, t: float) -> MarginalRate:
    """Both rates as Z times a mean over the normal density P e^(-beta E)/Z.

    dP/dt = P d(log P)/dt, and d(log P)/dt and dE/dt are quadratics in x, so
    the two-point Gauss-Hermite rule at center +- width gives their means
    exactly.  Z is the marginal_Z quadrature.
    """
    state = evolve(params, init, t)
    center, width = _marginal_gaussian(state, thermal)
    z = _marginal_quadrature(state, thermal, center, width)
    nodes = (center - width, center + width)

    def mean(energy_weight: float) -> float:
        return 0.5 * sum(_log_density_dt(state, x)
                         + energy_weight * energy_dt(state, x) for x in nodes)

    return MarginalRate(z * mean(-thermal.beta), z * mean(1.0))


def marginal_curve(params: SystemParams, init: WavepacketInit,
                   thermal: ThermalSpec, times: Sequence[float],
                   normalized: bool = True) -> np.ndarray:
    """Marginal Z at each time, optionally normalized to 1 at t=0.

    Each time is evolved once, and every window is found before any
    quadrature runs, so a divergent sample raises DivergentIntegral even
    where an earlier sample is convergent but too large for the quadrature.
    """
    times = np.asarray(times, dtype=float)
    states = [evolve(params, init, t) for t in times]
    windows = [_marginal_gaussian(state, thermal) for state in states]
    values = np.array([_marginal_quadrature(state, thermal, *window)
                       for state, window in zip(states, windows)])
    if normalized:
        z0 = marginal_Z(params, init, thermal, 0.0) \
            if times[0] != 0.0 else values[0]
        values = values / z0
    return values


# ---------------------------------------------------------------------------
# Classicality criterion and average energy
# ---------------------------------------------------------------------------

def classicality_criterion(m: float, sigma: float, thermal: ThermalSpec,
                           hbar: float = 1.0) -> CriterionReport:
    """Temperature bound k_B T > hbar^2/(4 m sigma^2) and related scales;
    t_min is k_B T_min, an energy like every temperature here."""
    ratio = quantum_ratio(m, sigma, thermal, hbar)
    t_min = hbar**2 / (4.0 * m * sigma**2)
    lam = math.sqrt(2.0 * math.pi * hbar**2 * thermal.beta / m)
    return CriterionReport(t_min, ratio, ratio < 1.0, lam)


class AverageEnergyMode(Enum):
    QUANTUM_EIGEN = "quantum_eigen"
    CLASSICAL_LIMIT = "classical_limit"
    UNIFIED_GAUSSIAN = "unified_gaussian"


def _mode_variable(mode: AverageEnergyMode, params: SystemParams,
                   thermal: ThermalSpec, sigma: float) -> float:
    """x = beta hbar w for QUANTUM_EIGEN, else r = beta hbar^2/(4 m sigma^2).

    DivergentIntegral for the free particle and, in the unified mode, at
    r >= 1; ValueError for a non-finite or non-positive sigma.
    """
    if not params.is_harmonic:
        raise DivergentIntegral("free particle: no normalizable thermal state")
    m, hbar = params.mass, params.hbar
    if mode is AverageEnergyMode.QUANTUM_EIGEN:
        return thermal.beta * hbar * params.omega
    if mode is AverageEnergyMode.CLASSICAL_LIMIT:
        return quantum_ratio(m, sigma, thermal, hbar)
    if mode is AverageEnergyMode.UNIFIED_GAUSSIAN:
        return _convergent_ratio(m, sigma, thermal, hbar)
    raise ValueError(f"unknown mode {mode!r}")


def average_energy(mode: AverageEnergyMode, params: SystemParams,
                   thermal: ThermalSpec, sigma: float) -> float:
    """<E> = -d log Z/d beta of the mode's Z, exactly, with x = beta hbar w
    and r = beta hbar^2/(4 m sigma^2):

    QUANTUM_EIGEN    : (x/2) / tanh(x/2) / beta, of quantum_Z
    CLASSICAL_LIMIT  : (1 + r) / beta, the classical <H> = 1/beta plus the
                       quantum potential at the packet centre
    UNIFIED_GAUSSIAN : (1 + r - r/(2 (1 - r))) / beta, of unified_Z_gaussian

    As r -> 0 the unified mode tends to (1 + r/2) / beta, the packet average
    of the quantum potential in place of its centre value, so the two
    sigma-dependent modes differ by r/(2 beta) there.
    """
    v = _mode_variable(mode, params, thermal, sigma)
    if mode is AverageEnergyMode.QUANTUM_EIGEN:
        return 0.5 * v / math.tanh(0.5 * v) / thermal.beta
    if mode is AverageEnergyMode.CLASSICAL_LIMIT:
        return (1.0 + v) / thermal.beta
    return (1.0 + v - 0.5 * v / (1.0 - v)) / thermal.beta


def heat_capacity(mode: AverageEnergyMode, params: SystemParams,
                  thermal: ThermalSpec, sigma: float) -> float:
    """C = -beta^2 d<E>/d beta in units of k_B, exactly, with x and r as in
    average_energy:

    QUANTUM_EIGEN    : [x exp(-x/2) / (1 - exp(-x))]^2
    CLASSICAL_LIMIT  : 1
    UNIFIED_GAUSSIAN : 1 + r^2 / (2 (1 - r)^2)
    """
    v = _mode_variable(mode, params, thermal, sigma)
    if mode is AverageEnergyMode.QUANTUM_EIGEN:
        return (v * math.exp(-0.5 * v) / -math.expm1(-v)) ** 2
    if mode is AverageEnergyMode.CLASSICAL_LIMIT:
        return 1.0
    return 1.0 + v * v / (2.0 * (1.0 - v) ** 2)
