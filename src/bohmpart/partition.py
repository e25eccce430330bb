"""Partition functions: classical, quantum, unified Gaussian, and marginal.

Conventions
-----------
* Every closed-form partition function is a float.  classical_Z is 1/x
  with x = beta hbar omega, and unified_Z_gaussian is classical_Z times
  gaussian_correction, so the phase-space measure dGamma = dx dp / (2 pi hbar)
  enters once; ratios such as Z_u/Z_cl do not depend on it.
* The unified Gaussian form integrates the packet density against
  exp(-beta E) over the hidden coordinate and the trajectory initial
  conditions.  The x-integral converges only while

      beta hbar^2 / (4 m sigma^2) < 1,

  the classicality bound; its ratio, t_min and thermal wavelength are normal
  doubles or a ValueError.  Only _convergent_ratio (r >= 1),
  _marginal_gaussian (kappa <= 0) and _ladder_x (the free particle, omega =
  0) raise DivergentIntegral.
* The closed forms are backed by separate Gauss-Legendre oracles:
  phase_space_integral (classical Z) and unified_integral (unified Z), run
  by `partition --oracle` and the tests, the second by `verify` too; their
  ratio is the oracle of C, its u-axis integral.  Each integrates over a box
  of WINDOW_SIGMAS standard deviations per axis, to core's tolerances, a
  product of one math.exp factor per axis (_phase_factors in x and p,
  _u_factor in the hidden coordinate, each written once), returns the
  raw-measure (value, est_error) with est_error the difference between the
  last two rules of the ladder, and calls no closed form it checks.
  _phase_box sizes the (x, p) box of the two phase-space oracles and raises
  ValueError where doubles cannot form its energy.  quantum_Z returns the
  same (value, est_error) shape, with est_error the dropped tail of the
  eigenvalue sum.
* The marginal partition function at fixed (x0, p0) keeps the single
  prepared packet in the distribution sum: a Gauss-Legendre quadrature
  (core.integrate_window) of exp(log P - beta E) over a window sized from
  the full exponent's completed square (ValueError where its reach squared
  is not a finite double).  Each sample is its own 1-D ladder through this
  module's integrate_window name, of a math.exp integrand on floats, so a
  curve, a list of floats, needs no numpy.  An integrand that overflows is
  a QuadratureFailure naming the packet, omega, kbt and the sample's time.
  Its time derivative is that Z times a two-point Gauss-Hermite mean of the
  rate brackets, exact as they are quadratic.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Sequence

from .core import (REL_TOL, WINDOW_SIGMAS, DivergentIntegral,
                   QuadratureFailure, SystemParams, ThermalSpec,
                   _finite_positive, check_scale, integrate_window, record)

if TYPE_CHECKING:
    from .wavepacket import WavepacketInit


@record
class CriterionReport:
    """Classicality diagnostic for one (m, sigma, beta) combination."""

    t_min: float
    dimensionless_ratio: float
    classical_ok: bool
    thermal_de_broglie: float


def _finite_scales(m: float, sigma: float, thermal: ThermalSpec, hbar: float,
                   **scales: float) -> None:
    """ValueError naming beta, mass, sigma and hbar unless each of the
    criterion's `scales` is a positive normal double (no digits lost)."""
    for name, value in scales.items():
        if not _TINY <= value < math.inf:
            why = ("is below the normal doubles" if math.isfinite(value)
                   else "is not a finite double")
            raise ValueError(f"{name} = {value!r} {why} at beta = "
                             f"{thermal.beta!r}, mass = {m!r}, sigma = "
                             f"{sigma!r}, hbar = {hbar!r}")


# Where a product of beta with hbar, hbar^2 or m is subnormal (losing digits)
# or overflows, a formula runs on beta 2^k, k = +-_LIFT, and multiplies its
# result by 2^-k or its half power, which gives inf where math.ldexp raises.
_LIFT, _TINY = 800, sys.float_info.min  # 2^+-800 brings each into range


def _lifted(beta: float, *products: float) -> tuple[float, int]:
    """(beta 2^k, k): k = _LIFT where a product is subnormal or 0, -_LIFT
    where one overflows, else 0."""
    k = (_LIFT if min(products) < _TINY
         else -_LIFT if max(products) == math.inf else 0)
    return beta * 2.0**k, k


def quantum_ratio(m: float, sigma: float, thermal: ThermalSpec,
                  hbar: float) -> float:
    """The dimensionless convergence ratio beta hbar^2 / (4 m sigma^2);
    ValueError unless sigma, m, hbar pass check_scale and it is a positive
    normal double."""
    check_scale("sigma", sigma)
    check_scale("mass", m)
    check_scale("hbar", hbar)
    lifted, k = _lifted(thermal.beta, thermal.beta * hbar**2)
    ratio = lifted * hbar**2 / (4.0 * m * sigma**2) * 2.0**-k
    _finite_scales(m, sigma, thermal, hbar, criterion_ratio=ratio)
    return ratio


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
    """x = beta hbar omega, DivergentIntegral for the free particle, or
    ValueError unless x is a finite double in [LADDER_X_MIN, x_max]."""
    if not params.is_harmonic:
        raise DivergentIntegral("free particle: unbounded integral and spectrum")
    lifted, k = _lifted(thermal.beta, thermal.beta * params.hbar)
    x = lifted * params.hbar * params.omega * 2.0**-k
    if not (LADDER_X_MIN <= x <= x_max and x < math.inf):
        upper = f"{x_max:g}" if x_max < math.inf else "finite"
        raise ValueError(f"beta hbar omega = {x!r} lies outside "
                         f"[{LADDER_X_MIN:g}, {upper}], where a partition "
                         "function of the ladder leaves the range of a double")
    return x


def classical_Z(params: SystemParams, thermal: ThermalSpec) -> float:
    """Phase-space integral of exp(-beta H) dx dp / (2 pi hbar); closed form
    1/x = k_B T/(hbar omega), a positive finite double.

    Only the harmonic well has a convergent configuration integral; the free
    particle raises DivergentIntegral, and an x = beta hbar omega below
    LADDER_X_MIN or not finite a ValueError.  Oracle: phase_space_integral.
    """
    return 1.0 / _ladder_x(params, thermal, math.inf)


def _energy(m: float, w: float, x: float, p: float) -> float:
    """H = p^2/2m + m w^2 x^2/2, as both phase-space oracles form it."""
    return p * p / (2 * m) + 0.5 * m * w * w * (x * x)


def _phase_factors(m: float, w: float, thermal: ThermalSpec, center=0.0):
    """The x and p factors exp(-beta H(x - center, 0)) and exp(-beta H(0, p))
    of exp(-beta H); each forms its term of H as _energy does, bit for bit."""
    beta = thermal.beta
    return (lambda x: math.exp(-beta * _energy(m, w, x - center, 0.0)),
            lambda p: math.exp(-beta * _energy(m, w, 0.0, p)))


def _phase_box(m: float, w: float, thermal: ThermalSpec) -> tuple[float, float]:
    """(half_x, half_p): WINDOW_SIGMAS deviations of exp(-beta _energy) per
    axis.  ValueError naming mass, omega and kbt unless _energy at the box's
    corner is within REL_TOL of its exact WINDOW_SIGMAS^2 kbt, which an
    overflowed or subnormal factor would spoil unseen by est_error."""
    beta, kbt = thermal.beta, thermal.kbt
    lifted, k = _lifted(beta, beta * m)
    half_x = WINDOW_SIGMAS * (1.0 / math.sqrt(lifted * m) * 2.0**(k // 2) / w)
    half_p = WINDOW_SIGMAS * math.sqrt(m / beta)
    exact = WINDOW_SIGMAS**2 * kbt
    corner = _energy(m, w, half_x, half_p)
    if not abs(corner - exact) <= REL_TOL * exact:
        raise ValueError(f"mass = {m!r}, omega = {w!r}, kbt = {kbt:g}: doubles"
                         f" miss the oracle box's energy by over {REL_TOL:g}")
    return half_x, half_p


def phase_space_integral(m: float, w: float, thermal: ThermalSpec
                         ) -> tuple[float, float]:
    """(value, error) of the raw-measure integral of exp(-beta H) dx dp.

    H = p^2/2m + m w^2 x^2 / 2.  Divide by 2 pi hbar for classical_Z.
    """
    hx, hp = _phase_box(m, w, thermal)
    return integrate_window(_phase_factors(m, w, thermal), (-hx, -hp),
                            (hx, hp))


# Bound on the dropped tail of quantum_Z's eigenvalue sum, relative to the sum.
TAIL_TOL = 1e-14


def quantum_Z(params: SystemParams, thermal: ThermalSpec
              ) -> tuple[float, float]:
    """(value, tail) of the eigenvalue sum over the harmonic ladder,
    truncated at the tail bound.

    The K kept terms exp(-x (k + 1/2)), x = beta hbar omega, are summed as
    the finite geometric series exp(-x/2) (1 - exp(-x K)) / (1 - exp(-x)),
    so the cost does not grow with K.  The geometric tail after the last
    kept term is below TAIL_TOL relative to the partial sum; the closed form
    1/(2 sinh(x / 2)) is the exact limit.  ValueError unless LADDER_X_MIN
    <= x <= LADDER_X_MAX.
    """
    x = _ladder_x(params, thermal)
    gap = -math.expm1(-x)  # 1 - exp(-x), positive however small x is
    # tail after K terms: exp(-x(K+1/2)) * exp(-x)/(1 - exp(-x))
    n_terms = max(2, math.ceil((math.log(1.0 / TAIL_TOL)
                                + math.log(1.0 / gap)) / x) + 2)
    partial = math.exp(-0.5 * x) * math.expm1(-x * n_terms) / math.expm1(-x)
    tail = math.exp(-x * (n_terms + 0.5)) / gap
    return partial, tail


def quantum_Z_closed_form(params: SystemParams, thermal: ThermalSpec) -> float:
    x = _ladder_x(params, thermal)
    return 1.0 / (2.0 * math.sinh(0.5 * x))


# ---------------------------------------------------------------------------
# Unified Gaussian form
# ---------------------------------------------------------------------------

def gaussian_correction(m: float, sigma: float, thermal: ThermalSpec,
                        hbar: float) -> float:
    """Factor C multiplying the classical Z in the unified Gaussian form.

    C = (1 - r)^(-1/2) exp(-r) with r = beta hbar^2/(4 m sigma^2), from
    integrating the packet density against the Boltzmann weight of its own
    quantum potential.  Diverges (is raised) at r >= 1.  Oracle:
    unified_integral / phase_space_integral.
    """
    r = _convergent_ratio(m, sigma, thermal, hbar)
    return math.exp(-r) / math.sqrt(1.0 - r)


def _u_factor(m: float, sigma: float, thermal: ThermalSpec, hbar: float):
    """(f, half): the integrand P_G(u) exp(-beta Q(u)) of the factor C and
    the half-width of its window, WINDOW_SIGMAS deviations of it.

    P_G is the normalized packet density of width sigma and Q its quantum
    potential hbar^2/(4 m sigma^2) - hbar^2 u^2/(8 m sigma^4), so the
    exponent is -r - (1 - r) u^2/(2 sigma^2) with r = quantum_ratio.  The
    two u^2 terms are summed as the factor 1 - r before they multiply u^2:
    near r = 1 each alone is huge at the window's edge, and their
    difference would be lost to rounding.  DivergentIntegral at r >= 1.
    """
    r = _convergent_ratio(m, sigma, thermal, hbar)

    def f(u):
        return math.exp(-r - (1.0 - r) * u * u / (2 * sigma**2)) \
            / (math.sqrt(2 * math.pi) * sigma)

    return f, WINDOW_SIGMAS * (sigma / math.sqrt(1.0 - r))


def unified_Z_gaussian(params: SystemParams, sigma: float,
                       thermal: ThermalSpec) -> float:
    """Unified partition function for the prepared Gaussian ensemble.

    Triple integral over trajectory initial conditions (x0, p0) and the
    hidden coordinate x of P_G(x; x0) exp(-beta E(x; x0, p0)) at t = 0.
    Factorizes exactly into classical_Z * C; unified_integral performs the
    honest nested integral instead.  ValueError naming z_unified where the
    product is not a positive finite double.
    """
    c = gaussian_correction(params.mass, sigma, thermal, params.hbar)
    return _finite_positive("z_unified", classical_Z(params, thermal) * c)


def unified_integral(m: float, w: float, sigma: float, thermal: ThermalSpec,
                     hbar: float, center: float = 0.0) -> tuple[float, float]:
    """(value, error) of the raw-measure triple integral of P_G exp(-beta E).

    Axes are the initial conditions (x0, p0) and u = x - x0, with
    E = p0^2/2m + m w^2 (x0 - center)^2/2 + hbar^2/(4 m sigma^2)
    - hbar^2 u^2/(8 m sigma^4) at t = 0, so the integrand is the
    _phase_factors of (x0, p0) times the _u_factor of u, which carries the
    constant term of beta E.  Divide by 2 pi hbar for unified_Z_gaussian.
    """
    fu, hu = _u_factor(m, sigma, thermal, hbar)
    hx, hp = _phase_box(m, w, thermal)
    if not 8.0 * hx * hp * hu < math.inf:
        raise ValueError(f"mass = {m!r}, omega = {w!r}, kbt = {thermal.kbt:g}"
                         f", sigma = {sigma!r}: the oracle's 3-D box volume "
                         "is not a finite double")
    return integrate_window((*_phase_factors(m, w, thermal, center), fu),
                            (center - hx, -hp, -hu), (center + hx, hp, hu))


# ---------------------------------------------------------------------------
# Marginal partition function and its time derivative
# ---------------------------------------------------------------------------

def _marginal_gaussian(state, thermal: ThermalSpec
                       ) -> tuple[float, float, tuple[float, float, float]]:
    """(center, width) in x of the Gaussian P e^(-beta E), and the (A2, A1,
    A0) of E that built it; DivergentIntegral if it is unbounded, ValueError
    naming x0, p0, omega and mass where an energy coefficient is not a
    finite double.

    log(P e^(-beta E)) = -kappa u^2 - beta A1 u + const in u = x - q.
    """
    from .wavepacket import _energy_coefficients
    beta = thermal.beta
    a2, a1, a0 = _energy_coefficients(state)
    if not all(map(math.isfinite, (a2, a1, a0))):
        params = state.params
        raise ValueError(
            f"the energy E(x, t={state.t:g}) is not a finite double at "
            f"x0 = {state.init.x0:g}, p0 = {state.init.p0:g}, "
            f"omega = {params.omega:g}, mass = {params.mass:g}; "
            "the packet's centre, momentum, omega or mass is out of range")
    kappa = 2.0 * state.alpha.real + beta * a2
    if kappa <= 0.0:
        raise DivergentIntegral(
            f"marginal integrand not normalizable at t={state.t:g}, "
            f"sigma={state.init.sigma:g}, kbt={thermal.kbt:g} "
            f"(quadratic coefficient {-kappa:g} >= 0)")
    u_star = -beta * a1 / (2.0 * kappa)
    width = 1.0 / math.sqrt(2.0 * kappa)
    reach = float(abs(u_star) + WINDOW_SIGMAS * width)
    if not reach * reach < math.inf:  # else (x - q)^2 overflows in the window
        raise ValueError(f"at t = {state.t:g}, omega = {state.params.omega:g}"
                         f", sigma = {state.init.sigma:g} the marginal window"
                         f" reaches {reach:g}, whose square overflows a double")
    return state.q + u_star, width, (a2, a1, a0)


def _marginal_quadrature(state, thermal: ThermalSpec, gaussian) -> float:
    """marginal_Z of an evolved state, given its _marginal_gaussian: the
    scalar ladder over WINDOW_SIGMAS widths about its centre, of
    exp(log P - beta E) taken once, in the operation order of _log_density
    and energy_pointwise.  A QuadratureFailure, an overflow to inf
    included, names the sample's t, omega, sigma, kbt, x0 and p0."""
    center, width, (a2, a1, a0) = gaussian
    q, ra, beta = state.q, state.alpha.real, thermal.beta
    log_norm = 0.5 * math.log(2.0 * ra / math.pi)

    def f(x):
        u = x - q
        return math.exp(log_norm - 2.0 * ra * (u * u)
                        - beta * (a2 * (u * u) + a1 * u + a0))

    reach = WINDOW_SIGMAS * width
    try:
        return integrate_window(f, center - reach, center + reach)[0]
    except QuadratureFailure as exc:
        init = state.init
        raise QuadratureFailure(
            f"marginal Z at t = {state.t:g}, omega = {state.params.omega:g}, "
            f"sigma = {init.sigma:g}, kbt = {thermal.kbt:g}, x0 = "
            f"{init.x0:g}, p0 = {init.p0:g}: {exc}") from None


def marginal_Z(params: SystemParams, init: WavepacketInit, thermal: ThermalSpec,
               t: float) -> float:
    """integral P(x,t) exp(-beta E(x,t)) dx at fixed (x0, p0).

    Time-dependent away from the quantum and classical limits; raises
    DivergentIntegral when the total quadratic exponent coefficient is
    non-negative at this t.
    """
    from .wavepacket import evolve
    state = evolve(params, init, t)
    return _marginal_quadrature(state, thermal,
                                _marginal_gaussian(state, thermal))


@record
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
    from .wavepacket import _log_density_dt, energy_dt, evolve
    state = evolve(params, init, t)
    center, width, _ = gaussian = _marginal_gaussian(state, thermal)
    z = _marginal_quadrature(state, thermal, gaussian)
    nodes = (center - width, center + width)

    def mean(energy_weight: float) -> float:
        return 0.5 * sum(_log_density_dt(state, x)
                         + energy_weight * energy_dt(state, x) for x in nodes)

    return MarginalRate(z * mean(-thermal.beta), z * mean(1.0))


def marginal_curve(params: SystemParams, init: WavepacketInit,
                   thermal: ThermalSpec, times: Sequence[float],
                   normalized: bool = True) -> list[float]:
    """Marginal Z at each time, optionally normalized to 1 at t=0.

    Each time is evolved once, and every window is found before any
    quadrature runs, so a divergent sample raises DivergentIntegral even
    where an earlier sample is convergent but too large for the quadrature.
    Each value is the marginal_Z of its time, bit for bit.  ValueError for
    no times, and, normalizing, naming x0 and p0 where the t = 0 Z is not a
    positive finite double (it underflows to 0 for a distant packet).
    """
    if len(times) == 0:
        raise ValueError("marginal_curve needs at least one time")
    from .wavepacket import evolve
    states = [evolve(params, init, t) for t in times]
    gaussians = [_marginal_gaussian(state, thermal) for state in states]
    values = [_marginal_quadrature(state, thermal, gaussian)
              for state, gaussian in zip(states, gaussians)]
    if normalized:
        z0 = values[0] if times[0] == 0.0 else \
            marginal_Z(params, init, thermal, 0.0)
        if not 0.0 < z0 < math.inf:
            raise ValueError(
                f"the t = 0 marginal Z is {z0:g} at x0 = {init.x0:g}, p0 = "
                f"{init.p0:g}: it underflows a double, so the curve cannot "
                "be normalized to 1 at t = 0")
        values = [value / z0 for value in values]
    return values


# ---------------------------------------------------------------------------
# Classicality criterion
# ---------------------------------------------------------------------------

def classicality_criterion(m: float, sigma: float, thermal: ThermalSpec,
                           hbar: float) -> CriterionReport:
    """Temperature bound k_B T > hbar^2/(4 m sigma^2) and related scales;
    t_min is k_B T_min, an energy like every temperature here.  Each scale
    is a positive normal double, or a ValueError as in quantum_ratio."""
    ratio = quantum_ratio(m, sigma, thermal, hbar)
    t_min = hbar**2 / (4.0 * m * sigma**2)
    product = 2.0 * math.pi * hbar**2 * thermal.beta
    lifted, k = _lifted(thermal.beta, product, product / m)
    lam = math.sqrt(2.0 * math.pi * hbar**2 * lifted / m) * 2.0**(-k // 2)
    _finite_scales(m, sigma, thermal, hbar, t_min=t_min, thermal_de_broglie=lam)
    return CriterionReport(t_min, ratio, ratio < 1.0, lam)
