"""Closed-form Gaussian wavepacket evolution for harmonic and free systems.

A packet prepared as psi(x,0) ~ exp[-(x-x0)^2/(4 sigma^2) + i p0 (x-x0)/hbar]
stays Gaussian under both supported potentials:

    psi(x,t) = (2 Re a(t)/pi)^(1/4)
               * exp[-a(t) (x-q)^2 + (i/hbar) p (x-q) + (i/hbar) g(t)]

with complex inverse-width a(t), classical center (q(t), p(t)) and real phase
accumulator g(t).  The phase convention makes the normalization prefactor real
positive at all times, so g(t) carries only the physical phase.  From the
polar decomposition psi = R exp(iS/hbar) everything else follows:

    P = R^2                       probability density
    dS/dx                         phase gradient (local momentum field)
    Q = -(hbar^2 / 2 m R) R''     quantum potential
    E = -dS/dt                    pointwise energy along the flow

Every pointwise function of (state, x) is one broadcasting expression in
u = x - q: a float x gives a float (complex for the wavefunction) and an
array x gives an array of the same shape.

All formulas here are exact solutions of the time-dependent Schroedinger
equation; the test suite verifies them against finite-difference definitions
of Q and E and against the quantum Hamilton-Jacobi residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .core import (Grid1D, Harmonic, QuadratureConfig, SystemParams,
                   TruncationInsufficient, integrate_window)


@dataclass(frozen=True)
class WavepacketInit:
    """Initial center x0, momentum p0, and width sigma (> 0) of the packet."""

    x0: float
    p0: float
    sigma: float

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be finite and strictly positive")
        if not (math.isfinite(self.x0) and math.isfinite(self.p0)):
            raise ValueError("x0 and p0 must be finite")

    @property
    def alpha0(self) -> float:
        """Initial inverse-width parameter 1/(4 sigma^2)."""
        return 1.0 / (4.0 * self.sigma**2)


@dataclass(frozen=True)
class WavepacketState:
    """Snapshot of the evolved packet at time t."""

    alpha: complex
    q: float
    p: float
    gamma: float
    t: float
    init: WavepacketInit
    params: SystemParams

    @property
    def width(self) -> float:
        """Position standard deviation 1/(2 sqrt(Re alpha))."""
        return 0.5 / math.sqrt(self.alpha.real)


def _continuous_angle(u: float, tanphi: float) -> float:
    """Unwound angle of the ellipse cos(u) + i tanphi sin(u).

    The point winds monotonically around the origin, staying in the same
    quadrant as u itself, so the continuous angle is u plus a bounded
    correction with |correction| < pi/2.  This closed form needs no state
    and is exact for any number of windings.
    """
    s, c = math.sin(u), math.cos(u)
    return u + math.atan2((tanphi - 1.0) * s * c, c * c + tanphi * s * s)


def evolve(params: SystemParams, init: WavepacketInit, t: float) -> WavepacketState:
    """Evolve the packet to time t under the system's potential.

    Harmonic well (mass m, frequency w):
        a(t) = (m w / hbar) * (hbar cos(wt) + 2i sigma^2 m w sin(wt))
                            / (2i hbar sin(wt) + 4 sigma^2 m w cos(wt))
        (q, p) follow the classical flow; the phase integrates
        g' = p^2/2m - V(q) - hbar^2 Re a / m, done in closed form with the
        log branch tracked continuously through every winding.

    Free particle:
        a(t) = a0 / (1 + i tau),  tau = 2 hbar a0 t / m,  a0 = 1/(4 sigma^2)
        q = x0 + p0 t / m,  p = p0,
        g = p0^2 t / 2m - (hbar/2) arctan(tau).
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    hbar = params.constants.hbar
    m = params.mass
    x0, p0, sigma = init.x0, init.p0, init.sigma
    a0 = init.alpha0

    if isinstance(params.potential, Harmonic):
        w = params.potential.omega
        u = w * t
        s, c = math.sin(u), math.cos(u)
        alpha = (m * w / hbar) * (hbar * c + 2j * sigma**2 * m * w * s) \
            / (2j * hbar * s + 4 * sigma**2 * m * w * c)
        q = x0 * c + (p0 / (m * w)) * s
        p = p0 * c - m * w * x0 * s
        tanphi = hbar / (2 * sigma**2 * m * w)
        gamma = (-0.5 * hbar * _continuous_angle(u, tanphi)
                 + (p0**2 / (2 * m) - 0.5 * m * w**2 * x0**2) * s * c / w
                 + 0.5 * p0 * x0 * (c * c - s * s))
    else:
        tau = 2.0 * hbar * a0 * t / m
        alpha = a0 / (1.0 + 1j * tau)
        q = x0 + p0 * t / m
        p = p0
        gamma = p0**2 * t / (2 * m) - 0.5 * hbar * math.atan(tau)

    return WavepacketState(alpha, q, p, gamma, t, init, params)


def density(state: WavepacketState, x):
    """Probability density P(x,t) = sqrt(2 Re a / pi) exp(-2 Re a (x-q)^2)."""
    ra = state.alpha.real
    u = x - state.q
    return np.sqrt(2.0 * ra / np.pi) * np.exp(-2.0 * ra * (u * u))


def _log_density(state: WavepacketState, x):
    """log P(x,t), finite where P itself underflows to zero."""
    ra = state.alpha.real
    u = x - state.q
    return 0.5 * math.log(2.0 * ra / math.pi) - 2.0 * ra * (u * u)


def amplitude(state: WavepacketState, x):
    """Real amplitude R(x,t) = sqrt(P)."""
    ra = state.alpha.real
    u = x - state.q
    return (2.0 * ra / np.pi) ** 0.25 * np.exp(-ra * (u * u))


def total_phase(state: WavepacketState, x):
    """Phase S(x,t) of psi = R exp(iS/hbar)."""
    hbar = state.params.constants.hbar
    u = x - state.q
    return -hbar * state.alpha.imag * (u * u) + state.p * u + state.gamma


def wavefunction(state: WavepacketState, x):
    """Complex psi(x,t) with real-positive normalization prefactor."""
    hbar = state.params.constants.hbar
    u = x - state.q
    return (2.0 * state.alpha.real / np.pi) ** 0.25 * np.exp(
        -state.alpha * (u * u) + 1j * ((state.p * u + state.gamma) / hbar))


def phase_gradient(state: WavepacketState, x):
    """dS/dx = -2 hbar Im a (x - q) + p, the local momentum field."""
    hbar = state.params.constants.hbar
    return -2.0 * hbar * state.alpha.imag * (x - state.q) + state.p


def quantum_potential(state: WavepacketState, x):
    """Q(x,t) = -(hbar^2 / 2 m R) R'' for the Gaussian amplitude.

    Quadratic in the displacement from the packet center:
        Q = hbar^2 Re a / m - (2 hbar^2 (Re a)^2 / m) (x - q)^2.
    """
    hbar = state.params.constants.hbar
    m = state.params.mass
    ra = state.alpha.real
    u = x - state.q
    return hbar**2 * ra / m - (2.0 * hbar**2 * ra**2 / m) * (u * u)


def _energy_coefficients(state: WavepacketState) -> tuple[float, float, float]:
    """Coefficients (A2, A1, A0) of E(x,t) = A2 u^2 + A1 u + A0, u = x - q.

    Derived from E = -dS/dt, which equals (dS/dx)^2/2m + V(x) + Q(x) on the
    exact solution (quantum Hamilton-Jacobi).
    """
    hbar = state.params.constants.hbar
    m = state.params.mass
    w = state.params.omega
    ra, ia = state.alpha.real, state.alpha.imag
    a2 = 2.0 * hbar**2 * (ia * ia - ra * ra) / m + 0.5 * m * w * w
    a1 = m * w * w * state.q - 2.0 * hbar * ia * state.p / m
    a0 = state.p**2 / (2 * m) + 0.5 * m * w * w * state.q**2 + hbar**2 * ra / m
    return a2, a1, a0


def energy_pointwise(state: WavepacketState, x):
    """E(x,t) = -dS/dt, the energy of the trajectory passing through x at t."""
    a2, a1, a0 = _energy_coefficients(state)
    u = x - state.q
    return a2 * (u * u) + a1 * u + a0


def _state_rates(state: WavepacketState):
    """Time derivatives (Re a, Im a, q, p)' from the closed-form equations."""
    hbar = state.params.constants.hbar
    m = state.params.mass
    w = state.params.omega
    ra, ia = state.alpha.real, state.alpha.imag
    ra_dot = 4.0 * hbar * ra * ia / m
    ia_dot = 2.0 * hbar * (ia * ia - ra * ra) / m + m * w * w / (2.0 * hbar)
    q_dot = state.p / m
    p_dot = -m * w * w * state.q
    return ra_dot, ia_dot, q_dot, p_dot


def _log_density_dt(state: WavepacketState, x):
    """Exact partial d(log P)/dt at fixed x, so that dP/dt = P times it."""
    ra = state.alpha.real
    ra_dot, _, q_dot, _ = _state_rates(state)
    u = x - state.q
    return ra_dot / (2.0 * ra) - 2.0 * ra_dot * (u * u) + 4.0 * ra * q_dot * u


def energy_dt(state: WavepacketState, x):
    """Exact partial dE/dt at fixed x."""
    hbar = state.params.constants.hbar
    m = state.params.mass
    w = state.params.omega
    ra, ia = state.alpha.real, state.alpha.imag
    ra_dot, ia_dot, q_dot, p_dot = _state_rates(state)
    a2, a1, _ = _energy_coefficients(state)
    a2_dot = 4.0 * hbar**2 * (ia * ia_dot - ra * ra_dot) / m
    a1_dot = w * w * state.p - 2.0 * hbar * (ia_dot * state.p + ia * p_dot) / m
    a0_dot = hbar**2 * ra_dot / m
    u = x - state.q
    return a2_dot * (u * u) + (a1_dot - 2.0 * a2 * q_dot) * u + a0_dot - a1 * q_dot


def mean_energy(state: WavepacketState, quad: QuadratureConfig) -> float:
    """<H> = integral of P(x,t) E(x,t) dx by Gauss-Legendre quadrature.

    Constant in time for both systems; the spectral decomposition gives the
    same number as sum |c_k|^2 E_k.
    """
    half = quad.window_sigmas * state.width
    val, _ = integrate_window(
        lambda x: density(state, x) * energy_pointwise(state, x),
        state.q - half, state.q + half, quad)
    return val


# ---------------------------------------------------------------------------
# Spectral decomposition over the harmonic eigenbasis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralDecomposition:
    """Overlap coefficients of the packet with harmonic eigenstates 0..K."""

    coefficients: np.ndarray
    truncation: int
    eigenenergies: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        return np.abs(self.coefficients) ** 2

    def mean_energy(self) -> float:
        """sum |c_k|^2 E_k."""
        return float(np.sum(self.weights * self.eigenenergies))


def hermite_functions(n_max: int, xi: np.ndarray) -> np.ndarray:
    """Normalized Hermite functions h_0..h_n_max on the dimensionless grid xi.

    Stable three-term recurrence
        h_{k+1} = sqrt(2/(k+1)) xi h_k - sqrt(k/(k+1)) h_{k-1}
    (no raw Hermite polynomials, so no overflow up to k of several hundred).
    """
    out = np.empty((n_max + 1, xi.size))
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * xi**2)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * xi * out[0]
    for k in range(1, n_max):
        out[k + 1] = (math.sqrt(2.0 / (k + 1)) * xi * out[k]
                      - math.sqrt(k / (k + 1.0)) * out[k - 1])
    return out


def default_spectral_grid(params: SystemParams, init: WavepacketInit,
                          basis_size: int, points_per_unit: int = 80) -> Grid1D:
    """Grid covering both the packet and the highest basis state with margin."""
    hbar = params.constants.hbar
    scale = math.sqrt(hbar / (params.mass * params.potential.omega))
    turning = math.sqrt(2.0 * basis_size + 1.0) * scale
    half = max(abs(init.x0) + 10.0 * init.sigma, 1.3 * turning + 6.0 * scale)
    n = int(2 * half * points_per_unit) | 1
    return Grid1D(-half, half, max(n, 801))


def spectral_project(state: WavepacketState, basis_size: int,
                     grid: Grid1D) -> SpectralDecomposition:
    """Project the packet onto harmonic eigenfunctions by grid quadrature.

    Raises TruncationInsufficient when sum |c_k|^2 < 1 - 1e-8, i.e. when
    basis_size truncates too much of the state.
    """
    params = state.params
    if not isinstance(params.potential, Harmonic):
        raise ValueError("spectral projection requires a harmonic system")
    hbar = params.constants.hbar
    m, w = params.mass, params.potential.omega

    scale = math.sqrt(hbar / (m * w))
    turning = math.sqrt(2.0 * basis_size + 1.0) * scale
    need = max(abs(state.q) + 10.0 * state.width, turning)
    if grid.lo > -need or grid.hi < need:
        raise ValueError(
            f"grid [{grid.lo:g}, {grid.hi:g}] must cover +-{need:g} "
            "(10 packet widths and the highest basis state)")

    x = grid.points
    xi = np.sqrt(m * w / hbar) * x
    basis = (m * w / hbar) ** 0.25 * hermite_functions(basis_size, xi)
    psi = wavefunction(state, x)

    coeffs = simpson(basis * psi.real, x=x) + 1j * simpson(basis * psi.imag, x=x)
    captured = float(np.sum(np.abs(coeffs) ** 2))
    if captured < 1.0 - 1e-8:
        raise TruncationInsufficient(
            f"basis of size {basis_size} captures only {captured:.12f} of the norm")
    energies = hbar * w * (np.arange(basis_size + 1) + 0.5)
    return SpectralDecomposition(coeffs, basis_size, energies)


def packet_mean_energy_exact(params: SystemParams, init: WavepacketInit) -> float:
    """Closed-form <H> of the initial packet (moment integrals of P and E).

    Harmonic: p0^2/2m + m w^2 x0^2/2 + hbar^2/(8 m sigma^2) + m w^2 sigma^2/2.
    Free:     p0^2/2m + hbar^2/(8 m sigma^2).
    Used as an independent oracle for mean_energy and spectral sums.
    """
    hbar = params.constants.hbar
    m = params.mass
    spread = hbar**2 / (8.0 * m * init.sigma**2)
    kin_cen = init.p0**2 / (2.0 * m)
    if isinstance(params.potential, Harmonic):
        w = params.potential.omega
        return kin_cen + 0.5 * m * w * w * init.x0**2 + spread \
            + 0.5 * m * w * w * init.sigma**2
    return kin_cen + spread
