"""Closed-form Gaussian wavepacket evolution in V(x) = m omega^2 x^2 / 2.

A packet prepared as psi(x,0) ~ exp[-(x-x0)^2/(4 sigma^2) + i p0 (x-x0)/hbar]
stays Gaussian for every omega >= 0; omega = 0 is the free particle, and one
closed form covers both through sin(wt)/w -> t:

    psi(x,t) = (2 Re a(t)/pi)^(1/4)
               * exp[-a(t) (x-q)^2 + (i/hbar) p (x-q) + (i/hbar) g(t)]

with complex inverse-width a(t), classical center (q(t), p(t)) and real phase
accumulator g(t).  The phase convention makes the normalization prefactor real
positive at all times, so g(t) carries only the physical phase.  It starts at
g(0) = p0 x0 / 2, so the prepared packet above holds up to that constant
global phase, which no density, velocity or energy sees.  _packet computes a,
q and p on floats, for evolve and the trajectory integrators; the state
computes g(t) when its gamma is read, so callers that never read it
(densities, velocities, energies) do not pay for it.  From the polar
decomposition psi = R exp(iS/hbar) everything else follows:

    P = R^2                       probability density
    dS/dx                         phase gradient (local momentum field)
    Q = -(hbar^2 / 2 m R) R''     quantum potential
    E = -dS/dt                    pointwise energy along the flow

Every pointwise function of (state, x) takes one WavepacketState and is one
broadcasting expression in u = x - q: a float x gives a float (complex for
the wavefunction) and an array x gives an array of the same shape.  density
and energy_pointwise, the grid kernels, evaluate theirs in place in the one
array they return, in cache-sized blocks, in the expression's order, so
they keep its bits without its temporaries; a float x still gives a float.

All formulas here are exact solutions of the time-dependent Schroedinger
equation; the test suite verifies them against finite-difference definitions
of Q and E and against the quantum Hamilton-Jacobi residual.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import (SystemParams, TruncationInsufficient, check_scale, np,
                   record)

_BLOCK = 1 << 14  # elements per grid-kernel block: 128 KiB of float64, in L2


@record
class WavepacketInit:
    """Initial center x0, momentum p0, and width sigma (> 0) of the packet."""

    x0: float
    p0: float
    sigma: float

    def __post_init__(self):
        check_scale("sigma", self.sigma)
        if not (math.isfinite(self.x0) and math.isfinite(self.p0)):
            raise ValueError("x0 and p0 must be finite")

    @property
    def alpha0(self) -> float:
        """Initial inverse-width parameter 1/(4 sigma^2)."""
        return 1.0 / (4.0 * self.sigma**2)


class WavepacketState(NamedTuple):
    """Snapshot of the evolved packet at time t.

    Immutable.  The phase accumulator gamma is computed when read, from
    (params, init, t), because only the phase itself (total_phase,
    wavefunction) needs it.
    """

    alpha: complex
    q: float
    p: float
    t: float
    init: WavepacketInit
    params: SystemParams

    @property
    def width(self) -> float:
        """Position standard deviation 1/(2 sqrt(Re alpha))."""
        return 0.5 / math.sqrt(self.alpha.real)

    @property
    def gamma(self) -> float:
        """Real phase accumulator g(t) of psi."""
        return _phase(self.params, self.init, self.t)


def _rotation(w: float, t, fn=math):
    """(cos wt, sin wt, sin(wt)/w) from fn's cos and sin, fn being
    core.functions_of(t) where t may be an array, and the free particle's
    (1, 0, t) at w = 0, the removable singularity of sin(wt)/w."""
    if not w:
        return 1.0, 0.0, t
    s = fn.sin(w * t)
    return fn.cos(w * t), s, s / w


def _packet(hbar: float, m: float, w: float, a0: float, x0: float,
            p0: float, t: float) -> tuple[complex, float, float]:
    """The packet's (a, q, p) at time t, on floats, for evolve and _guidance.

    With c = cos(wt), sw = sin(wt)/w (= t at w = 0), a0 = 1/(4 sigma^2) and
    T = hbar sw / (2 m sigma^2), for every omega >= 0:
        a(t) = (a0 c + i (m w^2 / 2 hbar) sw) / (c + i T),
        q = x0 c + p0 sw / m,  p = p0 c - m w^2 x0 sw,
    the classical flow for (q, p).  At w = 0 this is the free packet
    a0 / (1 + i T), q = x0 + p0 t / m, p = p0.
    """
    c, _, sw = _rotation(w, t)
    mw2sw = m * w * w * sw
    alpha = ((a0 * c + 1j * (0.5 * mw2sw / hbar))
             / (c + 1j * (2.0 * hbar * a0 * sw / m)))
    return alpha, x0 * c + p0 * sw / m, p0 * c - mw2sw * x0


def evolve(params: SystemParams, init: WavepacketInit, t: float) -> WavepacketState:
    """The packet at time t: _packet's a, q and p; gamma, the phase, is
    computed when read (_phase)."""
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    a_q_p = _packet(params.hbar, params.mass, params.omega,
                    0.25 / init.sigma**2, init.x0, init.p0, t)
    return WavepacketState(*a_q_p, t, init, params)


def _phase(params: SystemParams, init: WavepacketInit, t: float) -> float:
    """Phase accumulator g(t) of the packet evolved to time t.

    g integrates g' = p^2/2m - V(q) - hbar^2 Re a / m from g(0) = p0 x0 / 2.
    With s = sin(wt) and c, sw, T as in evolve, for every omega >= 0:
        g = -(hbar/2) [w t + atan2((T - s) c, c^2 + T s)]
            + (p0^2/2m - m w^2 x0^2/2) c sw + (p0 x0 / 2)(c^2 - s^2).
    The bracket is the unwound angle of c + i T, which stays within pi/2 of
    w t, so the log branch is exact for any number of windings.  At w = 0,
    g = p0^2 t / 2m - (hbar/2) arctan(T) + p0 x0 / 2.
    """
    hbar, m, w = params.hbar, params.mass, params.omega
    x0, p0 = init.x0, init.p0
    c, s, sw = _rotation(w, t)
    big_t = hbar * sw / (2 * m * init.sigma**2)
    return (-0.5 * hbar * (w * t + math.atan2((big_t - s) * c, c * c + big_t * s))
            + (p0**2 / (2 * m) - 0.5 * m * w**2 * x0**2) * c * sw
            + 0.5 * p0 * x0 * (c * c - s * s))


def _blocks(x, q):
    """(out, [(x block, out block), ...]): the unfilled result of the shape
    and dtype of x - q and views of _BLOCK elements at most that tile it and
    x in step, or None for a float or 0-d x.  A float is told apart before
    np is read, so a scalar call does not import numpy."""
    if isinstance(x, (int, float)) or not (isinstance(x, np.ndarray)
                                           and x.ndim):
        return None
    out = np.empty(x.shape, np.result_type(x, q))
    xs, outs = x.reshape(-1), out.reshape(-1)
    return out, [(xs[i:i + _BLOCK], outs[i:i + _BLOCK])
                 for i in range(0, out.size, _BLOCK)]


def density(state: WavepacketState, x):
    """Probability density P(x,t) = sqrt(2 Re a / pi) exp(-2 Re a (x-q)^2)."""
    ra, q = state.alpha.real, state.q
    spread, peak = -2.0 * ra, np.sqrt(2.0 * ra / np.pi)
    if (tiles := _blocks(x, q)) is None:
        u = x - q
        return np.exp(u * u * spread) * peak
    out, pairs = tiles
    for xb, u in pairs:  # in place, in the formula's order
        np.subtract(xb, q, out=u)
        u *= u
        u *= spread
        np.exp(u, out=u)
        u *= peak
    return out


def _log_density(state: WavepacketState, x):
    """log P(x,t), finite where P itself underflows to zero."""
    ra = state.alpha.real
    u = x - state.q
    return 0.5 * math.log(2.0 * ra / math.pi) - 2.0 * ra * (u * u)


def total_phase(state: WavepacketState, x):
    """Phase S(x,t) of psi = R exp(iS/hbar)."""
    hbar = state.params.hbar
    u = x - state.q
    return -hbar * state.alpha.imag * (u * u) + state.p * u + state.gamma


def wavefunction(state: WavepacketState, x):
    """Complex psi(x,t) with real-positive normalization prefactor."""
    hbar = state.params.hbar
    u = x - state.q
    return (2.0 * state.alpha.real / np.pi) ** 0.25 * np.exp(
        -state.alpha * (u * u) + 1j * ((state.p * u + state.gamma) / hbar))


def phase_gradient(state: WavepacketState, x):
    """dS/dx = -2 hbar Im a (x - q) + p, the local momentum field."""
    hbar = state.params.hbar
    return -2.0 * hbar * state.alpha.imag * (x - state.q) + state.p


def quantum_potential(state: WavepacketState, x):
    """Q(x,t) = -(hbar^2 / 2 m R) R'' for the Gaussian amplitude.

    Quadratic in the displacement from the packet center:
        Q = hbar^2 Re a / m - (2 hbar^2 (Re a)^2 / m) (x - q)^2.
    """
    hbar = state.params.hbar
    m = state.params.mass
    ra = state.alpha.real
    u = x - state.q
    return hbar**2 * ra / m - (2.0 * hbar**2 * ra**2 / m) * (u * u)


def _energy_coefficients(state: WavepacketState) -> tuple[float, float, float]:
    """Coefficients (A2, A1, A0) of E(x,t) = A2 u^2 + A1 u + A0, u = x - q.

    Derived from E = -dS/dt, which equals (dS/dx)^2/2m + V(x) + Q(x) on the
    exact solution (quantum Hamilton-Jacobi).
    """
    hbar = state.params.hbar
    m = state.params.mass
    w = state.params.omega
    ra, ia = state.alpha.real, state.alpha.imag
    a2 = 2.0 * hbar**2 * (ia * ia - ra * ra) / m + 0.5 * m * w * w
    a1 = m * w * w * state.q - 2.0 * hbar * ia * state.p / m
    a0 = (state.p * state.p / (2 * m) + 0.5 * m * w * w * (state.q * state.q)
          + hbar**2 * ra / m)
    return a2, a1, a0


def energy_pointwise(state: WavepacketState, x):
    """E(x,t) = -dS/dt, the energy of the trajectory passing through x at t."""
    (a2, a1, a0), q = _energy_coefficients(state), state.q
    if (tiles := _blocks(x, q)) is None:
        u = x - q
        return a2 * (u * u) + a1 * u + a0
    out, pairs = tiles
    u = np.empty(min(_BLOCK, out.size), out.dtype)  # reused by each block
    for xb, e in pairs:  # a2 (u u) + a1 u + a0, in that order
        ub = np.subtract(xb, q, out=u[:e.size])
        np.multiply(ub, ub, out=e)
        e *= a2
        ub *= a1
        e += ub
        e += a0
    return out


def _state_rates(state: WavepacketState):
    """Time derivatives (Re a, Im a, q, p)' from the closed-form equations."""
    hbar = state.params.hbar
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
    hbar = state.params.hbar
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


# ---------------------------------------------------------------------------
# Spectral decomposition over the harmonic eigenbasis
# ---------------------------------------------------------------------------

@record
class SpectralDecomposition:
    """Overlap coefficients of the packet with harmonic eigenstates 0..K."""

    coefficients: np.ndarray
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


def _spectral_reach(params: SystemParams, basis_size) -> tuple[float, float]:
    """(scale, turning): the oscillator length sqrt(hbar / (m w)) and the
    classical turning point of the highest basis state.  ValueError unless
    basis_size is a non-negative int and the system is harmonic."""
    if not (isinstance(basis_size, int) and basis_size >= 0):
        raise ValueError(
            f"basis_size must be a non-negative int, not {basis_size!r}")
    if not params.is_harmonic:
        raise ValueError("the harmonic eigenbasis needs omega > 0; the free "
                         "particle has none")
    scale = math.sqrt(params.hbar / (params.mass * params.omega))
    return scale, math.sqrt(2.0 * basis_size + 1.0) * scale


def default_spectral_grid(params: SystemParams, init: WavepacketInit,
                          basis_size: int) -> np.ndarray:
    """Odd number of uniform points, 80 per oscillator length sqrt(hbar/(m w))
    and so as many in every unit system, covering both the packet and the
    highest basis state with margin (6 lengths past its turning point at
    least, so at least 1,167 points)."""
    scale, turning = _spectral_reach(params, basis_size)
    half = max(abs(init.x0) + 10.0 * init.sigma, 1.3 * turning + 6.0 * scale)
    return np.linspace(-half, half, int(2 * half / scale * 80) | 1)


def _simpson_weights(x: np.ndarray) -> np.ndarray:
    """Weights w of the composite Simpson rule on the increasing points x,
    so that the rule's value for samples y at x is w @ y.

    Each pair of intervals (h0, h1) integrates the parabola through its
    three points, which weights them (h0 + h1)/6 times 2 - h1/h0,
    (h0 + h1)^2/(h0 h1) and 2 - h0/h1; a point two pairs share gets the sum
    of its two weights.  An even number of points is a ValueError.
    """
    if x.size % 2 == 0:
        raise ValueError(f"Simpson's rule needs an odd number of points, "
                         f"not {x.size}")
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum, r = h0 + h1, h0 / h1
    pair = hsum / 6.0
    w = np.zeros(x.size)
    w[0:-2:2] = pair * (2.0 - 1.0 / r)
    w[1:-1:2] = pair * (hsum * (hsum / (h0 * h1)))
    w[2::2] += pair * (2.0 - r)
    return w


def spectral_project(state: WavepacketState, basis_size: int,
                     x: np.ndarray) -> SpectralDecomposition:
    """Project the packet onto harmonic eigenfunctions by quadrature on the
    increasing points x.

    The overlaps use the composite Simpson rule, so x needs an odd number
    of points, as default_spectral_grid gives.  The rule is linear in its
    samples, so its weights (_simpson_weights) multiply psi and the basis
    normalization once, into one vector, and each coefficient is its own
    basis row's dot with that vector: the scaled basis and its products
    with psi are never formed, and coefficient k has the same bits for
    every basis_size on the same grid.

    Raises ValueError unless basis_size is a non-negative int, the system
    is harmonic and x covers the packet and the highest basis state, and
    TruncationInsufficient unless sum |c_k|^2 >= 1 - 1e-8, i.e. when
    basis_size truncates too much of the state; a NaN fails both.
    """
    params = state.params
    _, turning = _spectral_reach(params, basis_size)
    hbar, m, w = params.hbar, params.mass, params.omega
    need = max(abs(state.q) + 10.0 * state.width, turning)
    if not (x[0] <= -need and x[-1] >= need):
        raise ValueError(
            f"grid [{x[0]:g}, {x[-1]:g}] must cover +-{need:g} "
            "(10 packet widths and the highest basis state)")

    norm = (m * w / hbar) ** 0.25
    weighted = norm * _simpson_weights(x) * wavefunction(state, x)
    # one 1-D dot per row, as a stacked matmul: a (K+1, n) @ (n,) gemv rounds
    # some rows differently as K changes
    basis = hermite_functions(basis_size, np.sqrt(m * w / hbar) * x)[:, None, :]
    coeffs = (basis @ weighted.real)[:, 0] + 1j * (basis @ weighted.imag)[:, 0]
    captured = float(np.sum(np.abs(coeffs) ** 2))
    if not captured >= 1.0 - 1e-8:
        raise TruncationInsufficient(
            f"basis of size {basis_size} captures only {captured:.12f} of the norm")
    energies = hbar * w * (np.arange(basis_size + 1) + 0.5)
    return SpectralDecomposition(coeffs, energies)


def packet_mean_energy_exact(params: SystemParams, init: WavepacketInit) -> float:
    """Closed-form <H> of the initial packet (moment integrals of P and E):

        p0^2/2m + m w^2 x0^2/2 + hbar^2/(8 m sigma^2) + m w^2 sigma^2/2,

    which at w = 0 is the free packet's p0^2/2m + hbar^2/(8 m sigma^2)
    exactly, since adding the zero terms does not round.  Used as an
    independent oracle for the spectral sums.
    """
    hbar, m, w = params.hbar, params.mass, params.omega
    spread = hbar**2 / (8.0 * m * init.sigma**2)
    kin_cen = init.p0**2 / (2.0 * m)
    return kin_cen + 0.5 * m * w * w * init.x0**2 + spread \
        + 0.5 * m * w * w * init.sigma**2
