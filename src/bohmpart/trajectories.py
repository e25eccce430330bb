"""Bohmian trajectories of the Gaussian flow.

For a Gaussian packet every trajectory is a fixed quantile of the density,
so the closed-form scaling solution

    x(t) = q(t) + (x_start - q(0)) * s(t) / s(0),   s(t) = 1/(2 sqrt(Re a(t)))

gives each path exactly; the `trajectory` subcommand writes it.

Its numerical oracle, run by equivariance_check, the tests and the
benchmark, integrates the guidance equation dx/dt = (dS/dx)/m directly; it
is equivalent to the Newton-like second-order law with force -(V+Q)' on
the flow, but the first-order form cannot drift off it numerically.  Two
steppers integrate it in plain float arithmetic: classic RK4 at a fixed
step, and the Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl.
Math. 6, 1980) at fixed tolerances, with first-same-as-last stages, local
extrapolation and the step-size controller of Hairer, Norsett & Wanner,
Solving ODEs I, sec. II.4.  Its first trial step is the whole span, which
the controller shrinks by rejection, so no step depends on the time unit.
Both take the velocity from _guidance, bohmian_velocity on floats, which
evaluates the packet once per stage time: a stage at the time of the one
before reuses its slope, q and p, except at t = 0, where the sign of zero
may change the bits.  Each stepper returns every point (t, x) it reached;
a path's velocity, where wanted, is bohmian_velocity there.
"""

from __future__ import annotations

import math
from typing import Sequence

from .core import StepFailure, SystemParams, _worst, functions_of, np, record
from .wavepacket import (WavepacketInit, WavepacketState, _packet, _rotation,
                         evolve, phase_gradient)

_REL_TOL, _ABS_TOL = 1e-9, 1e-12  # Dormand-Prince, see RK45Adaptive
# Steps one integration may take; every step is kept in memory.
_MAX_STEPS = 1_000_000


@record
class RK4Fixed:
    """Classic fixed-step 4th-order Runge-Kutta stepper."""

    dt: float

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be finite and strictly positive")


@record
class RK45Adaptive:
    """Adaptive Dormand-Prince 5(4) stepper with embedded error control.

    A step is accepted when its local error estimate is at most
    _ABS_TOL sigma + _REL_TOL max(|x_old|, |x_new|), sigma being the packet's
    width, so no step depends on the length unit.  The first trial step is
    the whole span t_max, so none depends on the time unit either; every
    step size after a trial follows the Hairer-Norsett-Wanner controller
    (safety 0.9, factor clamped to [0.2, 10], exponent -1/5, no growth right
    after a rejection).
    """


@record
class TrajectoryConfig:
    stepper: RK4Fixed | RK45Adaptive = RK45Adaptive()
    t_max: float = 5.0

    def __post_init__(self):
        if not 0 < self.t_max < math.inf:
            raise ValueError("t_max must be finite and strictly positive")


@record
class TrajectoryPath:
    """Recorded (t, x) samples of one integrated trajectory."""

    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.positions):
            raise ValueError("times and positions must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


def bohmian_velocity(state: WavepacketState, x):
    """Guidance velocity v(x,t) = (dS/dx)/m."""
    return phase_gradient(state, x) / state.params.mass


def _guidance(params: SystemParams, init: WavepacketInit):
    """v(t, x) = bohmian_velocity(evolve(params, init, t), x) bit for bit, in
    the same operations on floats, without a state record per call.

    The field keeps the packet's slope -2 hbar Im a, q and p of the last
    time it was asked at, and reuses them while the time repeats (RK4's k2
    and k3, Dormand-Prince's k6 and k7).  A time equal to 0 is evaluated
    afresh each call: 0.0 and -0.0 compare equal but may give other bits.
    """
    hbar, m, w = params.hbar, params.mass, params.omega
    a0, x0, p0 = 0.25 / init.sigma**2, init.x0, init.p0
    last_t = slope = q = p = math.nan

    def velocity(t: float, x: float) -> float:
        nonlocal last_t, slope, q, p
        if t != last_t or t == 0.0:
            alpha, q, p = _packet(hbar, m, w, a0, x0, p0, t)
            slope, last_t = -2.0 * hbar * alpha.imag, t
        return (slope * (x - q) + p) / m
    return velocity


def quantum_force(state: WavepacketState, x):
    """-dQ/dx, the force the quantum potential adds to the Newton-like law.

    Q is quadratic with no linear term, so the force is linear in the
    displacement: 4 hbar^2 (Re a)^2 (x - q) / m.
    """
    hbar = state.params.hbar
    m = state.params.mass
    ra = state.alpha.real
    return 4.0 * hbar**2 * ra * ra * (x - state.q) / m


def scaling_solution(params: SystemParams, init: WavepacketInit,
                     x_start: float, t):
    """Exact trajectory x(t) = q(t) + (x_start - x0) * width(t)/width(0).

    With c = cos(wt) and sw = sin(wt)/w (= t at w = 0), for every omega >= 0:
        q = x0 c + p0 sw / m,  width/sigma = hypot(c, hbar sw/(2 m sigma^2)),
    which at w = 0 is the free packet's q = x0 + p0 t/m and
    width/sigma = sqrt(1 + (hbar t/(2 m sigma^2))^2).  The root is taken as
    hypot, so no square overflows at large t.  A float t gives a float on
    math alone, bit for bit the element an array gives; an array of times
    gives an array of the same shape (core.functions_of).  A non-finite
    time is a ValueError, as in evolve.
    """
    if not math.isfinite(x_start):
        raise ValueError("x_start must be finite")
    fn = functions_of(t)
    if not fn.all(fn.isfinite(t)):
        raise ValueError("t must be finite")
    hbar, m, w = params.hbar, params.mass, params.omega
    c, _, sw = _rotation(w, t, fn)
    q = init.x0 * c + init.p0 * sw / m
    ratio = fn.hypot(c, hbar * sw / (2 * m * init.sigma**2))
    return q + (x_start - init.x0) * ratio


# Dormand-Prince 5(4): nodes c2..c5 (c6 = c7 = 1), stage weights a_ij, the
# 5th-order weights b_j (b2 = 0) and the error weights e_j = b_j - b*_j.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (-71 / 57600, 71 / 16695, -71 / 1920,
                                17253 / 339200, -22 / 525, 1 / 40)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5  # -1/(order of the embedded estimate + 1)


def _dormand_prince(f, x0: float, t_max: float, width: float
                    ) -> tuple[list[float], list[float]]:
    """Accepted (t, x) of dx/dt = f(t, x) from x(0) = x0 to t_max.

    Raises StepFailure when a step would have to be shorter than 10 ulp(t),
    or when more than _MAX_STEPS steps would be accepted.
    """
    t, x, h = 0.0, x0, t_max
    k1 = f(t, x)
    times, xs = [t], [x]
    while t < t_max:
        if len(times) > _MAX_STEPS:
            raise StepFailure(f"more than {_MAX_STEPS} steps needed to reach "
                              f"t_max={t_max!r} (stopped at t={t!r})")
        min_step = 10 * math.ulp(t)
        h = max(h, min_step)
        rejected = False
        while True:
            if h < min_step:
                raise StepFailure(f"step size fell below 10 ulp at t={t!r}")
            t_new = min(t + h, t_max)
            h = t_new - t
            k2 = f(t + _C2 * h, x + h * (_A21 * k1))
            k3 = f(t + _C3 * h, x + h * (_A31 * k1 + _A32 * k2))
            k4 = f(t + _C4 * h, x + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
            k5 = f(t + _C5 * h, x + h * (_A51 * k1 + _A52 * k2 + _A53 * k3
                                         + _A54 * k4))
            k6 = f(t + h, x + h * (_A61 * k1 + _A62 * k2 + _A63 * k3
                                   + _A64 * k4 + _A65 * k5))
            x_new = x + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5
                             + _B6 * k6)
            k7 = f(t_new, x_new)  # first stage of the next step (FSAL)
            error = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5
                         + _E6 * k6 + _E7 * k7)
            scale = _ABS_TOL * width + max(abs(x), abs(x_new)) * _REL_TOL
            error_norm = abs(error) / scale
            if error_norm < 1:
                factor = (_MAX_FACTOR if error_norm == 0 else
                          min(_MAX_FACTOR,
                              _SAFETY * error_norm ** _ERROR_EXPONENT))
                h *= min(1.0, factor) if rejected else factor
                break
            h *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        t, x, k1 = t_new, x_new, k7
        times.append(t)
        xs.append(x)
    return times, xs


def _rk4(f, x0: float, dt: float, steps: int
         ) -> tuple[list[float], list[float]]:
    """(t, x) before and after each of `steps` classic RK4 steps from
    x(0) = x0."""
    times, xs = [0.0], [x0]
    x, t = x0, 0.0
    for k in range(steps):
        k1 = f(t, x)
        k2 = f(t + dt / 2, x + dt * k1 / 2)
        k3 = f(t + dt / 2, x + dt * k2 / 2)
        k4 = f(t + dt, x + dt * k3)
        x = x + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        t = (k + 1) * dt
        times.append(t)
        xs.append(x)
    return times, xs


def integrate(params: SystemParams, init: WavepacketInit, x_start: float,
              cfg: TrajectoryConfig) -> TrajectoryPath:
    """Integrate the guidance equation from x(0) = x_start up to cfg.t_max.

    The numerical oracle of scaling_solution; records every step of the
    stepper, whose right-hand side is _guidance.  At most _MAX_STEPS steps
    are taken: an RK4 config that needs more is a ValueError, an RK45 run
    that would accept more a StepFailure.
    """
    if not math.isfinite(x_start):
        raise ValueError("x_start must be finite")
    rhs = _guidance(params, init)
    stepper = cfg.stepper
    if isinstance(stepper, RK4Fixed):
        n_steps = max(1, int(round(cfg.t_max / stepper.dt)))
        if n_steps > _MAX_STEPS:
            raise ValueError(f"t_max/dt = {n_steps} RK4 steps exceeds the "
                             f"limit of {_MAX_STEPS}")
        columns = _rk4(rhs, x_start, stepper.dt, n_steps)
    else:
        columns = _dormand_prince(rhs, x_start, cfg.t_max, init.sigma)
    return TrajectoryPath(*map(np.array, columns))


def density_quantile(params: SystemParams, init: WavepacketInit, t: float,
                     c: float) -> float:
    """The c-quantile of P(., t): the path from x0 + sigma Phi^-1(c)."""
    from statistics import NormalDist  # here, so `import bohmpart` skips it
    if not 0.0 < c < 1.0:
        raise ValueError("quantile must lie in (0, 1)")
    x_start = init.x0 + init.sigma * NormalDist().inv_cdf(c)
    return scaling_solution(params, init, x_start, t)


def equivariance_check(params: SystemParams, init: WavepacketInit,
                       quantiles: Sequence[float], t: float) -> float:
    """Transport error of the quantile map under the Bohmian flow.

    Starts one trajectory at each c-quantile of P(.,0), integrates it to t
    with the default RK45Adaptive stepper, and measures the quantile each
    endpoint occupies in P(.,t).  Returns max |c_achieved - c|, NaN where
    an endpoint is NaN; exactly zero for the ideal Gaussian flow.
    """
    from statistics import NormalDist
    run_cfg = TrajectoryConfig(t_max=t)
    end_state = evolve(params, init, t)

    def error(c: float) -> float:
        x_start = density_quantile(params, init, 0.0, c)
        x_end = float(integrate(params, init, x_start, run_cfg).positions[-1])
        return abs(NormalDist().cdf((x_end - end_state.q) / end_state.width) - c)
    return _worst(map(error, quantiles))

