"""Bohmian trajectories of the Gaussian flow.

The guidance equation dx/dt = (dS/dx)/m is integrated directly; it is
equivalent to the Newton-like second-order law with force -(V+Q)' on the
flow, but the first-order form cannot drift off it numerically.  For a
Gaussian packet every trajectory is a fixed quantile of the density, so the
closed-form scaling solution

    x(t) = q(t) + (x_start - q(0)) * s(t) / s(0),   s(t) = 1/(2 sqrt(Re a(t)))

serves as an exact oracle for both supported systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import erfinv, ndtr

from .core import StepFailure, SystemParams
from .wavepacket import (WavepacketInit, WavepacketState, evolve,
                         phase_gradient, quantum_potential)


@dataclass(frozen=True)
class RK4Fixed:
    """Classic fixed-step 4th-order Runge-Kutta stepper."""

    dt: float

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be strictly positive")


@dataclass(frozen=True)
class RK45Adaptive:
    """Adaptive Runge-Kutta 4(5) with embedded error control."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be strictly positive")


Stepper = Union[RK4Fixed, RK45Adaptive]


@dataclass(frozen=True)
class TrajectoryConfig:
    stepper: Stepper = field(default_factory=RK45Adaptive)
    t_max: float = 5.0
    record_every: int = 1

    def __post_init__(self):
        if self.t_max <= 0:
            raise ValueError("t_max must be strictly positive")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")


@dataclass(frozen=True)
class TrajectoryPath:
    """Recorded (t, x, v) samples of one integrated trajectory."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        if not (len(self.times) == len(self.positions) == len(self.velocities)):
            raise ValueError("times, positions, velocities must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


def bohmian_velocity(state: WavepacketState, x):
    """Guidance velocity v(x,t) = (dS/dx)/m."""
    return phase_gradient(state, x) / state.params.mass


def quantum_force(state: WavepacketState, x):
    """-dQ/dx, the force the quantum potential adds to the Newton-like law.

    Q is quadratic with no linear term, so the force is linear in the
    displacement: 4 hbar^2 (Re a)^2 (x - q) / m.
    """
    hbar = state.params.constants.hbar
    m = state.params.mass
    ra = state.alpha.real
    return 4.0 * hbar**2 * ra * ra * (x - state.q) / m


def scaling_solution(params: SystemParams, init: WavepacketInit,
                     x_start: float, t) -> np.ndarray:
    """Exact trajectory x(t) = q(t) + (x_start - x0) * width(t)/width(0)."""
    times = np.atleast_1d(np.asarray(t, dtype=float))
    offset = x_start - init.x0
    out = np.empty_like(times)
    for i, ti in enumerate(times):
        st = evolve(params, init, ti)
        out[i] = st.q + offset * st.width / init.sigma
    return out if np.ndim(t) else float(out[0])


def _velocity_of(params: SystemParams, init: WavepacketInit, t: float, x: float) -> float:
    return bohmian_velocity(evolve(params, init, t), x)


def integrate(params: SystemParams, init: WavepacketInit, x_start: float,
              cfg: TrajectoryConfig) -> TrajectoryPath:
    """Integrate the guidance equation from x(0) = x_start up to cfg.t_max."""
    if not math.isfinite(x_start):
        raise ValueError("x_start must be finite")
    rhs = lambda t, y: [_velocity_of(params, init, t, y[0])]

    if isinstance(cfg.stepper, RK4Fixed):
        dt = cfg.stepper.dt
        n_steps = max(1, int(round(cfg.t_max / dt)))
        times = [0.0]
        xs = [x_start]
        x, t = x_start, 0.0
        for k in range(n_steps):
            k1 = _velocity_of(params, init, t, x)
            k2 = _velocity_of(params, init, t + dt / 2, x + dt * k1 / 2)
            k3 = _velocity_of(params, init, t + dt / 2, x + dt * k2 / 2)
            k4 = _velocity_of(params, init, t + dt, x + dt * k3)
            x = x + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
            t = (k + 1) * dt
            if (k + 1) % cfg.record_every == 0 or k == n_steps - 1:
                times.append(t)
                xs.append(x)
        t_arr, x_arr = np.array(times), np.array(xs)
    else:
        sol = solve_ivp(rhs, (0.0, cfg.t_max), [x_start], method="RK45",
                        rtol=cfg.stepper.rel_tol, atol=cfg.stepper.abs_tol,
                        dense_output=False)
        if sol.status != 0:
            raise StepFailure(sol.message)
        keep = np.arange(0, sol.t.size, cfg.record_every)
        if keep[-1] != sol.t.size - 1:
            keep = np.append(keep, sol.t.size - 1)
        t_arr, x_arr = sol.t[keep], sol.y[0][keep]

    v_arr = np.array([_velocity_of(params, init, t, x)
                      for t, x in zip(t_arr, x_arr)])
    return TrajectoryPath(t_arr, x_arr, v_arr)


def density_quantile(params: SystemParams, init: WavepacketInit, t: float,
                     c: float) -> float:
    """Closed-form c-quantile of P(. , t) (Gaussian inverse CDF)."""
    if not 0.0 < c < 1.0:
        raise ValueError("quantile must lie in (0, 1)")
    st = evolve(params, init, t)
    return st.q + st.width * math.sqrt(2.0) * float(erfinv(2.0 * c - 1.0))


def equivariance_check(params: SystemParams, init: WavepacketInit,
                       quantiles: Sequence[float], t: float,
                       cfg: TrajectoryConfig | None = None) -> float:
    """Transport error of the quantile map under the Bohmian flow.

    Starts one trajectory at each c-quantile of P(.,0), integrates to t, and
    measures the quantile each endpoint occupies in P(.,t).  Returns
    max |c_achieved - c|; exactly zero for the ideal Gaussian flow.
    """
    stepper = cfg.stepper if cfg is not None else RK45Adaptive()
    run_cfg = TrajectoryConfig(stepper=stepper, t_max=t)
    end_state = evolve(params, init, t)
    worst = 0.0
    for c in quantiles:
        x_start = density_quantile(params, init, 0.0, c)
        path = integrate(params, init, x_start, run_cfg)
        x_end = float(path.positions[-1])
        achieved = float(ndtr((x_end - end_state.q) / end_state.width))
        worst = max(worst, abs(achieved - c))
    return worst


def classical_force(params: SystemParams, x):
    """-V'(x) = -m omega^2 x: the classical part of the Newton-like law."""
    return -params.mass * params.omega**2 * x


__all__ = [
    "RK4Fixed", "RK45Adaptive", "TrajectoryConfig", "TrajectoryPath",
    "bohmian_velocity", "quantum_force", "scaling_solution", "integrate",
    "density_quantile", "equivariance_check", "classical_force",
    "quantum_potential",
]
