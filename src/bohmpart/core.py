"""Shared parameter records, physical constants, grids, and the quadrature rule.

All other modules consume the types defined here.  Everything is an immutable
value record; default units are the natural ones (hbar = k_B = 1) so that the
harmonic-oscillator results come out in units of m*omega^2*x0^2 for energy and
1/omega for time.  Every numerical integral in the package goes through
integrate_window, one tensor-product Gauss-Legendre rule over a box.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np


# ---------------------------------------------------------------------------
# Errors shared across modules
# ---------------------------------------------------------------------------

class DivergentIntegral(Exception):
    """The requested integral does not converge for these parameters."""


class QuadratureFailure(Exception):
    """The Gauss-Legendre ladder could not reach the requested tolerance."""


class StepFailure(Exception):
    """The ODE step controller could not meet its tolerance."""


class TruncationInsufficient(Exception):
    """A truncated basis expansion failed to capture the state."""


# ---------------------------------------------------------------------------
# Constants and parameter records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constants:
    """Physical constants: hbar (action) and boltzmann (energy/temperature)."""

    hbar: float = 1.0
    boltzmann: float = 1.0

    def __post_init__(self):
        if not (0 < self.hbar < math.inf and 0 < self.boltzmann < math.inf):
            raise ValueError("hbar and boltzmann must be finite and strictly positive")


def natural_units() -> Constants:
    """Constants with hbar = k_B = 1 (the default dimensionless convention)."""
    return Constants(1.0, 1.0)


@dataclass(frozen=True)
class Harmonic:
    """Harmonic well V(x) = m*omega^2*x^2/2."""

    omega: float

    def __post_init__(self):
        if not 0 < self.omega < math.inf:
            raise ValueError("omega must be finite and strictly positive")


@dataclass(frozen=True)
class Free:
    """Flat potential V(x) = 0."""


Potential = Union[Harmonic, Free]


@dataclass(frozen=True)
class SystemParams:
    """Single-particle system: mass plus one of the supported potentials."""

    mass: float
    potential: Potential
    constants: Constants = field(default_factory=natural_units)

    def __post_init__(self):
        if not 0 < self.mass < math.inf:
            raise ValueError("mass must be finite and strictly positive")

    @property
    def omega(self) -> float:
        """Angular frequency; zero for the free particle."""
        return self.potential.omega if isinstance(self.potential, Harmonic) else 0.0

    @property
    def is_harmonic(self) -> bool:
        return isinstance(self.potential, Harmonic)


def harmonic_system(mass: float, omega: float, constants: Constants | None = None) -> SystemParams:
    return SystemParams(mass, Harmonic(omega), constants or natural_units())


def free_system(mass: float, constants: Constants | None = None) -> SystemParams:
    return SystemParams(mass, Free(), constants or natural_units())


def potential_value(params: SystemParams, x):
    """V(x): m*omega^2*x^2/2 for the harmonic well, 0 for the free particle."""
    return 0.5 * params.mass * params.omega**2 * (x * x)


@dataclass(frozen=True)
class ThermalSpec:
    """Canonical-ensemble inverse temperature beta = 1/(k_B T)."""

    beta: float

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise ValueError("beta must be finite and strictly positive")

    @classmethod
    def from_kbt(cls, kbt: float) -> "ThermalSpec":
        """Build from the thermal energy k_B*T."""
        if not 0 < kbt < math.inf:
            raise ValueError("kbt must be finite and strictly positive")
        return cls(1.0 / kbt)

    @property
    def kbt(self) -> float:
        return 1.0 / self.beta


@dataclass(frozen=True)
class QuadratureConfig:
    """Window and tolerance settings for integrate_window.

    window_sigmas is the half-width of every truncated Gaussian integral in
    units of the integrand's standard deviation; 12 sigma keeps the tail below
    1e-30, far under the quadrature tolerances.
    """

    window_sigmas: float = 12.0
    rel_tol: float = 1e-10
    abs_tol: float = 1e-13

    def __post_init__(self):
        if not 6 <= self.window_sigmas < math.inf:
            raise ValueError("window_sigmas must be finite and at least 6")
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be finite and strictly positive")


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid on [lo, hi] with n points."""

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("grid requires lo < hi")
        if self.n < 3:
            raise ValueError("grid requires n >= 3")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

# Gauss-Legendre nodes per axis, tried in turn.  A Gaussian on a 12-sigma
# window is resolved to 1e-12 at 48 nodes, so the default windows stop at 96.
GL_LADDER = (12, 24, 48, 96, 192, 384)
# Box points handed to the integrand at once; bounds the memory of an N-D box.
SLAB_POINTS = 1 << 14


@functools.lru_cache(maxsize=None)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _box_rule(f: Callable, mid: np.ndarray, half: np.ndarray, n: int) -> float:
    """n-point-per-axis tensor-product Gauss-Legendre sum of f over the box."""
    nodes, weights = _legendre(n)
    total_points = n ** mid.size
    total = 0.0
    for start in range(0, total_points, SLAB_POINTS):
        flat = np.arange(start, min(start + SLAB_POINTS, total_points))
        idx = np.unravel_index(flat, (n,) * mid.size)
        coords = [mid[k] + half[k] * nodes[i] for k, i in enumerate(idx)]
        slab_weights = np.prod([weights[i] for i in idx], axis=0)
        total += float(np.dot(slab_weights, f(*coords)))
    return total * float(np.prod(half))


def integrate_window(f: Callable[..., np.ndarray], lo, hi,
                     quad: QuadratureConfig) -> tuple[float, float]:
    """Gauss-Legendre integral of f over the box [lo, hi].

    lo and hi are floats for a 1-D integral or equal-length tuples of
    per-axis bounds for an N-D box.  f takes one coordinate array per axis
    and returns the integrand at those points, broadcasting like numpy.  The
    nodes per axis double along GL_LADDER until two successive rules agree to
    max(abs_tol, rel_tol |Q|); returns (Q(2n), |Q(2n) - Q(n)|), where the
    error estimate is that of the coarser rule and so bounds the finer one's
    for an integrand the rules resolve.  Raises QuadratureFailure when the
    ladder ends first or a rule gives a non-finite value.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    prev = err = math.nan
    for n in GL_LADDER:
        value = _box_rule(f, mid, half, n)
        if not math.isfinite(value):
            raise QuadratureFailure(f"non-finite value {value} with {n} nodes per axis")
        err = abs(value - prev)
        if err <= max(quad.abs_tol, quad.rel_tol * abs(value)):
            return value, err
        prev = value
    raise QuadratureFailure(
        f"{GL_LADDER[-1]}- and {GL_LADDER[-2]}-node rules differ by {err:g}")
