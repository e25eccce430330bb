"""Harmonic-bath crossover: memory kernel and bath partition functions.

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

The per-oscillator factor, ratio and temperature bound are partition's
gaussian_correction, quantum_ratio and classicality_criterion.  A variant
with an extra 2 pi per oscillator is retained alongside the exact factor
because it circulates in closed-form write-ups; the verification suite
compares both against partition.unified_integral, one 3D quadrature per
oscillator, to pin down which one the integral actually gives.
"""

from __future__ import annotations

import math

from .core import (ThermalSpec, _finite_positive, check_scale, functions_of,
                   np, record)
from .partition import gaussian_correction, quantum_ratio


@record
class Oscillator:
    mass: float
    omega: float
    coupling: float

    def __post_init__(self):
        check_scale("oscillator mass", self.mass)
        check_scale("oscillator omega", self.omega)
        if not abs(self.coupling) <= 1e75:  # so c^2/omega^2 <= 1e300
            raise ValueError(f"oscillator coupling = {self.coupling:g} lies "
                             "outside [-1e+75, 1e+75]")


@record
class BathSpec:
    """N oscillators, the shared packet width, and the tagged position q(0)."""

    oscillators: tuple[Oscillator, ...]
    sigma: float = 1.0
    q0: float = 0.0

    def __post_init__(self):
        if not self.oscillators:
            raise ValueError("bath must contain at least one oscillator")
        check_scale("sigma", self.sigma)
        if not math.isfinite(self.q0):
            raise ValueError("q0 must be finite")

    @property
    def size(self) -> int:
        return len(self.oscillators)


def uniform_bath(n: int = 1, m0: float = 1.0, omega_max: float = 1.0,
                 coupling: float = 1.0, **well: float) -> BathSpec:
    """Convenience bath: equal masses, linear frequency and coupling grids;
    `well` (sigma, q0) goes to BathSpec as it is."""
    oscillators = tuple(Oscillator(m0, omega_max * k / n, coupling * k / n)
                        for k in range(1, n + 1))
    return BathSpec(oscillators, **well)


def memory_kernel(bath: BathSpec, t) -> float | np.ndarray:
    """Friction kernel nu(t) = sum_a (c_a^2 / w_a^2) cos(w_a t).

    A float t gives a float on math alone, bit for bit the element an array
    gives; an array of times gives an array of the same shape
    (core.functions_of).  A non-finite time is a ValueError.
    """
    fn = functions_of(t)
    if not fn.all(fn.isfinite(t)):
        raise ValueError("t must be finite")
    return sum((o.coupling**2 / o.omega**2) * fn.cos(o.omega * t)
               for o in bath.oscillators)


def classical_bath_Z(bath: BathSpec, thermal: ThermalSpec) -> float:
    """Z_B = prod_a 2 pi / (beta w_a), raw measure; ValueError where the
    product leaves the range of a double.  Oracle: phase_space_integral per
    oscillator, whose value the coupling's shift c_a q0 / w_a^2 leaves alone.
    """
    val = 1.0
    for o in bath.oscillators:
        beta_omega = thermal.beta * o.omega  # 0.0 where it underflows
        val *= 2.0 * math.pi / beta_omega if beta_omega else math.inf
    return _finite_positive("z_b", val)


def unified_bath_Z(bath: BathSpec, thermal: ThermalSpec, hbar: float
                   ) -> tuple[float, float]:
    """Bath partition function with the hidden coordinates integrated out.

    Returns (exact, with_2pi): the exact result multiplies Z_B by
    gaussian_correction = (1 - r_a)^(-1/2) exp(-r_a) per oscillator;
    with_2pi carries an extra 2 pi per oscillator and is reported only for
    the discrepancy ledger.  Oracle: partition.unified_integral per
    oscillator, centred at c_a q0 / w_a^2.  DivergentIntegral from the
    first oscillator whose ratio is >= 1; ValueError where Z_B, the product
    of the factors or either result leaves the range of a double.
    """
    z_b = classical_bath_Z(bath, thermal)
    factor = 1.0
    for o in bath.oscillators:
        factor *= gaussian_correction(o.mass, bath.sigma, thermal, hbar)
    _finite_positive("correction_factor", factor)
    try:
        per_2pi = (2.0 * math.pi) ** bath.size
    except OverflowError:
        per_2pi = math.inf
    return (_finite_positive("z_b_unified_exact", z_b * factor),
            _finite_positive("z_b_unified_with_2pi", z_b * factor * per_2pi))


def large_N_ratio(n: int, m0: float, sigma: float, thermal: ThermalSpec,
                  hbar: float) -> tuple[float, float, float]:
    """Uniform-mass large-N approximation vs the exact product factor.

    Returns (approx, exact, rel_err) for Z'_B / Z_B:
        approx  = exp(-N r)
        exact   = gaussian_correction^N = [(1 - r)^(-1/2) exp(-r)]^N
        rel_err = |approx - exact| / exact = |1 - (1 - r)^(N/2)|.
    DivergentIntegral at r >= 1.
    """
    r = quantum_ratio(m0, sigma, thermal, hbar)
    approx = math.exp(-n * r)
    exact = gaussian_correction(m0, sigma, thermal, hbar) ** n
    return approx, exact, abs(approx - exact) / exact
