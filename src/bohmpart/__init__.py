"""Phase-space partition functions for Gaussian wavepackets.

Closed-form Gaussian packet dynamics (harmonic and free), Bohmian
trajectories of the resulting flow, and the family of partition functions
that interpolates between the quantum eigenvalue sum and the classical
phase-space integral, including the harmonic-bath crossover factors.
"""

from .core import (DivergentIntegral, QuadratureFailure, StepFailure,
                   SystemParams, ThermalSpec, TruncationInsufficient,
                   free_system, harmonic_system, potential_value)
from .wavepacket import (WavepacketInit, WavepacketState, density,
                         energy_pointwise, evolve, phase_gradient,
                         quantum_potential, spectral_project)
from .trajectories import (RK4Fixed, RK45Adaptive, TrajectoryConfig,
                           bohmian_velocity, equivariance_check, integrate,
                           quantum_force)
from .partition import (CriterionReport, classical_Z, classicality_criterion,
                        gaussian_correction, gaussian_correction_integral,
                        marginal_Z, marginal_Z_derivative, marginal_curve,
                        phase_space_integral, quantum_Z, unified_Z_gaussian,
                        unified_integral)
from .bath import (BathSpec, Oscillator, classical_bath_Z, large_N_ratio,
                   memory_kernel, unified_bath_Z, uniform_bath)

__version__ = "0.1.0"
