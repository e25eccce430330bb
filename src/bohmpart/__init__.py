"""Phase-space partition functions for Gaussian wavepackets.

Closed-form Gaussian packet dynamics (harmonic and free), Bohmian
trajectories of the resulting flow, and the family of partition functions
that interpolates between the quantum eigenvalue sum and the classical
phase-space integral, including the harmonic-bath crossover factors.

`import bohmpart` loads no submodule: each name is read from its submodule,
imported on first use, at every access (PEP 562) and never kept here.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULE_OF = {name: module for module, names in {
    "core": "DivergentIntegral QuadratureFailure StepFailure SystemParams "
            "ThermalSpec TruncationInsufficient free_system harmonic_system "
            "potential_value",
    "wavepacket": "WavepacketInit WavepacketState density energy_pointwise "
                  "evolve phase_gradient quantum_potential spectral_project",
    "trajectories": "RK4Fixed RK45Adaptive TrajectoryConfig bohmian_velocity "
                    "equivariance_check integrate quantum_force",
    "partition": "CriterionReport classical_Z classicality_criterion "
                 "gaussian_correction marginal_Z marginal_Z_derivative "
                 "marginal_curve phase_space_integral quantum_Z "
                 "unified_Z_gaussian unified_integral",
    "bath": "BathSpec Oscillator classical_bath_Z large_N_ratio memory_kernel "
            "unified_bath_Z uniform_bath",
}.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
