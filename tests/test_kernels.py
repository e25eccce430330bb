"""Every pointwise kernel is one broadcasting expression: a float in gives a
float out, an array in gives an array of the same shape, and the two agree
exactly element by element."""

import numpy as np
import pytest

from bohmpart import (WavepacketInit, evolve, free_system, harmonic_system,
                      uniform_bath)
from bohmpart import bath, core, trajectories, verify, wavepacket

HBAR = 0.7
SYSTEMS = {
    "harmonic": (harmonic_system(1.3, 0.8, HBAR), WavepacketInit(0.9, -0.4, 0.55)),
    "free": (free_system(0.9, HBAR), WavepacketInit(-0.2, 1.1, 0.4)),
}
STATES = {name: evolve(params, init, 0.63) for name, (params, init) in SYSTEMS.items()}
BATH = uniform_bath(3, m0=1.2, omega_max=1.7, coupling_scale=0.8, sigma=0.9, q0=0.4)

STATE_KERNELS = [
    wavepacket.density, wavepacket._log_density, wavepacket.amplitude,
    wavepacket.total_phase, wavepacket.wavefunction, wavepacket.phase_gradient,
    wavepacket.quantum_potential, wavepacket.energy_pointwise,
    wavepacket._log_density_dt, wavepacket.energy_dt,
    trajectories.quantum_force, verify.energy_center_potential_variant,
]
PARAMS_KERNELS = [core.potential_value]


def _cases():
    for kernel in STATE_KERNELS:
        for name, state in STATES.items():
            yield pytest.param(lambda x, k=kernel, s=state: k(s, x),
                               kernel is wavepacket.wavefunction,
                               id=f"{kernel.__name__}-{name}")
    for kernel in PARAMS_KERNELS:
        for name, (params, _) in SYSTEMS.items():
            yield pytest.param(lambda x, k=kernel, p=params: k(p, x), False,
                               id=f"{kernel.__name__}-{name}")
    for name, (params, init) in SYSTEMS.items():
        yield pytest.param(
            lambda t, p=params, i=init: trajectories.scaling_solution(p, i, 1.3, t),
            False, id=f"scaling_solution-{name}")
    yield pytest.param(lambda t: bath.memory_kernel(BATH, t), False,
                       id="memory_kernel")


@pytest.mark.parametrize("kernel,is_complex", list(_cases()))
def test_scalar_call_matches_array_element(kernel, is_complex):
    xs = np.array([[-1.3, 0.0, 0.25], [0.9, 2.1, -0.45]])
    values = kernel(xs)
    assert isinstance(values, np.ndarray) and values.shape == xs.shape
    for idx in np.ndindex(xs.shape):
        scalar = kernel(float(xs[idx]))
        assert isinstance(scalar, complex if is_complex else float)
        assert not isinstance(scalar, np.ndarray)
        assert scalar == values[idx]


@pytest.mark.parametrize("kernel", PARAMS_KERNELS, ids=lambda k: k.__name__)
def test_free_particle_potential_and_force_vanish(kernel):
    params = SYSTEMS["free"][0]
    xs = np.linspace(-3.0, 3.0, 7)
    assert np.all(kernel(params, xs) == 0.0)
    assert all(kernel(params, float(x)) == 0.0 for x in xs)
