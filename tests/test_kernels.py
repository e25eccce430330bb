"""Every pointwise kernel is one broadcasting expression: a float in gives a
float out, an array in gives an array of the same shape, and the two agree
exactly element by element.  density and energy_pointwise evaluate their
expression block by block (wavepacket._BLOCK elements at a time) in the one
array they return, in the same order, so they keep its bits, never write
into x and allocate nothing else the size of x; the energy's u = x - q is a
reused block-sized buffer, and a float still gives a float."""

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
BATH = uniform_bath(3, m0=1.2, omega_max=1.7, coupling=0.8, sigma=0.9, q0=0.4)

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


@pytest.mark.parametrize("kernel,is_complex", list(_cases()))
def test_array_input_is_not_modified(kernel, is_complex):
    xs = np.linspace(-2.0, 2.0, 9)
    kept = xs.copy()
    kernel(xs)
    assert np.array_equal(xs, kept)


# the one-line expressions the in-place kernels replace, term for term
def _density_expression(state, x):
    ra = state.alpha.real
    u = x - state.q
    return np.sqrt(2.0 * ra / np.pi) * np.exp(-2.0 * ra * (u * u))


def _energy_expression(state, x):
    a2, a1, a0 = wavepacket._energy_coefficients(state)
    u = x - state.q
    return a2 * (u * u) + a1 * u + a0


IN_PLACE = [(wavepacket.density, _density_expression),
            (wavepacket.energy_pointwise, _energy_expression)]


B = wavepacket._BLOCK


def _grid(state, n):
    return np.linspace(state.q - 12.0 * state.width,
                       state.q + 12.0 * state.width, n)


# sizes about the block size, and layouts whose blocks are not x's own
GRIDS = {
    "1": lambda s: _grid(s, 1),
    "B-1": lambda s: _grid(s, B - 1),
    "B": lambda s: _grid(s, B),
    "B+1": lambda s: _grid(s, B + 1),
    "3B+5": lambda s: _grid(s, 3 * B + 5),
    "2**16": lambda s: _grid(s, 2**16),
    "2-D": lambda s: _grid(s, 3 * (B + 7)).reshape(3, B + 7),
    "strided": lambda s: _grid(s, 3 * B + 5)[::3],
    "float32": lambda s: _grid(s, 3 * B + 5).astype(np.float32),
}


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("name", STATES)
@pytest.mark.parametrize("kernel,expression", IN_PLACE,
                         ids=lambda k: k.__name__)
def test_in_place_kernel_keeps_the_bits_of_its_expression(kernel, expression,
                                                          name, grid):
    """The result has the shape and dtype of x - q, and the expression's
    values in that dtype (a float32 density rounds the expression's float64
    product, as its in-place product does), and x is not written."""
    state = STATES[name]
    x = GRIDS[grid](state)
    kept = x.copy()
    values = kernel(state, x)
    dtype = (x - state.q).dtype
    assert values.dtype == dtype and values.shape == x.shape
    assert np.array_equal(values, expression(state, x).astype(dtype))
    assert np.array_equal(x, kept)
    for xf in (float(x.flat[0]), state.q, 0.37):
        value = kernel(state, xf)
        assert isinstance(value, float) and value == expression(state, xf)


@pytest.mark.parametrize("kernel", [wavepacket.density,
                                    wavepacket.energy_pointwise],
                         ids=lambda k: k.__name__)
def test_in_place_kernel_allocates_one_grid(kernel, peak_bytes):
    """density and energy_pointwise allocate the grid-sized array they
    return and block-sized buffers, where the one-line expressions take
    three grids each."""
    state = STATES["harmonic"]
    x = np.linspace(-8.0, 8.0, 2**20)
    assert peak_bytes(lambda: kernel(state, x)) <= 1.1 * x.nbytes
