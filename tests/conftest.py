import tracemalloc

import pytest

from bohmpart import (WavepacketInit, density, energy_pointwise,
                      harmonic_system)
from bohmpart.core import WINDOW_SIGMAS, integrate_window


@pytest.fixture(scope="session")
def ho_params():
    return harmonic_system(1.0, 1.0)


@pytest.fixture(scope="session")
def fig_init():
    return WavepacketInit(x0=1.0, p0=0.0, sigma=0.45)


@pytest.fixture(scope="session")
def mean_energy():
    """<H> = integral of P(x,t) E(x,t) dx by Gauss-Legendre quadrature, the
    test-side reference for packet_mean_energy_exact and the spectral sums
    sum |c_k|^2 E_k."""
    def mean_energy(state) -> float:
        half = WINDOW_SIGMAS * state.width
        val, _ = integrate_window(
            lambda x: density(state, x) * energy_pointwise(state, x),
            state.q - half, state.q + half)
        return val
    return mean_energy


@pytest.fixture(scope="session")
def peak_bytes():
    """The most memory, in bytes, that tracemalloc sees in use during a call."""
    def peak_bytes(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak_bytes
