import pytest

from bohmpart import WavepacketInit, harmonic_system


@pytest.fixture(scope="session")
def ho_params():
    return harmonic_system(1.0, 1.0)


@pytest.fixture(scope="session")
def fig_init():
    return WavepacketInit(x0=1.0, p0=0.0, sigma=0.45)
