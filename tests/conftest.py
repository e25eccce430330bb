import json
import subprocess
import sys
import textwrap
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


# Put before a child's source: from then on `import numpy` raises
# ModuleNotFoundError there, as where numpy is not installed.
_BLOCK_NUMPY = """
import json, sys
class _NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
sys.meta_path.insert(0, _NoNumpy())
"""


@pytest.fixture(scope="session")
def without_numpy():
    """Runs Python source, which binds `result`, in a fresh interpreter where
    numpy cannot be imported, and returns `result` through JSON (which keeps
    every float's bits).  Fails unless the child exits 0 with numpy never
    in sys.modules."""
    def without_numpy(source: str):
        epilogue = '\nprint(json.dumps([result, "numpy" in sys.modules]))\n'
        child = subprocess.run(
            [sys.executable, "-c",
             _BLOCK_NUMPY + textwrap.dedent(source) + epilogue],
            capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        result, numpy_loaded = json.loads(child.stdout.splitlines()[-1])
        assert not numpy_loaded
        return result
    return without_numpy
