import math

import numpy as np
import pytest

from bohmpart import (Constants, Free, Grid1D, Harmonic, QuadratureConfig,
                      QuadratureFailure, SystemParams, ThermalSpec,
                      WavepacketInit, free_system, harmonic_system,
                      natural_units, potential_value)
from bohmpart.core import integrate_window
from bohmpart.partition import marginal_curve


def test_natural_units_defaults():
    c = natural_units()
    assert c.hbar == 1.0 and c.boltzmann == 1.0


def test_constants_override_and_validation():
    c = Constants(2.0, 1.0)
    assert c.hbar == 2.0
    with pytest.raises(ValueError):
        Constants(-1.0, 1.0)
    with pytest.raises(ValueError):
        Constants(1.0, 0.0)


def test_boltzmann_weights_invariant_under_energy_rescale():
    # scaling every energy by lam and beta by 1/lam leaves exp(-beta E) fixed
    lam = 3.7
    energies = np.array([0.3, 1.1, 4.2])
    beta = 0.8
    w1 = np.exp(-beta * energies)
    w2 = np.exp(-(beta / lam) * (lam * energies))
    assert np.allclose(w1, w2, rtol=0, atol=0)


def test_potential_values():
    assert potential_value(harmonic_system(1.0, 1.0), 0.0) == 0.0
    assert potential_value(harmonic_system(1.0, 2.0), 1.0) == pytest.approx(2.0)
    assert potential_value(free_system(1.0), 5.0) == 0.0


def test_potential_even_in_x():
    params = harmonic_system(1.3, 0.7)
    xs = np.linspace(0.1, 5.0, 23)
    assert np.allclose(potential_value(params, xs), potential_value(params, -xs))


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(-1.0, Free())
    with pytest.raises(ValueError):
        Harmonic(0.0)
    with pytest.raises(ValueError):
        ThermalSpec(0.0)
    with pytest.raises(ValueError):
        WavepacketInit(0.0, 0.0, -0.5)


def test_thermal_spec_kbt_roundtrip():
    th = ThermalSpec.from_kbt(2.0)
    assert th.beta == 0.5 and th.kbt == 2.0


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(window_sigmas=4.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)


def test_grid1d():
    g = Grid1D(-1.0, 1.0, 5)
    assert np.allclose(g.points, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert g.spacing == pytest.approx(0.5)
    with pytest.raises(ValueError):
        Grid1D(1.0, -1.0, 5)
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 2)


def test_integrate_window_gaussian():
    quad = QuadratureConfig()
    cases = [
        (integrate_window(lambda x: np.exp(-x * x), -12.0, 12.0, quad),
         math.sqrt(math.pi)),
        (integrate_window(lambda x, y: np.exp(-x * x - y * y),
                          (-12.0, -12.0), (12.0, 12.0), quad), math.pi),
        (integrate_window(lambda x, y, z: np.exp(-x * x - y * y - z * z),
                          (-12.0,) * 3, (12.0,) * 3, quad), math.pi**1.5),
    ]
    for (val, err), exact in cases:
        assert val == pytest.approx(exact, rel=1e-12)
        assert err >= abs(val - exact)


def test_integrate_window_failure_on_exhausted_subdivisions():
    # 3000 oscillations on the window: no rule of the ladder resolves them
    with pytest.raises(QuadratureFailure):
        integrate_window(lambda x: np.cos(200.0 * x * x), 0.0, 10.0,
                         QuadratureConfig())


def test_integrate_window_failure_on_non_finite_integrand():
    with pytest.raises(QuadratureFailure):
        integrate_window(lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0,
                         QuadratureConfig())


def test_unit_system_invariance_of_marginal_curve(quad):
    # same physics in two unit systems: hbar -> 2 hbar rescales the action,
    # so m -> 2m, p0 -> 2 p0, beta -> beta/2 with sigma, omega, x0 unchanged
    times = np.linspace(0.0, 2.0 * math.pi, 9)
    base = marginal_curve(
        harmonic_system(1.0, 1.0, Constants(1.0, 1.0)),
        WavepacketInit(1.0, 0.3, 0.45), ThermalSpec(0.5), times, quad)
    scaled = marginal_curve(
        harmonic_system(2.0, 1.0, Constants(2.0, 1.0)),
        WavepacketInit(1.0, 0.6, 0.45), ThermalSpec(0.25), times, quad)
    assert np.allclose(base.values, scaled.values, rtol=quad.rel_tol * 100)
