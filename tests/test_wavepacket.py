import math

import numpy as np
import pytest
from scipy.integrate import simpson

from bohmpart import (TruncationInsufficient, WavepacketInit, density,
                      energy_pointwise, evolve, free_system, harmonic_system,
                      mean_energy, phase_gradient, potential_value,
                      quantum_potential, spectral_project)
from bohmpart.numdiff import central_first, central_second
from bohmpart.wavepacket import (amplitude, default_spectral_grid,
                                 hermite_functions, packet_mean_energy_exact,
                                 total_phase, wavefunction)

HO = harmonic_system(1.0, 1.0)
FREE = free_system(1.0)


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def test_evolve_initial_condition():
    st = evolve(HO, WavepacketInit(1.0, 0.0, 0.5), 0.0)
    assert st.q == pytest.approx(1.0)
    assert st.p == pytest.approx(0.0)
    assert st.alpha == pytest.approx(1.0)  # 1/(4 sigma^2) with sigma = 0.5


def test_evolve_coherent_width_constant():
    # sigma^2 = hbar/(2 m w) = 0.5 keeps Re alpha = 0.5 at all times
    init = WavepacketInit(1.0, 0.0, math.sqrt(0.5))
    for t in np.linspace(0.0, 2.0 * math.pi, 21):
        st = evolve(HO, init, t)
        assert st.alpha.real == pytest.approx(0.5, rel=1e-12)
        assert abs(st.alpha.imag) < 1e-12


def test_evolve_quarter_period():
    st = evolve(HO, WavepacketInit(1.0, 0.0, 0.5), math.pi / 2)
    assert st.q == pytest.approx(0.0, abs=1e-15)
    assert st.p == pytest.approx(-1.0)


def test_evolve_free_center():
    st = evolve(FREE, WavepacketInit(0.0, 2.0, 1.0), 3.0)
    assert st.q == pytest.approx(6.0)
    assert st.p == pytest.approx(2.0)


def test_evolve_rejects_nonfinite_time():
    with pytest.raises(ValueError):
        evolve(HO, WavepacketInit(0.0, 0.0, 1.0), math.inf)


def test_harmonic_width_has_half_period():
    init = WavepacketInit(0.3, -0.2, 0.45)
    for t in np.linspace(0.0, math.pi, 11):
        a = evolve(HO, init, t).alpha
        b = evolve(HO, init, t + math.pi).alpha
        assert a.real == pytest.approx(b.real, rel=1e-12)
        assert a.imag == pytest.approx(b.imag, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_density_peak_value():
    st = evolve(FREE, WavepacketInit(0.0, 0.0, 1.0), 0.0)
    assert density(st, 0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi))


def test_density_normalized_both_systems(quad):
    for params in (HO, FREE):
        init = WavepacketInit(0.7, -0.6, 0.55)
        for t in np.linspace(0.0, 5.0, 21):
            st = evolve(params, init, t)
            half = quad.window_sigmas * st.width
            xs = np.linspace(st.q - half, st.q + half, 4001)
            total = np.trapezoid(density(st, xs), xs)
            assert total == pytest.approx(1.0, abs=1e-10)


def test_free_density_spreads_to_double_variance():
    # at tau = hbar t/(2 m sigma^2) = 1 the variance doubles
    sigma = 0.8
    t = 2.0 * sigma**2  # m = hbar = 1
    st = evolve(FREE, WavepacketInit(0.0, 1.0, sigma), t)
    peak = density(st, st.q)
    assert peak == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * 2.0 * sigma**2),
                                 rel=1e-12)


# ---------------------------------------------------------------------------
# phase gradient
# ---------------------------------------------------------------------------

def test_phase_gradient_at_center_gives_packet_momentum():
    for params in (HO, FREE):
        init = WavepacketInit(0.5, 1.5, 0.6)
        for t in (0.0, 0.9, 2.3):
            st = evolve(params, init, t)
            assert phase_gradient(st, st.q) == pytest.approx(st.p, abs=1e-14)


def test_phase_gradient_free_initial_time_uniform():
    st = evolve(FREE, WavepacketInit(0.0, 1.7, 0.8), 0.0)
    xs = np.linspace(-3.0, 3.0, 7)
    assert np.allclose(phase_gradient(st, xs), 1.7)


def test_phase_gradient_coherent_uniform_at_all_times():
    init = WavepacketInit(1.0, 0.4, math.sqrt(0.5))
    for t in (0.3, 1.2, 4.0):
        st = evolve(HO, init, t)
        xs = st.q + np.linspace(-2.0, 2.0, 9)
        assert np.allclose(phase_gradient(st, xs), st.p, atol=1e-12)


# ---------------------------------------------------------------------------
# quantum potential and pointwise energy vs oracles
# ---------------------------------------------------------------------------

def _random_states(params, init, n, rng, t_hi=6.0):
    for _ in range(n):
        t = rng.uniform(0.0, t_hi)
        st = evolve(params, init, t)
        x = st.q + rng.uniform(-2.5, 2.5) * st.width
        yield st, x


def test_quantum_potential_closed_forms():
    st = evolve(HO, WavepacketInit(1.0, 0.0, 0.5), 0.0)
    assert quantum_potential(st, 1.0) == pytest.approx(1.0)  # hbar^2/(4 m sigma^2)
    sigma = 0.7
    st = evolve(FREE, WavepacketInit(0.2, 0.0, sigma), 0.0)
    for x in (0.2, 0.9, -1.3):
        expected = 1.0 / (4 * sigma**2) - (x - 0.2) ** 2 / (8 * sigma**4)
        assert quantum_potential(st, x) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("params,init", [
    (HO, WavepacketInit(1.0, 0.5, 0.45)),
    (FREE, WavepacketInit(0.3, 1.2, 0.6)),
])
def test_quantum_potential_matches_finite_difference(params, init):
    rng = np.random.default_rng(42)
    hbar, m = params.constants.hbar, params.mass
    for st, x in _random_states(params, init, 100, rng):
        fd = -hbar**2 / (2 * m) * central_second(
            lambda xx: amplitude(st, xx), x) / amplitude(st, x)
        cf = quantum_potential(st, x)
        scale = hbar**2 * st.alpha.real / m
        assert abs(fd - cf) / max(abs(cf), scale) < 1e-6


def test_energy_closed_forms():
    # free packet at its center: kinetic of the center plus the Q constant
    sigma, p0 = 0.6, 1.1
    st = evolve(FREE, WavepacketInit(0.4, p0, sigma), 0.0)
    assert energy_pointwise(st, 0.4) == pytest.approx(
        p0**2 / 2 + 1.0 / (4 * sigma**2), rel=1e-12)
    # coherent harmonic packet at its center: classical energy + hbar w/2
    init = WavepacketInit(1.0, 0.7, math.sqrt(0.5))
    for t in (0.0, 0.8, 2.9):
        st = evolve(HO, init, t)
        expected = st.p**2 / 2 + st.q**2 / 2 + 0.5
        assert energy_pointwise(st, st.q) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("params,init", [
    (HO, WavepacketInit(1.0, 0.5, 0.45)),
    (FREE, WavepacketInit(0.3, 1.2, 0.6)),
])
def test_energy_matches_minus_dS_dt(params, init):
    rng = np.random.default_rng(43)
    m = params.mass
    for st, x in _random_states(params, init, 100, rng):
        fd = -central_first(lambda tt: total_phase(evolve(params, init, tt), x),
                            st.t)
        cf = energy_pointwise(st, x)
        scale = (st.p**2 / (2 * m) + st.alpha.real / m
                 + abs(potential_value(params, st.q)) + 0.1)
        assert abs(fd - cf) / max(abs(cf), scale) < 1e-6


@pytest.mark.parametrize("params,init", [
    (HO, WavepacketInit(1.0, 0.5, 0.45)),
    (FREE, WavepacketInit(0.3, 1.2, 0.6)),
])
def test_quantum_hamilton_jacobi_residual(params, init):
    rng = np.random.default_rng(44)
    m = params.mass
    for st, x in _random_states(params, init, 100, rng):
        residual = energy_pointwise(st, x) - (
            phase_gradient(st, x) ** 2 / (2 * m)
            + potential_value(params, x) + quantum_potential(st, x))
        assert abs(residual) < 1e-9


def test_free_initial_energy_profile_never_recurs():
    # the quadratic coefficient of E(., t) only matches its t=0 value at t=0
    from bohmpart.wavepacket import _energy_coefficients
    init = WavepacketInit(0.0, 1.0, 0.7)
    a2_start = _energy_coefficients(evolve(FREE, init, 0.0))[0]
    for t in np.linspace(0.01, 8.0, 60):
        a2 = _energy_coefficients(evolve(FREE, init, t))[0]
        assert a2 > a2_start


# ---------------------------------------------------------------------------
# spectral projection and mean energy
# ---------------------------------------------------------------------------

def test_spectral_ground_state_projection():
    init = WavepacketInit(0.0, 0.0, math.sqrt(0.5))
    st = evolve(HO, init, 0.0)
    dec = spectral_project(st, 20, default_spectral_grid(HO, init, 20))
    assert abs(dec.coefficients[0]) == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.abs(dec.coefficients[1:]) < 1e-10)


def test_spectral_coherent_state_poisson_weights():
    # coherent displacement x0 = sqrt(2) gives Poisson weights with mean 1
    init = WavepacketInit(math.sqrt(2.0), 0.0, math.sqrt(0.5))
    st = evolve(HO, init, 0.0)
    k_max = 40
    dec = spectral_project(st, k_max, default_spectral_grid(HO, init, k_max))
    lam = 1.0
    expected = np.array([math.exp(-lam) * lam**k / math.factorial(k)
                         for k in range(k_max + 1)])
    assert np.max(np.abs(dec.weights - expected)) < 1e-8
    assert dec.mean_energy() == pytest.approx(1.5, abs=1e-8)


def test_spectral_coefficients_match_per_state_simpson():
    # one 2-D simpson call gives each state's overlap exactly as its own call
    init = WavepacketInit(0.8, -0.5, 0.6)
    st = evolve(HO, init, 0.9)
    grid = default_spectral_grid(HO, init, 30)
    dec = spectral_project(st, 30, grid)
    x = grid.points
    psi = wavefunction(st, x)
    basis = hermite_functions(30, x)
    for k in range(31):
        assert dec.coefficients[k] == complex(simpson(basis[k] * psi.real, x=x),
                                              simpson(basis[k] * psi.imag, x=x))


def test_spectral_truncation_error():
    init = WavepacketInit(2.0, 1.0, 0.3)
    st = evolve(HO, init, 0.0)
    with pytest.raises(TruncationInsufficient):
        spectral_project(st, 3, default_spectral_grid(HO, init, 80))


def test_mean_energy_matches_spectral_sum(quad):
    init = WavepacketInit(0.8, -0.5, 0.6)
    st = evolve(HO, init, 0.0)
    dec = spectral_project(st, 60, default_spectral_grid(HO, init, 60))
    assert mean_energy(st, quad) == pytest.approx(dec.mean_energy(), abs=1e-8)


def test_mean_energy_time_invariant(quad):
    init = WavepacketInit(1.0, 0.3, 0.5)
    values = [mean_energy(evolve(HO, init, t), quad)
              for t in (0.0, 0.7, 1.9, 4.3)]
    assert max(values) - min(values) < 1e-8
    assert values[0] == pytest.approx(packet_mean_energy_exact(HO, init),
                                      rel=1e-10)


def test_mean_energy_free_closed_form(quad):
    sigma, p0 = 0.75, 1.3
    init = WavepacketInit(0.0, p0, sigma)
    st = evolve(FREE, init, 0.0)
    expected = p0**2 / 2 + 1.0 / (8 * sigma**2)
    assert mean_energy(st, quad) == pytest.approx(expected, rel=1e-10)
    # and at later times the same value (free evolution conserves energy)
    assert mean_energy(evolve(FREE, init, 2.7), quad) == pytest.approx(
        expected, rel=1e-8)
