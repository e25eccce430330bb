import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.strategies import floats, integers
from scipy.integrate import simpson

from bohmpart import (TruncationInsufficient, WavepacketInit, density,
                      energy_pointwise, evolve, free_system,
                      harmonic_system, phase_gradient, potential_value,
                      quantum_potential, spectral_project)
from bohmpart.core import WINDOW_SIGMAS
from bohmpart.numdiff import central_first, central_second
from bohmpart.trajectories import scaling_solution
from bohmpart.wavepacket import (_simpson_weights, default_spectral_grid, hermite_functions,
                                 packet_mean_energy_exact, total_phase,
                                 wavefunction)

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
    with pytest.raises(AttributeError):
        st.q = 2.0


# Reference values of gamma to the last bit; with w = 1.7 the harmonic times
# span more than 16 windings of the log branch
_HO_PHASE = harmonic_system(0.8, 1.7, 0.6)
_FREE_PHASE = free_system(1.3, 1.6)


@pytest.mark.parametrize("params, init, t, gamma", [
    (_HO_PHASE, WavepacketInit(0.9, -0.4, 0.55), 0.3, -0.42000232570380563),
    (_HO_PHASE, WavepacketInit(0.9, -0.4, 0.55), 2.9, -1.2351075307200596),
    (_HO_PHASE, WavepacketInit(0.9, -0.4, 0.55), 7.9, -4.196763025178523),
    (_HO_PHASE, WavepacketInit(0.9, -0.4, 0.55), 23.4, -11.673494277014672),
    (_HO_PHASE, WavepacketInit(0.9, -0.4, 0.55), 61.0, -31.300994635090643),
    (_FREE_PHASE, WavepacketInit(-0.2, 1.1, 0.4), 0.3, -0.6557491179308063),
    (_FREE_PHASE, WavepacketInit(-0.2, 1.1, 0.4), 7.9, 2.3362210139877155),
    (_FREE_PHASE, WavepacketInit(-0.2, 1.1, 0.4), 61.0, 27.025234292442413),
])
def test_gamma_reference_values(params, init, t, gamma):
    assert evolve(params, init, t).gamma == gamma
    # the pin itself is the closed form rounded to within 2 ulp
    assert abs(mpmath.mpf(gamma) - _phase_mpmath(params, init, t)) \
        <= 2 * math.ulp(gamma)


def _phase_mpmath(params, init, t):
    """The closed form of _phase at 50 digits, from the same float inputs."""
    with mpmath.workdps(50):
        hbar, m, w, x0, p0, sigma, t = map(mpmath.mpf, (
            params.hbar, params.mass, params.omega, init.x0,
            init.p0, init.sigma, t))
        s, c = mpmath.sin(w * t), mpmath.cos(w * t)
        sw = s / w if w else t
        big_t = hbar * sw / (2 * m * sigma**2)
        return (-hbar / 2 * (w * t + mpmath.atan2((big_t - s) * c,
                                                  c**2 + big_t * s))
                + (p0**2 / (2 * m) - m * w**2 * x0**2 / 2) * c * sw
                + p0 * x0 / 2 * (c**2 - s**2))


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


def _close(a, b, scale):
    return abs(a - b) <= 1e-10 * (abs(b) + scale)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(m=floats(0.1, 10.0), hbar=floats(0.1, 10.0), x0=floats(-10.0, 10.0),
       p0=floats(-10.0, 10.0), sigma=floats(0.05, 5.0), t=floats(0.0, 60.0))
def test_free_packet_is_the_omega_to_zero_limit(m, hbar, x0, p0, sigma, t):
    # at omega = 1e-9 the well departs from the free packet by terms of
    # relative order (omega t)^2 <= 4e-15
    init, x_start = WavepacketInit(x0, p0, sigma), x0 + 0.7 * sigma
    well = harmonic_system(m, 1e-9, hbar)
    free = free_system(m, hbar)
    a, b = evolve(well, init, t), evolve(free, init, t)
    assert _close(a.alpha, b.alpha, 0.0)
    assert _close(a.q, b.q, sigma)
    assert _close(a.p, b.p, hbar / sigma)
    assert _close(a.gamma, b.gamma, hbar)
    assert _close(scaling_solution(well, init, x_start, t),
                  scaling_solution(free, init, x_start, t), sigma)


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_density_peak_value():
    st = evolve(FREE, WavepacketInit(0.0, 0.0, 1.0), 0.0)
    assert density(st, 0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi))


def test_density_normalized_both_systems():
    for params in (HO, FREE):
        init = WavepacketInit(0.7, -0.6, 0.55)
        for t in np.linspace(0.0, 5.0, 21):
            st = evolve(params, init, t)
            half = WINDOW_SIGMAS * st.width
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
    hbar, m = params.hbar, params.mass
    for st, x in _random_states(params, init, 100, rng):
        fd = -hbar**2 / (2 * m) * central_second(
            lambda xx: density(st, xx) ** 0.5, x) / density(st, x) ** 0.5
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


@pytest.mark.parametrize("k_max", [0, 15, 16, 17, 160])
def test_spectral_coefficients_match_per_state_simpson(k_max):
    """Each overlap is scipy's Simpson rule of its own state's products to
    rounding: the same n products, summed in another order (2.3 eps at
    most measured here, 4.0 eps over 210 random states)."""
    init = (WavepacketInit(0.0, 0.0, math.sqrt(0.5)) if k_max == 0
            else WavepacketInit(0.8, -0.5, 0.6))  # K = 0 holds only h_0
    st = evolve(HO, init, 0.9)
    x = default_spectral_grid(HO, init, k_max)
    dec = spectral_project(st, k_max, x)
    psi = wavefunction(st, x)
    basis = hermite_functions(k_max, x)
    for k in range(k_max + 1):
        expected = complex(simpson(basis[k] * psi.real, x=x),
                           simpson(basis[k] * psi.imag, x=x))
        assert abs(dec.coefficients[k] - expected) <= 4 * np.finfo(float).eps


def test_spectral_coefficient_k_does_not_depend_on_basis_size():
    """Each coefficient is its own basis row's dot, so on a shared grid the
    K = 60 coefficients are the first 61 of K = 160 to the bit."""
    init = WavepacketInit(0.8, -0.5, 0.6)
    st = evolve(HO, init, 0.9)
    x = default_spectral_grid(HO, init, 160)
    assert np.array_equal(spectral_project(st, 60, x).coefficients,
                          spectral_project(st, 160, x).coefficients[:61])


def test_spectral_project_never_holds_the_scaled_basis_and_products(
        peak_bytes):
    """One weighted vector stands in for the scaled basis and its products
    with psi, so the peak is the unscaled K = 160 basis (5.76 MiB) and a
    few grid vectors: 5.97 MiB measured, against 7.82 MiB for blocks of 16
    scaled rows and 17.6 MiB for the whole scaled basis."""
    init = WavepacketInit(1.0, 0.5, 0.6)
    st = evolve(HO, init, 0.0)
    x = default_spectral_grid(HO, init, 160)
    assert peak_bytes(lambda: spectral_project(st, 160, x)) < 6.25 * 2**20


@pytest.mark.parametrize("basis_size", [-1, 2.5])
def test_basis_size_must_be_a_non_negative_int(basis_size):
    init = WavepacketInit(1.0, 0.5, 0.6)
    x = default_spectral_grid(HO, init, 40)
    with pytest.raises(ValueError, match="basis_size"):
        default_spectral_grid(HO, init, basis_size)
    with pytest.raises(ValueError, match="basis_size"):
        spectral_project(evolve(HO, init, 0.0), basis_size, x)


def _rounding(w: np.ndarray, y: np.ndarray) -> float:
    """eps times sum |w y|, the scale of the rounding in w @ y."""
    return np.finfo(float).eps * float(np.abs(y) @ np.abs(w))


@pytest.mark.parametrize("x, degree", [
    (np.linspace(-1.0, 2.0, 9), 3),
    # each pair of intervals of its own width, symmetric about its midpoint
    (np.cumsum([-1.0, 0.1, 0.1, 0.5, 0.5, 0.05, 0.05, 1.3, 1.3]), 3),
    # unequal intervals within a pair: a parabola per pair, degree 2 only
    (np.cumsum([-1.0, 0.1, 0.3, 0.5, 0.2, 0.05, 0.4, 1.3, 0.7]), 2),
], ids=["uniform", "non-uniform-pairs", "non-uniform"])
def test_simpson_weights_integrate_polynomials_exactly(x, degree):
    """Simpson's degree of exactness: cubics where each pair's middle
    point is its midpoint, uniform grid or not, and quadratics on any grid."""
    w = _simpson_weights(x)
    for coefficients in ([1.0], [0.3, -1.1], [0.5, 0.2, -0.9],
                         [0.4, -0.6, 1.2, 1.7])[:degree + 1]:
        poly = np.polynomial.Polynomial(coefficients)
        exact = poly.integ()(x[-1]) - poly.integ()(x[0])
        assert abs(w @ poly(x) - exact) <= 8 * _rounding(w, poly(x))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(m=floats(0.5, 2.0), w=floats(0.5, 2.0), hbar=floats(0.5, 2.0),
       x0=floats(-3.0, 3.0), p0=floats(-3.0, 3.0), sigma=floats(0.2, 2.0),
       t=floats(0.0, 10.0), k_max=integers(0, 160))
def test_simpson_weights_agree_with_scipys_simpson(m, w, hbar, x0, p0, sigma,
                                                   t, k_max):
    """w @ y is scipy.integrate.simpson(y, x=x) to rounding.  Both form each
    point's weight in a few roundings and add the same n products in
    different orders, whose rounding grows like sqrt(n), not n, in
    practice: 1.6 eps sum |w y| was measured over 210 random states, so
    8 eps leaves room, and a wrong weight would be off by O(1)."""
    params = harmonic_system(m, w, hbar)
    init = WavepacketInit(x0, p0, sigma)
    x = default_spectral_grid(params, init, k_max)
    basis = hermite_functions(k_max, math.sqrt(m * w / hbar) * x)
    psi = wavefunction(evolve(params, init, t), x)
    weights = _simpson_weights(x)
    for y in (basis * psi.real, basis * psi.imag):
        for row, expected in zip(y, simpson(y, x=x)):
            assert abs(weights @ row - expected) <= 8 * _rounding(weights, row)


def test_simpson_rejects_an_even_number_of_points():
    with pytest.raises(ValueError, match="odd number of points"):
        _simpson_weights(np.linspace(-1.0, 1.0, 800))
    st = evolve(HO, WavepacketInit(0.0, 0.0, math.sqrt(0.5)), 0.0)
    with pytest.raises(ValueError, match="odd number of points"):
        spectral_project(st, 20, np.linspace(-20.0, 20.0, 3200))


def test_spectral_truncation_error():
    init = WavepacketInit(2.0, 1.0, 0.3)
    st = evolve(HO, init, 0.0)
    with pytest.raises(TruncationInsufficient):
        spectral_project(st, 3, default_spectral_grid(HO, init, 80))


@pytest.mark.parametrize("where, error", [
    ([1400], TruncationInsufficient), ([0, -1], ValueError),
], ids=["interior-point", "endpoints"])
def test_spectral_project_refuses_a_grid_with_nan(where, error):
    """A NaN point fails the norm check and NaN endpoints the cover check,
    where either returned a NaN decomposition."""
    init = WavepacketInit(1.0, 0.5, 0.6)
    x = default_spectral_grid(HO, init, 40)
    x[where] = np.nan
    with pytest.raises(error):
        spectral_project(evolve(HO, init, 0.0), 40, x)


def test_mean_energy_matches_spectral_sum(mean_energy):
    init = WavepacketInit(0.8, -0.5, 0.6)
    st = evolve(HO, init, 0.0)
    dec = spectral_project(st, 60, default_spectral_grid(HO, init, 60))
    assert mean_energy(st) == pytest.approx(dec.mean_energy(), abs=1e-8)


def test_mean_energy_time_invariant(mean_energy):
    init = WavepacketInit(1.0, 0.3, 0.5)
    values = [mean_energy(evolve(HO, init, t))
              for t in (0.0, 0.7, 1.9, 4.3)]
    assert max(values) - min(values) < 1e-8
    assert values[0] == pytest.approx(packet_mean_energy_exact(HO, init),
                                      rel=1e-10)


def test_mean_energy_free_closed_form(mean_energy):
    sigma, p0 = 0.75, 1.3
    init = WavepacketInit(0.0, p0, sigma)
    st = evolve(FREE, init, 0.0)
    expected = p0**2 / 2 + 1.0 / (8 * sigma**2)
    assert mean_energy(st) == pytest.approx(expected, rel=1e-10)
    # and at later times the same value (free evolution conserves energy)
    assert mean_energy(evolve(FREE, init, 2.7)) == pytest.approx(
        expected, rel=1e-8)


def test_packet_mean_energy_exact_free_is_the_free_form():
    """At omega = 0 the one expression is p0^2/2m + hbar^2/(8 m sigma^2) to
    the last bit."""
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m, hbar = rng.uniform(0.1, 10.0, size=2)
        init = WavepacketInit(*rng.normal(0.0, 3.0, size=2),
                              rng.uniform(0.05, 5.0))
        free = free_system(m, hbar)
        assert packet_mean_energy_exact(free, init) == \
            init.p0**2 / (2.0 * m) + hbar**2 / (8.0 * m * init.sigma**2)


def test_spectral_functions_require_a_harmonic_system():
    init = WavepacketInit(0.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="harmonic"):
        default_spectral_grid(FREE, init, 20)
    with pytest.raises(ValueError, match="harmonic"):
        spectral_project(evolve(FREE, init, 0.0), 20,
                         default_spectral_grid(HO, init, 20))
