import math
import sys
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bohmpart import (BathSpec, DivergentIntegral, Oscillator,
                      QuadratureFailure, ThermalSpec, WavepacketInit,
                      classical_Z, classicality_criterion, energy_pointwise,
                      evolve, free_system, gaussian_correction,
                      gaussian_correction_integral, harmonic_system,
                      marginal_Z, marginal_Z_derivative, marginal_curve,
                      phase_space_integral, quantum_Z, unified_bath_Z,
                      unified_integral, unified_Z_gaussian)
from bohmpart import core, partition
from bohmpart.core import (REL_TOL, SLAB_POINTS, WINDOW_SIGMAS,
                           _finite_positive, integrate_window)
from bohmpart.numdiff import central_first, central_second
from bohmpart.partition import quantum_ratio, quantum_Z_closed_form
from bohmpart.wavepacket import (_energy_coefficients, _log_density,
                                 _log_density_dt, energy_dt)

HO = harmonic_system(1.0, 1.0)


# ---------------------------------------------------------------------------
# classical and quantum Z
# ---------------------------------------------------------------------------

def test_classical_Z_closed_form():
    assert classical_Z(HO, ThermalSpec(1.0)) == pytest.approx(1.0)
    params = harmonic_system(1.0, 2.0)
    assert classical_Z(params, ThermalSpec(1.0)) == pytest.approx(0.5)


def test_classical_Z_quadrature_agrees():
    for beta, m, w in [(1.0, 1.0, 1.0), (0.7, 2.3, 1.6)]:
        params = harmonic_system(m, w)
        th = ThermalSpec(beta)
        cf = classical_Z(params, th)
        raw, err = phase_space_integral(m, w, th)
        # raw measure dx dp against dGamma = dx dp / (2 pi hbar)
        assert raw / (2.0 * math.pi) == pytest.approx(cf, rel=1e-10)
        assert err <= REL_TOL * raw


def test_classical_Z_free_diverges():
    with pytest.raises(DivergentIntegral):
        classical_Z(free_system(1.0), ThermalSpec(1.0))


def test_quantum_Z_matches_closed_form_over_range():
    for x in (0.01, 0.1, 1.0, 5.0, 20.0, 50.0):
        params = harmonic_system(1.0, x)  # beta hbar w = x with beta = 1
        th = ThermalSpec(1.0)
        value, _ = quantum_Z(params, th)
        assert value == pytest.approx(quantum_Z_closed_form(params, th),
                                      rel=1e-10)


def test_quantum_Z_ground_state_dominance():
    params = harmonic_system(1.0, 50.0)
    value, tail = quantum_Z(params, ThermalSpec(1.0))
    assert value == pytest.approx(math.exp(-25.0), rel=1e-14)
    # analytic tail of the eigensum: below 1e-20 relative
    assert tail / value < 1e-20


def test_quantum_classical_limit_chain():
    # Z_q/Z_cl = x/(2 sinh(x/2)) = 1 - x^2/24 + O(x^4)
    errors = []
    for x in (0.1, 0.01, 0.001):
        params = harmonic_system(1.0, x)
        th = ThermalSpec(1.0)
        ratio = quantum_Z(params, th)[0] / classical_Z(params, th)
        assert ratio <= 1.0
        errors.append(1.0 - ratio)
    assert errors[0] / errors[1] == pytest.approx(100.0, rel=0.05)
    assert errors[1] / errors[2] == pytest.approx(100.0, rel=0.05)


def test_partition_result_validation():
    # every closed-form Z leaves through the one check, which names it
    for bad in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="z_unified"):
            _finite_positive("z_unified", bad)
    assert _finite_positive("z_unified", 5e-324) == 5e-324


# ---------------------------------------------------------------------------
# Gaussian correction factor
# ---------------------------------------------------------------------------

def test_gaussian_correction_value_vs_quadrature():
    th = ThermalSpec(1.0)  # ratio = 0.25
    cf = gaussian_correction(1.0, 1.0, th)
    qd, _ = gaussian_correction_integral(1.0, 1.0, th, 1.0)
    assert cf == pytest.approx(math.exp(-0.25) / math.sqrt(0.75), rel=1e-14)
    assert qd == pytest.approx(cf, rel=1e-8)


def test_gaussian_correction_classical_limit():
    th = ThermalSpec(4e-8)  # ratio = 1e-8 with m = sigma = hbar = 1
    assert abs(gaussian_correction(1.0, 1.0, th) - 1.0) < 2e-8


def test_gaussian_correction_divergence_threshold():
    with pytest.raises(DivergentIntegral):
        gaussian_correction(1.0, 0.5, ThermalSpec(1.0))  # ratio = 1 exactly
    with pytest.raises(DivergentIntegral):
        gaussian_correction(1.0, 0.5, ThermalSpec(1.2))


def test_gaussian_correction_threshold_grid():
    # ratio = beta/4: diverges exactly when beta >= 4 (m = sigma = hbar = 1)
    for beta in np.linspace(3.0, 5.0, 20):
        th = ThermalSpec(float(beta))
        if beta >= 4.0:
            with pytest.raises(DivergentIntegral):
                gaussian_correction(1.0, 1.0, th)
        else:
            assert gaussian_correction(1.0, 1.0, th) > 0.0


def test_gaussian_correction_log_slope():
    # log C = -r - log(1-r)/2 = -r/2 + O(r^2): leading coefficient -1/2
    r = 1e-3
    th = ThermalSpec(4.0 * r)
    slope = math.log(gaussian_correction(1.0, 1.0, th)) / r
    assert slope == pytest.approx(-0.5, rel=0.05)


# ---------------------------------------------------------------------------
# unified Z
# ---------------------------------------------------------------------------

def test_unified_Z_closed_vs_nested_quadrature():
    th = ThermalSpec(1.0)
    cf = unified_Z_gaussian(HO, 1.0, th)
    raw, _ = unified_integral(1.0, 1.0, 1.0, th, 1.0)
    assert cf == pytest.approx(
        classical_Z(HO, th) * gaussian_correction(1.0, 1.0, th),
        rel=1e-14)
    assert raw / (2.0 * math.pi) == pytest.approx(cf, rel=1e-7)


def test_unified_Z_depends_only_on_m_sigma_squared():
    th = ThermalSpec(1.0)
    ratios = []
    for sigma in (1.0, 0.5, 0.25):
        params = harmonic_system(1.0 / sigma**2, 1.0)
        z_u = unified_Z_gaussian(params, sigma, th)
        z_cl = classical_Z(params, th)
        ratios.append(z_u / z_cl)
    assert max(ratios) - min(ratios) < 1e-12


def test_unified_Z_ratio_tends_to_one():
    th = ThermalSpec(1.0)
    z_u = unified_Z_gaussian(HO, 100.0, th)
    z_cl = classical_Z(HO, th)
    assert z_u / z_cl == pytest.approx(1.0, abs=1e-4)


def test_unified_Z_free_diverges():
    with pytest.raises(DivergentIntegral):
        unified_Z_gaussian(free_system(1.0), 1.0, ThermalSpec(1.0))


# ---------------------------------------------------------------------------
# marginal Z
# ---------------------------------------------------------------------------

def test_marginal_curve_normalized_at_zero(ho_params, fig_init):
    times = np.linspace(0.0, 2.0, 5)
    th = ThermalSpec.from_kbt(2.0)
    values = marginal_curve(ho_params, fig_init, th, times)
    assert values[0] == 1.0  # exact, by construction
    raw = marginal_curve(ho_params, fig_init, th, times, normalized=False)
    assert raw[0] == marginal_Z(ho_params, fig_init, th, 0.0)
    assert np.array_equal(values, raw / raw[0])


@pytest.mark.parametrize("samples", [1, 41, 42, 43, 400])
def test_marginal_curve_samples_are_marginal_Z_bit_for_bit(samples):
    """A curve integrates its samples MARGINAL_CHUNK (42) to a ladder, yet
    each raw sample is the marginal_Z of its time, on both sides of every
    chunk boundary, for seeded harmonic and free packets, and the scalar
    quadrature of the wavepacket kernels over its _marginal_gaussian window."""
    rng = np.random.default_rng(samples)
    m = rng.uniform(0.8, 1.25)
    for params in (harmonic_system(m, rng.uniform(0.8, 1.25)), free_system(m)):
        init = WavepacketInit(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0),
                              rng.uniform(0.5, 0.9))
        th = ThermalSpec.from_kbt(rng.uniform(2.0, 5.0))
        times = np.linspace(0.0, rng.uniform(1.0, 10.0), samples)
        curve = marginal_curve(params, init, th, times, normalized=False)
        assert curve.tolist() == [marginal_Z(params, init, th, t) for t in times]
        for t, z in zip(times, curve):
            s = evolve(params, init, t)
            c, w, _ = partition._marginal_gaussian(s, th)
            kernels = integrate_window(
                lambda x: np.exp(_log_density(s, x)
                                 - th.beta * energy_pointwise(s, x)),
                c - WINDOW_SIGMAS * w, c + WINDOW_SIGMAS * w)[0]
            assert z == kernels


def test_marginal_curve_evaluates_at_most_a_slab_at_once(monkeypatch,
                                                         ho_params, fig_init):
    """However many samples a curve has, no integrand call evaluates more
    than SLAB_POINTS points: memory does not grow with the samples."""
    sizes, ladders = [], []

    def counting(f, lo, hi):
        def g(*xs):
            values = f(*xs)
            sizes.append(values.size)
            return values
        ladders.append((lo, hi))
        return integrate_window(g, lo, hi)

    monkeypatch.setattr(partition, "integrate_window", counting)
    times = np.linspace(0.0, 4.0 * math.pi, 5000)
    marginal_curve(ho_params, fig_init, ThermalSpec.from_kbt(2.0), times)
    assert max(sizes) <= SLAB_POINTS
    assert len(ladders) == -(-5000 // partition.MARGINAL_CHUNK)


def test_marginal_periodicity(ho_params, fig_init):
    th = ThermalSpec.from_kbt(2.0)
    for t in (0.0, 0.6, 1.3, 2.4):
        a = marginal_Z(ho_params, fig_init, th, t)
        b = marginal_Z(ho_params, fig_init, th, t + math.pi)
        assert b == pytest.approx(a, rel=1e-10)


def test_marginal_amplitude_orderings(ho_params):
    times = np.linspace(0.0, math.pi, 40)

    def amplitude(sigma, kbt):
        values = marginal_curve(ho_params, WavepacketInit(1.0, 0.0, sigma),
                                ThermalSpec.from_kbt(kbt), times)
        return values.max() - values.min()

    hot = amplitude(0.45, 5.0)
    cold = amplitude(0.45, 2.0)
    wide = amplitude(0.65, 2.0)
    assert hot < cold
    assert wide < cold


def test_marginal_divergence_detected(ho_params):
    init = WavepacketInit(1.0, 0.0, 0.2)
    th = ThermalSpec.from_kbt(0.5)
    with pytest.raises(DivergentIntegral):
        marginal_Z(ho_params, init, th, 0.0)
    # divergence is time-dependent: near the breathing maximum the spread
    # packet feeds a convergent integrand again
    assert marginal_Z(ho_params, init, th, math.pi / 2) > 0.0


def test_marginal_overflow_names_its_sample():
    """An integrand that overflows names the packet, omega, kbt and t."""
    params, init = harmonic_system(1.0, 3.7e12), WavepacketInit(1.0, 0.0, 0.45)
    with pytest.raises(QuadratureFailure, match=(
            r"^marginal Z at t = 6\.28319, omega = 3\.7e\+12, sigma = 0\.45, "
            r"kbt = 2, x0 = 1, p0 = 0: non-finite value inf")):
        marginal_Z(params, init, ThermalSpec.from_kbt(2.0), 2.0 * math.pi)


def test_marginal_orbit_translation_symmetry(ho_params):
    # translating (x0, p0) along the orbit by one width period shifts the
    # curve in time; an arbitrary shift works for the coherent width
    th = ThermalSpec.from_kbt(2.0)
    init = WavepacketInit(1.0, 0.0, 0.45)
    tau = math.pi
    st = evolve(ho_params, init, tau)
    shifted = WavepacketInit(st.q, st.p, init.sigma)
    for t in (0.3, 1.1, 2.4):
        a = marginal_Z(ho_params, init, th, t + tau)
        b = marginal_Z(ho_params, shifted, th, t)
        assert b == pytest.approx(a, rel=1e-8)

    coh = WavepacketInit(1.0, 0.4, math.sqrt(0.5))
    tau = 0.77
    st = evolve(ho_params, coh, tau)
    shifted = WavepacketInit(st.q, st.p, coh.sigma)
    for t in (0.3, 1.1, 2.4):
        a = marginal_Z(ho_params, coh, th, t + tau)
        b = marginal_Z(ho_params, shifted, th, t)
        assert b == pytest.approx(a, rel=1e-8)


def test_marginal_derivative_matches_finite_difference(ho_params, fig_init):
    th = ThermalSpec.from_kbt(2.0)
    t0, h = 1.3, 1e-3
    rate = marginal_Z_derivative(ho_params, fig_init, th, t0)

    def z(t):
        return marginal_Z(ho_params, fig_init, th, t)

    d1 = (z(t0 + h) - z(t0 - h)) / (2 * h)
    d2 = (z(t0 + h / 2) - z(t0 - h / 2)) / h
    fd = (4 * d2 - d1) / 3
    assert rate.exact == pytest.approx(fd, rel=1e-6)
    # the unweighted bracket is a different number; report both, adopt exact
    assert abs(rate.bracket - rate.exact) > 1e-2


def test_marginal_derivative_vanishes_in_classical_surrogate():
    # sharp packet, huge mass, temperature scaled with the energy unit
    params = harmonic_system(1e6, 1.0)
    init = WavepacketInit(1.0, 0.0, 5e-4)  # ratio = 1e-6
    th = ThermalSpec(1e-6)
    z = marginal_Z(params, init, th, 0.5)
    rate = marginal_Z_derivative(params, init, th, 0.5)
    assert abs(rate.exact) < 1e-4 * z * 1.0


def _log_marginal_Z_closed_form(params, init, th, t):
    """log Z from the completed square of log(P e^(-beta E)), no quadrature:
    log(2 Re a / kappa)/2 - beta A0 + beta^2 A1^2 / (4 kappa), kappa = 2 Re a
    + beta A2, with (A2, A1, A0) from _energy_coefficients."""
    st = evolve(params, init, t)
    a2, a1, a0 = _energy_coefficients(st)
    beta, ra = th.beta, st.alpha.real
    kappa = 2.0 * ra + beta * a2
    return (0.5 * math.log(2.0 * ra / kappa) - beta * a0
            + beta**2 * a1**2 / (4.0 * kappa))


def _marginal_Z_gaussian_closed_form(params, init, th, t):
    return math.exp(_log_marginal_Z_closed_form(params, init, th, t))


def test_marginal_near_divergence_matches_gaussian_closed_form():
    # the density underflows where exp(-beta E) overflows inside this window
    init, th, t0 = WavepacketInit(1.0, 0.3, 1.0), ThermalSpec.from_kbt(0.5), 1.3333
    closed = _marginal_Z_gaussian_closed_form(HO, init, th, t0)
    assert marginal_Z(HO, init, th, t0) == pytest.approx(closed, rel=1e-9)
    assert marginal_Z(HO, init, th, t0) == pytest.approx(2653.92, rel=1e-6)

    h = 1e-4
    d1, d2 = ((_marginal_Z_gaussian_closed_form(HO, init, th, t0 + step)
               - _marginal_Z_gaussian_closed_form(HO, init, th, t0 - step)) / (2 * step)
              for step in (h, h / 2))
    rate = marginal_Z_derivative(HO, init, th, t0)
    assert rate.exact == pytest.approx((4 * d2 - d1) / 3, rel=1e-6)


@pytest.mark.parametrize("argv", [
    ["marginal", "--x0", "12", "--samples", "7", "--raw"],
    ["marginal", "--x0", "11", "--samples", "41"]])
def test_distant_packet_marginal_curves_match_the_completed_square(capsys,
                                                                   argv):
    """A distant packet's Z is tiny (down to 2e-16 raw at x0 = 12), yet each
    printed sample, raw or over its own t = 0 value, is within 1e-12 of the
    closed form; a ladder that accepted its 24-node rule was 6.1e-4 off."""
    from bohmpart import cli
    assert cli.main(argv) == 0
    rows = [tuple(map(float, line.split(",")))
            for line in capsys.readouterr().out.splitlines()[1:]]
    init = WavepacketInit(float(argv[2]), 0.0, 0.45)  # the CLI's defaults
    th = ThermalSpec.from_kbt(2.0)
    log_z0 = 0.0 if "--raw" in argv else _log_marginal_Z_closed_form(
        HO, init, th, 0.0)
    assert len(rows) == int(argv[4])
    for t, z in rows:
        ref = math.exp(_log_marginal_Z_closed_form(HO, init, th, t) - log_z0)
        assert abs(z - ref) <= 1e-12 * ref, t


@settings(derandomize=True, max_examples=80, deadline=None)
@given(m=st.floats(0.2, 5.0), omega=st.floats(0.2, 5.0), free=st.booleans(),
       sigma=st.floats(0.2, 3.0), kbt=st.floats(0.2, 50.0),
       x0=st.floats(-30.0, 30.0), p0=st.floats(-30.0, 30.0),
       t=st.floats(0.0, 10.0))
def test_every_package_integral_ends_on_the_96_node_rule(m, omega, free, sigma,
                                                         kbt, x0, p0, t):
    """Each integrand is C exp(-72 s^2) per axis of its window, which the
    48-node rule resolves, so every converging marginal Z and oracle accepts
    the 96-node rule on its first check, however small its value."""
    rules = []

    def recording(f, mid, half, n):
        rules.append(n)
        return box_rule(f, mid, half, n)

    box_rule, th = core._box_rule, ThermalSpec.from_kbt(kbt)
    params = free_system(m) if free else harmonic_system(m, omega)
    calls = [lambda: marginal_Z(params, WavepacketInit(x0, p0, sigma), th, t),
             lambda: gaussian_correction_integral(m, sigma, th, 1.0)]
    if not free:
        calls += [lambda: phase_space_integral(m, omega, th),
                  lambda: unified_integral(m, omega, sigma, th, 1.0)]
    with mock.patch.object(core, "_box_rule", recording):
        for call in calls:
            rules.clear()
            try:
                call()
            except (DivergentIntegral, QuadratureFailure):
                continue
            assert rules == [48, 96]


def test_marginal_rate_high_temperature_suppression(ho_params, fig_init):
    def rel_rate(kbt):
        th = ThermalSpec.from_kbt(kbt)
        return abs(marginal_Z_derivative(ho_params, fig_init, th, 0.5).exact) / \
            marginal_Z(ho_params, fig_init, th, 0.5)

    assert rel_rate(2.0) / rel_rate(50.0) >= 10.0


def _marginal_rate_quadrature(state, th, energy_weight):
    """Gauss-Legendre integral of (d log P/dt + w dE/dt) P e^(-beta E) dx
    over WINDOW_SIGMAS widths of P e^(-beta E) about its centre."""
    a2, a1, _ = _energy_coefficients(state)
    kappa = 2.0 * state.alpha.real + th.beta * a2
    center = state.q - th.beta * a1 / (2.0 * kappa)
    half = WINDOW_SIGMAS / math.sqrt(2.0 * kappa)

    def f(x):
        boltz = np.exp(_log_density(state, x) - th.beta * energy_pointwise(state, x))
        return (_log_density_dt(state, x) + energy_weight * energy_dt(state, x)) * boltz

    return integrate_window(f, center - half, center + half)[0]


def test_marginal_rate_matches_gauss_legendre_oracle():
    """The two-point Gauss-Hermite rates against the rate integrals, over
    seeded harmonic and free packets, for both energy weights."""
    rng = np.random.default_rng(20261018)
    checked = {"harmonic": 0, "free": 0}
    while min(checked.values()) < 100:
        name = "harmonic" if checked["harmonic"] <= checked["free"] else "free"
        m = rng.uniform(0.5, 2.0)
        params = harmonic_system(m, rng.uniform(0.5, 2.0)) if name == "harmonic" \
            else free_system(m)
        init = WavepacketInit(rng.uniform(-2, 2), rng.uniform(-2, 2),
                              rng.uniform(0.3, 1.5))
        th, t = ThermalSpec.from_kbt(rng.uniform(0.5, 5.0)), rng.uniform(0.0, 4.0)
        try:
            rate = marginal_Z_derivative(params, init, th, t)
        except DivergentIntegral:
            continue
        z = marginal_Z(params, init, th, t)
        state = evolve(params, init, t)
        for weight, closed in ((-th.beta, rate.exact), (1.0, rate.bracket)):
            oracle = _marginal_rate_quadrature(state, th, weight)
            assert abs(closed - oracle) / z <= 1e-10
        checked[name] += 1


# ---------------------------------------------------------------------------
# criterion and average energy
# ---------------------------------------------------------------------------

def test_criterion_report_values():
    rep = classicality_criterion(1.0, 0.5, ThermalSpec(1.0))
    assert rep.t_min == pytest.approx(1.0)
    rep2 = classicality_criterion(1.0, 0.5, ThermalSpec(0.5))  # T = 2 T_min
    assert rep2.classical_ok and rep2.dimensionless_ratio == pytest.approx(0.5)


def test_criterion_threshold_de_broglie_relation():
    # at T = T_min the packet width satisfies sigma/lambda = 1/sqrt(8 pi)
    m, sigma = 1.3, 0.6
    t_min = 1.0 / (4.0 * m * sigma**2)
    rep = classicality_criterion(m, sigma, ThermalSpec(1.0 / t_min))
    assert rep.dimensionless_ratio == pytest.approx(1.0)
    assert sigma / rep.thermal_de_broglie == pytest.approx(
        1.0 / math.sqrt(8.0 * math.pi), rel=1e-12)


# The thermal averages of each Z, <E> = -d log Z/d beta and
# C = beta^2 d^2 log Z/d beta^2 (units of k_B), by numdiff of log Z against
# their closed forms, with x = beta hbar omega and r = beta hbar^2/(4 m sigma^2):
#   quantum_Z          <E> beta = (x/2)/tanh(x/2), C = [x e^(-x/2)/(1 - e^(-x))]^2
#   classical_Z        <E> beta = 1,               C = 1
#   unified_Z_gaussian <E> beta = 1 + r - r/(2(1 - r)), C = 1 + r^2/(2(1 - r)^2)

def _log_classical_Z(params):
    return lambda b: math.log(classical_Z(params, ThermalSpec(b)))


def _log_quantum_Z(params):
    return lambda b: math.log(quantum_Z(params, ThermalSpec(b))[0])


def _log_unified_Z(params, sigma):
    return lambda b: math.log(unified_Z_gaussian(params, sigma, ThermalSpec(b)))


def _energy(log_z, beta, h):
    return -central_first(log_z, beta, h)


def _heat_capacity(log_z, beta, h):
    return beta**2 * central_second(log_z, beta, h)


def _quantum_closed(x, beta):
    """(<E>, C) of quantum_Z at x = beta hbar omega."""
    return ((0.5 * x / math.tanh(0.5 * x)) / beta,
            (x * math.exp(-0.5 * x) / -math.expm1(-x)) ** 2)


def _unified_closed(r, beta):
    """(<E>, C) of unified_Z_gaussian at r = beta hbar^2/(4 m sigma^2)."""
    return ((1.0 + r - 0.5 * r / (1.0 - r)) / beta,
            1.0 + r * r / (2.0 * (1.0 - r) ** 2))


def test_average_energy_classical_equipartition():
    # <H> = 1/beta from classical_Z and from its oracle phase_space_integral
    for beta in (0.5, 1.0, 2.0):
        closed = _energy(_log_classical_Z(HO), beta, 1e-4 * beta)
        oracle = _energy(lambda b: math.log(
            phase_space_integral(1.0, 1.0, ThermalSpec(b))[0]), beta,
            1e-4 * beta)
        assert closed == pytest.approx(1.0 / beta, rel=1e-9)
        assert oracle == pytest.approx(1.0 / beta, rel=1e-6)


def test_average_energy_quantum():
    val = _energy(_log_quantum_Z(HO), 1.0, 1e-4)
    assert val == pytest.approx(0.5 + 1.0 / (math.e - 1.0), rel=1e-9)


def test_average_energy_unified_reduces_to_classical_plus_shift():
    # r = 1e-6 at beta = 1: <E> tends to 1/beta plus r/(2 beta), the packet
    # average of the quantum potential
    sigma, r = 500.0, 1e-6
    e_unified = _energy(_log_unified_Z(HO, sigma), 1.0, 1e-4)
    e_classical = _energy(_log_classical_Z(HO), 1.0, 1e-4)
    assert e_unified - e_classical == pytest.approx(0.5 * r, rel=1e-3)


def test_heat_capacity_insensitive_to_additive_shift():
    sigma = 500.0
    cv_unified = _heat_capacity(_log_unified_Z(HO, sigma), 1.0, 1e-3)
    cv_classical = _heat_capacity(_log_classical_Z(HO), 1.0, 1e-3)
    assert cv_unified == pytest.approx(cv_classical, rel=1e-6, abs=1e-6)


def _assert_matches_numdiff(log_z, beta, h_energy, h_cv, energy, cv):
    """numdiff <E> and C of log_z at beta, with steps h_energy and h_cv,
    match the closed forms."""
    assert _energy(log_z, beta, h_energy) == pytest.approx(energy, rel=1e-7)
    assert _heat_capacity(log_z, beta, h_cv) == pytest.approx(
        cv, rel=1e-6, abs=1e-7)
    assert cv >= 0.0


# quantum_Z's kept term count steps with beta, so its log Z jumps by up to
# TAIL_TOL; C's step keeps those jumps over h^2 below its tolerance.
def _assert_quantum_matches_numdiff(params, beta):
    x = beta * params.hbar * params.omega
    _assert_matches_numdiff(_log_quantum_Z(params), beta, 1e-4 * beta,
                            3e-3 * beta, *_quantum_closed(x, beta))


@pytest.mark.parametrize("x", [0.002, 0.1, 1.0, 10.0])
def test_quantum_thermal_averages_match_eigen_sum_oracle(x):
    # beta hbar omega = x; beyond x ~ 20 the finite difference cannot
    # resolve C ~ x^2 exp(-x) against log Z ~ -x/2
    _assert_quantum_matches_numdiff(harmonic_system(1.3, x / 0.7, 0.7), 1.0)


@pytest.mark.parametrize("r", [1e-4, 0.5, 0.9, 0.9975])
def test_unified_thermal_averages_match_closed_Z_oracle(r):
    beta, m, hbar = 0.8, 1.3, 0.7
    sigma = hbar * math.sqrt(beta / (4.0 * m * r))
    params = harmonic_system(m, 1.6, hbar)
    h = 1e-4 * beta * (1.0 - r)
    _assert_matches_numdiff(_log_unified_Z(params, sigma), beta, h, 10 * h,
                            *_unified_closed(r, beta))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(m=st.floats(0.2, 5.0), omega=st.floats(0.2, 5.0),
       hbar=st.floats(0.2, 5.0), beta=st.floats(0.05, 5.0),
       r=st.floats(1e-4, 0.9))
def test_thermal_averages_property(m, omega, hbar, beta, r):
    params = harmonic_system(m, omega, hbar)
    sigma = hbar * math.sqrt(beta / (4.0 * m * r))
    r = quantum_ratio(m, sigma, ThermalSpec(beta), hbar)
    h = 1e-4 * beta * (1.0 - r)
    _assert_matches_numdiff(_log_unified_Z(params, sigma), beta, h, 10 * h,
                            *_unified_closed(r, beta))
    _assert_quantum_matches_numdiff(params, beta)
    assert _heat_capacity(_log_classical_Z(params), beta,
                          1e-3 * beta) == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("x", [700.0, 800.0])
def test_quantum_thermal_averages_deep_in_the_ground_state(x):
    # beta hbar omega = x at beta = 1: <E> is the zero-point energy x/2,
    # and C = (x/2)^2 / sinh^2(x/2) (4.9e-299 at x = 700) is 0 to the
    # resolution of the finite difference
    log_z = _log_quantum_Z(harmonic_system(1.0, x))
    assert _energy(log_z, 1.0, 1e-4) == pytest.approx(0.5 * x, rel=1e-11)
    assert abs(_heat_capacity(log_z, 1.0, 1e-3)) <= 1e-6


def test_quantum_average_energy_classical_limit():
    # beta hbar omega = 1e-9: equipartition
    energy = _energy(_log_quantum_Z(harmonic_system(1.0, 1e-9)), 1.0, 1e-4)
    assert energy == pytest.approx(1.0, rel=1e-9)


def test_unified_heat_capacity_next_to_the_divergence():
    # beta = 4 - 2^-23 puts r = beta/4 at 1 - 2^-25, and C at 5.6e14; the
    # steps, 2^-31 in beta, are exact in binary and stay 256 of them clear
    # of r = 1
    beta = 4.0 - 2.0**-23
    cv = _heat_capacity(_log_unified_Z(HO, 1.0), beta, 2.0**-31)
    assert cv == pytest.approx(_unified_closed(beta / 4.0, beta)[1], rel=1e-6)


def test_thermal_averages_errors():
    # the partition functions the averages derive from raise for the free
    # particle, beyond the divergence and for an invalid width
    free = free_system(1.0)
    for z in (lambda: classical_Z(free, ThermalSpec(1.0)),
              lambda: quantum_Z(free, ThermalSpec(1.0)),
              lambda: quantum_Z_closed_form(free, ThermalSpec(1.0)),
              lambda: unified_Z_gaussian(free, 1.0, ThermalSpec(1.0)),
              lambda: unified_Z_gaussian(HO, 1.0, ThermalSpec(4.0))):
        with pytest.raises(DivergentIntegral):
            z()
    for sigma in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            unified_Z_gaussian(HO, sigma, ThermalSpec(1.0))


# ---------------------------------------------------------------------------
# monotonicity in beta
# ---------------------------------------------------------------------------

def test_partition_variants_decrease_in_beta():
    betas = np.linspace(0.1, 2.0, 8)
    z_cl = [classical_Z(HO, ThermalSpec(b)) for b in betas]
    z_q = [quantum_Z(HO, ThermalSpec(b))[0] for b in betas]
    assert np.all(np.diff(z_cl) < 0)
    assert np.all(np.diff(z_q) < 0)
    # unified: monotone below the turnaround near the divergence threshold
    betas_u = np.linspace(0.1, 2.0, 8)  # ratio up to 0.5 with sigma = 1
    z_u = [unified_Z_gaussian(HO, 1.0, ThermalSpec(b))
           for b in betas_u]
    assert np.all(np.diff(z_u) < 0)
    # marginal at the curve parameters, well inside the convergent region
    init = WavepacketInit(1.0, 0.0, 0.45)
    betas_m = np.linspace(0.1, 0.55, 6)
    z_m = [marginal_Z(HO, init, ThermalSpec(b), 0.9) for b in betas_m]
    assert np.all(np.diff(z_m) < 0)


def test_quantum_Z_geometric_sum_matches_explicit_sum():
    # same K terms as the explicit sum, up to a few ulps of summation order
    for x in (0.05, 0.5, 1.0, 5.0, 20.0):
        value, _ = quantum_Z(harmonic_system(1.0, x), ThermalSpec(1.0))
        n_terms = max(2, math.ceil((math.log(1e14)
                                    + math.log(1.0 / (1.0 - math.exp(-x)))) / x) + 2)
        explicit = float(np.sum(np.exp(-x * (np.arange(n_terms) + 0.5))))
        assert value == pytest.approx(explicit, rel=4 * np.finfo(float).eps)


def test_quantum_Z_tiny_level_spacing_is_bounded():
    # beta hbar omega = 1e-9 keeps ~5e10 terms; the geometric sum never
    # materializes them.  At 1e-300, 1 - exp(-x) rounds to 0, so the sum
    # must take it as -expm1(-x).
    th = ThermalSpec(1.0)
    for x in (1e-9, 1e-300):
        params = harmonic_system(1.0, x)
        value, tail = quantum_Z(params, th)
        assert value == pytest.approx(quantum_Z_closed_form(params, th),
                                      rel=1e-12)
        assert tail / value < 1e-13


# ---------------------------------------------------------------------------
# the one divergence decision, and the limits it interpolates between
# ---------------------------------------------------------------------------

_UNIT = st.floats(1e-4, 1.5)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(m=_UNIT, omega=_UNIT, hbar=_UNIT, beta=_UNIT, r=_UNIT)
@example(m=1.0, omega=1.0, hbar=1.0, beta=1.0, r=1.0)
# r_used rounds to 1 - 2.2e-16 here, so the oracles run next to r = 1
@example(m=0.5, omega=1.0, hbar=1.0, beta=1.0, r=1.0)
def test_every_gaussian_form_diverges_exactly_at_r_one(m, omega, hbar, beta,
                                                       r):
    """Each closed form and oracle raises DivergentIntegral iff r >= 1, and
    below r = 0.95 each closed form matches its oracle in log space."""
    thermal = ThermalSpec(beta)
    params = harmonic_system(m, omega, hbar)
    sigma = hbar * math.sqrt(beta / (4.0 * m * r))
    r_used = quantum_ratio(m, sigma, thermal, hbar)  # r up to rounding
    assert r_used == pytest.approx(r, rel=1e-14)
    bath = BathSpec((Oscillator(m, omega, 1.0),), sigma)
    calls = {
        "gaussian_correction": lambda: gaussian_correction(
            m, sigma, thermal, hbar),
        "gaussian_correction_integral": lambda: gaussian_correction_integral(
            m, sigma, thermal, hbar)[0],
        "unified_Z_gaussian": lambda: unified_Z_gaussian(
            params, sigma, thermal),
        "unified_integral": lambda: unified_integral(
            m, omega, sigma, thermal, hbar)[0],
        "unified_bath_Z": lambda: unified_bath_Z(bath, thermal, hbar)[0],
    }
    if r_used >= 1.0:
        for name, call in calls.items():
            with pytest.raises(DivergentIntegral):
                call()
                pytest.fail(f"{name} did not raise at r = {r_used!r}")
        return
    value = {name: call() for name, call in calls.items()}
    if r > 0.95:
        return
    norm = 2.0 * math.pi * hbar
    for closed, oracle in (
            (value["gaussian_correction"],
             value["gaussian_correction_integral"]),
            (value["unified_Z_gaussian"], value["unified_integral"] / norm),
            (value["unified_bath_Z"], value["unified_integral"])):
        assert abs(math.log(closed / oracle)) <= 1e-9


@settings(derandomize=True, max_examples=40, deadline=None)
@given(m=_UNIT, omega=_UNIT, hbar=_UNIT, beta=_UNIT)
def test_classical_limit_laws(m, omega, hbar, beta):
    """Z_u/Z_cl -> 1 as r -> 0, and quantum_Z/classical_Z -> 1 as
    beta hbar omega -> 0."""
    thermal = ThermalSpec(beta)
    params = harmonic_system(m, omega, hbar)
    z_cl = classical_Z(params, thermal)
    for r in (1e-3, 1e-6, 1e-9):
        sigma = hbar * math.sqrt(beta / (4.0 * m * r))
        z_u = unified_Z_gaussian(params, sigma, thermal)
        assert abs(z_u / z_cl - 1.0) <= r  # 1 - r/2 + O(r^2)
    for x in (1e-1, 1e-3, 1e-5):
        small = harmonic_system(m, x / (beta * hbar), hbar)
        ratio = quantum_Z(small, thermal)[0] / classical_Z(small,
                                                              thermal)
        assert abs(ratio - 1.0) <= x * x  # -x^2/24 + O(x^4)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(r=st.floats(1e-12, 0.9), m=_UNIT, hbar=_UNIT, beta=_UNIT)
@example(r=0.01, m=1.0, hbar=1.0, beta=1.0)  # sigma = 5
def test_unified_minus_classical_limit_gap(r, m, hbar, beta):
    """The unified Z's <E> sits r (1 - 2r)/(2(1 - r))/beta above the
    classical Z's, the quantum potential at the packet centre r/beta less
    r/(2(1 - r))/beta, and its C sits r^2/(2(1 - r)^2) k_B above.  Both gaps
    are numdiff of log(Z_u/Z_cl), whose roundoff of a few eps, over h and
    h^2, the abs floors bound; r starts at 1e-12 so that sigma stays a
    finite float."""
    thermal = ThermalSpec(beta)
    params = harmonic_system(m, 1.0, hbar)
    sigma = hbar * math.sqrt(beta / (4.0 * m * r))
    r_used = quantum_ratio(m, sigma, thermal, hbar)

    def log_ratio(b):
        th = ThermalSpec(b)
        return math.log(unified_Z_gaussian(params, sigma, th)
                        / classical_Z(params, th))

    h = 1e-4 * beta * (1.0 - r_used)
    gap_e = _energy(log_ratio, beta, h)
    gap_c = _heat_capacity(log_ratio, beta, 10 * h)
    assert gap_e == pytest.approx(
        r_used * (1.0 - 2.0 * r_used) / (2.0 * (1.0 - r_used)) / beta,
        rel=1e-7, abs=1e-11 / beta)
    assert gap_c == pytest.approx(r_used**2 / (2.0 * (1.0 - r_used) ** 2),
                                  rel=1e-6, abs=1e-8)


# ---------------------------------------------------------------------------
# 50-digit reference values, and classical_Z against its oracle in log space
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [1e-3, 1.0, 30.0])
def test_quantum_Z_matches_mpmath_reference(x):
    # beta hbar omega = x with hbar = beta = 1
    z = quantum_Z(harmonic_system(1.0, x), ThermalSpec(1.0))[0]
    with mpmath.workdps(50):
        ref = 1 / (2 * mpmath.sinh(mpmath.mpf(x) / 2))
    assert abs(z - ref) / ref <= 1e-14


@pytest.mark.parametrize("r", [0.5, 0.99, 1.0 - 1e-6])
def test_gaussian_correction_matches_mpmath_reference(r):
    # 4 m sigma^2 = hbar = 1, so the ratio the code forms is r itself
    thermal = ThermalSpec(r)
    assert quantum_ratio(1.0, 0.5, thermal, 1.0) == r
    c = gaussian_correction(1.0, 0.5, thermal, 1.0)
    with mpmath.workdps(50):
        ref = mpmath.exp(-mpmath.mpf(r)) / mpmath.sqrt(1 - mpmath.mpf(r))
    assert abs(c - ref) / ref <= 1e-14


_SCALE = st.floats(math.log(1e-75), math.log(1e75)).map(math.exp)
_BETA = st.floats(math.log(5e-324), math.log(1.7e308)).map(math.exp)


def _agrees_with(value: float, ref) -> bool:
    """value is ref to 1e-12 relative where ref is a normal double, or to
    one subnormal step where it lies below them."""
    if ref >= sys.float_info.min:
        return abs(value - ref) <= 1e-12 * ref
    return abs(value - ref) <= 2 * 5e-324


@settings(derandomize=True, max_examples=400, deadline=None)
@given(beta=_BETA, hbar=_SCALE, m=_SCALE, sigma=_SCALE,
       omega=st.floats(math.log(1e-300), math.log(1e300)).map(math.exp))
# partition --kbt 1e308 --hbar 1e-15 --mass 1e-75 --sigma 1e-75 --omega 1e300,
# where beta hbar and beta hbar^2 are subnormal and the scales were 0.0 and
# 1.2% high
@example(beta=1 / 1e308, hbar=1e-15, m=1e-75, sigma=1e-75, omega=1e300)
@example(beta=1 / 1e308, hbar=1e-7, m=1e-75, sigma=1e-75, omega=1e300)
@example(beta=1e-300, hbar=1.0, m=1e20, sigma=1e-20, omega=1.0)
# partition --kbt 1e-200 --hbar 1e50 --mass 1e-10 --sigma 1e75 --omega 1e-248,
# where the thermal wavelength's square overflows, and a beta hbar^2 that
# overflows under a finite ratio: both exited 1
@example(beta=1e200, hbar=1e50, m=1e-10, sigma=1e75, omega=1e-248)
@example(beta=1e300, hbar=1e10, m=1e10, sigma=1e75, omega=1.0)
def test_criterion_scales_and_classical_Z_match_mpmath(beta, hbar, m, sigma,
                                                       omega):
    """quantum_ratio, t_min, the thermal wavelength and classical_Z's 1/x
    against 50-digit mpmath of the same doubles, where a product of beta and
    hbar is subnormal or overflows too; a criterion ValueError only where a
    scale itself is past the doubles (classical_Z's also where beta hbar
    overflows or x leaves the ladder's range)."""
    thermal = ThermalSpec(beta)
    with mpmath.workdps(50):
        b, h, mm, s = map(mpmath.mpf, (beta, hbar, m, sigma))
        refs = {"ratio": b * h**2 / (4 * mm * s**2),
                "t_min": h**2 / (4 * mm * s**2),
                "lam": mpmath.sqrt(2 * mpmath.pi * h**2 * b / mm)}
        x = b * h * mpmath.mpf(omega)
    try:
        rep = classicality_criterion(m, sigma, thermal, hbar)
    except ValueError:
        assert max(refs.values()) > 1.7e308
    else:
        assert quantum_ratio(m, sigma, thermal, hbar) == rep.dimensionless_ratio
        got = {"ratio": rep.dimensionless_ratio, "t_min": rep.t_min,
               "lam": rep.thermal_de_broglie}
        for key, ref in refs.items():
            assert _agrees_with(got[key], ref), (key, got[key], ref)
    try:
        z = classical_Z(harmonic_system(1.0, omega, hbar), thermal)
    except ValueError:
        assert not 1.0001e-305 <= x <= 1.7e308 or b * h > 1.7e308
    else:
        assert abs(z * x - 1) <= 1e-12


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
def test_marginal_Z_near_divergence_matches_mpmath_reference(eps):
    """kbt -> 0.75+ at t = pi/2, where kappa = 2 Re a + beta A2 -> 0+ and
    the integrand widens without bound; the reference integrates the same
    float coefficients over the whole line."""
    init, t = WavepacketInit(1.0, 0.0, 1.0), math.pi / 2
    thermal = ThermalSpec.from_kbt(0.75 * (1.0 + eps))
    z = marginal_Z(HO, init, thermal, t)
    state = evolve(HO, init, t)
    with mpmath.workdps(50):
        ra, beta = mpmath.mpf(state.alpha.real), mpmath.mpf(thermal.beta)
        a2, a1, a0 = map(mpmath.mpf, _energy_coefficients(state))
        ref = mpmath.sqrt(2 * ra / mpmath.pi) * mpmath.quad(
            lambda u: mpmath.exp(-2 * ra * u**2
                                 - beta * (a2 * u**2 + a1 * u + a0)),
            [-mpmath.inf, 0, mpmath.inf])
    assert abs(z - ref) / ref <= 1e-10


_DECADES = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(beta=_DECADES, m=_DECADES, omega=_DECADES)
def test_classical_Z_matches_phase_space_integral_in_log_space(beta, m,
                                                               omega):
    thermal = ThermalSpec(beta)
    z_cl = classical_Z(harmonic_system(m, omega), thermal)
    raw, _ = phase_space_integral(m, omega, thermal)
    assert abs(math.log(raw / (2.0 * math.pi)) - math.log(z_cl)) <= 1e-12
