import math

import numpy as np
import pytest

from bohmpart import (AverageEnergyMode, DivergentIntegral, Method,
                      QuadratureConfig, ThermalSpec, WavepacketInit,
                      average_energy, classical_Z, classicality_criterion,
                      energy_pointwise, evolve, free_system, gaussian_correction,
                      harmonic_system, marginal_Z, marginal_Z_derivative,
                      marginal_curve, quantum_Z, unified_Z_gaussian)
from bohmpart.partition import (PartitionResult, classical_average_energy,
                                heat_capacity, quantum_Z_closed_form)

HO = harmonic_system(1.0, 1.0)


# ---------------------------------------------------------------------------
# classical and quantum Z
# ---------------------------------------------------------------------------

def test_classical_Z_closed_form(quad):
    assert classical_Z(HO, ThermalSpec(1.0), quad).value == pytest.approx(1.0)
    params = harmonic_system(1.0, 2.0)
    assert classical_Z(params, ThermalSpec(1.0), quad).value == pytest.approx(0.5)


def test_classical_Z_quadrature_agrees(quad):
    for beta, m, w in [(1.0, 1.0, 1.0), (0.7, 2.3, 1.6)]:
        params = harmonic_system(m, w)
        th = ThermalSpec(beta)
        cf = classical_Z(params, th, quad, Method.CLOSED_FORM)
        qd = classical_Z(params, th, quad, Method.QUADRATURE)
        assert qd.value == pytest.approx(cf.value, rel=1e-10)
        assert qd.method is Method.QUADRATURE


def test_classical_Z_free_diverges(quad):
    with pytest.raises(DivergentIntegral):
        classical_Z(free_system(1.0), ThermalSpec(1.0), quad)


def test_classical_Z_measure_flag(quad):
    th = ThermalSpec(1.0)
    d_gamma = classical_Z(HO, th, quad).value
    raw = classical_Z(HO, th, quad, measure="raw").value
    assert raw == pytest.approx(2.0 * math.pi * d_gamma)


def test_quantum_Z_matches_closed_form_over_range():
    for x in (0.01, 0.1, 1.0, 5.0, 20.0, 50.0):
        params = harmonic_system(1.0, x)  # beta hbar w = x with beta = 1
        th = ThermalSpec(1.0)
        res = quantum_Z(params, th)
        assert res.value == pytest.approx(quantum_Z_closed_form(params, th),
                                          rel=1e-10)


def test_quantum_Z_ground_state_dominance():
    params = harmonic_system(1.0, 50.0)
    res = quantum_Z(params, ThermalSpec(1.0))
    assert res.value == pytest.approx(math.exp(-25.0), rel=1e-14)
    # analytic tail of the eigensum: below 1e-20 relative
    assert res.est_error / res.value < 1e-20


def test_quantum_classical_limit_chain():
    # Z_q/Z_cl = x/(2 sinh(x/2)) = 1 - x^2/24 + O(x^4)
    errors = []
    for x in (0.1, 0.01, 0.001):
        params = harmonic_system(1.0, x)
        th = ThermalSpec(1.0)
        ratio = quantum_Z(params, th).value / classical_Z(
            params, th, QuadratureConfig()).value
        assert ratio <= 1.0
        errors.append(1.0 - ratio)
    assert errors[0] / errors[1] == pytest.approx(100.0, rel=0.05)
    assert errors[1] / errors[2] == pytest.approx(100.0, rel=0.05)


def test_partition_result_validation():
    with pytest.raises(ValueError):
        PartitionResult(-1.0, 0.0, Method.CLOSED_FORM)
    with pytest.raises(ValueError):
        PartitionResult(1.0, -0.1, Method.CLOSED_FORM)


# ---------------------------------------------------------------------------
# Gaussian correction factor
# ---------------------------------------------------------------------------

def test_gaussian_correction_value_vs_quadrature(quad):
    th = ThermalSpec(1.0)  # ratio = 0.25
    cf = gaussian_correction(1.0, 1.0, th)
    qd = gaussian_correction(1.0, 1.0, th, quad=quad, method=Method.QUADRATURE)
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

def test_unified_Z_closed_vs_nested_quadrature(quad):
    th = ThermalSpec(1.0)
    cf = unified_Z_gaussian(HO, 1.0, th, quad, Method.CLOSED_FORM)
    qd = unified_Z_gaussian(HO, 1.0, th, quad, Method.QUADRATURE)
    assert cf.value == pytest.approx(
        classical_Z(HO, th, quad).value * gaussian_correction(1.0, 1.0, th),
        rel=1e-14)
    assert qd.value == pytest.approx(cf.value, rel=1e-7)


def test_unified_Z_depends_only_on_m_sigma_squared(quad):
    th = ThermalSpec(1.0)
    ratios = []
    for sigma in (1.0, 0.5, 0.25):
        params = harmonic_system(1.0 / sigma**2, 1.0)
        z_u = unified_Z_gaussian(params, sigma, th, quad).value
        z_cl = classical_Z(params, th, quad).value
        ratios.append(z_u / z_cl)
    assert max(ratios) - min(ratios) < 1e-12


def test_unified_Z_ratio_tends_to_one(quad):
    th = ThermalSpec(1.0)
    z_u = unified_Z_gaussian(HO, 100.0, th, quad).value
    z_cl = classical_Z(HO, th, quad).value
    assert z_u / z_cl == pytest.approx(1.0, abs=1e-4)


def test_unified_Z_free_diverges(quad):
    with pytest.raises(DivergentIntegral):
        unified_Z_gaussian(free_system(1.0), 1.0, ThermalSpec(1.0), quad)


# ---------------------------------------------------------------------------
# marginal Z
# ---------------------------------------------------------------------------

def test_marginal_curve_normalized_at_zero(ho_params, fig_init, quad):
    times = np.linspace(0.0, 2.0, 5)
    curve = marginal_curve(ho_params, fig_init, ThermalSpec.from_kbt(2.0),
                           times, quad)
    assert curve.values[0] == 1.0  # exact, by construction
    assert curve.normalized


def test_marginal_periodicity(ho_params, fig_init, quad):
    th = ThermalSpec.from_kbt(2.0)
    for t in (0.0, 0.6, 1.3, 2.4):
        a = marginal_Z(ho_params, fig_init, th, t, quad)
        b = marginal_Z(ho_params, fig_init, th, t + math.pi, quad)
        assert b == pytest.approx(a, rel=1e-10)


def test_marginal_amplitude_orderings(ho_params, quad):
    times = np.linspace(0.0, math.pi, 40)

    def amplitude(sigma, kbt):
        curve = marginal_curve(ho_params, WavepacketInit(1.0, 0.0, sigma),
                               ThermalSpec.from_kbt(kbt), times, quad)
        return curve.values.max() - curve.values.min()

    hot = amplitude(0.45, 5.0)
    cold = amplitude(0.45, 2.0)
    wide = amplitude(0.65, 2.0)
    assert hot < cold
    assert wide < cold


def test_marginal_divergence_detected(ho_params, quad):
    init = WavepacketInit(1.0, 0.0, 0.2)
    th = ThermalSpec.from_kbt(0.5)
    with pytest.raises(DivergentIntegral):
        marginal_Z(ho_params, init, th, 0.0, quad)
    # divergence is time-dependent: near the breathing maximum the spread
    # packet feeds a convergent integrand again
    assert marginal_Z(ho_params, init, th, math.pi / 2, quad) > 0.0


def test_marginal_orbit_translation_symmetry(ho_params, quad):
    # translating (x0, p0) along the orbit by one width period shifts the
    # curve in time; an arbitrary shift works for the coherent width
    th = ThermalSpec.from_kbt(2.0)
    init = WavepacketInit(1.0, 0.0, 0.45)
    tau = math.pi
    st = evolve(ho_params, init, tau)
    shifted = WavepacketInit(st.q, st.p, init.sigma)
    for t in (0.3, 1.1, 2.4):
        a = marginal_Z(ho_params, init, th, t + tau, quad)
        b = marginal_Z(ho_params, shifted, th, t, quad)
        assert b == pytest.approx(a, rel=1e-8)

    coh = WavepacketInit(1.0, 0.4, math.sqrt(0.5))
    tau = 0.77
    st = evolve(ho_params, coh, tau)
    shifted = WavepacketInit(st.q, st.p, coh.sigma)
    for t in (0.3, 1.1, 2.4):
        a = marginal_Z(ho_params, coh, th, t + tau, quad)
        b = marginal_Z(ho_params, shifted, th, t, quad)
        assert b == pytest.approx(a, rel=1e-8)


def test_marginal_derivative_matches_finite_difference(ho_params, fig_init):
    tight = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15)
    th = ThermalSpec.from_kbt(2.0)
    t0, h = 1.3, 1e-3
    rate = marginal_Z_derivative(ho_params, fig_init, th, t0, tight)

    def z(t):
        return marginal_Z(ho_params, fig_init, th, t, tight)

    d1 = (z(t0 + h) - z(t0 - h)) / (2 * h)
    d2 = (z(t0 + h / 2) - z(t0 - h / 2)) / h
    fd = (4 * d2 - d1) / 3
    assert rate.exact == pytest.approx(fd, rel=1e-6)
    # the unweighted bracket is a different number; report both, adopt exact
    assert abs(rate.bracket - rate.exact) > 1e-2


def test_marginal_derivative_vanishes_in_classical_surrogate():
    # sharp packet, huge mass, temperature scaled with the energy unit
    quad = QuadratureConfig(rel_tol=1e-4, abs_tol=1e-9)
    params = harmonic_system(1e6, 1.0)
    init = WavepacketInit(1.0, 0.0, 5e-4)  # ratio = 1e-6
    th = ThermalSpec(1e-6)
    z = marginal_Z(params, init, th, 0.5, quad)
    rate = marginal_Z_derivative(params, init, th, 0.5, quad)
    assert abs(rate.exact) < 1e-4 * z * 1.0


def _marginal_Z_gaussian_closed_form(params, init, th, t):
    """sqrt(2 Re a / kappa) exp(-beta A0 + beta^2 A1^2 / (4 kappa)), kappa = 2 Re a + beta A2."""
    st = evolve(params, init, t)
    e_minus, e_mid, e_plus = (energy_pointwise(st, st.q + u) for u in (-1.0, 0.0, 1.0))
    a2, a1, a0 = 0.5 * (e_plus + e_minus) - e_mid, 0.5 * (e_plus - e_minus), e_mid
    beta, ra = th.beta, st.alpha.real
    kappa = 2.0 * ra + beta * a2
    return math.sqrt(2.0 * ra / kappa) * math.exp(-beta * a0 + beta**2 * a1**2 / (4.0 * kappa))


def test_marginal_near_divergence_matches_gaussian_closed_form(quad):
    # the density underflows where exp(-beta E) overflows inside this window
    init, th, t0 = WavepacketInit(1.0, 0.3, 1.0), ThermalSpec.from_kbt(0.5), 1.3333
    closed = _marginal_Z_gaussian_closed_form(HO, init, th, t0)
    assert marginal_Z(HO, init, th, t0, quad) == pytest.approx(closed, rel=1e-9)
    assert marginal_Z(HO, init, th, t0, quad) == pytest.approx(2653.92, rel=1e-6)

    h = 1e-4
    d1, d2 = ((_marginal_Z_gaussian_closed_form(HO, init, th, t0 + step)
               - _marginal_Z_gaussian_closed_form(HO, init, th, t0 - step)) / (2 * step)
              for step in (h, h / 2))
    rate = marginal_Z_derivative(HO, init, th, t0, quad)
    assert rate.exact == pytest.approx((4 * d2 - d1) / 3, rel=1e-6)


def test_marginal_rate_high_temperature_suppression(ho_params, fig_init, quad):
    def rel_rate(kbt):
        th = ThermalSpec.from_kbt(kbt)
        return abs(marginal_Z_derivative(ho_params, fig_init, th, 0.5,
                                         quad).exact) / \
            marginal_Z(ho_params, fig_init, th, 0.5, quad)

    assert rel_rate(2.0) / rel_rate(50.0) >= 10.0


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


def test_average_energy_classical_equipartition(quad):
    for beta in (0.5, 1.0, 2.0):
        val = classical_average_energy(HO, ThermalSpec(beta), quad)
        assert val == pytest.approx(1.0 / beta, rel=1e-9)


def test_average_energy_quantum(quad):
    val = average_energy(AverageEnergyMode.QUANTUM_EIGEN, HO, ThermalSpec(1.0),
                         1.0, quad)
    assert val == pytest.approx(0.5 + 1.0 / (math.e - 1.0), rel=1e-12)


def test_average_energy_unified_reduces_to_classical_plus_shift(quad):
    sigma = 500.0  # ratio = 1e-6 at beta = 1
    e_unified = average_energy(AverageEnergyMode.UNIFIED_GAUSSIAN, HO,
                               ThermalSpec(1.0), sigma, quad)
    e_classical = average_energy(AverageEnergyMode.CLASSICAL_LIMIT, HO,
                                 ThermalSpec(1.0), sigma, quad)
    assert e_unified == pytest.approx(e_classical, rel=1e-6)


def test_heat_capacity_insensitive_to_additive_shift(quad):
    sigma = 500.0
    cv_unified = heat_capacity(AverageEnergyMode.UNIFIED_GAUSSIAN, HO,
                               ThermalSpec(1.0), sigma, quad)
    cv_classical = heat_capacity(AverageEnergyMode.CLASSICAL_LIMIT, HO,
                                 ThermalSpec(1.0), sigma, quad)
    assert cv_unified == pytest.approx(cv_classical, rel=1e-6, abs=1e-6)


# ---------------------------------------------------------------------------
# monotonicity in beta
# ---------------------------------------------------------------------------

def test_partition_variants_decrease_in_beta(quad):
    betas = np.linspace(0.1, 2.0, 8)
    z_cl = [classical_Z(HO, ThermalSpec(b), quad).value for b in betas]
    z_q = [quantum_Z(HO, ThermalSpec(b)).value for b in betas]
    assert np.all(np.diff(z_cl) < 0)
    assert np.all(np.diff(z_q) < 0)
    # unified: monotone below the turnaround near the divergence threshold
    betas_u = np.linspace(0.1, 2.0, 8)  # ratio up to 0.5 with sigma = 1
    z_u = [unified_Z_gaussian(HO, 1.0, ThermalSpec(b), quad).value
           for b in betas_u]
    assert np.all(np.diff(z_u) < 0)
    # marginal at the curve parameters, well inside the convergent region
    init = WavepacketInit(1.0, 0.0, 0.45)
    betas_m = np.linspace(0.1, 0.55, 6)
    z_m = [marginal_Z(HO, init, ThermalSpec(b), 0.9, quad) for b in betas_m]
    assert np.all(np.diff(z_m) < 0)


def test_quantum_Z_geometric_sum_matches_explicit_sum():
    # same K terms as the explicit sum, up to a few ulps of summation order
    for x in (0.05, 0.5, 1.0, 5.0, 20.0):
        res = quantum_Z(harmonic_system(1.0, x), ThermalSpec(1.0))
        n_terms = max(2, math.ceil((math.log(1e14)
                                    + math.log(1.0 / (1.0 - math.exp(-x)))) / x) + 2)
        explicit = float(np.sum(np.exp(-x * (np.arange(n_terms) + 0.5))))
        assert res.value == pytest.approx(explicit, rel=4 * np.finfo(float).eps)


def test_quantum_Z_tiny_level_spacing_is_bounded():
    # beta hbar omega = 1e-9 keeps ~5e10 terms; the geometric sum never
    # materializes them.
    params = harmonic_system(1.0, 1e-9)
    th = ThermalSpec(1.0)
    res = quantum_Z(params, th)
    assert res.value == pytest.approx(quantum_Z_closed_form(params, th), rel=1e-12)
    assert res.est_error / res.value < 1e-13
