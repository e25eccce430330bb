import math

import numpy as np
import pytest

from bohmpart import (BathSpec, DivergentIntegral, Oscillator, ThermalSpec,
                      classical_bath_Z, large_N_ratio, memory_kernel,
                      phase_space_integral, unified_bath_Z, unified_integral,
                      uniform_bath)


def single(m=1.0, w=1.0, c=1.0, sigma=1.0, q0=0.0):
    return BathSpec((Oscillator(m, w, c),), sigma, q0)


# ---------------------------------------------------------------------------
# memory kernel
# ---------------------------------------------------------------------------

def test_memory_kernel_at_zero_sums_static_friction():
    bath = BathSpec((Oscillator(1.0, 2.0, 3.0), Oscillator(1.0, 0.5, 1.0)), 1.0)
    assert memory_kernel(bath, 0.0) == pytest.approx(9.0 / 4.0 + 4.0)


def test_memory_kernel_single_oscillator():
    bath = single(w=2.0, c=2.0)
    assert memory_kernel(bath, math.pi / 2) == pytest.approx(-1.0)


def test_memory_kernel_even_and_bounded():
    rng = np.random.default_rng(3)
    oscillators = tuple(Oscillator(rng.uniform(0.5, 2.0), rng.uniform(0.2, 3.0),
                                   rng.uniform(-2.0, 2.0)) for _ in range(6))
    bath = BathSpec(oscillators, 1.0)
    nu0 = memory_kernel(bath, 0.0)
    for t in rng.uniform(-8.0, 8.0, 20):
        assert memory_kernel(bath, t) == pytest.approx(memory_kernel(bath, -t))
        assert nu0 >= abs(memory_kernel(bath, t)) - 1e-12


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf,
                               np.array([0.0, 1.0, math.nan]),
                               np.array([[2.0], [math.inf]])])
def test_memory_kernel_rejects_nonfinite_time(t):
    with pytest.raises(ValueError, match="t must be finite"):
        memory_kernel(uniform_bath(3, 1.0, 1.5, 0.8, sigma=2.0, q0=0.3), t)


# ---------------------------------------------------------------------------
# classical bath Z
# ---------------------------------------------------------------------------

def test_classical_bath_Z_single():
    assert classical_bath_Z(single(), ThermalSpec(1.0)) == pytest.approx(
        2.0 * math.pi)


def test_classical_bath_Z_product():
    bath = BathSpec((Oscillator(1.0, 1.0, 0.0), Oscillator(1.0, 2.0, 0.0)), 1.0)
    assert classical_bath_Z(bath, ThermalSpec(1.0)) == pytest.approx(
        (2.0 * math.pi) ** 2 / 2.0)


def test_classical_bath_Z_quadrature_and_coupling_invariance():
    th = ThermalSpec(1.0)
    plain, _ = phase_space_integral(1.0, 1.0, th)
    assert plain == pytest.approx(2.0 * math.pi, rel=1e-10)
    # the coupled oscillator's well is centred at c q0 / w^2 = 10
    assert classical_bath_Z(single(c=5.0, q0=2.0), th) == \
        pytest.approx(plain, rel=1e-10)


@pytest.mark.parametrize("beta, omega", [(5e-324, 0.5), (5e-324, 1.0),
                                         (1e-300, 1e-10)])
def test_classical_bath_Z_of_an_underflowing_beta_omega_is_a_value_error(
        beta, omega):
    """beta w of 0.0 or a subnormal takes Z_B past the largest double: the
    z_b ValueError, where a product of 0.0 raised ZeroDivisionError."""
    with pytest.raises(ValueError, match="z_b = inf"):
        classical_bath_Z(single(w=omega), ThermalSpec(beta))


# ---------------------------------------------------------------------------
# unified bath Z
# ---------------------------------------------------------------------------

def test_unified_bath_Z_single_closed_form():
    exact, printed = unified_bath_Z(single(), ThermalSpec(1.0), 1.0)
    c = math.exp(-0.25) / math.sqrt(0.75)
    assert exact == pytest.approx(2.0 * math.pi * c, rel=1e-14)
    assert printed == pytest.approx(exact * 2.0 * math.pi, rel=1e-14)


def test_unified_bath_Z_quadrature_oracle():
    # coupled, shifted oscillator: the 3D integral still gives the exact
    # factor with no extra 2 pi
    bath = single(c=1.5, q0=0.7)
    th = ThermalSpec(1.0)
    exact_cf, printed_cf = unified_bath_Z(bath, th, 1.0)
    exact_qd, _ = unified_integral(1.0, 1.0, 1.0, th, 1.0,
                                   center=1.5 * 0.7)
    assert exact_qd == pytest.approx(exact_cf, rel=1e-8)
    assert printed_cf / exact_qd == pytest.approx(2.0 * math.pi,
                                                        rel=1e-12)


def test_unified_bath_Z_classical_limit():
    bath = single(sigma=100.0)
    th = ThermalSpec(1.0)
    exact, _ = unified_bath_Z(bath, th, 1.0)
    z_b = classical_bath_Z(bath, th)
    assert exact / z_b == pytest.approx(1.0, abs=1e-4)


def test_unified_bath_Z_depends_on_m_sigma_sq_multiset():
    th = ThermalSpec(0.5)
    bath_a = BathSpec((Oscillator(4.0, 1.0, 1.0), Oscillator(1.0, 2.0, 0.3)),
                      sigma=0.5)
    bath_b = BathSpec((Oscillator(1.0, 0.7, 2.0), Oscillator(0.25, 3.0, 1.0)),
                      sigma=1.0)
    # multisets of m * sigma^2 match: {4*0.25, 1*0.25} == {1*1, 0.25*1}
    ra = unified_bath_Z(bath_a, th, 1.0)[0] / classical_bath_Z(bath_a, th)
    rb = unified_bath_Z(bath_b, th, 1.0)[0] / classical_bath_Z(bath_b, th)
    assert ra == pytest.approx(rb, rel=1e-14)


def test_unified_bath_Z_factorizes():
    th = ThermalSpec(0.8)
    oscillators = (Oscillator(1.0, 1.0, 1.0), Oscillator(2.0, 0.6, -0.4),
                   Oscillator(0.7, 2.2, 0.1))
    bath = BathSpec(oscillators, sigma=0.9, q0=0.2)
    whole = unified_bath_Z(bath, th, 1.0)[0]
    parts = 1.0
    for o in oscillators:
        parts *= unified_bath_Z(BathSpec((o,), 0.9, 0.2), th, 1.0)[0]
    assert whole == pytest.approx(parts, rel=1e-10)


def test_unified_bath_Z_divergence():
    with pytest.raises(DivergentIntegral):
        unified_bath_Z(single(sigma=0.4), ThermalSpec(1.0), 1.0)


# ---------------------------------------------------------------------------
# large-N approximation
# ---------------------------------------------------------------------------

def test_large_N_example():
    approx, exact, rel = large_N_ratio(10, 1.0, 1.0, ThermalSpec(0.04), 1.0)
    assert rel == pytest.approx(abs(1.0 - 0.99**5), rel=1e-12)


def test_large_N_error_formula_identity():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(1, 40))
        r = float(rng.uniform(1e-4, 0.9))
        approx, exact, rel = large_N_ratio(n, 1.0, 1.0, ThermalSpec(4.0 * r), 1.0)
        assert rel == pytest.approx(abs(1.0 - (1.0 - r) ** (n / 2)), abs=1e-12)


def test_large_N_error_vanishes_with_ratio():
    rels = [large_N_ratio(8, 1.0, 1.0, ThermalSpec(4.0 * r), 1.0)[2]
            for r in (1e-2, 1e-4, 1e-6)]
    assert rels[0] > rels[1] > rels[2]
    assert rels[2] < 1e-5


def test_large_N_quarter_ratio_product():
    approx, exact, rel = large_N_ratio(4, 1.0, 1.0, ThermalSpec(1.0), 1.0)
    c = math.exp(-0.25) / math.sqrt(0.75)
    assert exact == pytest.approx(c**4, rel=1e-12)
    assert approx == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_large_N_divergence():
    with pytest.raises(DivergentIntegral):
        large_N_ratio(5, 1.0, 0.5, ThermalSpec(1.0), 1.0)


def test_uniform_bath_constructor():
    bath = uniform_bath(5, m0=2.0, omega_max=3.0, coupling=0.5)
    assert bath.size == 5
    assert bath.oscillators[-1].omega == pytest.approx(3.0)
    assert bath.oscillators[0].omega == pytest.approx(0.6)
    assert all(o.mass == 2.0 for o in bath.oscillators)


def test_bath_spec_validation():
    with pytest.raises(ValueError):
        BathSpec((), 1.0)
    with pytest.raises(ValueError):
        Oscillator(1.0, -1.0, 0.0)
