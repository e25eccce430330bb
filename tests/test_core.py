import math

import numpy as np
import pytest
import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmpart import (BathSpec, Oscillator, QuadratureFailure, SystemParams,
                      ThermalSpec, WavepacketInit, free_system,
                      harmonic_system, potential_value)
from bohmpart.core import (GL_LADDER, REL_TOL, _legendre, _rule,
                           integrate_window, record)
from bohmpart.partition import marginal_curve, quantum_ratio
from bohmpart.trajectories import RK45Adaptive, TrajectoryConfig
from bohmpart.verify import VerificationReport


def test_hbar_override_and_validation():
    assert harmonic_system(1.0, 1.0).hbar == free_system(1.0).hbar == 1.0
    assert harmonic_system(1.0, 1.0, 2.0).hbar == 2.0
    assert free_system(1.0, 2.0) == SystemParams(1.0, 0.0, hbar=2.0)
    for hbar in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="hbar"):
            SystemParams(1.0, 1.0, hbar)


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
        SystemParams(-1.0, 0.0)
    with pytest.raises(ValueError):
        harmonic_system(1.0, 0.0)
    with pytest.raises(ValueError):
        ThermalSpec(0.0)
    with pytest.raises(ValueError):
        WavepacketInit(0.0, 0.0, -0.5)


def test_thermal_spec_kbt_roundtrip():
    th = ThermalSpec.from_kbt(2.0)
    assert th.beta == 0.5 and th.kbt == 2.0


def test_integrate_window_gaussian():
    cases = [
        (integrate_window(lambda x: np.exp(-x * x), -12.0, 12.0),
         math.sqrt(math.pi)),
        (integrate_window((lambda x: np.exp(-x * x),) * 2,
                          (-12.0, -12.0), (12.0, 12.0)), math.pi),
        (integrate_window((lambda x: np.exp(-x * x),) * 3,
                          (-12.0,) * 3, (12.0,) * 3), math.pi**1.5),
    ]
    for (val, err), exact in cases:
        assert val == pytest.approx(exact, rel=1e-12)
        assert err >= abs(val - exact)


def _legendre_40_digits(n: int, x: float) -> tuple:
    """The n-point Gauss-Legendre node next to x, and its weight, to 40
    digits: one Newton step on mpmath's three-term recurrence from x, a
    node good to about 16 digits, which it takes to over 30, and the
    weight 2 / ((1 - x^2) P_n'^2) with P_n' moved to the new node along
    P_n'' = (2 x P_n' - n (n + 1) P_n) / (1 - x^2)."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        p0, p1 = mpmath.mpf(1), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (p0 - x * p1) / (1 - x * x)
        d2p = (2 * x * dp - n * (n + 1) * p1) / (1 - x * x)
        step = p1 / dp
        node, dp = x - step, dp - d2p * step
        return node, 2 / ((1 - node * node) * dp * dp)


@pytest.mark.parametrize("n", GL_LADDER)
def test_legendre_nodes_and_weights_match_40_digit_mpmath(n):
    """Each rule of GL_LADDER is float tuples, ascending and symmetric about
    0, with weights that sum to 2 (to the ulp of 2); against mpmath at 40
    digits every node is within 2 ulp and every weight within 1e-11."""
    nodes, weights = _legendre(n)
    assert len(nodes) == len(weights) == n
    assert all(type(v) is float for v in nodes + weights)
    assert list(nodes) == sorted(nodes) and nodes[n // 2] > 0.0
    assert nodes == tuple(-x for x in reversed(nodes))
    assert weights == weights[::-1]
    assert abs(math.fsum(weights) - 2.0) <= math.ulp(2.0)
    for x, w in zip(nodes[n // 2:], weights[n // 2:]):
        node, weight = _legendre_40_digits(n, x)
        assert abs(x - node) <= 2 * math.ulp(x), x
        assert abs(w - weight) <= 1e-11 * weight, x


def _flat_box_rule(f, mid, half, n):
    """The n-point-per-axis tensor-product Gauss-Legendre rule: the box as a
    flat index, unravelled into per-point coordinates and weight products,
    summed in one dot."""
    nodes, weights = map(np.array, _legendre(n))
    idx = np.unravel_index(np.arange(n ** len(mid)), (n,) * len(mid))
    coords = [m + h * nodes[i] for m, h, i in zip(mid, half, idx)]
    point_weights = np.prod([weights[i] for i in idx], axis=0)
    return float(np.dot(point_weights, f(*coords))) * math.prod(half)


# node counts the rule test draws from: the ladder's rules and two coarser
# ones; 3-D boxes stop at 48, below 192^3 points
_RULE_SIZES = (12, 24, 48, 96, 192, 384)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_box_rule_matches_the_flat_index_rule(data):
    """On a separable product of anisotropic, shifted Gaussians in 1-D, 2-D
    and 3-D, the product of the 1-D rules, as integrate_window forms each
    rung, is the full tensor-product rule: it adds its terms in another
    order than one flat dot, so it agrees to 1e-14 relative."""
    dim = data.draw(st.integers(1, 3))
    n = data.draw(st.sampled_from(_RULE_SIZES if dim < 3 else _RULE_SIZES[:3]))
    unit = st.floats(-1.0, 1.0)
    centers = [data.draw(st.floats(-5.0, 5.0)) for _ in range(dim)]
    widths = [data.draw(st.floats(0.05, 20.0)) for _ in range(dim)]
    mid = [c + 6.0 * s * data.draw(unit) for c, s in zip(centers, widths)]
    half = [s * data.draw(st.floats(1.0, 12.0)) for s in widths]
    factors = [lambda x, c=c, s=s: np.exp(-0.5 * ((x - c) / s) ** 2)
               for c, s in zip(centers, widths)]

    def f(*xs):
        return math.prod(g(x) for g, x in zip(factors, xs))

    product = math.prod(_rule(g, m, h, n)
                        for g, m, h in zip(factors, mid, half))
    assert product == pytest.approx(_flat_box_rule(f, mid, half, n),
                                    rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", GL_LADDER)
def test_a_1d_rule_is_the_node_order_sum_times_half(n):
    """A 1-D rule forms each node as mid + half x, adds the terms in node
    order and multiplies the sum by half, bit for bit."""
    mid, half = 0.3, 7.5
    total = 0.0
    for x, w in zip(*_legendre(n)):
        total += w * math.exp(-(mid + half * x) ** 2)
    assert _rule(lambda x: math.exp(-x * x), mid, half, n) == total * half


def test_an_nd_rung_is_the_product_of_its_axes_rules():
    """Each rung of an N-D box is the product of its axes' 1-D rules, in
    axis order; the 96-node rung is returned, with its distance from the
    48-node rung as the error estimate."""
    factors = (lambda x: math.exp(-x * x), lambda y: math.exp(-2.0 * y * y),
               lambda z: math.exp(-0.5 * (z - 1.0) ** 2))
    half = 12.0 / math.sqrt(2.0)  # WINDOW_SIGMAS deviations of each factor
    lo, hi = (-half, -6.0, -11.0), (half, 6.0, 13.0)

    def rung(n):
        return math.prod(_rule(g, 0.5 * (b + a), 0.5 * (b - a), n)
                         for g, a, b in zip(factors, lo, hi))

    val, err = integrate_window(factors, lo, hi)
    assert val == rung(96) and err == abs(rung(96) - rung(48))
    assert val == pytest.approx(math.pi**1.5, rel=1e-14)


def test_an_nd_factor_that_overflows_is_a_quadrature_failure():
    with pytest.raises(QuadratureFailure, match="non-finite value inf with 48"):
        integrate_window((lambda x: 1.0, lambda y: math.exp(1e3 * y)),
                         (0.0, 0.0), (1.0, 1.0))


def test_a_1d_rule_runs_on_math_alone():
    """A 1-D integral hands f floats and returns floats, so an integrand
    on math alone needs no numpy; an overflow in f (math.exp raises
    OverflowError) is a QuadratureFailure."""
    val, err = integrate_window(lambda x: math.exp(-x * x), -12.0, 12.0)
    assert type(val) is float and type(err) is float
    assert val == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    with pytest.raises(QuadratureFailure, match="non-finite value inf with 48"):
        integrate_window(lambda x: math.exp(1e3 * x), 0.0, 1.0)


def test_integrate_window_failure_on_exhausted_subdivisions():
    # 3000 oscillations on the window: no rule of the ladder resolves them
    with pytest.raises(QuadratureFailure):
        integrate_window(lambda x: np.cos(200.0 * x * x), 0.0, 10.0)


def test_integrate_window_failure_on_non_finite_integrand():
    with pytest.raises(QuadratureFailure):
        integrate_window(lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0)


def test_unit_system_invariance_of_marginal_curve():
    # same physics in two unit systems: hbar -> 2 hbar rescales the action,
    # so m -> 2m, p0 -> 2 p0, beta -> beta/2 with sigma, omega, x0 unchanged
    times = np.linspace(0.0, 2.0 * math.pi, 9)
    base = marginal_curve(
        harmonic_system(1.0, 1.0, 1.0),
        WavepacketInit(1.0, 0.3, 0.45), ThermalSpec(0.5), times)
    scaled = marginal_curve(
        harmonic_system(2.0, 1.0, 2.0),
        WavepacketInit(1.0, 0.6, 0.45), ThermalSpec(0.25), times)
    assert np.allclose(base, scaled, rtol=REL_TOL * 100)


@pytest.mark.parametrize("make", [
    lambda s: WavepacketInit(1.0, 0.0, s),
    lambda s: BathSpec((Oscillator(1.0, 1.0, 1.0),), s),
    lambda s: quantum_ratio(1.0, s, ThermalSpec(1.0), 1.0),
])
def test_every_entry_of_a_width_rejects_one_whose_powers_overflow(make):
    for sigma in (1e-75, 1e75):  # sigma^4 and sigma^-4 are normal doubles
        make(sigma)
    for sigma in (5e-76, 2e75, 1e-200, 1e200):
        with pytest.raises(ValueError, match="sigma"):
            make(sigma)


@pytest.mark.parametrize("key, make", [
    ("mass", lambda v: SystemParams(v, 1.0)),
    ("hbar", lambda v: SystemParams(1.0, 0.0, v)),
    ("mass", lambda v: quantum_ratio(v, 1.0, ThermalSpec(1.0), 1.0)),
    ("hbar", lambda v: quantum_ratio(1.0, 1.0, ThermalSpec(1.0), v)),
])
def test_mass_and_hbar_share_the_width_range(key, make):
    """A mass or hbar outside [1e-75, 1e75] is a ValueError naming the key,
    in the system record and in quantum_ratio, which bath and limits call
    with bare floats."""
    for value in (1e-75, 1.0, 1e75):
        make(value)
    for value in (5e-76, 2e75, 1e-200, 1e200):
        with pytest.raises(ValueError, match=f"{key} = "):
            make(value)


@record
class _Pair:
    a: float
    b: str = "b"

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("a must be non-negative")


@record
class _Twin:
    a: float
    b: str = "b"


# case -> (action, None for a true result or the exception it raises)
RECORD_CONTRACT = {
    "set-field": (lambda: setattr(_Pair(1.0), "a", 2.0), AttributeError),
    "set-new-attribute": (lambda: setattr(_Pair(1.0), "c", 2.0),
                          AttributeError),
    "del-field": (lambda: delattr(_Pair(1.0), "a"), AttributeError),
    "report-is-frozen": (lambda: setattr(VerificationReport([], []),
                                         "checks", []), AttributeError),
    "eq-by-values": (lambda: _Pair(1.0, "x") == _Pair(b="x", a=1.0), None),
    "ne-by-values": (lambda: _Pair(1.0, "x") != _Pair(1.0, "y")
                     != _Pair(2.0, "y"), None),
    "ne-other-type": (lambda: _Pair(1.0) != _Twin(1.0)
                      and _Pair(1.0) != (1.0, "b"), None),
    "hash-by-values": (lambda: hash(_Pair(1.0, "x")) == hash((1.0, "x")),
                       None),
    "hash-in-order": (lambda: hash(_Pair(1.0, "x")) != hash(("x", 1.0)),
                      None),
    "class-default": (lambda: _Pair(1.0).b == _Pair(a=2.0).b == "b", None),
    "shared-default-stepper": (
        lambda: TrajectoryConfig().stepper == RK45Adaptive(), None),
    "missing": (lambda: _Pair(), TypeError),
    "extra-positional": (lambda: _Pair(1.0, "x", 3), TypeError),
    "extra-keyword": (lambda: _Pair(1.0, c=3), TypeError),
    "duplicated": (lambda: _Pair(1.0, a=2.0), TypeError),
    "post-init": (lambda: _Pair(-1.0), ValueError),
}


@pytest.mark.parametrize("action, error", RECORD_CONTRACT.values(),
                         ids=RECORD_CONTRACT)
def test_record_contract(action, error):
    """A record is frozen, compares and hashes by its field values in
    order, applies class defaults, takes each field exactly once and runs
    __post_init__ on the values it was given."""
    if error is None:
        assert action()
    else:
        with pytest.raises(error):
            action()
