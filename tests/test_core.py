import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohmpart import (BathSpec, Oscillator, QuadratureFailure, SystemParams,
                      ThermalSpec, WavepacketInit, free_system,
                      harmonic_system, potential_value)
from bohmpart.core import (GL_LADDER, REL_TOL, SLAB_POINTS, _box_rule,
                           _legendre, integrate_window, record)
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
        (integrate_window(lambda x, y: np.exp(-x * x - y * y),
                          (-12.0, -12.0), (12.0, 12.0)), math.pi),
        (integrate_window(lambda x, y, z: np.exp(-x * x - y * y - z * z),
                          (-12.0,) * 3, (12.0,) * 3), math.pi**1.5),
    ]
    for (val, err), exact in cases:
        assert val == pytest.approx(exact, rel=1e-12)
        assert err >= abs(val - exact)


def _flat_box_rule(f, mid, half, n):
    """Reference for core._box_rule: the box as a flat index, each slab of
    SLAB_POINTS unravelled into per-point coordinates and weight products."""
    nodes, weights = _legendre(n)
    total_points = n ** mid.size
    total = 0.0
    for start in range(0, total_points, SLAB_POINTS):
        flat = np.arange(start, min(start + SLAB_POINTS, total_points))
        idx = np.unravel_index(flat, (n,) * mid.size)
        coords = [mid[k] + half[k] * nodes[i] for k, i in enumerate(idx)]
        slab_weights = np.prod([weights[i] for i in idx], axis=0)
        total += float(np.dot(slab_weights, f(*coords)))
    return total * float(np.prod(half))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_box_rule_matches_the_flat_index_rule(data):
    """Anisotropic, shifted Gaussians, coupled across the first and last
    axis in 2-D and 3-D: the open-grid rule sums in another order, so it
    agrees to 1e-14 relative, and in 1-D, where the order is the same,
    bit for bit."""
    dim = data.draw(st.integers(1, 3))
    n = data.draw(st.sampled_from(GL_LADDER if dim < 3 else GL_LADDER[:3]))
    unit = st.floats(-1.0, 1.0)
    centers = [data.draw(st.floats(-5.0, 5.0)) for _ in range(dim)]
    widths = [data.draw(st.floats(0.05, 20.0)) for _ in range(dim)]
    rho = data.draw(unit) * 0.9 if dim > 1 else 0.0
    mid = np.array([c + 6.0 * s * data.draw(unit)
                    for c, s in zip(centers, widths)])
    half = np.array([s * data.draw(st.floats(1.0, 12.0)) for s in widths])

    def f(*xs):
        z = [(x - c) / s for x, c, s in zip(xs, centers, widths)]
        return np.exp(-0.5 * sum(zk * zk for zk in z) - rho * z[0] * z[-1])

    new, ref = _box_rule(f, mid, half, n), _flat_box_rule(f, mid, half, n)
    if dim == 1:
        assert new == ref
    else:
        assert new == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_box_rule_broadcasts_an_integrand_that_ignores_an_axis():
    """An integrand may return fewer axes than the box has, or a constant."""
    def f(x, y):
        return np.exp(-x * x)

    mid, half = np.array([0.0, 1.5]), np.array([12.0, 1.5])
    for n in GL_LADDER[:3]:
        assert _box_rule(f, mid, half, n) == pytest.approx(
            _flat_box_rule(lambda x, y: f(x, y) + 0.0 * y, mid, half, n),
            rel=1e-14, abs=0.0)
    val, _ = integrate_window(f, (-12.0, 0.0), (12.0, 3.0))
    assert val == pytest.approx(3.0 * math.sqrt(math.pi), rel=1e-14)
    val, err = integrate_window(lambda x, y, z: 2.0, (-1.0, 0.0, 2.0),
                                (1.0, 0.5, 5.0))
    assert val == pytest.approx(2.0 * 2.0 * 0.5 * 3.0, rel=1e-14)
    assert err <= 1e-14


@pytest.mark.parametrize("dim, n", [(1, 384), (2, 48), (2, 384), (3, 12),
                                    (3, 48), (3, 192)])
def test_box_rule_slabs_bound_the_points_per_call(dim, n):
    """Each call sees whole first-axis rows, at most max(SLAB_POINTS,
    n^(d-1)) points, and the calls together cover the box once."""
    sizes = []

    def f(*xs):
        sizes.append(np.broadcast(*xs).size)
        return np.exp(-sum(x * x for x in xs))

    _box_rule(f, np.zeros(dim), np.full(dim, 3.0), n)
    assert max(sizes) <= max(SLAB_POINTS, n ** (dim - 1))
    assert sum(sizes) == n ** dim


# (center, width) per axis of each element of a batch of Gaussians; the
# narrow ones converge on later rungs than the wide ones
_BATCH = [[(0.3, 2.0), (-1.0, 0.9), (0.5, 1.0)],
          [(1.5, 0.35), (0.2, 3.0), (-1.0, 0.8)],
          [(-2.0, 1.1), (0.0, 0.25), (1.2, 2.0)],
          [(0.0, 4.0), (2.5, 0.6), (0.0, 0.4)],
          [(4.0, 0.5), (-3.0, 1.7), (2.0, 1.5)],
          [(-0.7, 1.3), (1.1, 0.3), (-2.5, 0.7)]]


def _gaussian(centers, widths):
    """exp(-|(x - c)/w|^2 / 2) over as many axes as the coordinates given."""
    def f(*xs):
        return np.exp(sum(-0.5 * ((x - c) / w) ** 2
                          for x, c, w in zip(xs, centers, widths)))
    return f


@pytest.mark.parametrize("dim, batch", [(1, (6,)), (2, (6,)), (2, (2, 3)),
                                        (3, (3,))])
def test_batched_integrand_gives_each_element_its_scalar_bits(dim, batch):
    """A batch's values and errors are the per-element scalar calls' bit for
    bit, though the elements converge on different rungs; a scalar
    integrand still returns floats."""
    lo, hi = (-6.0, -5.0, -4.0)[:dim], (5.0, 6.0, 4.5)[:dim]
    elements = [tuple(zip(*axes[:dim])) for axes in _BATCH][:math.prod(batch)]
    pad = (1,) * dim  # the element columns broadcast against the open grid
    centers = [np.array([c[k] for c, _ in elements]).reshape(batch + pad)
               for k in range(dim)]
    widths = [np.array([w[k] for _, w in elements]).reshape(batch + pad)
              for k in range(dim)]
    values, errors = integrate_window(_gaussian(centers, widths), lo, hi)
    assert values.shape == errors.shape == batch
    scalars = [integrate_window(_gaussian(c, w), lo, hi) for c, w in elements]
    assert all(type(v) is float and type(e) is float for v, e in scalars)
    assert values.ravel().tolist() == [v for v, _ in scalars]
    assert errors.ravel().tolist() == [e for _, e in scalars]
    assert len({e for _, e in scalars}) > 1


def test_batched_quadrature_failure_names_the_largest_disagreement():
    """One element that never converges fails the batch, and the message
    quotes the largest last disagreement among those that did not; one
    non-finite element fails it too."""
    rates = np.array([[200.0], [1.0], [150.0]])  # 1.0 converges

    def messages(f):
        with pytest.raises(QuadratureFailure) as info:
            integrate_window(f, 0.0, 10.0)
        return str(info.value)

    alone = [messages(lambda x, a=a: np.cos(a * x * x)) for a in (200.0, 150.0)]
    worst = max(alone, key=lambda m: float(m.rsplit(" ", 1)[1]))
    assert messages(lambda x: np.cos(rates * x * x)) == worst
    assert alone[0] != alone[1]
    edges = np.array([[20.0], [0.5], [30.0]])
    assert "non-finite value inf" in messages(
        lambda x: np.where(x > edges, np.inf, 1.0))


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
