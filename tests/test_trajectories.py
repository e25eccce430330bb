import math
import re
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis.strategies import booleans, floats

from bohmpart import (RK4Fixed, RK45Adaptive, TrajectoryConfig,
                      WavepacketInit, bohmian_velocity, equivariance_check,
                      evolve, free_system, harmonic_system, integrate,
                      quantum_force, quantum_potential)
from bohmpart import trajectories
from bohmpart.core import StepFailure
from bohmpart.numdiff import central_first
from bohmpart.trajectories import (TrajectoryPath, density_quantile,
                                   scaling_solution)

HO = harmonic_system(1.0, 1.0)
FREE = free_system(1.0)
QUANTILES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def test_velocity_at_center_is_classical():
    for params, init in [(HO, WavepacketInit(1.0, 0.0, 0.45)),
                         (FREE, WavepacketInit(0.0, 2.0, 1.0))]:
        for t in (0.0, 1.1, 3.6):
            st = evolve(params, init, t)
            assert bohmian_velocity(st, st.q) == pytest.approx(
                st.p / params.mass, abs=1e-14)


def test_velocity_free_initial_time_uniform():
    st = evolve(FREE, WavepacketInit(0.0, 2.0, 1.0), 0.0)
    xs = np.linspace(-4.0, 4.0, 9)
    assert np.allclose(bohmian_velocity(st, xs), 2.0)


def test_velocity_on_spreading_flow():
    # at tau = 1 the edge trajectory x = q + s(t) moves at p0/m + s'(t)
    sigma, p0 = 1.0, 2.0
    init = WavepacketInit(0.0, p0, sigma)
    t = 2.0 * sigma**2  # tau = hbar t / (2 m sigma^2) = 1
    st = evolve(FREE, init, t)
    s_t = st.width
    s_dot = central_first(lambda tt: evolve(FREE, init, tt).width, t)
    assert bohmian_velocity(st, st.q + s_t) == pytest.approx(p0 + s_dot,
                                                             rel=1e-9)


def test_integrate_center_trajectory_exact():
    init = WavepacketInit(0.0, 2.0, 1.0)
    cfg = TrajectoryConfig(stepper=RK45Adaptive(), t_max=5.0)
    path = integrate(FREE, init, 0.0, cfg)
    assert np.max(np.abs(path.positions - 2.0 * path.times)) < 1e-9


@pytest.mark.parametrize("params,init", [
    (FREE, WavepacketInit(0.0, 2.0, 1.0)),
    (HO, WavepacketInit(1.0, 0.0, 0.7)),
    (harmonic_system(1.3, 0.8, 0.7), WavepacketInit(0.9, -0.4, 0.55)),
    (free_system(0.9, 1.6), WavepacketInit(-0.2, 1.1, 0.4)),
])
@pytest.mark.parametrize("c", [-1.5, 0.5, 2.0])
def test_integrate_matches_scaling_solution(params, init, c):
    cfg = TrajectoryConfig(stepper=RK45Adaptive(), t_max=5.0)
    x_start = init.x0 + c * init.sigma
    path = integrate(params, init, x_start, cfg)
    exact = scaling_solution(params, init, x_start, path.times)
    assert np.max(np.abs(path.positions - exact)) < 1e-6
    # the closed form against q(t) and width(t) of the evolved packet
    states = [evolve(params, init, t) for t in path.times]
    via_evolve = np.array([st.q + (x_start - init.x0) * st.width / init.sigma
                           for st in states])
    scale = np.max(np.abs(via_evolve))
    assert np.max(np.abs(exact - via_evolve)) <= 16 * np.finfo(float).eps * scale


def _worst_relative_error(params, init, x_start, times, positions):
    exact = scaling_solution(params, init, x_start, times)
    return np.max(np.abs(positions - exact) / np.maximum(1.0, np.abs(exact)))


def test_dormand_prince_matches_scipy_rk45():
    # scipy's RK45 uses the same pair and controller but picks its first
    # step by the Hairer-Norsett-Wanner heuristic, where ours tries the whole
    # span; the controller forgets that start within a few steps, so the
    # step counts and the errors still agree closely
    from scipy.integrate import solve_ivp
    rng = np.random.default_rng(11)
    for i in range(20):
        hbar, m, w = rng.uniform(0.5, 2.0, size=3)
        params = (harmonic_system(m, w, hbar) if i % 2 == 0
                  else free_system(m, hbar))
        init = WavepacketInit(*rng.uniform(-1.0, 1.0, size=2),
                              rng.uniform(0.3, 1.0))
        t_max = 50.0 if i < 2 else rng.uniform(2.0, 50.0)
        x_start = init.x0 + rng.uniform(-2.0, 2.0) * init.sigma
        path = integrate(params, init, x_start,
                         TrajectoryConfig(RK45Adaptive(), t_max))
        ref = solve_ivp(
            lambda t, y: [bohmian_velocity(evolve(params, init, t), y[0])],
            (0.0, t_max), [x_start], method="RK45", rtol=1e-9,
            atol=1e-12 * init.sigma)
        assert abs(path.times.size - ref.t.size) <= 2
        ours = _worst_relative_error(params, init, x_start, path.times,
                                     path.positions)
        theirs = _worst_relative_error(params, init, x_start, ref.t, ref.y[0])
        assert ours <= 2.0 * theirs and ours < 1e-6


def test_rk4_evaluates_four_stages_per_step_and_the_last_point(monkeypatch):
    calls = []
    guidance = trajectories._guidance

    def counting_guidance(params, init):
        velocity = guidance(params, init)

        def counted(t, x):
            calls.append(t)
            return velocity(t, x)
        return counted
    monkeypatch.setattr(trajectories, "_guidance", counting_guidance)
    steps = 50
    path = integrate(HO, WavepacketInit(1.0, 0.2, 0.6), 1.3,
                     TrajectoryConfig(RK4Fixed(0.01), steps * 0.01))
    assert path.times.size == steps + 1
    assert len(calls) == 4 * steps  # the last point costs no call


def _log_uniform(lo, hi):
    return floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(harmonic=booleans(), m=_log_uniform(0.1, 10.0),
       hbar=_log_uniform(0.1, 10.0), w=_log_uniform(0.1, 10.0),
       sigma=_log_uniform(0.1, 5.0), x0=floats(-5.0, 5.0),
       p0=floats(-5.0, 5.0), t=floats(-20.0, 20.0), x=floats(-20.0, 20.0),
       t_max=floats(0.1, 3.0))
# at p0 = -0.0 the velocity at x = x0 is -0.0 at t = 0.0 and 0.0 at t = -0.0
@example(harmonic=True, m=1.0, hbar=1.0, w=1.0, sigma=1.0, x0=1.0, p0=-0.0,
         t=0.5, x=1.0, t_max=1.0)
def test_guidance_keeps_the_bits_of_the_velocity_of_the_evolved_state(
        harmonic, m, hbar, w, sigma, x0, p0, t, x, t_max):
    """The integrators' right-hand side is bohmian_velocity(evolve(...), x)
    bit for bit, on times that repeat, alternate and change the sign of
    zero, and so are the RK4 and Dormand-Prince paths it drives."""
    params = harmonic_system(m, w, hbar) if harmonic else free_system(m, hbar)
    init = WavepacketInit(x0, p0, sigma)
    composed = lambda tt, xx: bohmian_velocity(evolve(params, init, tt), xx)
    field, other = trajectories._guidance(params, init), t_max - t
    for tt, xx in [(t, x), (t, x + sigma), (other, x), (t, x), (t, -x),
                   (0.0, x), (-0.0, x), (-0.0, -x), (0.0, x), (other, -x)]:
        assert field(tt, xx).hex() == composed(tt, xx).hex(), (tt, xx)
    x_start, steps = x0 + 0.7 * sigma, 40
    rk4 = integrate(params, init, x_start,
                    TrajectoryConfig(RK4Fixed(t_max / steps), t_max))
    assert (rk4.times.tolist(), rk4.positions.tolist()) == trajectories._rk4(
        composed, x_start, t_max / steps, steps)
    dp = integrate(params, init, x_start, TrajectoryConfig(t_max=t_max))
    times, xs = trajectories._dormand_prince(composed, x_start, t_max, sigma)
    assert dp.times.tolist() == times and dp.positions.tolist() == xs


def test_guidance_evaluates_the_packet_once_per_stage_time(monkeypatch):
    """Over an RK4 run the packet is evaluated twice per step, at t + dt/2
    (k2 and k3) and at t + dt (k4), and once more for each step whose k1
    time is not the float the step before asked k4 at: at most 3 per step,
    against the 4 velocity calls per step."""
    times = []
    packet = trajectories._packet

    def counted(*args):
        times.append(args[-1])
        return packet(*args)
    monkeypatch.setattr(trajectories, "_packet", counted)
    dt, steps = 0.01, 500
    integrate(HO, WavepacketInit(1.0, 0.2, 0.6), 1.3,
              TrajectoryConfig(RK4Fixed(dt), steps * dt))
    k1_times = [0.0] + [(k + 1) * dt for k in range(steps - 1)]  # as _rk4
    fresh_k1 = 1 + sum(k1 != t + dt for t, k1 in zip(k1_times, k1_times[1:]))
    assert len(times) == 2 * steps + fresh_k1 < 3 * steps
    assert times[:3] == [0.0, dt / 2, dt]


def test_step_count_is_capped(monkeypatch):
    init = WavepacketInit(1.0, 0.2, 0.6)
    uncapped = integrate(HO, init, 1.3, TrajectoryConfig(RK45Adaptive(), 6.0))
    assert 21 < uncapped.times.size <= 201
    monkeypatch.setattr(trajectories, "_MAX_STEPS", 20)
    path = integrate(HO, init, 1.3, TrajectoryConfig(RK4Fixed(0.01), 0.2))
    assert path.times.size == 21  # exactly at the cap
    with pytest.raises(ValueError, match="t_max/dt"):
        integrate(HO, init, 1.3, TrajectoryConfig(RK4Fixed(0.01), 0.21))
    with pytest.raises(StepFailure, match="more than 20 steps"):
        integrate(HO, init, 1.3, TrajectoryConfig(RK45Adaptive(), 1e9))
    # a run of a few dozen steps stops after its 20th, where it would have
    # taken its 21st
    with pytest.raises(StepFailure, match=re.escape(
            "more than 20 steps needed to reach t_max=6.0 "
            f"(stopped at t={float(uncapped.times[20])!r})")):
        integrate(HO, init, 1.3, TrajectoryConfig(RK45Adaptive(), 6.0))


@pytest.mark.parametrize("make, field", [
    (lambda: RK4Fixed(math.nan), "dt"),
    (lambda: RK4Fixed(math.inf), "dt"),
    (lambda: RK4Fixed(0.0), "dt"),
    (lambda: TrajectoryConfig(t_max=math.inf), "t_max"),
    (lambda: TrajectoryConfig(t_max=math.nan), "t_max"),
])
def test_stepper_and_config_reject_out_of_domain_values(make, field):
    with pytest.raises(ValueError, match=field):
        make()


def test_integrate_rejects_nonfinite_start():
    with pytest.raises(ValueError):
        integrate(FREE, WavepacketInit(0.0, 0.0, 1.0), math.nan,
                  TrajectoryConfig())


@pytest.mark.parametrize("x_start", [math.nan, math.inf])
def test_scaling_solution_rejects_nonfinite_start(x_start):
    with pytest.raises(ValueError, match="x_start"):
        scaling_solution(HO, WavepacketInit(1.0, 0.0, 0.5), x_start, 1.0)


@pytest.mark.parametrize("params", [HO, FREE])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf,
                               np.array([0.0, 1.0, math.nan]),
                               np.array([[2.0], [math.inf]])])
def test_scaling_solution_rejects_nonfinite_time(params, t):
    with pytest.raises(ValueError, match="t must be finite"):
        scaling_solution(params, WavepacketInit(1.0, 0.0, 0.5), 0.3, t)


def test_scaling_solution_free_width_does_not_overflow():
    # (hbar t / (2 m sigma^2))^2 overflows at t = 1e200; the width does not
    init, t = WavepacketInit(0.2, 0.5, 0.5), 1e200
    x = scaling_solution(FREE, init, 0.7, t)
    assert x == pytest.approx(0.5 * t + 0.5 * t / (2 * 0.25), rel=1e-15)
    assert np.isfinite(scaling_solution(FREE, init, 0.7, np.array([t]))).all()


def test_trajectory_path_validation():
    with pytest.raises(ValueError):
        TrajectoryPath(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        TrajectoryPath(np.array([0.0, 1.0]), np.array([1.0]))


def test_quantum_force_examples():
    st = evolve(HO, WavepacketInit(1.0, 0.0, 0.5), 0.0)
    assert quantum_force(st, st.q) == 0.0
    sigma = 0.7
    st = evolve(FREE, WavepacketInit(0.2, 0.0, sigma), 0.0)
    for x in (0.9, -1.3):
        assert quantum_force(st, x) == pytest.approx(
            (x - 0.2) / (4 * sigma**4), rel=1e-12)


def test_quantum_force_matches_finite_difference():
    rng = np.random.default_rng(5)
    for params, init in [(HO, WavepacketInit(1.0, 0.5, 0.45)),
                         (FREE, WavepacketInit(0.3, 1.2, 0.6))]:
        for _ in range(30):
            t = rng.uniform(0.0, 5.0)
            st = evolve(params, init, t)
            x = st.q + rng.uniform(0.3, 2.0) * st.width
            fd = -central_first(lambda xx: quantum_potential(st, xx), x)
            cf = quantum_force(st, x)
            assert abs(fd - cf) / max(abs(cf), 1e-9) < 1e-8


def test_equivariance_median_rides_center():
    err = equivariance_check(FREE, WavepacketInit(0.0, 2.0, 1.0), [0.5], 2.5)
    assert err < 1e-8


@pytest.mark.parametrize("params,init,t", [
    (FREE, WavepacketInit(0.0, 2.0, 1.0), 3.0),
    (HO, WavepacketInit(1.0, 0.0, 0.45), 2.2),
])
def test_equivariance_quantile_grid(params, init, t):
    assert equivariance_check(params, init, QUANTILES, t) < 1e-6


def test_equivariance_check_fails_on_a_nan_velocity_or_endpoint(monkeypatch):
    """A NaN never reads as zero transport error: a velocity that turns NaN
    stops the Dormand-Prince stepper, and a NaN endpoint gives NaN."""
    init = WavepacketInit(1.0, 0.0, 0.45)
    guidance = trajectories._guidance

    def nan_after_1(params, init):
        velocity = guidance(params, init)
        return lambda t, x: velocity(t, x) if t < 1.0 else math.nan
    with monkeypatch.context() as patch:
        patch.setattr(trajectories, "_guidance", nan_after_1)
        with pytest.raises(StepFailure):
            equivariance_check(HO, init, (0.2, 0.5, 0.8), 2.0)

    run = trajectories.integrate

    def nan_endpoint(*args):
        path = run(*args)
        positions = path.positions.copy()
        positions[-1] = math.nan
        return TrajectoryPath(path.times, positions)
    monkeypatch.setattr(trajectories, "integrate", nan_endpoint)
    assert math.isnan(equivariance_check(HO, init, (0.2, 0.5, 0.8), 2.0))


def test_equivariance_across_time_span():
    for params, init in [(FREE, WavepacketInit(0.0, 1.0, 0.8)),
                         (HO, WavepacketInit(1.0, 0.0, 0.45))]:
        for t in (1.0, 2.7, 5.0):
            assert equivariance_check(params, init, (0.2, 0.5, 0.8), t) < 1e-6


def test_non_crossing_of_ordered_starts():
    init = WavepacketInit(1.0, 0.0, 0.5)
    cfg = TrajectoryConfig(stepper=RK45Adaptive(), t_max=4.0)
    starts = np.linspace(init.x0 - 2.0, init.x0 + 2.0, 50)
    paths = [integrate(HO, init, x0, cfg) for x0 in starts]
    # compare on the common time grid of the first path
    grid = paths[0].times
    xs = np.vstack([np.interp(grid, p.times, p.positions) for p in paths])
    assert np.all(np.diff(xs, axis=0) > 0)


def test_rk4_global_order_on_free_oracle():
    init = WavepacketInit(0.0, 2.0, 0.3)
    x_start = init.x0 + 1.5 * init.sigma
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        cfg = TrajectoryConfig(stepper=RK4Fixed(dt), t_max=5.0)
        path = integrate(FREE, init, x_start, cfg)
        exact = scaling_solution(FREE, init, x_start, path.times)
        errs.append(np.max(np.abs(path.positions - exact)))
    for coarse, fine in zip(errs, errs[1:]):
        assert 8.0 < coarse / fine < 32.0  # dt^4 within a factor of 2


def test_classical_limit_force_decay():
    # fixed m sigma^2 = K: the quantum acceleration at x0 + c sigma is
    # hbar^2 c sigma / (4 K^2), so halving sigma halves it
    def measured(sigma, c=1.0):
        params = free_system(1.0 / sigma**2)
        init = WavepacketInit(0.0, 0.0, sigma)
        x = init.x0 + c * sigma
        dv_dt = central_first(
            lambda tt: bohmian_velocity(evolve(params, init, tt), x), 0.0,
            h=1e-5)
        st = evolve(params, init, 0.0)
        dv_dx = central_first(lambda xx: bohmian_velocity(st, xx), x, h=1e-5)
        return dv_dt + bohmian_velocity(st, x) * dv_dx

    a_coarse, a_fine = measured(0.2), measured(0.1)
    assert a_coarse == pytest.approx(0.2 / 4.0, rel=1e-6)
    assert a_fine == pytest.approx(0.1 / 4.0, rel=1e-6)
    assert a_coarse / a_fine == pytest.approx(2.0, rel=0.1)


def test_density_quantile_inverts_cdf():
    init = WavepacketInit(0.4, 0.6, 0.7)
    x = density_quantile(HO, init, 1.3, 0.75)
    st = evolve(HO, init, 1.3)
    from scipy.special import ndtr
    assert ndtr((x - st.q) / st.width) == pytest.approx(0.75, abs=1e-12)
    with pytest.raises(ValueError):
        density_quantile(HO, init, 0.0, 1.5)


@pytest.mark.parametrize("params", [HO, FREE, harmonic_system(0.7, 1.9)])
def test_density_quantile_matches_the_evolved_width(params):
    # the quantile q + width Phi^-1(c) of the state evolved to t
    init = WavepacketInit(0.4, -1.1, 0.6)
    for t in (0.0, 0.3, 1.7, 5.2, 40.0):
        st = evolve(params, init, t)
        for c in (0.01, 0.3, 0.5, 0.77, 0.999):
            want = st.q + st.width * NormalDist().inv_cdf(c)
            assert density_quantile(params, init, t, c) == pytest.approx(
                want, rel=1e-14)


def test_density_quantile_finite_where_the_width_underflows():
    # Re a underflows to 0 here, so the evolved width is 0.5/sqrt(0)
    init, t = WavepacketInit(1.0, 0.0, 0.45), 1e300
    assert evolve(FREE, init, t).alpha.real == 0.0
    xs = [density_quantile(FREE, init, t, c) for c in (0.1, 0.5, 0.9)]
    assert all(map(math.isfinite, xs))
    assert xs[1] == 1.0
    # width(t) -> hbar t/(2 m sigma) for the free packet
    spread = NormalDist().inv_cdf(0.9) * t / (2.0 * init.sigma)
    assert xs[2] - xs[1] == pytest.approx(spread, rel=1e-12)
    assert xs[1] - xs[0] == pytest.approx(spread, rel=1e-12)
