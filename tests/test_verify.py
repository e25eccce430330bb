import math

import pytest

from bohmpart import verify
from bohmpart.partition import MarginalRate
from bohmpart.verify import (bath_oracle, check_bath_factor,
                             check_marginal_rate_fd,
                             check_quantum_potential_fd, measure_bath_2pi,
                             run_verification)


def test_every_check_passes_with_a_fivefold_margin():
    """Each fixed tolerance sits at least 5x above its residual, so a check
    fails only where a closed form moves, not on rounding noise."""
    checks = run_verification().checks
    assert len(checks) == 6
    for check in checks:
        assert check.tolerance / check.residual >= 5.0, check


def test_q_check_fails_under_fault_injection(monkeypatch):
    """A closed form moved by 1%, or one that gives NaN, fails its check."""
    assert check_quantum_potential_fd().passed
    closed_form = verify.quantum_potential
    for scale in (1.01, math.nan):
        monkeypatch.setattr(verify, "quantum_potential", lambda state, x:
                            scale * closed_form(state, x))
        check = check_quantum_potential_fd()
        assert not check.passed
        assert math.isnan(check.residual) == math.isnan(scale)


def test_dzdt_check_fails_under_fault_injection(monkeypatch):
    """An exact marginal-Z rate moved by 1%, or one that is NaN, fails the
    dZ/dt check."""
    assert check_marginal_rate_fd().passed
    derivative = verify.marginal_Z_derivative
    for scale in (1.01, math.nan):
        def moved(*run, scale=scale):
            rate = derivative(*run)
            return MarginalRate(scale * rate.exact, rate.bracket)
        monkeypatch.setattr(verify, "marginal_Z_derivative", moved)
        check = check_marginal_rate_fd()
        assert not check.passed
        assert math.isnan(check.residual) == math.isnan(scale)


def test_full_verification_report():
    report = run_verification()
    assert report.passed
    assert len(report.discrepancies) == 3
    names = [d.name for d in report.discrepancies]
    assert any("center potential" in n for n in names)
    assert any("beta weight" in n for n in names)
    assert any("2 pi" in n for n in names)
    # every discrepancy carries a real measured residual
    assert all(d.residual > 1e-3 for d in report.discrepancies)
    two_pi = [d for d in report.discrepancies if "2 pi" in d.name][0]
    assert two_pi.residual == pytest.approx(2.0 * math.pi - 1.0, abs=1e-9)
    assert "verification PASSED" in report.render()


def test_bath_2pi_ratio_follows_the_oracle(monkeypatch):
    assert measure_bath_2pi(bath_oracle()).residual == pytest.approx(
        2.0 * math.pi - 1.0, abs=1e-9)
    oracle = verify.unified_integral

    def scaled(*args, **kwargs):
        val, err = oracle(*args, **kwargs)
        return 1.01 * val, 1.01 * err
    monkeypatch.setattr(verify, "unified_integral", scaled)
    moved_oracle = bath_oracle()
    moved = measure_bath_2pi(moved_oracle)
    assert moved.residual == pytest.approx(2.0 * math.pi / 1.01 - 1.0,
                                           rel=1e-9)
    assert f"{2.0 * math.pi / 1.01:.12f}" in moved.description
    assert not check_bath_factor(moved_oracle).passed


def test_run_verification_integrates_the_bath_once(monkeypatch):
    """The bath check and the 2 pi entry share one 3D quadrature."""
    calls = []
    oracle = verify.unified_integral

    def counted(*args, **kwargs):
        calls.append(args)
        return oracle(*args, **kwargs)
    monkeypatch.setattr(verify, "unified_integral", counted)
    report = run_verification()
    assert len(calls) == 1
    assert report.passed
