import math

import pytest

from bohmpart import verify
from bohmpart.verify import (ToleranceProfile, check_bath_factor,
                             check_quantum_force_fd,
                             check_quantum_potential_fd, measure_bath_2pi,
                             run_verification)


def test_tolerance_profiles():
    default = ToleranceProfile.named("default")
    strict = ToleranceProfile.named("strict")
    assert strict.q_fd < default.q_fd
    assert strict.n_points > default.n_points
    assert strict.quantum_force_fd < default.quantum_force_fd
    force = check_quantum_force_fd(strict)
    assert force.passed and force.tolerance == strict.quantum_force_fd
    with pytest.raises(ValueError):
        ToleranceProfile.named("bogus")


def test_q_check_fails_under_fault_injection():
    profile = ToleranceProfile(n_points=20)
    assert check_quantum_potential_fd(profile).passed
    assert not check_quantum_potential_fd(profile, q_scale=1.01).passed


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
    assert measure_bath_2pi().residual == pytest.approx(
        2.0 * math.pi - 1.0, abs=1e-9)
    oracle = verify.unified_integral

    def scaled(*args, **kwargs):
        val, err = oracle(*args, **kwargs)
        return 1.01 * val, 1.01 * err
    monkeypatch.setattr(verify, "unified_integral", scaled)
    moved = measure_bath_2pi()
    assert moved.residual == pytest.approx(2.0 * math.pi / 1.01 - 1.0,
                                           rel=1e-9)
    assert f"{2.0 * math.pi / 1.01:.12f}" in moved.description
    assert not check_bath_factor(ToleranceProfile()).passed
