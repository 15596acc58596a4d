import numpy as np
import pytest

from oracles import stretching_metric
from wavelab import pml


def make_profile(**kw):
    base = dict(axis="x", interior_extent=50.0, width=10.0, d0=2.0)
    base.update(kw)
    return pml.PmlProfile(**base)


def test_damping_zero_in_interior():
    prof = make_profile()
    assert prof.damping_at(49.0) == 0.0
    assert prof.damping_at(50.0) == 0.0
    assert prof.damping_at(-100.0) == 0.0


def test_damping_reaches_full_strength_at_layer_end():
    prof = make_profile()
    assert prof.damping_at(60.0) == pytest.approx(2.0)
    # clamped beyond the layer
    assert prof.damping_at(75.0) == pytest.approx(2.0)


def test_damping_cubic_midpoint():
    prof = make_profile()
    assert prof.damping_at(55.0) == pytest.approx(2.0 / 8.0)


def test_damping_monotone():
    prof = make_profile()
    xi = np.linspace(40.0, 70.0, 400)
    d = prof.damping_at(xi)
    assert np.all(np.diff(d) >= 0)


def test_low_side_profile_mirrors():
    prof = make_profile(side="low", interior_extent=-50.0)
    assert prof.damping_at(-49.0) == 0.0
    assert prof.damping_at(-55.0) == pytest.approx(2.0 / 8.0)
    assert prof.damping_at(-60.0) == pytest.approx(2.0)


def test_perfectly_matched_junction():
    """Value and first two derivatives of the cubic profile vanish at the
    interface, so the interior equations are untouched."""
    prof = make_profile()
    h = 1e-4
    d0 = prof.damping_at(50.0)
    d1 = (prof.damping_at(50 + h) - prof.damping_at(50 - h)) / (2 * h)
    d2 = (prof.damping_at(50 + h) - 2 * d0 + prof.damping_at(50 - h)) / h ** 2
    assert d0 == 0.0
    assert abs(d1) < 1e-7
    assert abs(d2) < 1e-3


def test_damping_strength_reference_values():
    assert pml.damping_strength(1.484, 10.0, 1e-3) == pytest.approx(
        2.05022, rel=1e-5)
    assert pml.damping_strength(6.0, 10.0, 1e-3) == pytest.approx(
        8.28931, rel=1e-5)
    assert pml.damping_strength(3.0, 5.0, 1.0) == 0.0


def test_damping_strength_rejects_bad_arguments():
    with pytest.raises(ValueError):
        pml.damping_strength(1.0, 10.0, 1.5)
    with pytest.raises(ValueError):
        pml.damping_strength(-1.0, 10.0, 0.1)
    with pytest.raises(ValueError):
        pml.damping_strength(1.0, 0.0, 0.1)


def test_stretching_metric_interior():
    assert stretching_metric(1.0 + 1.0j, 0.0, 0.0) == 1.0
    assert stretching_metric(2.0j, 0.0, 0.3, gamma=1.7) == 1.7


def test_stretching_metric_worked_example():
    S = stretching_metric(1.0 + 1.0j, 2.0, 0.0)
    assert S == pytest.approx(2.0 - 1.0j)
    assert 1.0 / S == pytest.approx((2.0 + 1.0j) / 5.0)
    # inverse identity 1/S = 1/gamma - (1/S) d/(s+alpha)
    lhs = 1.0 / S
    rhs = 1.0 - (1.0 / S) * 2.0 / (1.0 + 1.0j)
    assert lhs == pytest.approx(rhs, abs=1e-15)


def test_stretching_metric_positive_real_inverse_on_axis():
    S = stretching_metric(1.0j, 2.0, 0.15)
    assert np.isfinite(abs(S))
    assert (1.0 / S).real > 0


def test_stretching_metric_inverse_identity_grid():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        s = complex(rng.uniform(0.01, 3.0), rng.uniform(-5.0, 5.0))
        d = rng.uniform(0.0, 10.0)
        alpha = rng.uniform(0.0, 2.0)
        gamma = rng.uniform(0.2, 3.0)
        S = stretching_metric(s, d, alpha, gamma)
        res = abs(1.0 / S - (1.0 / gamma - (1.0 / S) * d / (s + alpha)))
        worst = max(worst, res)
    assert worst <= 1e-14


def test_stretching_metric_pole():
    with pytest.raises(ZeroDivisionError):
        stretching_metric(-0.15, 1.0, 0.15)


def test_profile_validation():
    with pytest.raises(ValueError):
        make_profile(width=0.0)
    with pytest.raises(ValueError):
        make_profile(d0=-1.0)
    with pytest.raises(ValueError):
        make_profile(gamma=0.0)
    with pytest.raises(ValueError):
        make_profile(axis="z")
    with pytest.raises(ValueError):
        make_profile(side="middle")
