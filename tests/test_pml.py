import numpy as np
import pytest

from oracles import stretching_metric
from wavelab import pml
from wavelab.solver.mesh import layout


def make_layers(**kw):
    base = dict(sides=("east",), width=10.0, d0=2.0)
    base.update(kw)
    return pml.Layers(**base)


def damping(layers, xi, lo=-np.inf, hi=50.0):
    """The damping d0 ramp on an axis whose box spans [lo, hi]; by default
    the box ends at 50 on the high side only."""
    return layers.d0 * layers.ramp(np.asarray(xi, dtype=float), lo, hi)


def test_damping_zero_in_interior():
    layers = make_layers()
    assert damping(layers, 49.0) == 0.0
    assert damping(layers, 50.0) == 0.0
    assert damping(layers, -100.0) == 0.0


def test_damping_reaches_full_strength_at_layer_end():
    layers = make_layers()
    assert damping(layers, 60.0) == pytest.approx(2.0)
    # clamped beyond the layer
    assert damping(layers, 75.0) == pytest.approx(2.0)


def test_damping_cubic_midpoint():
    layers = make_layers()
    assert damping(layers, 55.0) == pytest.approx(2.0 / 8.0)


def test_damping_monotone():
    layers = make_layers()
    xi = np.linspace(40.0, 70.0, 400)
    d = damping(layers, xi)
    assert np.all(np.diff(d) >= 0)


def test_low_side_profile_mirrors():
    layers = make_layers(sides=("west",))
    low = dict(lo=-50.0, hi=np.inf)
    assert damping(layers, -49.0, **low) == 0.0
    assert damping(layers, -55.0, **low) == pytest.approx(2.0 / 8.0)
    assert damping(layers, -60.0, **low) == pytest.approx(2.0)


def test_perfectly_matched_junction():
    """Value and first two derivatives of the cubic profile vanish at the
    interface, so the interior equations are untouched."""
    layers = make_layers()
    h = 1e-4
    d0 = damping(layers, 50.0)
    d1 = (damping(layers, 50 + h) - damping(layers, 50 - h)) / (2 * h)
    d2 = (damping(layers, 50 + h) - 2 * d0
          + damping(layers, 50 - h)) / h ** 2
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
    # each value out of range, NaN included, is named by its scenario key
    for bad, key in ((dict(width=0.0), "width"), (dict(d0=-1.0), "d0"),
                     (dict(gamma=0.0), "gamma"),
                     (dict(sides=("east", "east")), "sides[1]"),
                     (dict(sides=("middle",)), "sides[0]"),
                     (dict(d0=np.inf), "d0"), (dict(d0=np.nan), "d0"),
                     (dict(alpha=np.inf), "alpha"),
                     (dict(alpha=np.nan), "alpha"),
                     (dict(exponent=np.nan), "exponent"),
                     (dict(gamma=np.inf), "gamma")):
        with pytest.raises(ValueError) as info:
            make_layers(**bad)
        assert str(info.value).startswith(f"pml.{key}: ")


def test_layers_grow_the_box_on_their_sides_only():
    box = (-20.0, 20.0, 0.0, 10.0)
    assert layout(box, 10.0)[2] == box
    assert layout(box, 10.0, ("west", "north"), 10.0)[2] == (
        -30.0, 20.0, 0.0, 20.0)
    assert layout(box, 10.0, pml.SIDES, 10.0)[2] == (
        -30.0, 30.0, -10.0, 20.0)
