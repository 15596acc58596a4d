import numpy as np
import pytest

from wavelab.solver import fluxes


def test_acoustic_hat_continuous_traces_pass_through():
    p, v = 0.7, -0.3
    p_hat, v_hat = fluxes.hat_states_acoustic(p, v, 2.0, p, v, 2.0)
    assert p_hat == pytest.approx(p)
    assert v_hat == pytest.approx(v)


def test_acoustic_hat_pressure_jump_equal_impedances():
    Z = 2.0
    p_hat, v_hat = fluxes.hat_states_acoustic(1.0, 0.0, Z, 0.0, 0.0, Z)
    assert v_hat == pytest.approx(1.0 / (2.0 * Z))
    assert p_hat == pytest.approx(0.5)


def test_acoustic_hat_mixed_impedances():
    p_hat, v_hat = fluxes.hat_states_acoustic(0.0, 1.0, 1.0, 0.0, 0.0, 3.0)
    assert v_hat == pytest.approx(0.25)
    assert p_hat == pytest.approx(0.75)


def test_acoustic_hat_preserves_outgoing_characteristics():
    rng = np.random.default_rng(4)
    pL, vL, pR, vR = rng.normal(size=4)
    ZL, ZR = rng.uniform(0.5, 5.0, size=2)
    p_hat, v_hat = fluxes.hat_states_acoustic(pL, vL, ZL, pR, vR, ZR)
    assert p_hat + ZL * v_hat == pytest.approx(pL + ZL * vL)
    assert p_hat - ZR * v_hat == pytest.approx(pR - ZR * vR)


def test_elastic_hat_continuous_traces_pass_through():
    T, v = 1.3, 0.4
    T_hat, v_hat = fluxes.hat_states_elastic(T, v, 9.0, T, v, 9.0)
    assert T_hat == pytest.approx(T)
    assert v_hat == pytest.approx(v)


def test_elastic_hat_traction_jump():
    Z = 9.0
    T_hat, v_hat = fluxes.hat_states_elastic(0.0, 0.0, Z, 1.0, 0.0, Z)
    assert v_hat == pytest.approx(1.0 / (2.0 * Z))
    assert T_hat == pytest.approx(0.5)


def test_elastic_hat_preserves_outgoing_characteristics():
    rng = np.random.default_rng(5)
    TL, vL, TR, vR = rng.normal(size=4)
    ZL, ZR = rng.uniform(0.5, 20.0, size=2)
    T_hat, v_hat = fluxes.hat_states_elastic(TL, vL, ZL, TR, vR, ZR)
    assert T_hat - ZL * v_hat == pytest.approx(TL - ZL * vL)
    assert T_hat + ZR * v_hat == pytest.approx(TR + ZR * vR)


def test_boundary_fluctuation_vanishes_on_satisfied_condition():
    Z, r = 2.0, 0.4
    # acoustic east condition: (1-r)/2 Z v = (1+r)/2 p
    p = np.array([1.0])
    v = (1.0 + r) / (1.0 - r) * p / Z
    F = fluxes.acoustic_boundary_fluctuation("x", "east", p, v, Z, r)
    assert np.max(np.abs(F)) < 1e-15
    # elastic south condition on both pairs: (1-r)/2 Z v = (1+r)/2 T
    Zt = 1.3
    Tn, Tt = np.array([-0.7]), np.array([0.4])
    vn = (1.0 + r) / (1.0 - r) * Tn / Z
    vt = (1.0 + r) / (1.0 - r) * Tt / Zt
    F = fluxes.elastic_boundary_fluctuation("y", "south", Tn, Tt, vn, vt,
                                            Z, Zt, r)
    assert np.max(np.abs(F)) < 1e-15


def test_boundary_fluctuation_hard_wall_penalizes_pressure_only():
    """With r = 1 (p = 0) the fluctuation depends on the pressure trace
    alone; the velocity row receives -+p on the east/west face."""
    p, Z = np.array([0.3]), 2.0
    for v in (1.7, -2.0):
        v = np.array([v])
        F_east = fluxes.acoustic_boundary_fluctuation("x", "east", p, v, Z,
                                                      1.0)
        F_west = fluxes.acoustic_boundary_fluctuation("x", "west", p, v, Z,
                                                      1.0)
        assert np.allclose(F_east[:, 0], [0.15, -0.3, 0.0], atol=1e-15)
        assert np.allclose(F_west[:, 0], [0.15, 0.3, 0.0], atol=1e-15)


def test_boundary_fluctuation_absorbing_lets_outgoing_waves_exit():
    # normally incident outgoing wave at the east face: p = Z v
    F = fluxes.acoustic_boundary_fluctuation(
        "x", "east", np.array([2.0]), np.array([1.0]), 2.0, 0.0)
    assert np.max(np.abs(F)) == pytest.approx(0.0)
    # same at the west face with the left-going characteristic
    F = fluxes.acoustic_boundary_fluctuation(
        "x", "west", np.array([2.0]), np.array([-1.0]), 2.0, 0.0)
    assert np.max(np.abs(F)) == pytest.approx(0.0)


def test_boundary_hats_satisfy_condition_and_keep_outgoing():
    rng = np.random.default_rng(6)
    for r in (-1.0, -0.3, 0.0, 0.5, 1.0):
        p, v = rng.normal(size=2)
        Z = rng.uniform(0.5, 4.0)
        for is_max in (False, True):
            p_hat, v_hat = fluxes.boundary_hat_acoustic(p, v, Z, r, is_max)
            sgn = -1.0 if is_max else 1.0
            bc = 0.5 * (1 - r) * Z * v_hat + sgn * 0.5 * (1 + r) * p_hat
            assert bc == pytest.approx(0.0, abs=1e-12)
            if is_max:
                assert p_hat + Z * v_hat == pytest.approx(p + Z * v)
            else:
                assert p_hat - Z * v_hat == pytest.approx(p - Z * v)
            T_hat, vT_hat = fluxes.boundary_hat_elastic(p, v, Z, r, is_max)
            sgn = 1.0 if is_max else -1.0
            bc = 0.5 * (1 - r) * Z * vT_hat + sgn * 0.5 * (1 + r) * T_hat
            assert bc == pytest.approx(0.0, abs=1e-12)
            if is_max:
                assert T_hat - Z * vT_hat == pytest.approx(p - Z * v)
            else:
                assert T_hat + Z * vT_hat == pytest.approx(p + Z * v)


def test_face_fluctuations_vanish_for_continuous_traces():
    rng = np.random.default_rng(7)
    shape = (3, 4)
    p = rng.normal(size=shape)
    v = rng.normal(size=shape)
    FR, FL = fluxes.acoustic_face_fluctuations("x", p, v, 1.5, p, v, 1.5)
    assert np.max(np.abs(FR)) < 1e-14
    assert np.max(np.abs(FL)) < 1e-14
    Tn, Tt, vn, vt = rng.normal(size=(4,) + shape)
    FR, FL = fluxes.elastic_face_fluctuations(
        "y", Tn, Tt, vn, vt, 16.2, 9.0, Tn, Tt, vn, vt, 16.2, 9.0)
    assert np.max(np.abs(FR)) < 1e-14
    assert np.max(np.abs(FL)) < 1e-14


def test_interface_fluctuations_dissipate_energy():
    """The flux energy balance at a face: outflow(minus) + outflow(plus)
    plus injected work is strictly negative for jumping traces."""
    rng = np.random.default_rng(8)
    for _ in range(50):
        pm, vm, pp, vp = rng.normal(size=4)
        Zm, Zp = rng.uniform(0.3, 6.0, size=2)
        FR, FL = fluxes.acoustic_face_fluctuations(
            "x", np.array([pm]), np.array([vm]), Zm,
            np.array([pp]), np.array([vp]), Zp)
        # per-face energy rate from the SBP boundary terms and injections
        rate = (-pm * vm + pp * vp
                - pm * FR[0, 0] - vm * FR[1, 0]
                - pp * FL[0, 0] - vp * FL[1, 0])
        assert rate <= 1e-12
        if abs(pm - pp) + abs(vm - vp) > 1e-9:
            assert rate < 0.0
