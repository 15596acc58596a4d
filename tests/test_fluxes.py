"""The hat states, the per-pair fluctuation oracles in ``tests/oracles.py``
that pin their meaning, and the solver's lift maps against those oracles."""

import numpy as np
import pytest

import oracles
from wavelab import media, pml
from wavelab.solver import build_mesh, fluxes
from wavelab.solver.core import _along

ACOUSTIC, ELASTIC = -1.0, 1.0  # the sign s = A_n[v, q] of each system


def one_pair(s, Z, size=1):
    """A single pair (q, v) = (0, 1) in a two-field trace, as the kernels
    receive it, with traces of ``size`` nodes."""
    return ((0, 1, s, Z),), (2, size)


def medium_pairs(medium, axis):
    """(A_n, ((q, v, s, Z), ...)) of a medium on a face normal to axis."""
    cm = medium.coefficient_matrices()
    A = cm.A_x if axis == "x" else cm.A_y
    return A, tuple((q, v, A[v, q], Z) for q, v, Z in medium.face_pairs(axis))


def boundary_F(pairs, trace, r, outward):
    F = np.zeros_like(trace)
    oracles.boundary_fluctuation(pairs, trace, F, r, outward)
    return F


def face_F(pairs, minus, plus, Z_plus=None):
    """(FR, FL) at one face; the plus side uses the minus impedances unless
    ``Z_plus`` gives its own, one per pair."""
    Z_plus = Z_plus or [Z for *_, Z in pairs]
    FR, FL = np.zeros_like(minus), np.zeros_like(plus)
    oracles.face_fluctuations(
        [(q, v, s, Zm, Zp) for (q, v, s, Zm), Zp in zip(pairs, Z_plus)],
        minus, plus, FR, FL)
    return FR, FL


def test_acoustic_hat_continuous_traces_pass_through():
    p, v = 0.7, -0.3
    p_hat, v_hat = fluxes.hat_state(ACOUSTIC, p, v, 2.0, p, v, 2.0)
    assert p_hat == pytest.approx(p)
    assert v_hat == pytest.approx(v)


def test_acoustic_hat_pressure_jump_equal_impedances():
    Z = 2.0
    p_hat, v_hat = fluxes.hat_state(ACOUSTIC, 1.0, 0.0, Z, 0.0, 0.0, Z)
    assert v_hat == pytest.approx(1.0 / (2.0 * Z))
    assert p_hat == pytest.approx(0.5)


def test_acoustic_hat_mixed_impedances():
    p_hat, v_hat = fluxes.hat_state(ACOUSTIC, 0.0, 1.0, 1.0, 0.0, 0.0, 3.0)
    assert v_hat == pytest.approx(0.25)
    assert p_hat == pytest.approx(0.75)


def test_acoustic_hat_preserves_outgoing_characteristics():
    rng = np.random.default_rng(4)
    pL, vL, pR, vR = rng.normal(size=4)
    ZL, ZR = rng.uniform(0.5, 5.0, size=2)
    p_hat, v_hat = fluxes.hat_state(ACOUSTIC, pL, vL, ZL, pR, vR, ZR)
    assert p_hat + ZL * v_hat == pytest.approx(pL + ZL * vL)
    assert p_hat - ZR * v_hat == pytest.approx(pR - ZR * vR)


def test_elastic_hat_continuous_traces_pass_through():
    T, v = 1.3, 0.4
    T_hat, v_hat = fluxes.hat_state(ELASTIC, T, v, 9.0, T, v, 9.0)
    assert T_hat == pytest.approx(T)
    assert v_hat == pytest.approx(v)


def test_elastic_hat_traction_jump():
    Z = 9.0
    T_hat, v_hat = fluxes.hat_state(ELASTIC, 0.0, 0.0, Z, 1.0, 0.0, Z)
    assert v_hat == pytest.approx(1.0 / (2.0 * Z))
    assert T_hat == pytest.approx(0.5)


def test_elastic_hat_mixed_impedances():
    T_hat, v_hat = fluxes.hat_state(ELASTIC, 0.0, 1.0, 1.0, 0.0, 0.0, 3.0)
    assert v_hat == pytest.approx(0.25)
    assert T_hat == pytest.approx(-0.75)


def test_elastic_hat_preserves_outgoing_characteristics():
    rng = np.random.default_rng(5)
    TL, vL, TR, vR = rng.normal(size=4)
    ZL, ZR = rng.uniform(0.5, 20.0, size=2)
    T_hat, v_hat = fluxes.hat_state(ELASTIC, TL, vL, ZL, TR, vR, ZR)
    assert T_hat - ZL * v_hat == pytest.approx(TL - ZL * vL)
    assert T_hat + ZR * v_hat == pytest.approx(TR + ZR * vR)


def test_boundary_fluctuation_vanishes_on_satisfied_condition():
    Z, r = 2.0, 0.4
    # acoustic east condition: (1-r)/2 Z v = (1+r)/2 p
    p = 1.0
    v = (1.0 + r) / (1.0 - r) * p / Z
    pairs, _ = one_pair(ACOUSTIC, Z)
    F = boundary_F(pairs, np.array([[p], [v]]), r, 1.0)
    assert np.max(np.abs(F)) < 1e-15
    # elastic south condition on both pairs: (1-r)/2 Z v = (1+r)/2 T
    _, pairs = medium_pairs(media.preset("iso-table1"), "y")
    trace = np.zeros((5, 1))
    for (q, v, _, Z), T in zip(pairs, (-0.7, 0.4)):
        trace[q] = T
        trace[v] = (1.0 + r) / (1.0 - r) * T / Z
    F = boundary_F(pairs, trace, r, -1.0)
    assert np.max(np.abs(F)) < 1e-15


def test_boundary_fluctuation_hard_wall_penalizes_pressure_only():
    """With r = 1 (q = 0: p = 0, or a traction-free face) the fluctuation
    depends on the q trace alone; the v row receives -+q on the high/low
    face for acoustics and +-q for elasticity, the q row q / Z."""
    q, Z = 0.3, 2.0
    for s in (ACOUSTIC, ELASTIC):
        pairs, _ = one_pair(s, Z)
        for v in (1.7, -2.0):
            trace = np.array([[q], [v]])
            F_high = boundary_F(pairs, trace, 1.0, 1.0)
            F_low = boundary_F(pairs, trace, 1.0, -1.0)
            assert np.allclose(F_high[:, 0], [q / Z, s * q],
                               atol=1e-15)
            assert np.allclose(F_low[:, 0], [q / Z, -s * q],
                               atol=1e-15)


def test_boundary_fluctuation_absorbing_lets_outgoing_waves_exit():
    # normally incident outgoing waves, q - s Z v at the high face and
    # q + s Z v at the low face: p = Z v east, T = -Z v east, and mirrored
    Z = 2.0
    for s in (ACOUSTIC, ELASTIC):
        pairs, _ = one_pair(s, Z)
        for outward in (1.0, -1.0):
            trace = np.array([[2.0], [-outward * s]])  # q = -o s Z v
            F = boundary_F(pairs, trace, 0.0, outward)
            assert np.max(np.abs(F)) == pytest.approx(0.0)


def test_boundary_hats_satisfy_condition_and_keep_outgoing():
    rng = np.random.default_rng(6)
    for r in (-1.0, -0.3, 0.0, 0.5, 1.0):
        q, v = rng.normal(size=2)
        Z = rng.uniform(0.5, 4.0)
        for s in (ACOUSTIC, ELASTIC):
            for outward in (1.0, -1.0):
                z = outward * s * Z
                q_hat, v_hat = oracles.boundary_hat(q, v, z, r)
                bc = 0.5 * (1 - r) * z * v_hat + 0.5 * (1 + r) * q_hat
                assert bc == pytest.approx(0.0, abs=1e-12)
                assert q_hat - z * v_hat == pytest.approx(q - z * v)
    # the signed condition is the familiar one: acoustic east (1-r)/2 Z v
    # = (1+r)/2 p, elastic east (1-r)/2 Z v = -(1+r)/2 T
    p_hat, v_hat = oracles.boundary_hat(1.0, 0.0, ACOUSTIC * 2.0, 0.5)
    assert 0.25 * 2.0 * v_hat == pytest.approx(0.75 * p_hat)
    T_hat, v_hat = oracles.boundary_hat(1.0, 0.0, ELASTIC * 2.0, 0.5)
    assert 0.25 * 2.0 * v_hat == pytest.approx(-0.75 * T_hat)


def test_a_mirror_neighbour_gives_the_boundary_hat():
    """A wall is a face to a mirror neighbour with the element's own
    impedance and the trace (-r q, r v): on the low face (outward -1) the
    neighbour is the minus side, on the high face (outward +1) the plus
    side, and the hat state equals the oracle's boundary hat."""
    rng = np.random.default_rng(12)
    for r in np.linspace(-1.0, 1.0, 21):
        q, v = rng.normal(size=2)
        Z = rng.uniform(0.5, 4.0)
        for s in (ACOUSTIC, ELASTIC):
            for outward in (1.0, -1.0):
                own, ghost = (q, v, Z), (-r * q, r * v, Z)
                minus, plus = (own, ghost) if outward > 0 else (ghost, own)
                got = fluxes.hat_state(s, *minus, *plus)
                want = oracles.boundary_hat(q, v, outward * s * Z, r)
                scale = abs(q) + Z * abs(v)  # of q; of v, scale / Z
                for g, w, unit in zip(got, want, (1.0, Z)):
                    assert abs(g - w) * unit <= 1e-15 * scale


def test_face_fluctuations_vanish_for_continuous_traces():
    rng = np.random.default_rng(7)
    shape = (3, 4)
    pairs, fields = one_pair(ACOUSTIC, 1.5, size=4)
    U = rng.normal(size=shape + fields)
    FR, FL = face_F(pairs, U, U)
    assert np.max(np.abs(FR)) < 1e-14
    assert np.max(np.abs(FL)) < 1e-14
    _, pairs = medium_pairs(media.preset("iso-table1"), "y")
    U = rng.normal(size=shape + (5, 4))
    FR, FL = face_F(pairs, U, U)
    assert np.max(np.abs(FR)) < 1e-14
    assert np.max(np.abs(FL)) < 1e-14


def test_interface_fluctuations_dissipate_energy():
    """The flux energy balance at a face: outflow(minus) + outflow(plus)
    plus injected work is strictly negative for jumping traces.  The face
    term of the SBP volume operator is 1/2 U^T A_n U on the high face of the
    minus element and -1/2 U^T A_n U on the low face of the plus element.
    Acoustics has one pair and elasticity two, and the impedance of every
    pair differs between the sides."""
    rng = np.random.default_rng(8)
    for preset in ("acoustic-484", "iso-table1"):
        A, pairs = medium_pairs(media.preset(preset), "x")
        for _ in range(50):
            Um, Up = rng.normal(size=(2, A.shape[0], 1))
            pairs = [(q, v, s, rng.uniform(0.3, 6.0)) for q, v, s, _ in pairs]
            FR, FL = face_F(pairs, Um, Up,
                            Z_plus=list(rng.uniform(0.3, 6.0, len(pairs))))
            u_m, u_p = Um[:, 0], Up[:, 0]
            rate = (0.5 * u_m @ A @ u_m - 0.5 * u_p @ A @ u_p
                    - u_m @ FR[:, 0] - u_p @ FL[:, 0])
            assert rate <= 1e-12
            if np.abs(Um - Up).max() > 1e-9:
                assert rate < 0.0


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("preset", ["acoustic-484", "iso-table1",
                                    "am1-table1"])
def test_fluctuations_are_the_coefficient_matrix_times_the_jump(preset,
                                                                 axis):
    """On random traces the face and boundary fluctuations are FR = -A_n
    (hat - U_minus), FL = +A_n (hat - U_plus) and F = -o A_n (hat - U),
    with A_n from the medium's coefficient matrices and the hat state equal
    to the trace on the fields no pair couples."""
    rng = np.random.default_rng(9)
    A, pairs = medium_pairs(media.preset(preset), axis)
    m, n = A.shape[0], 4
    Um, Up = rng.normal(size=(2, 3, m, n))
    FR, FL = face_F(pairs, Um, Up)
    hat = Um.copy()
    for q, v, s, Z in pairs:
        hat[:, q], hat[:, v] = fluxes.hat_state(s, Um[:, q], Um[:, v], Z,
                                                Up[:, q], Up[:, v], Z)
    np.testing.assert_allclose(FR, -A @ (hat - Um), atol=1e-13)
    np.testing.assert_allclose(FL, A @ (hat - Up), atol=1e-13)
    for outward, r in ((1.0, 0.3), (-1.0, -0.6)):
        F = boundary_F(pairs, Um, r, outward)
        hat = Um.copy()
        for q, v, s, Z in pairs:
            hat[:, q], hat[:, v] = oracles.boundary_hat(
                Um[:, q], Um[:, v], outward * s * Z, r)
        np.testing.assert_allclose(F, -outward * A @ (hat - Um), atol=1e-13)


R_VALUES = (-1.0, -0.4, 0.0, 0.3, 1.0)
LAYERS = pml.Layers(("east", "north"), 1.0, d0=2.0, gamma=1.5)


def lift_mesh(name, r):
    """A 4 x 3 element mesh of one medium preset, or of two media split at
    2.0 on x or y (``two-elastic-x``, ``two-acoustic-y``, ...) so that the
    impedances jump at an interface, with reflection coefficient r on every
    side."""
    if name.startswith("two-"):
        _, kind, axis = name.split("-")
        chosen = ((media.preset("iso-table1"), media.preset("am1-table1"))
                  if kind == "elastic" else
                  (media.preset("acoustic-484"),
                   media.AcousticMedium(rho=2.0, kappa=3.0)))
        interface = (axis, 2.0)
    else:
        chosen, interface = (media.preset(name),), None
    return build_mesh(0.0, 3.0, 0.0, 2.0, 1.0, 3, chosen,
                      dict.fromkeys(pml.SIDES, r), layers=LAYERS,
                      interface=interface)


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("name", ["acoustic-484", "iso-table1", "am1-table1",
                                  "aniso-violating", "two-elastic-x",
                                  "two-elastic-y", "two-acoustic-x",
                                  "two-acoustic-y"])
def test_lift_maps_times_traces_equal_the_per_pair_oracle(name, axis):
    """The face kernel with the mesh's maps gives the per-pair fluctuations,
    lifted, on interior faces and on the low (outward -1) and high (outward
    +1) boundary faces, for every reflection coefficient."""
    rng = np.random.default_rng(11)
    for r in R_VALUES:
        mesh = lift_mesh(name, r)
        U = rng.normal(size=(mesh.K, mesh.L, mesh.m, mesh.n, mesh.n))
        lift = np.zeros(U.shape)
        fluxes.face_fluctuations(mesh.lift_maps[axis], _along(U, axis),
                                 _along(lift, axis))
        got = _along(lift, axis)[:, :, :, 0], _along(lift, axis)[:, :, :, -1]
        for g, want in zip(got, oracles.fluctuations(mesh, U, axis)):
            assert np.max(np.abs(g - want)) <= 1e-14 * np.max(np.abs(want))
