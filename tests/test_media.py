import numpy as np
import pytest

from oracles import slowest_speed
from wavelab import media
from wavelab.errors import InvalidMediumError
from wavelab.solver import build_mesh


def test_acoustic_wave_speed_from_bulk_modulus():
    med = media.AcousticMedium(rho=1.0, kappa=2.202256)
    assert med.wave_speed() == pytest.approx(1.484, abs=1e-12)


def test_isotropic_speeds_from_reference_parameters():
    med = media.preset("iso-table1")
    assert med.wave_speed() == pytest.approx(6.0, abs=1e-12)
    c_s = slowest_speed(med)
    assert c_s == pytest.approx(np.sqrt(30.17 / 2.7), rel=1e-12)
    assert c_s == pytest.approx(3.3427, abs=1e-4)


def test_am1_max_speed():
    assert media.preset("am1-table1").wave_speed() == pytest.approx(
        6.0, abs=1e-12)


def test_coefficient_matrices_symmetric():
    for med in (media.preset("acoustic-484"), media.preset("iso-table1"),
                media.preset("am1-table1")):
        cm = med.coefficient_matrices()
        assert np.array_equal(cm.A_x, cm.A_x.T)
        assert np.array_equal(cm.A_y, cm.A_y.T)
        assert np.array_equal(cm.P, cm.P.T)


def test_acoustic_pressure_row_couples_normal_velocity():
    cm = media.preset("acoustic-484").coefficient_matrices()
    assert cm.A_x[0].tolist() == [0.0, -1.0, 0.0]
    assert cm.A_y[0].tolist() == [0.0, 0.0, -1.0]


def test_p_matrix_positive_definite():
    for name in ("acoustic-484", "iso-table1", "am1-table1"):
        cm = media.preset(name).coefficient_matrices()
        assert np.all(np.linalg.eigvalsh(cm.P) > 0)


def test_p_inverse_consistency():
    med = media.preset("iso-table1")
    mesh = build_mesh(0.0, 2.0, 0.0, 1.0, 1.0, 1, (med,),
                      {"west": 0.0, "east": 0.0, "south": 0.0, "north": 0.0})
    assert np.allclose(mesh.Pinv @ mesh.Pmat, np.eye(mesh.m), atol=1e-13)


def test_boundary_quadratic_form_acoustic():
    """1/2 U^T (n.A) U reduces to -v_n p for every state and normal."""
    rng = np.random.default_rng(0)
    cm = media.preset("acoustic-484").coefficient_matrices()
    for _ in range(20):
        U = rng.normal(size=3)
        th = rng.uniform(0, 2 * np.pi)
        n = np.array([np.cos(th), np.sin(th)])
        form = 0.5 * U @ (n[0] * cm.A_x + n[1] * cm.A_y) @ U
        p, vx, vy = U
        assert form == pytest.approx(-(n[0] * vx + n[1] * vy) * p, abs=1e-12)


def test_boundary_quadratic_form_elastic():
    """1/2 U^T (n.A) U reduces to sum_eta v_eta T_eta with T = traction(n)."""
    rng = np.random.default_rng(1)
    cm = media.preset("am1-table1").coefficient_matrices()
    for _ in range(20):
        U = rng.normal(size=5)
        th = rng.uniform(0, 2 * np.pi)
        n = np.array([np.cos(th), np.sin(th)])
        form = 0.5 * U @ (n[0] * cm.A_x + n[1] * cm.A_y) @ U
        vx, vy, sxx, syy, sxy = U
        Tx = n[0] * sxx + n[1] * sxy
        Ty = n[0] * sxy + n[1] * syy
        assert form == pytest.approx(vx * Tx + vy * Ty, abs=1e-12)


def test_impedances_acoustic():
    med = media.preset("acoustic-484")
    # one pair per face axis: pressure with the face-normal velocity
    assert [(q, v) for q, v, _ in med.face_pairs("x")] == [(0, 1)]
    assert [(q, v) for q, v, _ in med.face_pairs("y")] == [(0, 2)]
    for axis in "xy":
        (_, _, Z), = med.face_pairs(axis)
        assert Z == pytest.approx(1.484, abs=1e-12)


def test_impedances_isotropic_table():
    med = media.preset("iso-table1")
    (qn, vn, Zn), (qt, vt, Zt) = med.face_pairs("x")
    assert (qn, vn, qt, vt) == (2, 0, 4, 1)  # (sxx, vx), (sxy, vy)
    assert Zn == pytest.approx(16.2, abs=1e-12)
    assert Zt == pytest.approx(2.7 * np.sqrt(30.17 / 2.7), rel=1e-12)
    assert Zt == pytest.approx(9.0253, abs=2e-4)
    # isotropic: both face axes agree on the impedances
    (qn, vn, Zny), (qt, vt, Zty) = med.face_pairs("y")
    assert (qn, vn, qt, vt) == (3, 1, 4, 0)  # (syy, vy), (sxy, vx)
    assert Zny == Zn and Zty == Zt


def test_impedances_anisotropic_axis_dependence():
    med = media.preset("am1-table1")
    assert med.face_pairs("x")[0][2] == pytest.approx(
        np.sqrt(20.0 / 36.0 * 20.0))
    assert med.face_pairs("y")[0][2] == pytest.approx(
        np.sqrt(20.0 / 36.0 * 4.0))
    with pytest.raises(ValueError):
        med.face_pairs("z")


def test_face_pairs_couple_through_the_coefficient_matrices():
    """Each pair (q, v) is an off-diagonal entry s = A_n[v, q] = A_n[q, v]
    of the face-normal coefficient matrix, -1 for acoustics and +1 for
    elasticity, and the pairs hold every nonzero entry of A_n."""
    for name, s in (("acoustic-484", -1.0), ("iso-table1", 1.0),
                    ("am1-table1", 1.0)):
        med = media.preset(name)
        cm = med.coefficient_matrices()
        for axis, A in (("x", cm.A_x), ("y", cm.A_y)):
            coupled = np.zeros_like(A)
            for q, v, _ in med.face_pairs(axis):
                assert A[v, q] == A[q, v] == s
                coupled[v, q] = coupled[q, v] = s
            np.testing.assert_array_equal(coupled, A)


def test_invalid_media_rejected():
    with pytest.raises(InvalidMediumError):
        media.AcousticMedium(rho=-1.0, kappa=1.0)
    with pytest.raises(InvalidMediumError):
        media.AcousticMedium(rho=1.0, kappa=0.0)
    with pytest.raises(InvalidMediumError):
        media.ElasticMedium2D(rho=1.0, c11=1.0, c12=2.0, c22=1.0, c33=1.0)
    with pytest.raises(InvalidMediumError):
        media.ElasticMedium2D(rho=1.0, c11=1.0, c12=0.0, c22=1.0, c33=-1.0)
    with pytest.raises(InvalidMediumError):
        media.preset("no-such-medium")


def test_from_config_variants():
    assert media.from_config("iso-table1") == media.preset("iso-table1")
    med = media.from_config({"type": "acoustic", "rho": 2.0, "kappa": 8.0})
    assert med.c == pytest.approx(2.0)
    med = media.from_config({"type": "elastic", "rho": 1.0, "c11": 4.0,
                             "c12": 1.0, "c22": 4.0, "c33": 2.0})
    assert med.coefficient_matrices().m == 5
    with pytest.raises(InvalidMediumError):
        media.from_config({"type": "plasma"})
