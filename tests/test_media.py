import numpy as np
import pytest

from wavelab import media
from wavelab.errors import InvalidMediumError
from wavelab.solver import build_mesh


def test_acoustic_wave_speed_from_bulk_modulus():
    med = media.AcousticMedium(rho=1.0, kappa=2.202256)
    assert med.wave_speeds().c_p == pytest.approx(1.484, abs=1e-12)
    assert med.wave_speeds().c_s is None


def test_isotropic_speeds_from_reference_parameters():
    med = media.preset("iso-table1")
    ws = med.wave_speeds()
    assert ws.c_p == pytest.approx(6.0, abs=1e-12)
    assert ws.c_s == pytest.approx(np.sqrt(30.17 / 2.7), rel=1e-12)
    assert ws.c_s == pytest.approx(3.3427, abs=1e-4)


def test_am1_max_speed():
    ws = media.preset("am1-table1").wave_speeds()
    assert ws.c_p == pytest.approx(6.0, abs=1e-12)


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
    mesh = build_mesh(0.0, 2.0, 0.0, 1.0, 1.0, 1, lambda x, y: med,
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
    imp = media.preset("acoustic-484").impedances()
    assert imp.normal == pytest.approx(1.484, abs=1e-12)


def test_impedances_isotropic_table():
    med = media.preset("iso-table1")
    imp = med.impedances("x")
    assert imp.normal == pytest.approx(16.2, abs=1e-12)
    assert imp.tangential == pytest.approx(2.7 * np.sqrt(30.17 / 2.7),
                                           rel=1e-12)
    assert imp.tangential == pytest.approx(9.0253, abs=2e-4)
    # isotropic: both face axes agree
    impy = med.impedances("y")
    assert impy.normal == imp.normal and impy.tangential == imp.tangential


def test_impedances_anisotropic_axis_dependence():
    med = media.preset("am1-table1")
    assert med.impedances("x").normal == pytest.approx(
        np.sqrt(20.0 / 36.0 * 20.0))
    assert med.impedances("y").normal == pytest.approx(
        np.sqrt(20.0 / 36.0 * 4.0))
    with pytest.raises(ValueError):
        med.impedances("z")


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
