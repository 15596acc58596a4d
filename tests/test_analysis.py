import numpy as np
import pytest

from oracles import (exact_group_velocity, fd_group_velocity,
                     find_violating_medium, reference_branches,
                     reference_scan)
from wavelab import analysis, media
from wavelab.errors import DegenerateBranchError


# c11 = c22 = c12 + c33: the two branches have equal speed on the axes
DEGENERATE_MEDIUM = media.ElasticMedium2D(rho=1.0, c11=2.0, c12=0.0, c22=2.0,
                                          c33=2.0)

ORACLE_MEDIA = {
    "acoustic-484": media.preset("acoustic-484"),
    "iso-table1": media.preset("iso-table1"),
    "am1-table1": media.preset("am1-table1"),
    "aniso-violating": media.preset("aniso-violating"),
    "degenerate": DEGENERATE_MEDIUM,
}

# the degenerate medium's branches meet on the axes and split by a relative
# gap of about the angle off them: 5e-8 is under the degeneracy rule's 1e-7,
# 3e-7 is over it
WAVE_VECTORS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [1.0, 5e-8],
                         [1.0, 3e-7], [1.0, 1.0], [0.3, -0.8], [2.0, 2.0],
                         [-5.0, 0.25], [1e-3, 4e-3]])


def sorted_imag(roots):
    return np.sort(roots.imag)


def test_acoustic_roots_unit_wavevector():
    med = media.preset("acoustic-484")
    ds = analysis.dispersion_roots(med, (1.0, 0.0))
    assert np.allclose(sorted_imag(ds.roots), [-1.484, 0.0, 1.484],
                       atol=1e-12)
    assert np.max(np.abs(ds.roots.real)) < 1e-12
    assert np.allclose(ds.omega_branches, [1.484], atol=1e-12)


def test_acoustic_roots_scale_with_wavevector_magnitude():
    med = media.AcousticMedium(rho=1.0, kappa=1.0)
    ds = analysis.dispersion_roots(med, (3.0, 4.0))
    assert np.allclose(sorted_imag(ds.roots), [-5.0, 0.0, 5.0], atol=1e-12)


def test_isotropic_roots():
    med = media.preset("iso-table1")
    ds = analysis.dispersion_roots(med, (1.0, 0.0))
    cs = np.sqrt(30.17 / 2.7)
    want = [-6.0, -cs, 0.0, cs, 6.0]
    assert np.allclose(sorted_imag(ds.roots), want, atol=1e-10)


def test_roots_purely_imaginary_random_wavevectors():
    rng = np.random.default_rng(3)
    for med in (media.preset("acoustic-484"), media.preset("am1-table1")):
        for _ in range(50):
            k = rng.normal(size=2) * rng.uniform(0.1, 30.0)
            if np.hypot(*k) < 1e-3:
                continue
            ds = analysis.dispersion_roots(med, k)
            scale = np.max(np.abs(ds.roots.imag))
            assert np.max(np.abs(ds.roots.real)) <= 1e-10 * scale


def test_roots_scale_homogeneous():
    med = media.preset("am1-table1")
    k = (0.7, -0.4)
    base = sorted_imag(analysis.dispersion_roots(med, k).roots)
    for c in (0.5, 3.0, 17.0):
        scaled = sorted_imag(
            analysis.dispersion_roots(med, (c * k[0], c * k[1])).roots)
        assert np.allclose(scaled, c * base, atol=1e-10 * c)


def test_zero_wavevector_rejected():
    with pytest.raises(ValueError):
        analysis.dispersion_roots(media.preset("acoustic-484"), (0.0, 0.0))


def test_group_velocity_acoustic_radial():
    med = media.preset("acoustic-484")
    for k in ((1.0, 0.0), (0.3, -0.8), (2.0, 2.0)):
        vg = analysis.group_velocity(med, k, 0)
        want = 1.484 * np.asarray(k) / np.hypot(*k)
        assert np.allclose(vg, want, atol=1e-8)


def test_acoustic_phase_group_product_is_speed_squared():
    med = media.preset("acoustic-484")
    k = np.array([0.6, 0.8])
    w = analysis.dispersion_roots(med, k).omega_branches[0]
    vg = analysis.group_velocity(med, k, 0)
    for xi in range(2):
        assert (w / k[xi]) * vg[xi] == pytest.approx(1.484 ** 2, rel=1e-7)


def test_group_velocity_am1_bounded_by_fastest_speed():
    med = media.preset("am1-table1")
    k = (1 / np.sqrt(2), 1 / np.sqrt(2))
    for branch in (0, 1):
        vg = analysis.group_velocity(med, k, branch)
        assert np.all(np.isfinite(vg))
        assert np.linalg.norm(vg) <= 6.0 + 1e-8


def test_group_velocity_degenerate_branch_detected():
    med = DEGENERATE_MEDIUM
    with pytest.raises(DegenerateBranchError):
        analysis.group_velocity(med, (1.0, 0.0), 0)
    # off the axes the branches split
    vg = analysis.group_velocity(med, (1.0, 1.0), 0)
    assert np.all(np.isfinite(vg))


@pytest.mark.parametrize("name", sorted(ORACLE_MEDIA))
def test_branches_equal_the_per_branch_oracle(name):
    med = ORACLE_MEDIA[name]
    omega, V_g = analysis.branches(med, WAVE_VECTORS)
    want = [reference_branches(med, k) for k in WAVE_VECTORS]
    assert np.array_equal(omega, np.array([w for w, _ in want]))
    assert np.array_equal(V_g, np.array([v for _, v in want]), equal_nan=True)
    if name == "degenerate":
        # NaN on both branches within 1e-7 of the axes, where the oracle
        # raises, and nowhere else
        assert np.isnan(V_g[:4]).all() and not np.isnan(V_g[4:]).any()
    for k, (w, v) in zip(WAVE_VECTORS, want):
        for b in range(len(w)):
            if np.isnan(v[b]).any():
                with pytest.raises(DegenerateBranchError):
                    analysis.group_velocity(med, k, b)
            else:
                assert np.array_equal(analysis.group_velocity(med, k, b),
                                      fd_group_velocity(med, k, b))


@pytest.mark.parametrize("name", sorted(ORACLE_MEDIA))
def test_slowness_scan_equals_the_per_direction_oracle(name):
    med = ORACLE_MEDIA[name]
    angles, k, omega, V_g = analysis.slowness_scan(med, 180)
    want_k, want_omega, want_V_g = reference_scan(med, angles)
    assert np.array_equal(k, want_k)
    assert np.array_equal(omega, want_omega)
    assert np.array_equal(V_g, want_V_g, equal_nan=True)


@pytest.mark.parametrize("name", sorted(ORACLE_MEDIA))
def test_finite_difference_group_velocity_matches_eigenvectors(name):
    med = ORACLE_MEDIA[name]
    rng = np.random.default_rng(7)
    k = rng.normal(size=(40, 2)) * rng.uniform(0.1, 30.0, size=(40, 1))
    _, V_g = analysis.branches(med, k)
    exact = np.array([exact_group_velocity(med, kk) for kk in k])
    assert not np.isnan(V_g).any()
    scale = np.linalg.norm(exact, axis=-1, keepdims=True)
    assert np.all(np.abs(V_g - exact) <= 1e-6 * scale)


def test_branches_reject_a_zero_wave_vector():
    with pytest.raises(ValueError):
        analysis.branches(media.preset("iso-table1"), [[1.0, 0.0], [0.0, 0.0]])


def test_group_velocity_branch_bounds():
    with pytest.raises(ValueError):
        analysis.group_velocity(media.preset("acoustic-484"), (1.0, 0.0), 1)


def test_stability_check_acoustic_stable():
    rep = analysis.geometric_stability_check(
        media.preset("acoustic-484"), "x", 64)
    assert rep.verdict == "stable"
    assert rep.min_product == pytest.approx(1.484 ** 2, rel=1e-6)


@pytest.mark.parametrize("name", ["iso-table1", "am1-table1"])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_stability_check_reference_media_stable(name, axis):
    rep = analysis.geometric_stability_check(media.preset(name), axis, 720)
    assert rep.verdict == "stable"
    assert rep.min_product >= -analysis.TOL_GSC


def test_stability_check_direction_count_precondition():
    with pytest.raises(ValueError):
        analysis.geometric_stability_check(media.preset("acoustic-484"),
                                           "x", 8)


def test_violating_medium_scan_and_spectrum():
    medium, report = find_violating_medium()
    assert medium == media.preset("aniso-violating")
    assert report.verdict == "unstable"
    assert report.min_product < -0.1
    # offending direction carries growing PML modes at high wavenumber
    for scale in (50.0, 200.0):
        k = tuple(report.worst_direction * scale)
        spec = analysis.pml_mode_spectrum(medium, k, d=2.0, alpha=0.15)
        assert spec.max_real > 1e-8


def test_stability_verdict_invariant_under_uniform_scaling():
    base = media.preset("aniso-violating")
    scaled = media.ElasticMedium2D(rho=4.0 * base.rho, c11=4.0 * base.c11,
                                   c12=4.0 * base.c12, c22=4.0 * base.c22,
                                   c33=4.0 * base.c33)
    for med in (base, scaled):
        rep = analysis.geometric_stability_check(med, "x", 180)
        assert rep.verdict == "unstable"
    stable = media.preset("am1-table1")
    scaled_stable = media.ElasticMedium2D(
        rho=0.5 * stable.rho, c11=0.5 * stable.c11, c12=0.5 * stable.c12,
        c22=0.5 * stable.c22, c33=0.5 * stable.c33)
    rep = analysis.geometric_stability_check(scaled_stable, "x", 180)
    assert rep.verdict == "stable"


def test_pml_spectrum_reduces_to_dispersion_roots_without_damping():
    med = media.preset("iso-table1")
    k = (0.6, 0.8)
    spec = analysis.pml_mode_spectrum(med, k, 0.0, 0.0)
    roots = analysis.dispersion_roots(med, k).roots
    assert np.max(np.abs(spec.eigenvalues.real)) < 1e-10
    got = sorted_imag(spec.eigenvalues)
    want = sorted_imag(roots / np.hypot(*k))
    assert np.max(np.abs(got - want)) < 1e-10


def test_pml_spectrum_acoustic_stable_sample():
    med = media.preset("acoustic-484")
    spec = analysis.pml_mode_spectrum(med, (0.6, 0.8), d=1.0, alpha=0.0)
    assert spec.max_real <= 1e-12
    # damped propagating pairs plus the neutral mode survive the filter
    assert len(spec.eigenvalues) >= 3


# gamma 1 and strong damping, where rooting the cleared determinant
# polynomial gave too few roots, false growth or no growth verdict; growing
# is the bound max_real must pass, None a stable medium
@pytest.mark.parametrize("name, k, d, alpha, growing", [
    ("am1-table1", (0.1, 0.1), 10.0, 0.15, None),
    ("aniso-violating", (0.1, 0.1), 5.0, 0.15, 1e-4),
    ("aniso-violating", (0.1, 0.1), 5.0, 0.0, 1e-8),
    ("iso-table1", (0.5, 0.1), 10.0, 0.15, None),
])
def test_pml_spectrum_at_strong_damping(name, k, d, alpha, growing):
    med = media.preset(name)
    spec = analysis.pml_mode_spectrum(med, k, d, alpha)
    cm = med.coefficient_matrices()
    assert len(spec.eigenvalues) == cm.m + np.linalg.matrix_rank(cm.A_x)
    if growing is None:
        assert spec.max_real <= 1e-12
    else:
        assert spec.max_real > growing


def pml_sweep(n, seed):
    """(k, d, alpha, gamma) samples: |k| in [1e-2, 1e2] in any direction,
    d in [1e-3, 1e2], alpha 0 or in [1e-3, 10], gamma in [0.32, 3.2], all
    log-uniform."""
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    k = 10.0 ** rng.uniform(-2.0, 2.0, (n, 1)) * np.stack(
        [np.cos(angle), np.sin(angle)], axis=-1)
    d = 10.0 ** rng.uniform(-3.0, 2.0, n)
    alpha = np.where(rng.random(n) < 0.5, 0.0,
                     10.0 ** rng.uniform(-3.0, 1.0, n))
    gamma = 10.0 ** rng.uniform(-0.5, 0.5, n)
    return zip(map(tuple, k), d, alpha, gamma)


@pytest.mark.parametrize("name", sorted(ORACLE_MEDIA))
def test_pml_spectrum_roots_solve_the_relation(name):
    med = ORACLE_MEDIA[name]
    cm = med.coefficient_matrices()
    Bx, By = cm.P @ cm.A_x, cm.P @ cm.A_y
    for k, d, alpha, gamma in pml_sweep(300, 14):
        spec = analysis.pml_mode_spectrum(med, k, d, alpha, gamma)
        knorm = np.hypot(k[0] / gamma, k[1])
        k1, k2 = k[0] / gamma / knorm, k[1] / knorm
        eps, nu = d / knorm, alpha / knorm
        assert len(spec.eigenvalues) == cm.m + np.linalg.matrix_rank(cm.A_x)
        for lam in spec.eigenvalues:
            sv = np.linalg.svd(-1j * lam * np.eye(cm.m)
                               + (lam + nu) / (lam + nu + eps) * k1 * Bx
                               + k2 * By, compute_uv=False)
            assert sv[-1] <= 1e-7 * max(sv[0], 1.0)
        if name in ("acoustic-484", "iso-table1", "am1-table1"):
            scale = max(1.0, np.abs(spec.eigenvalues).max())
            assert spec.max_real <= 1e-12 * scale


def test_pml_spectrum_drops_the_pole_roots_along_the_layer():
    # k_x = 0: the auxiliary variables decouple at the pole -(nu + eps),
    # and what is left is the undamped spectrum
    med = media.preset("iso-table1")
    spec = analysis.pml_mode_spectrum(med, (0.0, 2.0), d=3.0, alpha=0.5)
    want = analysis.pml_mode_spectrum(med, (0.0, 2.0), d=0.0, alpha=0.0)
    assert len(spec.eigenvalues) == med.coefficient_matrices().m
    assert np.allclose(np.sort_complex(spec.eigenvalues),
                       np.sort_complex(want.eigenvalues), atol=1e-12)


def test_pml_spectrum_rejects_bad_arguments():
    med = media.preset("acoustic-484")
    with pytest.raises(ValueError):
        analysis.pml_mode_spectrum(med, (0.0, 0.0), 1.0, 0.0)
    with pytest.raises(ValueError):
        analysis.pml_mode_spectrum(med, (1.0, 0.0), -1.0, 0.0)


def test_slowness_scan_offsets_axis_directions():
    angles, k, omega, V_g = analysis.slowness_scan(
        media.preset("acoustic-484"), 32)
    assert omega.shape == (32, 1) and V_g.shape == (32, 1, 2)
    assert not np.isnan(V_g).any()
    # no sampled direction is axis aligned, so phase velocities stay finite
    assert np.all(np.isfinite(omega[:, :, None] / k[:, None, :]))
