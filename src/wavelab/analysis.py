"""Plane-wave analysis: dispersion roots, slowness surfaces, stability checks.

Wave-like solutions U0 exp(st + i k.x) of the first-order system satisfy
det(P^{-1} s - i k_x A_x - i k_y A_y) = 0, i.e. s is an eigenvalue of
i (k_x P A_x + k_y P A_y).  For energy-conserving media all roots are purely
imaginary; writing s = i omega defines the frequency branches omega(k) from
which phase/group velocities and the slowness surface follow.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBranchError, InvalidMediumError, NumericalFailureError
from .media import ElasticMedium2D

TOL_GSC = 1e-10

MIN_DIRECTIONS = 16

# relative gap under which two frequency branches count as degenerate
_DEGENERATE_RTOL = 1e-7


def _system_matrix(medium, k):
    cm = medium.coefficient_matrices()
    kx, ky = k
    return 1j * (kx * cm.P @ cm.A_x + ky * cm.P @ cm.A_y)


@dataclass(frozen=True)
class DispersionSample:
    k: tuple
    roots: np.ndarray
    omega_branches: np.ndarray


def dispersion_roots(medium, k):
    """All m roots s of the dispersion relation at wave vector k.

    Roots are eigenvalues of i P (k_x A_x + k_y A_y); they come out purely
    imaginary up to solver tolerance.  ``omega_branches`` holds the distinct
    positive frequencies sorted ascending.
    """
    kx, ky = k
    norm = float(np.hypot(kx, ky))
    if norm == 0.0:
        raise ValueError("wave vector must be nonzero")
    try:
        roots = np.linalg.eigvals(_system_matrix(medium, k))
    except np.linalg.LinAlgError as exc:
        raise InvalidMediumError(f"eigen solve failed: {exc}") from exc
    omega = np.sort(roots.imag[roots.imag > 1e-9 * np.max(np.abs(roots))])
    return DispersionSample(k=(float(kx), float(ky)), roots=roots,
                            omega_branches=omega)


def _omega_sorted(medium, k):
    """Positive frequency branches at k, ascending (one per wave mode)."""
    return dispersion_roots(medium, k).omega_branches


def group_velocity(medium, k, branch):
    """Group velocity d omega / dk of one branch by central differences.

    The relative step is 1e-6 |k|.  Raises DegenerateBranchError when the
    requested branch is repeated at k (sorted-order differentiation would be
    meaningless there).
    """
    k = np.asarray(k, dtype=float)
    omega = _omega_sorted(medium, k)
    if branch < 0 or branch >= len(omega):
        raise ValueError(f"branch {branch} out of range (have {len(omega)})")
    w0 = omega[branch]
    gaps = np.abs(omega - w0)
    gaps[branch] = np.inf
    if np.min(gaps) < _DEGENERATE_RTOL * max(w0, np.max(omega)):
        raise DegenerateBranchError(
            f"branch {branch} is degenerate at k={tuple(k)}")
    h = 1e-6 * np.linalg.norm(k)
    vg = np.empty(2)
    for xi in range(2):
        dk = np.zeros(2)
        dk[xi] = h
        wp = _omega_sorted(medium, k + dk)[branch]
        wm = _omega_sorted(medium, k - dk)[branch]
        vg[xi] = (wp - wm) / (2.0 * h)
    return vg


@dataclass(frozen=True)
class SlownessPoint:
    direction: np.ndarray
    S: np.ndarray
    V_p: np.ndarray
    V_g: np.ndarray
    branch: int


@dataclass(frozen=True)
class StabilityReport:
    axis: str
    angles: np.ndarray
    products: np.ndarray          # (n_branches, n_directions)
    verdict: str
    min_product: float
    worst_direction: np.ndarray
    worst_branch: int
    skipped: np.ndarray = field(default=None)

    def to_dict(self):
        return {
            "axis": self.axis,
            "verdict": self.verdict,
            "min_product": self.min_product,
            "worst_direction": [float(v) for v in self.worst_direction],
            "worst_branch": int(self.worst_branch),
            "n_directions": int(self.angles.size),
            "tol": TOL_GSC,
        }


# irrational angular offset (in grid steps): a rational offset can land a
# uniform grid exactly on an axis direction for unlucky direction counts,
# where a phase-velocity component diverges
_GRID_OFFSET = 0.5 * (np.sqrt(5.0) - 1.0)


def slowness_scan(medium, n_directions=720):
    """Sample the slowness surface on a uniform angular grid.

    The grid carries an irrational offset so no sampled direction is exactly
    axis-aligned for any grid size.  Returns a list of SlownessPoint,
    branches ordered slow-to-fast, with degenerate directions skipped.
    """
    angles = 2.0 * np.pi * (np.arange(n_directions) + _GRID_OFFSET) \
        / n_directions
    points = []
    skipped = []
    for th in angles:
        k = np.array([np.cos(th), np.sin(th)])
        omega = _omega_sorted(medium, k)
        for b, w in enumerate(omega):
            gaps = np.abs(omega - w)
            gaps[b] = np.inf
            if np.min(gaps) < _DEGENERATE_RTOL * np.max(omega):
                skipped.append((th, b))
                continue
            vg = group_velocity(medium, k, b)
            points.append(SlownessPoint(
                direction=k, S=k / w, V_p=w / k, V_g=vg, branch=b))
    return angles, points, skipped


def geometric_stability_check(medium, axis, n_directions=720):
    """Evaluate V_p_xi V_g_xi over the slowness surface for one axis.

    The medium is geometrically stable along ``axis`` when the product is
    nonnegative (within TOL_GSC) at every sampled point of every branch.
    """
    if n_directions < MIN_DIRECTIONS:
        raise ValueError(f"need at least {MIN_DIRECTIONS} directions")
    ax = {"x": 0, "y": 1}[axis]
    angles, points, skipped = slowness_scan(medium, n_directions)
    n_branches = max(p.branch for p in points) + 1
    products = np.full((n_branches, n_directions), np.nan)
    step = 2.0 * np.pi / n_directions
    for p in points:
        th = np.arctan2(p.direction[1], p.direction[0]) % (2.0 * np.pi)
        idx = int(round((th / step) - _GRID_OFFSET)) % n_directions
        products[p.branch, idx] = p.V_p[ax] * p.V_g[ax]
    flat = products[np.isfinite(products)]
    min_product = float(flat.min())
    worst = np.unravel_index(np.nanargmin(products), products.shape)
    verdict = "stable" if min_product >= -TOL_GSC else "unstable"
    worst_angle = angles[worst[1]]
    return StabilityReport(
        axis=axis,
        angles=angles,
        products=products,
        verdict=verdict,
        min_product=min_product,
        worst_direction=np.array([np.cos(worst_angle), np.sin(worst_angle)]),
        worst_branch=int(worst[0]),
        skipped=np.array(skipped) if skipped else np.empty((0, 2)),
    )


@dataclass(frozen=True)
class PmlModeSpectrum:
    k: tuple
    d: float
    alpha: float
    gamma: float
    eigenvalues: np.ndarray      # accepted scaled roots lambda
    max_real: float


def pml_mode_spectrum(medium, k, d, alpha, gamma=1.0):
    """Scaled mode spectrum of the constant-coefficient x-direction PML.

    Solves det(-i lam I + (1/S_x) k1 B_x + k2 B_y) = 0 with
    S_x = 1 + eps/(lam + nu), B_xi = P A_xi, and the scalings
    |k| = sqrt((k_x/gamma)^2 + k_y^2), eps = d/|k|, nu = alpha/|k|.
    Clearing the denominator turns this into a degree-2m polynomial whose
    roots are found by companion matrix; roots created by the cleared factor
    (at lam = -nu - eps) are rejected by a residual check on the original
    relation.  A positive max real part flags exponentially growing modes.
    """
    kx, ky = k
    if not (d >= 0 and alpha >= 0 and gamma > 0):
        raise ValueError("need d >= 0, alpha >= 0, gamma > 0")
    knorm = float(np.hypot(kx / gamma, ky))
    if knorm == 0.0:
        raise ValueError("wave vector must be nonzero")
    k1 = (kx / gamma) / knorm
    k2 = ky / knorm
    eps = d / knorm
    nu = alpha / knorm
    cm = medium.coefficient_matrices()
    m = cm.m
    Bx = cm.P @ cm.A_x
    By = cm.P @ cm.A_y
    eye = np.eye(m)

    if eps == 0.0:
        lam = np.linalg.eigvals(-1j * (k1 * Bx + k2 * By))
        return PmlModeSpectrum(k=(float(kx), float(ky)), d=d, alpha=alpha,
                               gamma=gamma, eigenvalues=lam,
                               max_real=float(lam.real.max()))

    def cleared(lam):
        # rows multiplied through by (lam + nu + eps)
        return (-1j * lam * (lam + nu + eps) * eye
                + (lam + nu) * k1 * Bx
                + (lam + nu + eps) * k2 * By)

    # determinant is a polynomial of degree 2m in lam; recover its
    # coefficients exactly by DFT interpolation on a circle
    deg = 2 * m
    radius = max(1.0, eps + nu)
    n_pts = deg + 1
    sample = radius * np.exp(2j * np.pi * np.arange(n_pts) / n_pts)
    values = np.array([np.linalg.det(cleared(z)) for z in sample])
    coeffs = np.fft.fft(values) / (n_pts * radius ** np.arange(n_pts))
    poly = coeffs[::-1]  # numpy.roots wants highest degree first
    lam = np.roots(poly)

    def residual_ok(z):
        if abs(z + nu + eps) < 1e-10 * max(1.0, nu + eps):
            return False  # pole of 1/S_x: artifact of the cleared factor
        M = -1j * z * eye + (z + nu) / (z + nu + eps) * k1 * Bx + k2 * By
        sv = np.linalg.svd(M, compute_uv=False)
        return sv[-1] <= 1e-7 * max(sv[0], 1.0)

    accepted = np.array([z for z in lam if residual_ok(z)])
    if accepted.size == 0:
        raise NumericalFailureError(
            "no PML dispersion roots passed the residual check",
            residuals=lam)
    return PmlModeSpectrum(k=(float(kx), float(ky)), d=d, alpha=alpha,
                           gamma=gamma, eigenvalues=accepted,
                           max_real=float(accepted.real.max()))


# Orthotropic solid violating the geometric stability condition along x,
# frozen from the first hit of a stiffness-grid search that the tests keep
# (tests/oracles.py) and re-run to check it.  Its slow branch bends
# backwards near the y-axis: V_px V_gx reaches about -2.
VIOLATING_MEDIUM = ElasticMedium2D(rho=1.0, c11=2.0, c12=1.0, c22=2.0,
                                   c33=1.0)
