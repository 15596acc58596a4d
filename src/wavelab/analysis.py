"""Plane-wave analysis: dispersion roots, slowness surfaces, stability checks.

Wave-like solutions U0 exp(st + i k.x) of the first-order system satisfy
det(P^{-1} s - i k_x A_x - i k_y A_y) = 0, i.e. s is an eigenvalue of
i (k_x P A_x + k_y P A_y).  For energy-conserving media all roots are purely
imaginary; writing s = i omega defines the frequency branches omega(k) from
which phase/group velocities and the slowness surface follow.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBranchError, InvalidMediumError, NumericalFailureError
from .media import ElasticMedium2D

TOL_GSC = 1e-10

MIN_DIRECTIONS = 16

# relative gap under which two frequency branches count as degenerate
_DEGENERATE_RTOL = 1e-7


def _roots(medium, k):
    """Eigenvalues s of i (k_x P A_x + k_y P A_y) for wave vectors k shaped
    (..., 2), all in one batched eigen solve: shape (..., m)."""
    k = np.asarray(k, dtype=float)
    if not np.all(np.any(k != 0.0, axis=-1)):
        raise ValueError("wave vector must be nonzero")
    cm = medium.coefficient_matrices()
    kx, ky = k[..., 0, None, None], k[..., 1, None, None]
    try:
        return np.linalg.eigvals(
            1j * (kx * cm.P @ cm.A_x + ky * cm.P @ cm.A_y))
    except np.linalg.LinAlgError as exc:
        raise InvalidMediumError(f"eigen solve failed: {exc}") from exc


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
    roots = _roots(medium, k)
    omega = np.sort(roots.imag[roots.imag > 1e-9 * np.max(np.abs(roots))])
    return DispersionSample(k=(float(k[0]), float(k[1])), roots=roots,
                            omega_branches=omega)


def branches(medium, k):
    """Frequency branches and group velocities at wave vectors k (..., 2).

    Returns omega (..., b), the b = m // 2 positive frequencies ascending,
    and V_g (..., b, 2), d omega / dk by central differences with step
    h = 1e-6 |k|; k and its probes k +- h e_xi share one batched eigen solve.
    V_g is NaN on a branch within ``_DEGENERATE_RTOL`` of a neighbour
    (relative to the fastest), where sorted branches have no derivative.
    The exact V_g,xi = w^T L^T A_xi L w (P = L L^T) would move the minimum
    product V_p,xi V_g,xi of the seeded ``perfbench`` media by up to 2.4e-7
    relative, beyond their stored 1e-7, so the differences stay, with the
    one-direction arithmetic (k +- dk, |k| by a dot product) bit for bit.
    """
    k = np.asarray(k, dtype=float)[..., None, :]
    h = 1e-6 * np.sqrt(k @ np.swapaxes(k, -1, -2))
    probes = np.concatenate([k, k + h * np.eye(2), k - h * np.eye(2)], axis=-2)
    roots = _roots(medium, probes)
    b = roots.shape[-1] // 2
    omega = np.sort(roots.imag, axis=-1)[..., -b:]
    V_g = (omega[..., 1:3, :] - omega[..., 3:5, :]) / (2.0 * h)
    omega, V_g = omega[..., 0, :], np.swapaxes(V_g, -1, -2)
    gaps = (np.abs(omega[..., :, None] - omega[..., None, :])
            + np.diag(np.full(b, np.inf)))
    V_g[gaps.min(axis=-1) < _DEGENERATE_RTOL * omega[..., -1:]] = np.nan
    return omega, V_g


def group_velocity(medium, k, branch):
    """Group velocity of one branch at one wave vector: ``branches`` at k.

    Raises DegenerateBranchError when the requested branch is repeated at k.
    """
    omega, V_g = branches(medium, k)
    if branch < 0 or branch >= len(omega):
        raise ValueError(f"branch {branch} out of range (have {len(omega)})")
    if np.isnan(V_g[branch]).any():
        raise DegenerateBranchError(
            f"branch {branch} is degenerate at k={tuple(map(float, k))}")
    return V_g[branch]


@dataclass(frozen=True)
class StabilityReport:
    axis: str
    angles: np.ndarray
    products: np.ndarray          # (n_branches, n_directions), NaN degenerate
    verdict: str
    min_product: float
    worst_direction: np.ndarray
    worst_branch: int

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
    axis-aligned for any grid size.  Returns the angles, the unit wave
    vectors k (n, 2) and ``branches`` at k: omega (n, b) and V_g (n, b, 2).
    A branch's slowness vector is k / omega, its phase velocity omega / k.
    """
    angles = 2.0 * np.pi * (np.arange(n_directions) + _GRID_OFFSET) \
        / n_directions
    k = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    return (angles, k, *branches(medium, k))


def geometric_stability_check(medium, axis, n_directions=720):
    """Evaluate V_p_xi V_g_xi over the slowness surface for one axis.

    The medium is geometrically stable along ``axis`` when the product is
    nonnegative (within TOL_GSC) at every sampled point of every branch.
    """
    if n_directions < MIN_DIRECTIONS:
        raise ValueError(f"need at least {MIN_DIRECTIONS} directions")
    ax = {"x": 0, "y": 1}[axis]
    angles, k, omega, V_g = slowness_scan(medium, n_directions)
    products = (omega / k[:, ax, None] * V_g[..., ax]).T
    min_product = float(np.nanmin(products))
    worst = np.unravel_index(np.nanargmin(products), products.shape)
    return StabilityReport(
        axis=axis,
        angles=angles,
        products=products,
        verdict="stable" if min_product >= -TOL_GSC else "unstable",
        min_product=min_product,
        worst_direction=k[worst[1]],
        worst_branch=int(worst[0]),
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
