"""Plane-wave analysis: dispersion roots, slowness surfaces, stability checks.

Wave-like solutions U0 exp(st + i k.x) of the first-order system satisfy
det(P^{-1} s - i k_x A_x - i k_y A_y) = 0, i.e. s is an eigenvalue of
i (k_x P A_x + k_y P A_y).  For energy-conserving media all roots are purely
imaginary; writing s = i omega defines the frequency branches omega(k) from
which phase/group velocities and the slowness surface follow.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBranchError, InvalidMediumError

TOL_GSC = 1e-10

MIN_DIRECTIONS = 16
MAX_DIRECTIONS = 10**5  # a scan holds about 3.4 KiB per direction

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
    if n_directions < MIN_DIRECTIONS:
        raise ValueError(f"need at least {MIN_DIRECTIONS}, got {n_directions}")
    if n_directions > MAX_DIRECTIONS:
        raise ValueError(f"need at most {MAX_DIRECTIONS}, got {n_directions}")
    angles = 2.0 * np.pi * (np.arange(n_directions) + _GRID_OFFSET) \
        / n_directions
    k = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    return (angles, k, *branches(medium, k))


def geometric_stability_check(medium, axis, n_directions=720):
    """Evaluate V_p_xi V_g_xi over the slowness surface for one axis.

    The medium is geometrically stable along ``axis`` when the product is
    nonnegative (within TOL_GSC) at every sampled point of every branch.
    """
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
    With phi = k1 B_x u / (lam + nu + eps) the relation is the eigenproblem
    of the (u, phi) system the solver steps,
        lam u   = -i (k1 B_x + k2 B_y) u + i eps phi,
        lam phi = k1 B_x u - (nu + eps) phi,
    whose characteristic polynomial is the relation cleared of its
    denominator.  Clearing adds m - rank(k1 A_x) roots at the pole
    lam = -(nu + eps); the eigenvalues nearest it are dropped, leaving
    m + rank(k1 A_x) roots.  A positive max real part flags exponentially
    growing modes.
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
    Bx = k1 * (cm.P @ cm.A_x)
    A = -1j * (Bx + k2 * (cm.P @ cm.A_y))
    if eps == 0.0:
        lam = np.linalg.eigvals(A)
    else:
        eye = np.eye(m)
        lam = np.linalg.eigvals(np.block([[A, 1j * eps * eye],
                                          [Bx, -(nu + eps) * eye]]))
        spurious = m - np.linalg.matrix_rank(k1 * cm.A_x)
        lam = np.delete(lam, np.argsort(np.abs(lam + nu + eps))[:spurious])
    return PmlModeSpectrum(k=(float(kx), float(ky)), d=d, alpha=alpha,
                           gamma=gamma, eigenvalues=lam,
                           max_real=float(lam.real.max()))
