"""Reference computations that only the tests use: the SBP identity of the
reference element, the element kernels of the solver as einsum contractions,
the complex stretching metric of the PML, the slowest elastic wave speed,
the per-direction plane-wave analysis that ``wavelab.analysis.branches``
batches, the exact group velocity, and the search that derives a medium
violating the geometric stability condition."""

import numpy as np

from wavelab.analysis import (_DEGENERATE_RTOL, dispersion_roots,
                              geometric_stability_check)
from wavelab.errors import DegenerateBranchError, NumericalFailureError
from wavelab.media import ElasticMedium2D
from wavelab.operators import lagrange_eval


def sbp_q(ref):
    """Q = H D, which satisfies the SBP property Q + Q^T = B(1,1) - B(-1,-1)
    on the reference element ``ref``."""
    return np.diag(ref.weights) @ ref.D


def sbp_residual(ref):
    """Max-norm defect of Q + Q^T = B(1,1) - B(-1,-1), with B built from the
    boundary projection vectors (coordinate vectors on GLL nodes)."""
    Q = sbp_q(ref)
    e_left = lagrange_eval(ref.nodes, -1.0)
    e_right = lagrange_eval(ref.nodes, 1.0)
    B = np.outer(e_right, e_right) - np.outer(e_left, e_left)
    return np.max(np.abs(Q + Q.T - B))


def volume_terms(mesh, U):
    """(Vx, Vy) = (1/gamma_xi) (2/h_xi) A_xi D_xi U, the volume terms of
    ``wavelab.solver.core``, one einsum per derivative and per field mix."""
    D = mesh.ref.D
    Vx = np.einsum("ab,klbij->klaij", mesh.A_x,
                   np.einsum("pi,klmij->klmpj", D, U))
    Vx *= (mesh.qx[:, None] * mesh.inv_gamma_x)[:, None, None, :, None]
    Vy = np.einsum("ab,klbij->klaij", mesh.A_y,
                   np.einsum("pj,klmij->klmip", D, U))
    Vy *= (mesh.ry[:, None] * mesh.inv_gamma_y)[None, :, None, None, :]
    return Vx, Vy


def p_multiply(mesh, body):
    """P body with each element's own P, as ``rhs`` ends."""
    return np.einsum("klab,klbij->klaij", mesh.Pmat, body)


def discrete_energy(U, mesh):
    """1/2 sum h_i h_j J (U^T P^{-1} U), per element, then summed."""
    h = mesh.ref.weights
    PU = np.einsum("klab,klbij->klaij", mesh.Pinv, U)
    per_elem = np.einsum("klaij,klaij,i,j->kl", U, PU, h, h)
    return 0.5 * float(np.sum(mesh.jac * per_elem))


def stretching_metric(s, d, alpha, gamma=1.0):
    """Complex stretching S = gamma (1 + d / (s + alpha)).

    Satisfies the inverse identity 1/S = 1/gamma - (1/S) d/(s + alpha).
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if d < 0 or alpha < 0:
        raise ValueError("d and alpha must be nonnegative")
    s = complex(s)
    if s == -alpha:
        raise ZeroDivisionError("stretching metric has a pole at s = -alpha")
    return gamma * (1.0 + d / (s + alpha))


def slowest_speed(medium, n_directions=1440):
    """c_s: the speed of the slow branch of an elastic medium, minimized over
    propagation direction, from the closed-form eigenvalues of the 2x2
    Christoffel tensor."""
    th = np.linspace(0.0, np.pi, n_directions, endpoint=False)
    n1, n2 = np.cos(th), np.sin(th)
    a = medium.c11 * n1 ** 2 + medium.c33 * n2 ** 2
    c = medium.c33 * n1 ** 2 + medium.c22 * n2 ** 2
    b = (medium.c12 + medium.c33) * n1 * n2
    mid = 0.5 * (a + c)
    rad = np.sqrt((0.5 * (a - c)) ** 2 + b ** 2)
    return float(np.sqrt(np.maximum(mid - rad, 0.0) / medium.rho).min())


def omega_sorted(medium, k):
    """Positive frequency branches at k, ascending (one per wave mode)."""
    return dispersion_roots(medium, k).omega_branches


def fd_group_velocity(medium, k, branch):
    """Group velocity d omega / dk of one branch by central differences with
    step 1e-6 |k|, one eigen solve per probe.  Raises DegenerateBranchError
    when the branch is repeated at k."""
    k = np.asarray(k, dtype=float)
    omega = omega_sorted(medium, k)
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
        wp = omega_sorted(medium, k + dk)[branch]
        wm = omega_sorted(medium, k - dk)[branch]
        vg[xi] = (wp - wm) / (2.0 * h)
    return vg


def reference_branches(medium, k):
    """``branches`` at one wave vector, one branch at a time: omega (b,) and
    V_g (b, 2), NaN where ``fd_group_velocity`` raises."""
    omega = omega_sorted(medium, k)
    V_g = np.full((len(omega), 2), np.nan)
    for b in range(len(omega)):
        try:
            V_g[b] = fd_group_velocity(medium, k, b)
        except DegenerateBranchError:
            pass
    return omega, V_g


def reference_scan(medium, angles):
    """The slowness scan one direction and one branch at a time: k (n, 2),
    omega (n, b) and V_g (n, b, 2), NaN on the branches it skips as
    degenerate."""
    ks, omegas, V_gs = [], [], []
    for th in angles:
        k = np.array([np.cos(th), np.sin(th)])
        omega = omega_sorted(medium, k)
        V_g = np.full((len(omega), 2), np.nan)
        for b, w in enumerate(omega):
            gaps = np.abs(omega - w)
            gaps[b] = np.inf
            if np.min(gaps) >= _DEGENERATE_RTOL * np.max(omega):
                V_g[b] = fd_group_velocity(medium, k, b)
        ks.append(k)
        omegas.append(omega)
        V_gs.append(V_g)
    return np.array(ks), np.array(omegas), np.array(V_gs)


def exact_group_velocity(medium, k):
    """Group velocities (b, 2) of the b positive branches at k from the
    eigenvectors.  With P = L L^T, the branches are the eigenvalues of the
    symmetric L^T (k_x A_x + k_y A_y) L, and for its unit eigenvector w of a
    simple eigenvalue d omega / dk_xi = w^T L^T A_xi L w."""
    cm = medium.coefficient_matrices()
    L = np.linalg.cholesky(cm.P)
    _, W = np.linalg.eigh(L.T @ (k[0] * cm.A_x + k[1] * cm.A_y) @ L)
    W = W[:, cm.m - cm.m // 2:]
    return np.stack([np.einsum("ib,ij,jb->b", W, L.T @ A @ L, W)
                     for A in (cm.A_x, cm.A_y)], axis=-1)


# Parameter ranges scanned when constructing a medium that violates the
# geometric stability condition.  The published figure demonstrates such a
# medium exists without giving parameters, so one is derived here by search;
# its first hit is frozen as the medium preset "aniso-violating".
_SCAN_C11 = (2.0, 4.0, 10.0, 20.0)
_SCAN_C22 = (2.0, 4.0, 10.0, 20.0)
_SCAN_C33 = (1.0, 2.0)
_SCAN_C12 = (1.0, 3.0, 5.0, 7.5, 9.0)


def find_violating_medium(axis="x", rho=1.0, n_coarse=180, n_confirm=720):
    """Scan a coarse stiffness grid for a geometrically unstable medium.

    Returns (medium, report) for the first SPD parameter combination whose
    stability check fails along ``axis`` at the confirmation resolution.
    """
    for c11 in _SCAN_C11:
        for c22 in _SCAN_C22:
            for c33 in _SCAN_C33:
                for c12 in _SCAN_C12:
                    if c11 * c22 - c12 ** 2 <= 0:
                        continue
                    medium = ElasticMedium2D(rho=rho, c11=c11, c12=c12,
                                             c22=c22, c33=c33)
                    coarse = geometric_stability_check(medium, axis, n_coarse)
                    if coarse.verdict == "stable":
                        continue
                    report = geometric_stability_check(medium, axis, n_confirm)
                    if report.verdict == "unstable":
                        return medium, report
    raise NumericalFailureError("violating-medium scan exhausted the grid")
