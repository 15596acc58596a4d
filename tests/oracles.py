"""Reference computations that only the tests use: the SBP identity of the
reference element, the element kernels of the solver as einsum contractions,
the face and wall fluctuations one characteristic pair at a time, with the
wall's boundary hat state, and the right-hand side built on them, the RK4
step with each stage in its own vector, the complex stretching metric of the
PML, the slowest elastic wave speed, the per-direction plane-wave analysis
that ``wavelab.analysis.branches`` batches, the exact group velocity, the
search that derives a medium violating the geometric stability condition,
and the interior PML error of two recorded field histories."""

import numpy as np

from wavelab.analysis import (_DEGENERATE_RTOL, dispersion_roots,
                              geometric_stability_check)
from wavelab.diagnostics import ErrorSeries, linf_norm
from wavelab.errors import DegenerateBranchError, NumericalFailureError
from wavelab.media import ElasticMedium2D
from wavelab.operators import lagrange_eval
from wavelab.pml import SIDES
from wavelab.solver import fluxes
from wavelab.solver.core import _along, split


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


def face_fluctuations(pairs, minus, plus, FR, FL):
    """Fill the pair rows of FR, the high faces of the minus elements, and
    FL, the low faces of the plus elements, at interior faces.

    ``minus`` and ``plus`` are the two sides' traces with the field axis
    second to last; ``pairs`` holds (q, v, s, Z_minus, Z_plus) per pair."""
    for q, v, s, Zm, Zp in pairs:
        qm, vm = minus[..., q, :], minus[..., v, :]
        qp, vp = plus[..., q, :], plus[..., v, :]
        q_hat, v_hat = fluxes.hat_state(s, qm, vm, Zm, qp, vp, Zp)
        np.multiply(v_hat - vm, -s, out=FR[..., q, :])
        np.multiply(q_hat - qm, -s, out=FR[..., v, :])
        np.multiply(v_hat - vp, s, out=FL[..., q, :])
        np.multiply(q_hat - qp, s, out=FL[..., v, :])


def boundary_hat(q, v, z, r):
    """Boundary state satisfying (1-r)/2 z v + (1+r)/2 q = 0 while
    preserving the outgoing characteristic q - z v, where z = o s Z is the
    impedance signed by the outward normal o (+1 on a high face, -1 on a
    low one): the wall condition that the mesh meets with a mirror
    neighbour."""
    w = q - z * v
    return 0.5 * (1.0 - r) * w, -0.5 * (1.0 + r) * w / z


def boundary_fluctuation(pairs, trace, F, r, outward):
    """Fill the pair rows of F, the fluctuation -o A_n (hat - trace) of
    boundary faces with outward normal o = ``outward`` (+1 or -1) and
    reflection coefficient r; ``pairs`` holds (q, v, s, Z) per pair."""
    for q, v, s, Z in pairs:
        qt, vt = trace[..., q, :], trace[..., v, :]
        q_hat, v_hat = boundary_hat(qt, vt, (outward * s) * Z, r)
        np.multiply(v_hat - vt, -outward * s, out=F[..., q, :])
        np.multiply(q_hat - qt, -outward * s, out=F[..., v, :])


def fluctuations(mesh, U, axis):
    """Lifted fluctuations H^{-1} e(-1) FL and H^{-1} e(+1) FR on the low and
    high faces of every element, each shaped like a face slice of
    ``_along(U, axis)``, one pair and one face set at a time, with the
    impedances gathered from the media and each wall's state from
    ``boundary_hat``, not from a mirror neighbour as ``Mesh.lift_maps``
    has it."""
    low, high = SIDES[:2] if axis == "x" else SIDES[2:]
    A = mesh.A_x if axis == "x" else mesh.A_y
    per_medium = [med.face_pairs(axis) for med in mesh.media]
    pairs = []
    for i, (q, v, _) in enumerate(per_medium[0]):
        Z = np.array([p[i][2] for p in per_medium])[mesh.index]  # (K, L)
        pairs.append((q, v, A[v, q], _along(Z, axis)[..., None]))
    V = _along(U, axis)
    lo, hi = V[:, :, :, 0], V[:, :, :, -1]
    FL = np.zeros(lo.shape)  # rows that no pair fills stay zero
    FR = np.zeros_like(FL)
    face_fluctuations([(q, v, s, Z[:-1], Z[1:]) for q, v, s, Z in pairs],
                      hi[:-1], lo[1:], FR[:-1], FL[1:])
    for side, trace, F, k, outward in ((low, lo, FL, 0, -1.0),
                                       (high, hi, FR, -1, 1.0)):
        boundary_fluctuation([(q, v, s, Z[k]) for q, v, s, Z in pairs],
                             trace[k], F[k], mesh.boundary_r[side], outward)
    h = mesh.ref.weights
    scale = (mesh.qx if axis == "x" else mesh.ry)[:, None, None, None]
    return scale * FL / h[0], scale * FR / h[-1]


def rhs(y, mesh, config):
    """dy/dt of the semi-discrete system at the flat state y, with the
    einsum volume terms and P multiply and the per-pair fluctuations."""
    U, w_x, w_y = split(y, mesh)
    out = np.zeros_like(y)
    dU, dw_x, dw_y = split(out, mesh)
    Vx, Vy = volume_terms(mesh, U)
    body = Vx + Vy
    layers = ((Vx, w_x, dw_x, mesh.d_x, mesh.active_x, config.theta_x),
              (Vy, w_y, dw_y, mesh.d_y, mesh.active_y, config.theta_y))
    for axis, (V, w, dw, d, active, theta) in zip("xy", layers):
        lift_lo, lift_hi = fluctuations(mesh, U, axis)
        faces = _along(body, axis)
        faces[:, :, :, 0] -= lift_lo
        faces[:, :, :, -1] -= lift_hi
        if not active.size:
            continue
        d_nodes = d[active][:, None, None, :, None]
        w, dw = _along(w, axis), _along(dw, axis)
        _along(body, axis)[active] -= d_nodes * w
        dw[:] = _along(V, axis)[active] - (d_nodes + mesh.alpha) * w
        dw[:, :, :, 0] -= theta * lift_lo[active]
        dw[:, :, :, -1] -= theta * lift_hi[active]
    dU[:] = p_multiply(mesh, body)
    return out


def rk4_step(y, dt, f, stages):
    """The classical RK4 step of ``wavelab.solver.rk4_step`` in five vectors
    (k1, k2, k3, k4, z), forming y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4) only
    after the last stage."""
    k1, k2, k3, k4, z = stages
    f(y, k1)
    for k, c, k_next in ((k1, 0.5, k2), (k2, 0.5, k3), (k3, 1.0, k4)):
        np.add(y, np.multiply(c * dt, k, out=z), out=z)
        f(z, k_next)
    np.add(k1, np.multiply(2.0, k2, out=k2), out=k1)
    np.add(k1, np.multiply(2.0, k3, out=k3), out=k1)
    k1 += k4
    y += np.multiply(dt / 6.0, k1, out=k1)


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


def pml_error(record, reference, horizon=None):
    """L-infinity and L2 differences against a reference run on the interior,
    from the field histories of both runs, batched over the samples; the
    per-sample form is ``wavelab.diagnostics.pml_error``.

    Both runs must carry field history, which covers ``mesh.interior``, on
    meshes whose interiors agree (element size and degree); times must line
    up sample-for-sample.  Entries beyond the validity ``horizon`` are
    dropped.
    """
    if record.history is None or reference.history is None:
        raise ValueError("both runs must be recorded with record_fields=True")
    mesh_a, mesh_b = record.mesh, reference.mesh
    if mesh_a.N != mesh_b.N:
        raise ValueError("runs use different polynomial degrees")
    n = min(len(record.history_times), len(reference.history_times))
    ta = record.history_times[:n]
    tb = reference.history_times[:n]
    if not np.allclose(ta, tb, rtol=0, atol=1e-9):
        raise ValueError("recorded time grids do not line up")
    A = record.history[:n]
    B = reference.history[:n]
    if A.shape != B.shape:
        raise ValueError(
            f"interior histories have different shapes {A.shape} vs {B.shape}")
    if horizon is not None:
        # times increase, so the samples within the horizon are a prefix
        keep = int(np.searchsorted(ta, horizon + 1e-12, side="right"))
        ta, A, B = ta[:keep], A[:keep], B[:keep]

    diff = A - B
    h = mesh_a.ref.weights
    kx0, kx1, ly0, ly1 = mesh_a.interior
    jac = mesh_a.jac[kx0:kx1, ly0:ly1]
    linf = np.array([linf_norm(d, mesh_a) for d in diff])
    per = np.einsum("tklaij,tklaij,i,j->tkl", diff, diff, h, h)
    l2 = np.sqrt(np.sum(per * jac, axis=(1, 2)))
    return ErrorSeries(times=ta, linf=linf, l2=l2)
