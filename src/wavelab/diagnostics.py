"""Energy norms, L-infinity series and PML error measures."""

from dataclasses import dataclass

import numpy as np


def discrete_energy(U, mesh):
    """Medium-weighted discrete energy 1/2 sum h_i h_j J (U^T P^{-1} U)."""
    U = U.reshape(mesh.K, mesh.L, mesh.m, mesh.n * mesh.n)
    PU = np.matmul(mesh.Pinv, U)
    PU *= mesh.energy_weight
    PU *= U
    return float(np.sum(PU))


def weighted_l2(U, mesh):
    """Quadrature L2 norm sqrt(sum h_i h_j J |U|^2) over all fields."""
    h = mesh.ref.weights
    per_elem = np.einsum("klaij,klaij,i,j->kl", U, U, h, h)
    return float(np.sqrt(np.sum(mesh.jac * per_elem)))


def linf_norm(U, mesh):
    """Max nodal magnitude of the nodal array U of ``mesh``: of the pressure
    on an acoustic mesh, else of the particle velocity sqrt(vx^2 + vy^2)."""
    if mesh.acoustic:
        return float(np.max(np.abs(U[..., 0, :, :])))
    vx, vy = U[..., 0, :, :], U[..., 1, :, :]
    return float(np.sqrt(np.max(vx ** 2 + vy ** 2)))


@dataclass
class ErrorSeries:
    times: np.ndarray
    linf: np.ndarray
    l2: np.ndarray

    def max_linf(self):
        return float(self.linf.max()) if self.linf.size else 0.0


def reference_validity_horizon(interior_box, reference_extents, c_max,
                               element_size):
    """Time until spurious reflections from the reference-domain boundary can
    re-enter the interior box: out-and-back travel distance over c_max, less
    a one-element safety margin."""
    ix0, ix1, iy0, iy1 = interior_box
    rx0, rx1, ry0, ry1 = reference_extents
    gaps = [g for g in (ix0 - rx0, rx1 - ix1, iy0 - ry0, ry1 - iy1) if g > 0]
    if not gaps:
        return 0.0
    dist = min(gaps)
    return max(0.0, (2.0 * dist - element_size) / c_max)


def pml_error(record, reference, horizon=None):
    """L-infinity and L2 differences against a reference run on the interior.

    Both runs must carry field history, which covers ``mesh.interior``, on
    meshes whose interiors agree (element size and degree); times must line
    up sample-for-sample.  Entries beyond the caller-supplied validity
    ``horizon`` are dropped.
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
