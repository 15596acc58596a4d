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


def check_lockstep(records, mesh, times):
    """Raise ValueError unless every record holds a field history shaped like
    the ``mesh.interior`` elements and sampled at ``times`` (to 1e-9), so
    that its samples pair one for one with those of a run on ``mesh``."""
    kx0, kx1, ly0, ly1 = mesh.interior
    shape = (kx1 - kx0, ly1 - ly0, mesh.m, mesh.n, mesh.n)
    for rec in records:
        if rec.history is None or rec.history.shape[1:] != shape:
            raise ValueError(f"histories are not shaped {shape}")
        if rec.history_times.shape != times.shape or not np.allclose(
                rec.history_times, times, rtol=0, atol=1e-9):
            raise ValueError("sample times do not line up")


def pml_error(a, b, mesh):
    """(L-infinity, L2) norms of a - b, two samples of the fields of the
    ``mesh.interior`` elements: the norm of the mesh's ``linf_field`` and
    the quadrature L2 norm over all fields."""
    d = a - b
    h = mesh.ref.weights
    kx0, kx1, ly0, ly1 = mesh.interior
    per = np.einsum("klaij,klaij,i,j->kl", d, d, h, h)
    return linf_norm(d, mesh), float(
        np.sqrt(np.sum(per * mesh.jac[kx0:kx1, ly0:ly1])))
