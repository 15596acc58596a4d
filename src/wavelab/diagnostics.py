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


def reference_validity_horizon(width, c_max, element_size):
    """Time until spurious reflections from the walls of a reference domain,
    grown by ``width`` beyond each layer side, can re-enter the interior box:
    out-and-back travel distance over c_max, less a one-element safety
    margin."""
    return max(0.0, (2.0 * width - element_size) / c_max)


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
