"""Reference-element machinery: GLL quadrature, derivative matrix, SBP norm.

All operators live on the reference interval [-1, 1].  Physical elements are
affine images of the reference square; the solver applies the metric factors
and the tensor-product structure itself (see ``wavelab.solver.core``).
"""

import numpy as np

from .errors import NumericalFailureError, require

MAX_DEGREE = 12

_NEWTON_TOL = 1e-15
_NEWTON_MAXIT = 100


def _legendre_table(n, x):
    """Legendre polynomials P_0..P_n evaluated at x, shape (n+1, len(x))."""
    x = np.asarray(x, dtype=float)
    P = np.zeros((n + 1,) + x.shape)
    P[0] = 1.0
    if n >= 1:
        P[1] = x
    for k in range(1, n):
        P[k + 1] = ((2 * k + 1) * x * P[k] - k * P[k - 1]) / (k + 1)
    return P


def gll_nodes_weights(N):
    """Gauss-Lobatto-Legendre nodes and weights for polynomial degree N.

    The N+1 nodes are the roots of (1 - q^2) P'_N(q), found by Newton
    iteration from Chebyshev-Gauss-Lobatto initial guesses.  Weights are
    h_m = 2 / (N (N+1) P_N(q_m)^2); the rule is exact for polynomials of
    degree <= 2N - 1.
    """
    require("degree", N, 1, MAX_DEGREE)
    n = N + 1
    q = -np.cos(np.pi * np.arange(n) / N)
    for _ in range(_NEWTON_MAXIT):
        P = _legendre_table(N, q)
        # zeros of (1-q^2) P'_N coincide with zeros of q P_N - P_{N-1}
        dq = (q * P[N] - P[N - 1]) / (n * P[N])
        q = q - dq
        if np.max(np.abs(dq)) < _NEWTON_TOL:
            break
    else:
        raise NumericalFailureError(
            f"GLL Newton iteration did not converge for N={N}",
            residuals=np.abs(dq),
        )
    q[0], q[-1] = -1.0, 1.0
    P = _legendre_table(N, q)
    h = 2.0 / (N * n * P[N] ** 2)
    return q, h


def lagrange_weights(nodes):
    """Barycentric weights of the Lagrange basis on the given nodes."""
    nodes = np.asarray(nodes, dtype=float)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    return 1.0 / np.prod(diff, axis=1)


def lagrange_eval(nodes, x):
    """Values of all Lagrange basis polynomials at point x, shape (len(nodes),).

    At a node this returns the exact coordinate vector.
    """
    nodes = np.asarray(nodes, dtype=float)
    w = lagrange_weights(nodes)
    d = x - nodes
    hit = np.abs(d) < 1e-14
    if hit.any():
        out = np.zeros_like(nodes)
        out[np.argmax(hit)] = 1.0
        return out
    terms = w / d
    return terms / terms.sum()


def derivative_matrix_from_nodes(nodes):
    """Nodal differentiation matrix D_{ij} = L'_j(q_i) via barycentric form."""
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    w = lagrange_weights(nodes)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (w[j] / w[i]) / (nodes[i] - nodes[j])
    # negative row sums make D exact on constants
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


class ReferenceElement1D:
    """Degree-N GLL collocation operators on [-1, 1].

    Attributes:
        N: polynomial degree
        nodes: N+1 GLL nodes
        weights: quadrature weights h_m (diagonal of the norm H)
        D: differentiation matrix
    """

    def __init__(self, N):
        nodes, weights = gll_nodes_weights(N)
        self.N = N
        self.nodes = nodes
        self.weights = weights
        self.D = derivative_matrix_from_nodes(nodes)
