"""Reference computations that only the tests use: the SBP identity of the
reference element, the complex stretching metric of the PML, and the search
that derives a medium violating the geometric stability condition."""

import numpy as np

from wavelab.analysis import geometric_stability_check
from wavelab.errors import NumericalFailureError
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


# Parameter ranges scanned when constructing a medium that violates the
# geometric stability condition.  The published figure demonstrates such a
# medium exists without giving parameters, so one is derived here by search;
# wavelab.analysis.VIOLATING_MEDIUM is its first hit, frozen.
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
