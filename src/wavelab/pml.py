"""PML damping profile and strength formula."""

from dataclasses import dataclass

import numpy as np

DEFAULT_ALPHA = 0.15
DEFAULT_TOL = 1e-3
DEFAULT_EXPONENT = 3


def damping_strength(c_p, delta, tol):
    """Damping amplitude d0 = (4 c_p / (2 delta)) ln(1/tol).

    ``tol`` is the targeted magnitude of the relative absorption error of the
    layer for normally incident propagating waves.
    """
    if not c_p > 0:
        raise ValueError(f"c_p must be positive, got {c_p}")
    if not delta > 0:
        raise ValueError(f"layer width must be positive, got {delta}")
    if not 0 < tol <= 1:
        raise ValueError(f"tol must be in (0, 1], got {tol}")
    return 4.0 * c_p / (2.0 * delta) * np.log(1.0 / tol)


@dataclass(frozen=True)
class PmlProfile:
    """Monomial damping profile of one absorbing layer.

    The layer occupies ``width`` kilometres beyond ``interior_extent`` along
    ``axis``.  For ``side='high'`` damping grows with increasing coordinate,
    d(xi) = d0 ((xi - L)/width)^p for xi >= L; for ``side='low'`` the profile
    is mirrored.  The profile is zero in the interior and, for the default
    cubic exponent, joins with two vanishing derivatives at the interface so
    the layer is perfectly matched.
    """

    axis: str
    interior_extent: float
    width: float
    d0: float
    exponent: int = DEFAULT_EXPONENT
    alpha: float = DEFAULT_ALPHA
    gamma: float = 1.0
    side: str = "high"

    def __post_init__(self):
        if self.axis not in ("x", "y"):
            raise ValueError(f"axis must be 'x' or 'y', got {self.axis!r}")
        if self.side not in ("low", "high"):
            raise ValueError(f"side must be 'low' or 'high', got {self.side!r}")
        if not self.width > 0:
            raise ValueError(f"layer width must be positive, got {self.width}")
        if self.d0 < 0 or self.alpha < 0:
            raise ValueError("d0 and alpha must be nonnegative")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.exponent < 1:
            raise ValueError(f"exponent must be >= 1, got {self.exponent}")

    def damping_at(self, xi):
        """Damping d(xi), vectorized; clamped to d0 beyond the layer end."""
        xi = np.asarray(xi, dtype=float)
        if self.side == "high":
            depth = (xi - self.interior_extent) / self.width
        else:
            depth = (self.interior_extent - xi) / self.width
        depth = np.clip(depth, 0.0, 1.0)
        return self.d0 * depth ** self.exponent
