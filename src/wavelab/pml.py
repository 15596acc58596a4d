"""PML layers around an interior box and the damping strength formula."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, require

DEFAULT_ALPHA = 0.15
DEFAULT_TOL = 1e-3
DEFAULT_EXPONENT = 3
DEFAULT_WIDTH = 10.0

SIDES = ("west", "east", "south", "north")  # x low, x high, y low, y high


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
class Layers:
    """Absorbing layers of one ``width`` beyond the named ``sides`` of a box.

    At distance r beyond the box, the ramp is (r / width)^exponent clipped
    to [0, 1]; the damping is d0 ramp and the scaling 1 + (gamma - 1) ramp.
    Both meet their interior values 0 and 1 at the box's edge, for the
    default cubic exponent with two vanishing derivatives, so the layer is
    perfectly matched.  With d0 = 0 and gamma = 1 a layer is the undamped
    wave system.  ``Layers()`` has no sides.  Errors name ``pml.<field>``.
    """

    sides: tuple = ()
    width: float = DEFAULT_WIDTH
    d0: float = 0.0
    exponent: int = DEFAULT_EXPONENT
    alpha: float = DEFAULT_ALPHA
    gamma: float = 1.0

    def __post_init__(self):
        for i, side in enumerate(self.sides):
            if side not in SIDES or side in self.sides[:i]:
                raise ConfigurationError(f"pml.sides[{i}]: " + (
                    f"repeats {side!r}" if side in SIDES else "must be one "
                    f"of {', '.join(map(repr, SIDES))}, got {side!r}"))
        for key, lo, ends in (("width", 0, "()"), ("d0", 0, "[)"),
                              ("exponent", 1, "[)"), ("alpha", 0, "[)"),
                              ("gamma", 0, "()")):
            require(f"pml.{key}", getattr(self, key), lo, np.inf, ends)

    def ramp(self, xi, lo, hi):
        """The ramp at coordinates xi of one axis whose box spans [lo, hi]."""
        depth = np.maximum(lo - xi, xi - hi) / self.width
        return np.clip(depth, 0.0, 1.0) ** self.exponent
