"""Physical media and their coefficient matrices.

Units are fixed as km, s, g/cm^3 and GPa throughout, which is a consistent
set: GPa / (g/cm^3) = (km/s)^2.

Field ordering of the unknown vector U:
    acoustic (m = 3):  (p, v_x, v_y)
    elastic  (m = 5):  (v_x, v_y, sigma_xx, sigma_yy, sigma_xy)

The governing system is P^{-1} dU/dt = A_x dU/dx + A_y dU/dy with symmetric
constant A_xi and symmetric positive definite P.

``face_pairs(axis)`` gives the characteristic pairs (q, v, Z) of a face: the
indices in U of a traction and of its velocity, and their impedance.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMediumError

# directions sampled when maximizing anisotropic wave speeds
_SPEED_SCAN_DIRECTIONS = 1440


@dataclass(frozen=True)
class CoefficientMatrices:
    P: np.ndarray
    A_x: np.ndarray
    A_y: np.ndarray
    fields: tuple

    @property
    def m(self):
        return self.P.shape[0]


@dataclass(frozen=True)
class AcousticMedium:
    """Acoustic medium with density rho [g/cm^3] and bulk modulus kappa [GPa]."""

    rho: float
    kappa: float

    def __post_init__(self):
        if not (self.rho > 0 and self.kappa > 0):
            raise InvalidMediumError(
                f"acoustic medium needs rho > 0 and kappa > 0, "
                f"got rho={self.rho}, kappa={self.kappa}")

    @property
    def c(self):
        return float(np.sqrt(self.kappa / self.rho))

    def wave_speed(self):
        """c_p, the sound speed."""
        return self.c

    def face_pairs(self, axis):
        """((p, v_n, rho c),) on a face normal to ``axis``."""
        return ((0, 1 + ("x", "y").index(axis), self.rho * self.c),)

    def coefficient_matrices(self):
        P = np.diag([self.kappa, 1.0 / self.rho, 1.0 / self.rho])
        A_x = np.zeros((3, 3))
        A_x[0, 1] = A_x[1, 0] = -1.0
        A_y = np.zeros((3, 3))
        A_y[0, 2] = A_y[2, 0] = -1.0
        return CoefficientMatrices(P=P, A_x=A_x, A_y=A_y,
                                   fields=("p", "vx", "vy"))


@dataclass(frozen=True)
class ElasticMedium2D:
    """2D elastic medium: density rho and Voigt stiffness entries [GPa].

    The stiffness matrix C = [[c11, c12, 0], [c12, c22, 0], [0, 0, c33]]
    (ordering sigma_xx, sigma_yy, sigma_xy) must be symmetric positive
    definite.
    """

    rho: float
    c11: float
    c12: float
    c22: float
    c33: float

    def __post_init__(self):
        ok = (self.rho > 0 and self.c11 > 0 and self.c33 > 0
              and self.c11 * self.c22 - self.c12 * self.c12 > 0)
        if not ok:
            raise InvalidMediumError(
                "elastic medium needs rho > 0 and SPD stiffness "
                f"(c11={self.c11}, c12={self.c12}, c22={self.c22}, "
                f"c33={self.c33}, rho={self.rho})")

    def stiffness(self):
        return np.array([[self.c11, self.c12, 0.0],
                         [self.c12, self.c22, 0.0],
                         [0.0, 0.0, self.c33]])

    def wave_speed(self):
        """c_p: the speed of the fast branch, maximized over propagation
        direction."""
        th = np.linspace(0.0, np.pi, _SPEED_SCAN_DIRECTIONS, endpoint=False)
        n1, n2 = np.cos(th), np.sin(th)
        # closed-form eigenvalues of the symmetric 2x2 Christoffel tensor;
        # stiffnesses near the float range overflow to inf or nan quietly,
        # and the scenario reader rejects a speed that is not finite
        with np.errstate(over="ignore", invalid="ignore"):
            a = self.c11 * n1 ** 2 + self.c33 * n2 ** 2
            c = self.c33 * n1 ** 2 + self.c22 * n2 ** 2
            b = (self.c12 + self.c33) * n1 * n2
            mid = 0.5 * (a + c)
            rad = np.sqrt((0.5 * (a - c)) ** 2 + b ** 2)
            return float(np.sqrt((mid + rad) / self.rho).max())

    def face_pairs(self, axis):
        """((T_n, v_n, sqrt(rho c_nn)), (T_t, v_t, sqrt(rho c33))) on a face
        normal to ``axis``: on x (sxx, vx) and (sxy, vy), on y (syy, vy) and
        (sxy, vx)."""
        n = ("x", "y").index(axis)
        c_nn = (self.c11, self.c22)[n]
        return ((2 + n, n, float(np.sqrt(self.rho * c_nn))),
                (4, 1 - n, float(np.sqrt(self.rho * self.c33))))

    def coefficient_matrices(self):
        # a_xi select the face tractions: T = a_xi sigma
        a_x = np.array([[1.0, 0.0, 0.0],
                        [0.0, 0.0, 1.0]])
        a_y = np.array([[0.0, 0.0, 1.0],
                        [0.0, 1.0, 0.0]])
        A_x = np.zeros((5, 5))
        A_x[:2, 2:] = a_x
        A_x[2:, :2] = a_x.T
        A_y = np.zeros((5, 5))
        A_y[:2, 2:] = a_y
        A_y[2:, :2] = a_y.T
        P = np.zeros((5, 5))
        P[0, 0] = P[1, 1] = 1.0 / self.rho
        P[2:, 2:] = self.stiffness()
        return CoefficientMatrices(
            P=P, A_x=A_x, A_y=A_y,
            fields=("vx", "vy", "sxx", "syy", "sxy"))


def max_wave_speed(media):
    """The largest c_p of the media, each of which must be a positive finite
    number: arithmetic that leaves the float range gives inf, nan or 0."""
    speeds = [med.wave_speed() for med in media]
    for c_p in speeds:
        if not 0.0 < c_p < math.inf:
            raise InvalidMediumError(f"wave speed c_p = {c_p} is not a "
                                     "positive finite number")
    return max(speeds)


def is_acoustic(medium):
    return isinstance(medium, AcousticMedium)


# Named presets carrying the reference experiment values.
PRESETS = {
    # waveguide sound speed 1.484 km/s at unit density (kappa = rho c^2)
    "acoustic-484": AcousticMedium(rho=1.0, kappa=2.202256),
    "iso-table1": ElasticMedium2D(rho=2.7, c11=97.20, c12=36.85,
                                  c22=97.20, c33=30.17),
    "am1-table1": ElasticMedium2D(rho=20.0 / 36.0, c11=20.0, c12=3.8,
                                  c22=4.0, c33=2.0),
}


def preset(name):
    try:
        return PRESETS[name]
    except KeyError:
        raise InvalidMediumError(
            f"unknown medium preset {name!r}; "
            f"available: {sorted(PRESETS)}") from None


def from_config(cfg):
    """Build a medium from a scenario dictionary entry."""
    if isinstance(cfg, str):
        return preset(cfg)
    if "preset" in cfg:
        return preset(cfg["preset"])
    kind = cfg.get("type")
    if kind == "acoustic":
        return AcousticMedium(rho=cfg["rho"], kappa=cfg["kappa"])
    if kind == "elastic":
        return ElasticMedium2D(rho=cfg["rho"], c11=cfg["c11"], c12=cfg["c12"],
                               c22=cfg["c22"], c33=cfg["c33"])
    raise InvalidMediumError(f"unknown medium spec {cfg!r}")
