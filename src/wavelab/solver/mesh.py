"""Conforming rectangular element grid with per-element media and damping."""

import math
from functools import cached_property

import numpy as np

from ..errors import ConfigurationError, require
from ..media import is_acoustic, max_wave_speed
from ..operators import ReferenceElement1D
from ..pml import SIDES, Layers
from . import fluxes


def element_count(span, size):
    """span / size when that is a whole number (to a relative 1e-9), else
    None."""
    ratio = span / size
    n = round(ratio) if math.isfinite(ratio) else math.nan
    return n if abs(ratio - n) <= 1e-9 * max(1.0, abs(ratio)) else None


def inside(v, lo, hi, size):
    """lo <= v <= hi, to 1e-9 of an element of ``size`` or of hi - lo."""
    tol = 1e-9 * max(size, hi - lo)
    return lo - tol <= v <= hi + tol


def layout(box, element_size, sides=(), width=0.0, interface=None):
    """The squares of side ``element_size`` tiling ``box`` (x0, x1, y0, y1)
    grown by layers of ``width`` beyond the named ``sides``, as counts (K, L,
    extents of the grown box, interior element range).  Each extent must
    increase and span whole elements, and the layers, if any, a positive
    whole number of them; an ``interface`` (axis, position) must lie on an x
    or y element edge.  The first rule broken, in that order, raises
    ConfigurationError naming its scenario key."""
    counts = []
    for axis, lo, hi in (("x", *box[:2]), ("y", *box[2:])):
        if not hi > lo:
            raise ConfigurationError(f"domain.{axis}: must be increasing, "
                                     f"got the {axis} extent {lo} to {hi}")
        counts.append(element_count(hi - lo, element_size))
        if not counts[-1]:
            raise ConfigurationError(f"element_size: {element_size} does not "
                                     f"divide the {axis} extent {hi - lo}")
    cells = element_count(width, element_size)
    if sides and not (cells or 0) > 0:
        raise ConfigurationError(f"pml.width: layer width {width} is not a "
                                 f"positive multiple of {element_size}")
    w, e, s, n = (cells if side in sides else 0 for side in SIDES)
    K, L = w + counts[0] + e, s + counts[1] + n
    extents = tuple(edge + sign * (width if side in sides else 0.0)
                    for edge, side, sign in zip(box, SIDES, (-1, 1, -1, 1)))
    if interface is not None:
        axis, position = interface
        lo, count = (extents[0], K) if axis == "x" else (extents[2], L)
        if not (axis in ("x", "y") and element_count(
                position - lo, element_size) in range(count + 1)):
            raise ConfigurationError(
                f"medium.interface.position: {axis} = {position} is not on "
                "an x or y element edge")
    return K, L, extents, (w, K - e, s, L - n)


def reflection_coefficients(boundary_r):
    """side -> wall reflection coefficient r, as a dict; each in [-1, 1]."""
    for side in SIDES:
        require(f"boundaries.{side}", boundary_r[side], -1, 1)
    return dict(boundary_r)


class Mesh:
    """K x L grid of square elements holding media, damping and face maps.

    The interior box [x0, x1] x [y0, y1], grown by ``layers``, is tiled with
    squares of side ``element_size`` as ``layout`` counts them; the outer
    edges equal its ``extents`` (x0, x1, y0, y1 of the grown box) exactly,
    so the last element on each axis may differ from the others in its last
    bits.  Element (kx, ly) spans [x_edges[kx], x_edges[kx+1]] x
    [y_edges[ly], y_edges[ly+1]] and holds ``media[index[kx, ly]]``.
    ``media`` holds one medium, or two of one system split at ``interface``
    (axis "x" or "y", position on an element edge): an element whose center
    lies at or beyond the position holds ``media[1]``, the others
    ``media[0]``.  Nodal data arrays are indexed (kx, ly, field, i, j) with i
    the x-node and j the y-node.  The layers lie outside ``interior_box``,
    whose elements are kx0 <= kx < kx1, ly0 <= ly < ly1 for ``interior``
    (kx0, kx1, ly0, ly1).  Each error names the scenario key of its rule.
    """

    def __init__(self, x0, x1, y0, y1, element_size, degree, media,
                 boundary_r, layers=Layers(), interface=None):
        if len(media) != (1 if interface is None else 2) or len(
                {is_acoustic(med) for med in media}) > 1:
            raise ConfigurationError("medium: give one medium, or two of one "
                                     "system (acoustic or elastic) and an "
                                     "interface")
        self.interior_box, self.element_size = (x0, x1, y0, y1), element_size
        self.K, self.L, self.extents, self.interior = layout(
            self.interior_box, element_size, layers.sides, layers.width,
            interface)
        mx0, mx1, my0, my1 = self.extents
        self.x_edges, self.y_edges = (
            np.append(lo + element_size * np.arange(count), hi)
            for lo, hi, count in ((mx0, mx1, self.K), (my0, my1, self.L)))
        index = np.zeros((self.K, self.L), dtype=int)
        if interface is not None:
            axis, position = interface
            edges = self.x_edges[:, None] if axis == "x" else self.y_edges
            index[:] = 0.5 * (edges[:-1] + edges[1:]) >= position
        self.ref = ReferenceElement1D(degree)
        self.N = degree
        self.n = degree + 1
        self.boundary_r = reflection_coefficients(boundary_r)

        dx, dy = np.diff(self.x_edges), np.diff(self.y_edges)
        self.min_size = min(dx.min(), dy.min())  # sets the time step
        self.qx = 2.0 / dx
        self.ry = 2.0 / dy
        self.jac = 0.25 * np.outer(dx, dy)

        q = self.ref.nodes
        # nodal coordinates, (K, n) and (L, n)
        self.xn = self.x_edges[:-1, None] + 0.5 * dx[:, None] * (1.0 + q)
        self.yn = self.y_edges[:-1, None] + 0.5 * dy[:, None] * (1.0 + q)

        self._install_media(media, index)
        self._install_damping(layers)
        # rhs() and discrete_energy() view nodal arrays as (..., n^2) rows,
        # node (i, j) at column i n + j; a row times line_x = kron(D^T, I)
        # (line_y = kron(I, D^T)) applies D along every x (y) node line.
        # Broadcasting forms them faster than np.kron at these sizes.
        DT, eye, n2 = self.ref.D.T, np.eye(self.n), self.n * self.n
        self.line_x = (DT[:, None, :, None] * eye[:, None]).reshape(n2, n2)
        self.line_y = (eye[:, None, :, None] * DT[:, None]).reshape(n2, n2)
        # 1/2 J h_i h_j per element and node, shaped (K, L, 1, n^2)
        h = self.ref.weights
        self.energy_weight = 0.5 * self.jac[:, :, None, None] * np.outer(
            h, h).ravel()
        # the two scratch nodal arrays (Vx, Vy) that every rhs() overwrites
        self.work = np.empty((2, self.K, self.L, self.m, self.n, self.n))

    # -- media ------------------------------------------------------------

    def _install_media(self, media, index):
        self.media, self.index = tuple(media), index
        self.acoustic = is_acoustic(self.media[0])
        cms = [med.coefficient_matrices() for med in self.media]
        self.m = cms[0].m
        self.fields = cms[0].fields
        self.A_x = cms[0].A_x
        self.A_y = cms[0].A_y
        self.Pmat = np.array([cm.P for cm in cms])[index]
        self.Pinv = np.array([np.linalg.inv(cm.P) for cm in cms])[index]
        # the time step follows the media the elements hold
        self.c_max = max_wave_speed([med for i, med in enumerate(self.media)
                                     if (index == i).any()])

    # -- damping ----------------------------------------------------------

    def _install_damping(self, layers):
        # the box's edges per axis, at infinity on sides without a layer, so
        # a node that rounds past such an edge stays undamped
        x0, x1, y0, y1 = (edge if side in layers.sides else sign * np.inf
                          for edge, side, sign in zip(
                              self.interior_box, SIDES, (-1, 1, -1, 1)))
        ramp_x = layers.ramp(self.xn, x0, x1)
        ramp_y = layers.ramp(self.yn, y0, y1)
        self.d_x = layers.d0 * ramp_x
        self.d_y = layers.d0 * ramp_y
        self.inv_gamma_x = 1.0 / (1.0 + (layers.gamma - 1.0) * ramp_x)
        self.inv_gamma_y = 1.0 / (1.0 + (layers.gamma - 1.0) * ramp_y)
        self.alpha = layers.alpha
        self.active_x = np.where(self.d_x.max(axis=1) > 0.0)[0]
        self.active_y = np.where(self.d_y.max(axis=1) > 0.0)[0]
        # d and d + alpha per auxiliary block, in the order of core._along
        self.damping = {axis: (d, d + self.alpha) for axis, d in (
            ("x", self.d_x[self.active_x][:, None, None, :, None]),
            ("y", self.d_y[self.active_y][:, None, None, :, None]))}

    @cached_property
    def scales(self):
        """Per-node metric factors of the x and y volume terms, full-size for
        one contiguous multiply in rhs(), which builds them and ``lift_maps``
        on its first call, once per mesh."""
        return [np.broadcast_to(f, self.work.shape[1:]).copy() for f in (
            (self.qx[:, None] * self.inv_gamma_x)[:, None, None, :, None],
            (self.ry[:, None] * self.inv_gamma_y)[None, :, None, None, :])]

    @cached_property
    def lift_maps(self):
        """Per axis, the maps (BL, NL, BR, NR) of ``fluxes.face_fluctuations``
        in the order of ``core._along``, with all characteristic pairs and
        the lift (2 / element size) / end weight folded in.  A wall is a face
        to a mirror neighbour, which has the element's own impedance and the
        trace G (q, v) = (-r q, r v): its map is BL + NL G or BR + NR G."""
        h, maps = self.ref.weights, {}
        for axis, A, index, scale, sides in (
                ("x", self.A_x, self.index, self.qx, SIDES[:2]),
                ("y", self.A_y, self.index.T, self.ry, SIDES[2:])):
            # the medium on each side of the faces along the axis, walls
            # included, and each pair (q, v, s = A_n[v, q], Z) of the media
            medium = np.pad(index, ((1, 1), (0, 0)), "edge")
            per_medium = [med.face_pairs(axis) for med in self.media]
            pairs, G = [], np.zeros((self.m, self.m))
            for i, (q, v, _) in enumerate(per_medium[0]):
                Z = np.array([p[i][2] for p in per_medium])[medium]
                pairs.append((q, v, A[v, q], Z[:-1], Z[1:]))
                G[q, q], G[v, v] = -1.0, 1.0
            BL, NL, BR, NR = fluxes.face_maps(pairs, self.m)
            BL[0] += NL[0] @ (self.boundary_r[sides[0]] * G)
            BR[-1] += NR[-1] @ (self.boundary_r[sides[1]] * G)
            lo, hi = (scale[:, None, None, None] / w for w in (h[0], h[-1]))
            maps[axis] = (lo * BL[:-1], lo[1:] * NL[1:-1], hi * BR[1:],
                          hi[:-1] * NR[1:-1])
        return maps

    # -- geometry helpers ---------------------------------------------------

    def locate(self, x, y):
        """(kx, ly, q, r): the element holding the point (x, y), the higher
        one on a shared edge, and the point's reference coordinates (q, r)
        in it.  A point past an outer edge by no more than ``inside`` allows
        is taken onto that edge; one further out raises ValueError."""
        found = []
        for v, edges in ((x, self.x_edges), (y, self.y_edges)):
            if not inside(v, edges[0], edges[-1], self.element_size):
                raise ValueError(f"point ({x}, {y}) is outside the mesh")
            v = min(max(v, edges[0]), edges[-1])
            k = int(np.searchsorted(edges[1:-1], v, side="right"))
            found += k, 2.0 * (v - edges[k]) / (edges[k + 1] - edges[k]) - 1.0
        kx, q, ly, r = found
        return kx, ly, q, r

    def node_coordinates(self):
        """Full nodal coordinate arrays of shape (K, L, n, n)."""
        X = np.broadcast_to(self.xn[:, None, :, None],
                            (self.K, self.L, self.n, self.n))
        Y = np.broadcast_to(self.yn[None, :, None, :],
                            (self.K, self.L, self.n, self.n))
        return X, Y


build_mesh = Mesh
