"""Semi-discrete RHS, time stepping and the experiment run loop.

Element-local nodal arrays are shaped (K, L, m, n, n).  The U equation and
the PML auxiliary equations share the per-axis volume flux derivative
V_xi = (1/gamma_xi) A_xi D_xi U and the per-axis fluctuation injection
F_xi = H_xi^{-1} (e(-1) FL_xi + e(+1) FR_xi):

    dU/dt    = P (V_x + V_y - d_x w_x - d_y w_y - F_x - F_y)
    dw_xi/dt = V_xi - (d_xi + alpha) w_xi - theta_xi F_xi

Auxiliary fields are stored only on elements overlapping a layer.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .. import diagnostics
from ..errors import UnstableRunError
from ..operators import lagrange_eval
from ..pml import SIDES
from . import fluxes


@dataclass
class SolverConfig:
    theta_x: float = 1.0
    theta_y: float = 1.0
    cfl: float = 0.9
    final_time: float = 0.0
    stop_time: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.theta_x <= 1.0 and 0.0 <= self.theta_y <= 1.0):
            raise ValueError("theta must lie in [0, 1]")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("CFL must lie in (0, 1]")


def _block_shapes(mesh):
    n, m = mesh.n, mesh.m
    return ((mesh.K, mesh.L, m, n, n),
            (len(mesh.active_x), mesh.L, m, n, n),
            (mesh.K, len(mesh.active_y), m, n, n))


def split(y, mesh):
    """U, w_x and w_y as reshaped views of the flat state vector y, which
    holds U, then w_x on the ``mesh.active_x`` element columns, then w_y on
    the ``mesh.active_y`` element rows, each in C order."""
    blocks, end = [], 0
    for shape in _block_shapes(mesh):
        start, end = end, end + math.prod(shape)
        blocks.append(y[start:end].reshape(shape))
    return blocks


class SimState:
    """The state at time t: the flat vector y, its blocks U, w_x and w_y as
    views of it (write them in place, as in ``state.U[:] = ...``), and the
    five RK4 stage vectors that ``advance`` allocates on its first step."""

    def __init__(self, t, y, mesh):
        self.t = t
        self.y = y
        self.U, self.w_x, self.w_y = split(y, mesh)
        self.stages = None


def zero_state(mesh):
    return SimState(0.0, np.zeros(sum(map(math.prod, _block_shapes(mesh)))),
                    mesh)


# -- semi-discrete right-hand side -------------------------------------------


def _volume_terms(mesh, U, Vx, Vy, scratch):
    D = mesh.ref.D
    np.einsum("pi,klmij->klmpj", D, U, out=scratch)
    np.einsum("ab,klbij->klaij", mesh.A_x, scratch, out=Vx)
    Vx *= (mesh.qx[:, None] * mesh.inv_gamma_x)[:, None, None, :, None]
    np.einsum("pj,klmij->klmip", D, U, out=scratch)
    np.einsum("ab,klbij->klaij", mesh.A_y, scratch, out=Vy)
    Vy *= (mesh.ry[:, None] * mesh.inv_gamma_y)[None, :, None, None, :]


def _along(a, axis):
    """``a`` itself for x; for y a view with the element axes swapped and, on
    nodal arrays, the node axes too, so y faces sit where x faces do."""
    if axis == "x":
        return a
    a = a.swapaxes(0, 1)
    return a.swapaxes(3, 4) if a.ndim == 5 else a


def _fluctuations(mesh, U, axis):
    """Lifted fluctuations H^{-1} e(-1) FL and H^{-1} e(+1) FR on the low and
    high faces of every element, each shaped like a face slice of
    ``_along(U, axis)``."""
    low, high = SIDES[:2] if axis == "x" else SIDES[2:]
    pairs = [(q, v, s, _along(Z, axis)[..., None])
             for q, v, s, Z in mesh.face_pairs[axis]]
    V = _along(U, axis)
    lo, hi = V[:, :, :, 0], V[:, :, :, -1]
    # in U's memory order, which keeps rhs's face updates on y fast; rows
    # that no pair fills stay zero
    FL = _along(np.zeros((mesh.K, mesh.L, mesh.m, mesh.n)), axis)
    FR = np.zeros_like(FL)
    fluxes.elastic_face_fluctuations(
        [(q, v, s, Z[:-1], Z[1:]) for q, v, s, Z in pairs],
        hi[:-1], lo[1:], FR[:-1], FL[1:])
    for side, trace, F, k, outward in ((low, lo, FL, 0, -1.0),
                                       (high, hi, FR, -1, 1.0)):
        fluxes.elastic_boundary_fluctuation(
            [(q, v, s, Z[k]) for q, v, s, Z in pairs], trace[k], F[k],
            mesh.boundary_r[side], outward)
    h = mesh.ref.weights
    scale = (mesh.qx if axis == "x" else mesh.ry)[:, None, None, None]
    return scale * FL / h[0], scale * FR / h[-1]


def rhs(y, mesh, config, out):
    """Write dy/dt of the semi-discrete system at the flat state y into the
    flat vector out (same layout, see ``split``)."""
    U, w_x, w_y = split(y, mesh)
    dU, dw_x, dw_y = split(out, mesh)
    Vx, Vy, scratch, body = mesh.work
    _volume_terms(mesh, U, Vx, Vy, scratch)
    lifts = [_fluctuations(mesh, U, axis) for axis in "xy"]

    np.add(Vx, Vy, out=body)
    for axis, (lift_lo, lift_hi) in zip("xy", lifts):
        faces = _along(body, axis)
        faces[:, :, :, 0] -= lift_lo
        faces[:, :, :, -1] -= lift_hi
    layers = ((Vx, w_x, dw_x, mesh.d_x, mesh.active_x, config.theta_x),
              (Vy, w_y, dw_y, mesh.d_y, mesh.active_y, config.theta_y))
    for axis, (lift_lo, lift_hi), (V, w, dw, d, active, theta) in zip(
            "xy", lifts, layers):
        if not active.size:  # no layer on this axis: w and dw are empty
            continue
        d_nodes = d[active][:, None, None, :, None]
        w, dw = _along(w, axis), _along(dw, axis)
        _along(body, axis)[active] -= d_nodes * w
        np.subtract(_along(V, axis)[active], (d_nodes + mesh.alpha) * w,
                    out=dw)
        dw[:, :, :, 0] -= theta * lift_lo[active]
        dw[:, :, :, -1] -= theta * lift_hi[active]

    np.einsum("klab,klbij->klaij", mesh.Pmat, body, out=dU)


# -- time stepping ------------------------------------------------------------


def timestep_formula(cfl, degree, c_max, min_elem, dim=2):
    """dt = CFL / (sqrt(dim) (2N+1) c_max) * min element size."""
    return cfl / (math.sqrt(dim) * (2 * degree + 1) * c_max) * min_elem


def timestep(config, mesh):
    min_elem = min(mesh.dx.min(), mesh.dy.min())
    return timestep_formula(config.cfl, mesh.N, mesh.c_max, min_elem)


def rk4_step(y, dt, f, stages):
    """Classical RK4 step of the flat vector y, in place: ``f(y, out)`` writes
    dy/dt into out, ``stages`` holds five vectors like y, and the arithmetic
    is y + (c dt) k per stage and y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4)."""
    k1, k2, k3, k4, z = stages
    f(y, k1)
    for k, c, k_next in ((k1, 0.5, k2), (k2, 0.5, k3), (k3, 1.0, k4)):
        np.add(y, np.multiply(c * dt, k, out=z), out=z)
        f(z, k_next)
    np.add(k1, np.multiply(2.0, k2, out=k2), out=k1)
    np.add(k1, np.multiply(2.0, k3, out=k3), out=k1)
    k1 += k4
    y += np.multiply(dt / 6.0, k1, out=k1)


def advance(state, dt, mesh, config):
    """One RK4 step of the state, in place, from t to t + dt."""
    if state.stages is None:
        state.stages = np.empty((5, state.y.size))
    rk4_step(state.y, dt, lambda y, out: rhs(y, mesh, config, out),
             state.stages)
    state.t += dt


# -- initial data --------------------------------------------------------------


def gaussian_pulse(mesh, center=None, width_sq=9.0):
    """exp(-ln 2 ((x-cx)^2 + (y-cy)^2) / width_sq) on the nodes."""
    if center is None:
        x0, x1, y0, y1 = mesh.interior_box
        center = (0.0, 0.5 * (y0 + y1))
    X, Y = mesh.node_coordinates()
    cx, cy = center
    return np.exp(-np.log(2.0) * ((X - cx) ** 2 + (Y - cy) ** 2) / width_sq)


def standing_mode(mesh, nx=1, ny=1, t=0.0):
    """Exact closed-box mode of a uniform acoustic medium with p = 0 walls.

    p = sin(kx (x - x0)) sin(ky (y - y0)) cos(w t),
    v_xi = -(k_xi / (rho w)) cos/sin ... sin(w t); returns nodal U.
    """
    assert mesh.acoustic
    med = mesh.media[0, 0]
    rho, c = med.rho, med.c
    x0, x1, y0, y1 = mesh.extents
    kx = nx * np.pi / (x1 - x0)
    ky = ny * np.pi / (y1 - y0)
    w = c * np.hypot(kx, ky)
    X, Y = mesh.node_coordinates()
    sx, cxv = np.sin(kx * (X - x0)), np.cos(kx * (X - x0))
    sy, cyv = np.sin(ky * (Y - y0)), np.cos(ky * (Y - y0))
    U = np.zeros((mesh.K, mesh.L, 3, mesh.n, mesh.n))
    U[:, :, 0] = sx * sy * np.cos(w * t)
    U[:, :, 1] = -(kx / (rho * w)) * cxv * sy * np.sin(w * t)
    U[:, :, 2] = -(ky / (rho * w)) * sx * cyv * np.sin(w * t)
    return U


def initial_state(mesh, init=None):
    """Build the t = 0 state; PML auxiliary fields start at zero."""
    state = zero_state(mesh)
    init = init or {"type": "gaussian-pulse"}
    kind = init.get("type", "gaussian-pulse")
    if kind == "zero":
        return state
    if kind == "gaussian-pulse":
        f = gaussian_pulse(mesh, center=init.get("center"),
                           width_sq=init.get("width_sq", 9.0))
        state.U[:, :, 0] = f
        if not mesh.acoustic:
            state.U[:, :, 1] = f
        return state
    if kind == "standing-mode":
        state.U[:] = standing_mode(mesh, init.get("nx", 1), init.get("ny", 1))
        return state
    raise ValueError(f"unknown initial condition {kind!r}")


# -- run loop -------------------------------------------------------------------


@dataclass
class RunRecord:
    times: np.ndarray = None
    linf: np.ndarray = None
    energy: np.ndarray = None
    dt: float = 0.0
    n_steps: int = 0
    status: str = "completed"
    blowup_time: float | None = None
    receiver_series: np.ndarray = None
    snapshots: dict = field(default_factory=dict)
    history_times: np.ndarray = None
    history: np.ndarray = None
    final_state: SimState = None
    mesh: object = None
    linf_field: str = ""


def _receiver_stencils(mesh, locations):
    out = []
    for (x, y) in locations:
        kx, ly = mesh.element_of_point(x, y)
        q = 2.0 * (x - mesh.x_edges[kx]) / mesh.dx[kx] - 1.0
        r = 2.0 * (y - mesh.y_edges[ly]) / mesh.dy[ly] - 1.0
        out.append((kx, ly, lagrange_eval(mesh.ref.nodes, q),
                    lagrange_eval(mesh.ref.nodes, r)))
    return out


def run(mesh, config, initial=None, receivers=(), snapshot_times=(),
        record_fields=False, history_stride=None, divergence_factor=1e4):
    """Step the system to the final (or stop) time, recording diagnostics.

    Raises UnstableRunError, carrying the record up to the last sampled
    step so growth histories remain available, if the state leaves the
    finite range (that state is not sampled) or the L-infinity norm exceeds
    ``divergence_factor`` times a nonzero initial value.
    """
    state = (SimState(initial.t, initial.y.copy(), mesh)  # stepped in place
             if isinstance(initial, SimState)
             else initial_state(mesh, initial))
    U = state.U
    dt_max = timestep(config, mesh)
    n_steps = max(1, int(np.ceil(config.final_time / dt_max - 1e-12)))
    dt = config.final_time / n_steps
    stop_time = config.stop_time if config.stop_time is not None \
        else config.final_time
    # steps taken: step k + 1 starts at k dt, which must lie before stop_time
    n_run = next((k for k in range(n_steps) if k * dt >= stop_time - 1e-12),
                 n_steps)
    stencils = _receiver_stencils(mesh, receivers)
    snap_steps = {}  # step -> every requested time that rounds to it
    for t in snapshot_times:
        snap_steps.setdefault(int(round(t / dt)), []).append(t)

    # every series has one sample per step, step 0 included
    times = np.arange(n_run + 1) * dt
    rec = RunRecord(
        times=times, linf=np.empty(times.size), energy=np.empty(times.size),
        dt=dt, n_steps=n_steps, final_state=state, mesh=mesh,
        receiver_series=(np.empty((len(stencils), times.size, mesh.m))
                         if stencils else None),
        linf_field="p" if mesh.acoustic else "vmag")
    if record_fields:
        kx0, kx1, ly0, ly1 = mesh.interior
        stride = history_stride or max(1, n_steps // 400)
        rec.history_times = times[::stride]
        rec.history = np.empty((rec.history_times.size, kx1 - kx0, ly1 - ly0)
                               + U.shape[2:])

    failure = None
    for step in range(n_run + 1):
        rec.linf[step] = linf = diagnostics.linf_norm(U, rec.linf_field, mesh)
        rec.energy[step] = diagnostics.discrete_energy(U, mesh)
        for i, (kx, ly, ex, ey) in enumerate(stencils):
            rec.receiver_series[i, step] = np.einsum("mij,i,j->m", U[kx, ly],
                                                     ex, ey)
        if step in snap_steps:
            rec.snapshots.update(dict.fromkeys(snap_steps[step], U.copy()))
        if record_fields and step % stride == 0:
            rec.history[step // stride] = U[kx0:kx1, ly0:ly1]
        if step and linf > divergence_factor * rec.linf[0] > 0:
            failure = (f"L-infinity norm diverged ({linf:.3g} > "
                       f"{divergence_factor:g} x initial)")
        if failure or step == n_run:
            break
        advance(state, dt, mesh, config)
        if not np.isfinite(U).all():  # a non-finite state is not sampled
            failure = "non-finite state"
            break
    state.stages = None  # the record keeps t and y, not the RK4 stages
    if failure is None:
        return rec
    n = step + 1  # samples taken: steps 0 to step
    rec.times, rec.linf, rec.energy = times[:n], rec.linf[:n], rec.energy[:n]
    if stencils:
        rec.receiver_series = rec.receiver_series[:, :n]
    if record_fields:
        rec.history_times = rec.times[::stride]
        rec.history = rec.history[:rec.history_times.size]
    rec.status, rec.blowup_time = "unstable", state.t
    raise UnstableRunError(f"{failure} at t = {state.t:.6g} s",
                           time=state.t, record=rec)
