"""Semi-discrete RHS, time stepping and the experiment run loop.

Element-local nodal arrays are shaped (K, L, m, n, n).  The U equation and
the PML auxiliary equations share the per-axis volume flux derivative
V_xi = (1/gamma_xi) A_xi D_xi U and the per-axis fluctuation injection
F_xi = H_xi^{-1} (e(-1) FL_xi + e(+1) FR_xi):

    dU/dt    = P (V_x + V_y - d_x w_x - d_y w_y - F_x - F_y)
    dw_xi/dt = V_xi - (d_xi + alpha) w_xi - theta_xi F_xi

``rhs`` forms V_x + V_y at gamma = 1 for all elements at once, as products
of their nodal rows with the mesh's volume blocks.  Per axis, the face
kernel writes F_xi from the jump of the traces across each face through
the neighbour maps NL and BR of ``Mesh.lift_maps``, the jump on a wall
being the element's own trace (the mirror is in the wall's map).  Only the
layer elements (d_xi > 0 or gamma_xi != 1) add the gamma part of V_xi and
-d_xi w_xi and form dw_xi.  The sum is multiplied by each element's P.
Auxiliary fields are stored only on elements overlapping a layer.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .. import diagnostics
from ..errors import UnstableRunError, require
from ..operators import lagrange_eval
from . import fluxes


@dataclass
class SolverConfig:
    theta_x: float = 1.0
    theta_y: float = 1.0
    cfl: float = 0.9
    final_time: float = 1.0
    stop_time: float | None = None

    def __post_init__(self):
        stop = self.final_time if self.stop_time is None else self.stop_time
        for key, value, hi, ends in (
                ("theta.x", self.theta_x, 1, "[]"),
                ("theta.y", self.theta_y, 1, "[]"),
                ("cfl", self.cfl, 1, "(]"),
                ("final_time", self.final_time, math.inf, "()"),
                ("stop_time", stop, self.final_time, "(]")):
            require(key, value, 0, hi, ends)


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
    three RK4 stage vectors that ``advance`` allocates on its first step."""

    def __init__(self, t, y, mesh):
        self.t = t
        self.y = y
        self.U, self.w_x, self.w_y = split(y, mesh)
        self.stages = None


def zero_state(mesh):
    return SimState(0.0, np.zeros(sum(map(math.prod, _block_shapes(mesh)))),
                    mesh)


# -- semi-discrete right-hand side -------------------------------------------


def _along(a, axis):
    """``a`` itself for x; for y a view with the element axes swapped and, on
    nodal arrays, the node axes too, so y faces sit where x faces do."""
    if axis == "x":
        return a
    a = a.swapaxes(0, 1)
    return a.swapaxes(3, 4) if a.ndim == 5 else a


def rhs(y, mesh, config, out):
    """Write dy/dt of the semi-discrete system at the flat state y into the
    flat vector out (same layout, see ``split``), which must not overlap y."""
    if np.may_share_memory(y, out):
        raise ValueError("rhs: out must not overlap y")
    U, w_x, w_y = split(y, mesh)
    dU, dw_x, dw_y = split(out, mesh)
    K, L, m, n2 = mesh.K, mesh.L, mesh.m, mesh.n * mesh.n
    rows, body = U.reshape(K * L, m * n2), np.empty((K * L, m * n2))
    for into, source, S, add in mesh.volume_blocks:
        if add:
            body[:, into] += rows[:, source] @ S.T
        else:
            np.matmul(rows[:, source], S.T, out=body[:, into])
    body = body.reshape(U.shape)
    for axis, w, dw, theta in (("x", w_x, dw_x, config.theta_x),
                               ("y", w_y, dw_y, config.theta_y)):
        lift = np.zeros(U.shape)
        fluxes.elastic_face_fluctuations(mesh.lift_maps[axis], _along(U, axis),
                                         _along(lift, axis))
        body -= lift
        if axis not in mesh.layer_blocks:
            continue
        # on the layer elements: V_xi, what it and d w add to the volume
        # block's product, which has gamma = 1, and the w update
        cols, A, gamma_part = mesh.layer_blocks[axis]
        layer, faces = _along(U, axis)[cols], _along(body, axis)
        lines = layer.shape[:3] + (-1,)
        V = np.matmul(A, np.matmul(mesh.ref.D, layer).reshape(lines))
        V = V.reshape(layer.shape)
        if gamma_part is not None:
            part = gamma_part * V
            faces[cols] += part
            V += part
        if w.size:
            w, dw = _along(w, axis), _along(dw, axis)
            d, d_alpha = mesh.damping[axis]
            faces[cols] -= d * w
            np.subtract(V, d_alpha * w, out=dw)
            dw -= theta * _along(lift, axis)[cols]
    shape = (K, L, m, n2)
    np.matmul(mesh.Pmat, body.reshape(shape), out=dU.reshape(shape))


# -- time stepping ------------------------------------------------------------


def timestep_formula(cfl, degree, c_max, min_elem):
    """dt = CFL / (sqrt(2) (2N+1) c_max) * min element size."""
    return cfl / (math.sqrt(2) * (2 * degree + 1) * c_max) * min_elem


def timestep(config, mesh):
    return timestep_formula(config.cfl, mesh.N, mesh.c_max, mesh.min_size)


def rk4_step(y, dt, f, stages):
    """Classical RK4 step of the flat vector y, in place: ``f(y, out)`` writes
    dy/dt into out, and ``stages`` holds three vectors like y (acc, k, z).
    The arithmetic is y + (c dt) k per stage and
    y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4): acc takes k1, then adds each
    later 2 k or k as soon as the next stage's z has been formed from it."""
    acc, k, z = stages
    f(y, acc)
    np.add(y, np.multiply(0.5 * dt, acc, out=z), out=z)
    for c in (0.5, 1.0):
        f(z, k)
        np.add(y, np.multiply(c * dt, k, out=z), out=z)
        acc += np.multiply(2.0, k, out=k)
    f(z, k)
    acc += k
    y += np.multiply(dt / 6.0, acc, out=acc)


def time_grid(config, mesh):
    """(dt, n_steps, times): final_time in the fewest equal steps of at most
    the CFL step, and the time of every step that ``run`` takes to the stop
    time (step 0 included)."""
    n_steps = max(1, int(np.ceil(config.final_time / timestep(config, mesh)
                                 - 1e-12)))
    dt = config.final_time / n_steps
    stop = config.final_time if config.stop_time is None else config.stop_time
    # steps taken: step k + 1 starts at k dt, which must lie before stop (to
    # a relative 1e-12, so a stop at or below 1e-12 s still takes its step)
    n_run = int(np.searchsorted(np.arange(n_steps) * dt, stop * (1 - 1e-12)))
    return dt, n_steps, np.arange(n_run + 1) * dt


def advance(state, dt, mesh, config):
    """One RK4 step of the state, in place, from t to t + dt."""
    if state.stages is None:
        state.stages = np.empty((3, state.y.size))
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
    if not (mesh.acoustic and len(mesh.media) == 1):
        raise ValueError("the standing mode needs one acoustic medium")
    med = mesh.media[0]
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
    nodes = mesh.ref.nodes
    return [(kx, ly, lagrange_eval(nodes, q), lagrange_eval(nodes, r))
            for kx, ly, q, r in (mesh.locate(x, y) for x, y in locations)]


def run(mesh, config, initial=None, receivers=(), snapshot_times=(),
        record_fields=False, history_stride=None, divergence_factor=1e4,
        on_sample=None):
    """Step the system to the final (or stop) time, recording diagnostics.

    Every ``history_stride`` steps (default n_steps // 400, at least 1), the
    ``mesh.interior`` fields are sampled: stored in the history with
    ``record_fields``, and passed to ``on_sample(i, t, U_interior)`` for
    sample i at time t as a view that the next step overwrites.

    Raises UnstableRunError, carrying the record up to the last sampled
    step so growth histories remain available, if the state leaves the
    finite range (that state is not sampled) or the L-infinity norm exceeds
    ``divergence_factor`` times a nonzero initial value.
    """
    state = (SimState(initial.t, initial.y.copy(), mesh)  # stepped in place
             if isinstance(initial, SimState)
             else initial_state(mesh, initial))
    U = state.U
    dt, n_steps, times = time_grid(config, mesh)
    stride = history_stride or max(1, n_steps // 400)
    stencils = _receiver_stencils(mesh, receivers)
    snap_steps = {}  # step -> every requested time that rounds to it
    for t in snapshot_times:
        snap_steps.setdefault(int(round(t / dt)), []).append(t)

    rec = RunRecord(
        times=times, linf=np.empty(times.size), energy=np.empty(times.size),
        dt=dt, n_steps=n_steps, final_state=state, mesh=mesh,
        receiver_series=(np.empty((len(stencils), times.size, mesh.m))
                         if stencils else None),
        linf_field="p" if mesh.acoustic else "vmag")
    kx0, kx1, ly0, ly1 = mesh.interior
    if record_fields:
        rec.history_times = times[::stride]
        rec.history = np.empty((rec.history_times.size, kx1 - kx0, ly1 - ly0)
                               + U.shape[2:])

    failure = None
    for step in range(times.size):
        rec.linf[step] = linf = diagnostics.linf_norm(U, mesh)
        rec.energy[step] = diagnostics.discrete_energy(U, mesh)
        for i, (kx, ly, ex, ey) in enumerate(stencils):
            rec.receiver_series[i, step] = np.einsum("mij,i,j->m", U[kx, ly],
                                                     ex, ey)
        if step in snap_steps:
            rec.snapshots.update(dict.fromkeys(snap_steps[step], U.copy()))
        if (record_fields or on_sample) and step % stride == 0:
            if record_fields:
                rec.history[step // stride] = U[kx0:kx1, ly0:ly1]
            if on_sample:
                on_sample(step // stride, times[step], U[kx0:kx1, ly0:ly1])
        if step and linf > divergence_factor * rec.linf[0] > 0:
            failure = (f"L-infinity norm diverged ({linf:.3g} > "
                       f"{divergence_factor:g} x initial)")
        if failure or step == times.size - 1:
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
