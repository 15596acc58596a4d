"""Characteristic hat states and flux fluctuations of face pairs.

A face couples the fields in characteristic pairs (q, v, Z), a traction-like
trace q, the velocity v it works against and an impedance Z, which the media
name by their indices in U: one pair (p, v_n) for acoustics, two, (T_n, v_n)
and (T_t, v_t), for elasticity.  The systems differ only in the sign
s = A_n[v, q] of the face-normal coefficient matrix: -1 for acoustics, +1
for elasticity.  Along an axis, q - s Z v travels to higher and q + s Z v to
lower coordinates (p +- Z v_n for acoustics, T -+ Z v for elasticity).

At every face a single-valued "hat" state satisfies the interface condition
exactly and preserves each side's outgoing characteristic.  A wall with
reflection coefficient r is a face to a mirror neighbour, which has the
element's own impedance and the trace (-r q, r v), so that w_in = -r w_out.
An element receives FL = +A_n (hat - trace) on its low face and FR = -A_n
(hat - trace) on its high face: row q gets +-s (v_hat - v), row v
+-s (q_hat - q).  Fluctuations vanish when the traces satisfy the
conditions and dissipate energy for positive impedances.  Products with s
are exact, and s (q_R - q_L) is the ordered difference ``lead - lag``, so
each system rounds as its own closed form does.  The hat state is linear,
and equal traces on both sides are their own hat state, so the
fluctuations depend on the jump (minus - plus) alone: FL = NL (minus - plus)
and FR = BR (minus - plus).  The mesh evaluates NL and BR once on unit
traces (``face_maps``), folding a wall's mirror into its element's maps,
and ``face_fluctuations`` applies them to the jumps of every face.  So
traces that agree across a face give exactly zero there.
"""

import numpy as np


def hat_state(s, q_L, v_L, Z_L, q_R, v_R, Z_R):
    """Interface state continuous in (q, v) that preserves the outgoing
    characteristics q - s Z_L v of the left side and q + s Z_R v of the
    right side."""
    lead, lag = (q_R, q_L) if s > 0 else (q_L, q_R)
    v_hat = (Z_L * v_L + Z_R * v_R + lead - lag) / (Z_L + Z_R)
    q_hat = q_L + (s * Z_L) * (v_hat - v_L)
    return q_hat, v_hat


def face_maps(pairs, m):
    """(NL, BR) of interior faces: FL = NL (minus - plus) on the low faces
    of the plus elements and FR = BR (minus - plus) on the high faces of
    the minus elements, from the jump of the traces, as the hat state of
    equal traces is that trace; ``pairs`` holds (q, v, s, Z_minus, Z_plus)
    per pair, and each map has the impedances' shape + (m, m)."""
    qm, vm = np.eye(2)  # unit minus traces, one a column
    NL, BR = maps = np.zeros((2,) + pairs[0][3].shape + (m, m))
    for q, v, s, Zm, Zp in pairs:
        q_hat, v_hat = hat_state(s, qm, vm, Zm[..., None], 0.0, 0.0,
                                 Zp[..., None])
        rows, cols = [[q], [v]], [q, v]
        NL[..., rows, cols] = s * np.stack([v_hat, q_hat], axis=-2)
        BR[..., rows, cols] = -s * np.stack([v_hat - vm, q_hat - qm], axis=-2)
    return maps


def face_fluctuations(maps, traces, out):
    """Write the lifted fluctuations of every element's low and high faces
    into the face nodes of the nodal array out, from the nodal array traces,
    both shaped (elements along the axis, across it, m, nodes along it,
    nodes across), and the maps (NL, BR) of ``Mesh.lift_maps``: of the jump
    from the low neighbour's high trace to the element's low trace, and
    from the element's high trace to the high neighbour's low trace.  A
    wall's jump is the element's own trace, its map holding the mirror."""
    lo, hi = traces[:, :, :, 0], traces[:, :, :, -1]
    jump = np.empty((len(lo) + 1,) + lo.shape[1:])
    jump[0], jump[-1] = lo[0], hi[-1]
    np.subtract(hi[:-1], lo[1:], out=jump[1:-1])
    np.matmul(maps[0], jump[:-1], out=out[:, :, :, 0])
    np.matmul(maps[1], jump[1:], out=out[:, :, :, -1])


# perfbench/tracer.py rebinds these older names: the solver calls the elastic
# face name, and no code calls the boundary names: walls have no kernel.
acoustic_face_fluctuations = elastic_face_fluctuations = face_fluctuations
acoustic_boundary_fluctuation = elastic_boundary_fluctuation = face_maps
