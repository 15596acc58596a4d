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
and the mesh evaluates it once on unit traces into maps (``face_maps``).
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
    """(BL, NL, BR, NR) of interior faces, FL = BL plus + NL minus on the low
    faces of the plus elements and FR = BR minus + NR plus on the high faces
    of the minus elements; ``pairs`` holds (q, v, s, Z_minus, Z_plus) per
    pair, and each map has the impedances' shape + (m, m)."""
    qm, vm, qp, vp = np.eye(4)  # unit traces, one a column
    BL, NL, BR, NR = maps = np.zeros((4,) + pairs[0][3].shape + (m, m))
    for q, v, s, Zm, Zp in pairs:
        q_hat, v_hat = hat_state(s, qm, vm, Zm[..., None], qp, vp,
                                 Zp[..., None])
        FR = -s * np.stack([v_hat - vm, q_hat - qm], axis=-2)
        FL = s * np.stack([v_hat - vp, q_hat - qp], axis=-2)
        rows, cols = [[q], [v]], [q, v]
        BR[..., rows, cols], NR[..., rows, cols] = FR[..., :2], FR[..., 2:]
        NL[..., rows, cols], BL[..., rows, cols] = FL[..., :2], FL[..., 2:]
    return maps


def face_fluctuations(maps, lo, hi):
    """Lifted fluctuations (FL, FR) of every element's low and high faces
    from its face traces lo and hi, shaped (elements along the axis, across
    it, m, nodes), and the maps (BL, NL, BR, NR) of ``Mesh.lift_maps``."""
    BL, NL, BR, NR = maps
    FL, FR = np.matmul(BL, lo), np.matmul(BR, hi)
    FL[1:] += np.matmul(NL, hi[:-1])
    FR[:-1] += np.matmul(NR, lo[1:])
    return FL, FR


# perfbench/tracer.py rebinds these older names: the solver calls the elastic
# face name, and no code calls the boundary names: walls have no kernel.
acoustic_face_fluctuations = elastic_face_fluctuations = face_fluctuations
acoustic_boundary_fluctuation = elastic_boundary_fluctuation = face_maps
