"""Characteristic hat states and flux fluctuations of face pairs.

A face couples the fields in characteristic pairs (q, v, Z), a traction-like
trace q, the velocity v it works against and an impedance Z, which the media
name by their indices in U: one pair (p, v_n) for acoustics, two, (T_n, v_n)
and (T_t, v_t), for elasticity.  The systems differ only in the sign
s = A_n[v, q] of the face-normal coefficient matrix: -1 for acoustics, +1
for elasticity.  Along an axis, q - s Z v travels to higher and q + s Z v to
lower coordinates (p +- Z v_n for acoustics, T -+ Z v for elasticity).

At every face a single-valued "hat" state satisfies the interface (or
boundary) condition exactly and preserves each side's outgoing
characteristic.  An element receives FL = +A_n (hat - trace) on its low face
and FR = -A_n (hat - trace) on its high face: row q gets +-s (v_hat - v),
row v +-s (q_hat - q).  Fluctuations vanish when the traces satisfy the
conditions and dissipate energy for positive impedances.  Products with s
are exact, and s (q_R - q_L) is the ordered difference ``lead - lag``, so
each system rounds as its own closed form does.
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


def boundary_hat(q, v, z, r):
    """Boundary state satisfying (1-r)/2 z v + (1+r)/2 q = 0 while
    preserving the outgoing characteristic q - z v, where z = o s Z is the
    impedance signed by the outward normal o (+1 on a high face, -1 on a
    low one)."""
    w = q - z * v
    return 0.5 * (1.0 - r) * w, -0.5 * (1.0 + r) * w / z


def face_fluctuations(pairs, minus, plus, FR, FL):
    """Fill the pair rows of FR, the high faces of the minus elements, and
    FL, the low faces of the plus elements, at interior faces.

    ``minus`` and ``plus`` are the two sides' traces with the field axis
    second to last; ``pairs`` holds (q, v, s, Z_minus, Z_plus) per pair."""
    for q, v, s, Zm, Zp in pairs:
        qm, vm = minus[..., q, :], minus[..., v, :]
        qp, vp = plus[..., q, :], plus[..., v, :]
        q_hat, v_hat = hat_state(s, qm, vm, Zm, qp, vp, Zp)
        np.multiply(v_hat - vm, -s, out=FR[..., q, :])
        np.multiply(q_hat - qm, -s, out=FR[..., v, :])
        np.multiply(v_hat - vp, s, out=FL[..., q, :])
        np.multiply(q_hat - qp, s, out=FL[..., v, :])


def boundary_fluctuation(pairs, trace, F, r, outward):
    """Fill the pair rows of F, the fluctuation -o A_n (hat - trace) of
    boundary faces with outward normal o = ``outward`` (+1 or -1) and
    reflection coefficient r; ``pairs`` holds (q, v, s, Z) per pair."""
    for q, v, s, Z in pairs:
        qt, vt = trace[..., q, :], trace[..., v, :]
        q_hat, v_hat = boundary_hat(qt, vt, (outward * s) * Z, r)
        np.multiply(v_hat - vt, -outward * s, out=F[..., q, :])
        np.multiply(q_hat - qt, -outward * s, out=F[..., v, :])


# perfbench/tracer.py times the kernels by rebinding these older per-system
# names, so core calls them through the elastic names (acoustics is the
# one-pair case) and the acoustic names exist for the tracer to bind.
acoustic_face_fluctuations = elastic_face_fluctuations = face_fluctuations
acoustic_boundary_fluctuation = elastic_boundary_fluctuation = \
    boundary_fluctuation
