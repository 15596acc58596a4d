"""Characteristic hat states and flux fluctuation vectors.

At every face a single-valued "hat" state is constructed that satisfies the
interface (or boundary) conditions exactly while preserving each side's
outgoing characteristic.  The fluctuation injected into an element is
FL = +A_n (hat - trace) on its low face and FR = -A_n (hat - trace) on its
high face, where A_n is the coefficient matrix of the face-normal direction.
Fluctuations vanish identically when the traces already satisfy the
conditions, and the injected terms are energy dissipative for any positive
impedances.

Characteristic conventions along an axis with coordinate increasing to the
"right":
    acoustics: p + Z v_n travels right, p - Z v_n travels left;
    elasticity: T - Z v travels right, T + Z v travels left,
with v_n the face-normal velocity and T the face traction components.
"""

import numpy as np


def hat_states_acoustic(p_L, vn_L, Z_L, p_R, vn_R, Z_R):
    """Interface state continuous in (p, v_n), preserving p +- Z v_n.

    Solves p_hat + Z_L v_hat = p_L + Z_L vn_L and
           p_hat - Z_R v_hat = p_R - Z_R vn_R.
    """
    v_hat = (Z_L * vn_L + Z_R * vn_R + p_L - p_R) / (Z_L + Z_R)
    p_hat = p_L + Z_L * (vn_L - v_hat)
    return p_hat, v_hat


def hat_states_elastic(T_L, v_L, Z_L, T_R, v_R, Z_R):
    """Componentwise interface state continuous in (T, v), preserving
    T -+ Z v (force balance, no slip/opening)."""
    v_hat = (Z_L * v_L + Z_R * v_R + T_R - T_L) / (Z_L + Z_R)
    T_hat = T_L + Z_L * (v_hat - v_L)
    return T_hat, v_hat


def boundary_hat_acoustic(p, vn, Z, r, is_max_side):
    """Boundary state satisfying (1-r)/2 Z v_n -+ (1+r)/2 p = 0 while
    preserving the outgoing characteristic of the trace."""
    if is_max_side:
        w = p + Z * vn
        return 0.5 * (1.0 - r) * w, 0.5 * (1.0 + r) * w / Z
    w = p - Z * vn
    return 0.5 * (1.0 - r) * w, -0.5 * (1.0 + r) * w / Z


def boundary_hat_elastic(T, v, Z, r, is_max_side):
    """Boundary state satisfying (1-r)/2 Z v +- (1+r)/2 T = 0 while
    preserving the outgoing characteristic of the trace."""
    if is_max_side:
        w = T - Z * v
        return 0.5 * (1.0 - r) * w, -0.5 * (1.0 + r) * w / Z
    w = T + Z * v
    return 0.5 * (1.0 - r) * w, 0.5 * (1.0 + r) * w / Z


def _acoustic_delta_to_fluct(dp, dvn, axis_index):
    """Map hat-minus-trace differences through A_axis for acoustics.

    Returns components stacked on the field axis: the pressure row receives
    -(dvn), the normal-velocity row -(dp).
    """
    out = [None, None, None]
    out[0] = -dvn
    out[axis_index + 1] = -dp
    out[2 if axis_index == 0 else 1] = np.zeros_like(dp)
    return np.stack(out, axis=-2)


def _elastic_delta_to_fluct(dTn, dTt, dvn, dvt, axis):
    """Map hat-minus-trace differences through A_axis for elasticity.

    Velocity rows receive the traction differences, the stress rows the
    selector-transposed velocity differences.  Field order is
    (vx, vy, sxx, syy, sxy); on an x-face (T_n, T_t) = (sxx, sxy) pair with
    (v_n, v_t) = (vx, vy); on a y-face (T_n, T_t) = (syy, sxy) with (vy, vx).
    """
    zero = np.zeros_like(dvn)
    if axis == "x":
        rows = (dTn, dTt, dvn, zero, dvt)
    else:
        rows = (dTt, dTn, zero, dvn, dvt)
    return np.stack(rows, axis=-2)


def acoustic_face_fluctuations(axis, pm, vm, Zm, pp, vp, Zp):
    """(FR for the minus element, FL for the plus element) at interior faces.

    ``pm, vm`` are the minus-side traces of pressure and face-normal
    velocity (arrays over faces x nodes), ``Zm`` the minus-side impedance;
    plus-side quantities analogous.
    """
    p_hat, v_hat = hat_states_acoustic(pm, vm, Zm, pp, vp, Zp)
    ax = 0 if axis == "x" else 1
    FR = -_acoustic_delta_to_fluct(p_hat - pm, v_hat - vm, ax)
    FL = _acoustic_delta_to_fluct(p_hat - pp, v_hat - vp, ax)
    return FR, FL


def elastic_face_fluctuations(axis, Tnm, Ttm, vnm, vtm, Znm, Ztm,
                              Tnp, Ttp, vnp, vtp, Znp, Ztp):
    """Elastic analogue of :func:`acoustic_face_fluctuations`; the normal
    and tangential pairs use their own impedances."""
    Tn_hat, vn_hat = hat_states_elastic(Tnm, vnm, Znm, Tnp, vnp, Znp)
    Tt_hat, vt_hat = hat_states_elastic(Ttm, vtm, Ztm, Ttp, vtp, Ztp)
    FR = -_elastic_delta_to_fluct(Tn_hat - Tnm, Tt_hat - Ttm,
                                  vn_hat - vnm, vt_hat - vtm, axis)
    FL = _elastic_delta_to_fluct(Tn_hat - Tnp, Tt_hat - Ttp,
                                 vn_hat - vnp, vt_hat - vtp, axis)
    return FR, FL


def acoustic_boundary_fluctuation(axis, side, p, vn, Z, r):
    """Fluctuation (FL or FR) for a boundary face of one element."""
    is_max = side in ("east", "north")
    p_hat, v_hat = boundary_hat_acoustic(p, vn, Z, r, is_max)
    ax = 0 if axis == "x" else 1
    sign = -1.0 if is_max else 1.0
    return sign * _acoustic_delta_to_fluct(p_hat - p, v_hat - vn, ax)


def elastic_boundary_fluctuation(axis, side, Tn, Tt, vn, vt, Zn, Zt, r):
    is_max = side in ("east", "north")
    Tn_hat, vn_hat = boundary_hat_elastic(Tn, vn, Zn, r, is_max)
    Tt_hat, vt_hat = boundary_hat_elastic(Tt, vt, Zt, r, is_max)
    sign = -1.0 if is_max else 1.0
    return sign * _elastic_delta_to_fluct(Tn_hat - Tn, Tt_hat - Tt,
                                          vn_hat - vn, vt_hat - vt, axis)
