"""The hybrid hardware modules, each written once as a circuit function over
an arithmetic policy ``p`` and the link constants ``(l1, l2, l3, l4)``: FK,
IK, the Jacobian, J^T F and the spring law of FBF.

A policy supplies ``const``, ``sincos``, ``atan2``, ``acos``, ``sqrt`` and
``reach``; ``+ - * /`` and unary minus are the operators of its values.
``tactilesim.kinematics.Hybrid`` is the policy that computes FK and IK on
float32 scalars, ``_HybridColumns`` the one that computes the Jacobian over
float32 columns, both backends' ``run_block`` runs J^T F and the spring law
on their own number types, and the recorder in ``tactilesim.latency_model``
runs the same functions to build the latency DAGs.  The module imports no
numpy, so the latency model loads without it.
"""

from __future__ import annotations

import math


def _fk_circuit(p, links, theta):
    """FK circuit: one TFB per joint angle, then a circuit per coordinate.
    The angles enter the TFBs unrounded (F2FP quantizes them directly)."""
    l1, l2, l3, l4 = links
    s1, c1 = p.sincos(theta[0])
    s2, c2 = p.sincos(theta[1])
    s3, c3 = p.sincos(theta[2])
    x = -(s1 * (l2 * s3 + l1 * c2))
    y = (-(l2 * c3) + l1 * s2) + l3
    z = (l2 * (c1 * s3) + l1 * (c1 * c2)) + (-l4)
    return x, y, z


def _jacobian_circuit(p, links, theta):
    """One circuit per nonzero entry, returned in row order without J21.
    Products associate length-constant first, then the remaining trig factors
    left to right."""
    l1, l2 = links[:2]
    s1, c1 = p.sincos(theta[0])
    s2, c2 = p.sincos(theta[1])
    s3, c3 = p.sincos(theta[2])
    j11 = -(c1 * (l2 * s3 + l1 * c2))
    j12 = l1 * (s1 * s2)
    j13 = -(l2 * (s1 * c3))
    j22 = l1 * c2
    j23 = l2 * s3
    j31 = -(((l1 * c2) * s1) + ((l2 * s3) * s1))
    j32 = -(l1 * (s2 * c1))
    j33 = l2 * (c3 * c1)
    return j11, j12, j13, j22, j23, j31, j32, j33


def _ik_circuit(p, links, pos):
    """IK circuit in three stages; returns the joint angles and the
    intermediates (R, r, gamma, beta, alpha)."""
    l1, l2, l3, l4 = links
    x, y, z = pos
    # First stage: theta1, R and r in parallel.
    zz = z + l4
    theta1 = -p.atan2(x, zz)
    sum_xz = x * x + zz * zz
    big_r = p.sqrt(sum_xz)
    # The hardware negates L3 and r^2 and adds: in float32, a + (-b) == a - b.
    yy = y + (-l3)
    r = p.reach(p.sqrt(sum_xz + yy * yy))

    # Second stage: gamma, beta and alpha in parallel.
    r_sq = r * r
    # The gamma and alpha circuits each square the link lengths themselves.
    two = p.const(2.0)
    g_num = (l1 * l1 - l2 * l2) + r_sq
    gamma = p.acos(g_num / (two * (l1 * r)), "gamma")
    beta = p.atan2(yy, big_r)
    a_num = (l1 * l1 + l2 * l2) + (-r_sq)
    alpha = p.acos(a_num / (two * (l1 * l2)), "alpha")

    # Third stage: theta2 and theta3.
    theta2 = gamma + beta
    theta3 = (theta2 + alpha) + p.const(-math.pi / 2.0)
    return (theta1, theta2, theta3), (big_r, r, gamma, beta, alpha)


def _torque_circuit(j, f):
    """tau = J^T F over the entries of ``_jacobian_circuit``."""
    j11, j12, j13, j22, j23, j31, j32, j33 = j
    fx, fy, fz = f
    tau1 = (j11 * fx) + (j31 * fz)
    tau2 = ((j12 * fx) + (j22 * fy)) + (j32 * fz)
    tau3 = ((j13 * fx) + (j23 * fy)) + (j33 * fz)
    return tau1, tau2, tau3


def _fbf_circuit(obj, env, h):
    """Per axis, a subtractor and a multiplier: h_i * (obj_i - env_i)."""
    return [hi * (o - e) for o, e, hi in zip(obj, env, h)]
