"""Jacobian matrix, kinesthetic feedback torque (tau = J^T F) and the
spring-law contact force of the slave-side force synthesis.

The hybrid modules are ``_*_circuit`` functions, as in ``tactilesim.kinematics``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from tactilesim import kinematics
from tactilesim.kinematics import (
    DEFAULT_GEOMETRY,
    Backend,
    CartesianPosition,
    DeviceGeometry,
    Hybrid,
    JointAngles,
    ORACLE,
    _require_finite,
    _tfb_angles,
)
from tactilesim.numerics import tfb_sincos

__all__ = [
    "ForceVector",
    "TorqueVector",
    "JacobianMatrix",
    "Elasticity",
    "jacobian",
    "kinesthetic_feedback",
    "feedback_force",
]

# Largest float32 value: the hybrid FBF holds the spring constants as 32-bit
# floats, so a constant beyond it cannot be cast.
_F32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class ForceVector:
    fx: float
    fy: float
    fz: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.fx) and math.isfinite(self.fy) and math.isfinite(self.fz)):
            _require_finite(self, ("fx", "fy", "fz"))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.fx, self.fy, self.fz)


@dataclass(frozen=True)
class TorqueVector:
    tau1: float
    tau2: float
    tau3: float

    def __post_init__(self) -> None:
        if not (
            math.isfinite(self.tau1) and math.isfinite(self.tau2) and math.isfinite(self.tau3)
        ):
            _require_finite(self, ("tau1", "tau2", "tau3"))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.tau1, self.tau2, self.tau3)


@dataclass(frozen=True)
class JacobianMatrix:
    """Partial derivatives of the tool position w.r.t. the joint angles; row =
    Cartesian coordinate, column = joint.  J21 is identically zero (the y
    coordinate does not depend on the base rotation)."""

    j11: float
    j12: float
    j13: float
    j21: float
    j22: float
    j23: float
    j31: float
    j32: float
    j33: float

    def __post_init__(self) -> None:
        if self.j21 != 0.0:
            raise ValueError("J21 must be identically zero")

    def as_array(self) -> np.ndarray:
        return np.array(
            [
                [self.j11, self.j12, self.j13],
                [self.j21, self.j22, self.j23],
                [self.j31, self.j32, self.j33],
            ]
        )


@dataclass(frozen=True)
class Elasticity:
    """Per-axis spring constants of the contact model, in N/m."""

    hx: float
    hy: float
    hz: float

    def __post_init__(self) -> None:
        for name in ("hx", "hy", "hz"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
            if getattr(self, name) > _F32_MAX:
                raise ValueError(f"{name} exceeds the float32 maximum {_F32_MAX:.7g}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.hx, self.hy, self.hz)

    @cached_property
    def _f32(self) -> np.ndarray:
        # The hybrid FBF holds the spring constants as 32-bit floats.
        return np.array(self.as_tuple(), np.float32)


class _Float32(kinematics._Float32):
    """The hybrid datapath policy with the Jacobian's TFBs called through
    this module's ``tfb_sincos``, which the benchmark's traced run spans."""

    def sincos(self, angle):
        return tfb_sincos(angle, self.cfg)


def jacobian(
    q: JointAngles,
    g: DeviceGeometry = DEFAULT_GEOMETRY,
    backend: Backend = ORACLE,
) -> JacobianMatrix:
    """Jacobian of the forward kinematics at ``q``.

    J21 is emitted as constant zero with no computation, as in the hardware.
    """
    if isinstance(backend, Hybrid):
        j11, j12, j13, j22, j23, j31, j32, j33 = map(
            float, _jacobian_circuit(_Float32(g, backend.cordic), _tfb_angles(q, backend.cordic))
        )
        return JacobianMatrix(j11, j12, j13, 0.0, j22, j23, j31, j32, j33)
    s1, c1 = math.sin(q.theta1), math.cos(q.theta1)
    s2, c2 = math.sin(q.theta2), math.cos(q.theta2)
    s3, c3 = math.sin(q.theta3), math.cos(q.theta3)
    l1, l2 = g.l1, g.l2
    return JacobianMatrix(
        j11=-c1 * (l2 * s3 + l1 * c2),
        j12=l1 * s1 * s2,
        j13=-l2 * s1 * c3,
        j21=0.0,
        j22=l1 * c2,
        j23=l2 * s3,
        j31=-(l1 * c2 * s1 + l2 * s3 * s1),
        j32=-l1 * s2 * c1,
        j33=l2 * c3 * c1,
    )


def _jacobian_circuit(p, theta):
    """One circuit per nonzero entry, returned in row order without J21.
    Products associate length-constant first, then the remaining trig factors
    left to right."""
    s1, c1 = p.sincos(theta[0])
    s2, c2 = p.sincos(theta[1])
    s3, c3 = p.sincos(theta[2])
    j11 = -(c1 * (p.l2 * s3 + p.l1 * c2))
    j12 = p.l1 * (s1 * s2)
    j13 = -(p.l2 * (s1 * c3))
    j22 = p.l1 * c2
    j23 = p.l2 * s3
    j31 = -(((p.l1 * c2) * s1) + ((p.l2 * s3) * s1))
    j32 = -(p.l1 * (s2 * c1))
    j33 = p.l2 * (c3 * c1)
    return j11, j12, j13, j22, j23, j31, j32, j33


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


def kinesthetic_feedback(
    q: JointAngles,
    f: ForceVector,
    g: DeviceGeometry = DEFAULT_GEOMETRY,
    backend: Backend = ORACLE,
) -> TorqueVector:
    """Joint torques tau = J^T F rendering the remote contact force.

    The J21 product is skipped (no circuit exists for it); the remaining
    products accumulate in a fixed order so results are bit-reproducible.
    """
    jm = jacobian(q, g, backend)
    if isinstance(backend, Hybrid):
        # One float32 cast for the eight J entries and the three forces.  A
        # force beyond the float32 range becomes inf, as in the datapath.
        with np.errstate(over="ignore", invalid="ignore"):
            jf = np.array(
                (jm.j11, jm.j12, jm.j13, jm.j22, jm.j23, jm.j31, jm.j32, jm.j33, *f.as_tuple()),
                np.float32,
            )
            return TorqueVector(*map(float, _torque_circuit(jf[:8], jf[8:])))
    tau1 = jm.j11 * f.fx + jm.j31 * f.fz
    tau2 = (jm.j12 * f.fx + jm.j22 * f.fy) + jm.j32 * f.fz
    tau3 = (jm.j13 * f.fx + jm.j23 * f.fy) + jm.j33 * f.fz
    return TorqueVector(tau1, tau2, tau3)


def feedback_force(
    obj: CartesianPosition,
    env: CartesianPosition,
    h: Elasticity,
    backend: Backend = ORACLE,
) -> ForceVector:
    """Spring-law contact force, per axis: h_i * (obj_i - env_i)."""
    if isinstance(backend, Hybrid):
        # Float32 overflow gives inf, as in the datapath.
        with np.errstate(over="ignore", invalid="ignore"):
            pos = np.array((*obj.as_tuple(), *env.as_tuple()), np.float32)
            return ForceVector(*map(float, _fbf_circuit(pos[:3], pos[3:], h._f32)))
    return ForceVector(
        h.hx * (obj.x - env.x),
        h.hy * (obj.y - env.y),
        h.hz * (obj.z - env.z),
    )
