"""Jacobian matrix, kinesthetic feedback torque (tau = J^T F) and the
spring-law contact force of the slave-side force synthesis.

J^T F and the spring law are written once, as ``_*_circuit`` functions that
both backends run (``backend.run``); the Jacobian is a backend method, next
to FK in ``tactilesim.kinematics``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tactilesim.kinematics import (
    DEFAULT_GEOMETRY,
    CartesianPosition,
    DeviceGeometry,
    Hybrid,
    JointAngles,
    ORACLE,
    Oracle,
    _require_finite,
)

# Not called here: the benchmark's traced run spans this module's
# `tfb_sincos`, so the name must exist.
from tactilesim.numerics import tfb_sincos  # noqa: F401

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


def jacobian(
    q: JointAngles,
    g: DeviceGeometry = DEFAULT_GEOMETRY,
    backend: Oracle | Hybrid = ORACLE,
) -> JacobianMatrix:
    """Jacobian of the forward kinematics at ``q``.

    J21 is emitted as constant zero with no computation, as in the hardware.
    """
    j11, j12, j13, j22, j23, j31, j32, j33 = backend.jacobian(q.as_tuple(), g)
    return JacobianMatrix(j11, j12, j13, 0.0, j22, j23, j31, j32, j33)


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
    backend: Oracle | Hybrid = ORACLE,
) -> TorqueVector:
    """Joint torques tau = J^T F rendering the remote contact force.

    The J21 product is skipped (no circuit exists for it); the remaining
    products accumulate in a fixed order so results are bit-reproducible.
    """
    jm = jacobian(q, g, backend)
    j = (jm.j11, jm.j12, jm.j13, jm.j22, jm.j23, jm.j31, jm.j32, jm.j33)
    return TorqueVector(*backend.run(_torque_circuit, j, f.as_tuple()))


def feedback_force(
    obj: CartesianPosition,
    env: CartesianPosition,
    h: Elasticity,
    backend: Oracle | Hybrid = ORACLE,
) -> ForceVector:
    """Spring-law contact force, per axis: h_i * (obj_i - env_i)."""
    return ForceVector(*backend.run(_fbf_circuit, obj.as_tuple(), env.as_tuple(), h.as_tuple()))
