"""Jacobian matrix, kinesthetic feedback torque (tau = J^T F) and the
spring-law contact force of the slave-side force synthesis.

J^T F and the spring law are written once, as the circuit functions
``_torque_circuit`` and ``_fbf_circuit`` of ``tactilesim.circuits``, which
both backends run (``backend.run_block``); the Jacobian is a backend method,
``backend.jacobian_block``, next to FK in ``tactilesim.kinematics``.

``feedback_force_block`` and ``kinesthetic_feedback_block`` take arrays with
one row per sample, and return the rows before the first failing row and
that row's exception.  ``jacobian``, ``feedback_force`` and
``kinesthetic_feedback`` are the block forms on one row of doubles; a
failing row raises its exception.
"""

from __future__ import annotations

from collections import namedtuple
from math import isfinite

import numpy as np

from tactilesim.circuits import _fbf_circuit, _torque_circuit
from tactilesim.kinematics import (
    DEFAULT_GEOMETRY,
    CartesianPosition,
    DeviceGeometry,
    Hybrid,
    JointAngles,
    ORACLE,
    Oracle,
    _non_finite,
    _tuple_new,
    _Validated,
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
    "kinesthetic_feedback_block",
    "feedback_force_block",
]

# Largest float32 value: the hybrid FBF holds the spring constants as 32-bit
# floats, so a constant beyond it cannot be cast.
_F32_MAX = float(np.finfo(np.float32).max)


class ForceVector(_Validated, namedtuple("ForceVector", "fx fy fz")):
    """Force in N: a named tuple of finite values."""

    __slots__ = ()

    def __new__(cls, fx, fy, fz):
        self = _tuple_new(cls, (fx, fy, fz))
        try:
            if isfinite(fx) and isfinite(fy) and isfinite(fz):
                return self
        except OverflowError:  # an int beyond the float range
            pass
        raise _non_finite(self)


class TorqueVector(_Validated, namedtuple("TorqueVector", "tau1 tau2 tau3")):
    """Joint torques in N m: a named tuple of finite values."""

    __slots__ = ()

    def __new__(cls, tau1, tau2, tau3):
        self = _tuple_new(cls, (tau1, tau2, tau3))
        try:
            if isfinite(tau1) and isfinite(tau2) and isfinite(tau3):
                return self
        except OverflowError:  # an int beyond the float range
            pass
        raise _non_finite(self)


class JacobianMatrix(
    _Validated, namedtuple("JacobianMatrix", "j11 j12 j13 j21 j22 j23 j31 j32 j33")
):
    """Partial derivatives of the tool position w.r.t. the joint angles, in
    row order; row = Cartesian coordinate, column = joint.  J21 is identically
    zero (the y coordinate does not depend on the base rotation)."""

    __slots__ = ()

    def __new__(cls, j11, j12, j13, j21, j22, j23, j31, j32, j33):
        if j21 != 0.0:
            raise ValueError("J21 must be identically zero")
        return _tuple_new(cls, (j11, j12, j13, j21, j22, j23, j31, j32, j33))


class Elasticity(_Validated, namedtuple("Elasticity", "hx hy hz")):
    """Per-axis spring constants of the contact model, in N/m."""

    __slots__ = ()

    def __new__(cls, hx, hy, hz):
        self = _tuple_new(cls, (hx, hy, hz))
        for name, value in zip(self._fields, self):
            # NaN fails the test too.
            if not value >= 0:
                raise ValueError(f"{name} must be nonnegative")
            if value > _F32_MAX:
                raise ValueError(f"{name} exceeds the float32 maximum {_F32_MAX:.7g}")
        return self


def jacobian(
    q: JointAngles,
    g: DeviceGeometry = DEFAULT_GEOMETRY,
    backend: Oracle | Hybrid = ORACLE,
) -> JacobianMatrix:
    """Jacobian of the forward kinematics at ``q``.

    J21 is emitted as constant zero with no computation, as in the hardware.
    """
    j11, j12, j13, j22, j23, j31, j32, j33 = _row(backend.jacobian_block(_rows(q), g))
    return JacobianMatrix(j11, j12, j13, 0.0, j22, j23, j31, j32, j33)


def _rows(values) -> np.ndarray:
    """One sample as a block of one row of doubles."""
    return np.array([values], float)


def _row(block) -> list[float]:
    """The row of a one-row block form's result, or its exception."""
    rows, error = block
    if error is not None:
        raise error
    return rows[0].tolist()


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
    return TorqueVector(*_row(kinesthetic_feedback_block(_rows(q), _rows(f), g, backend)))


def feedback_force(
    obj: CartesianPosition,
    env: CartesianPosition,
    h: Elasticity,
    backend: Oracle | Hybrid = ORACLE,
) -> ForceVector:
    """Spring-law contact force, per axis: h_i * (obj_i - env_i)."""
    return ForceVector(*_row(feedback_force_block(_rows(obj), _rows(env), h, backend)))


def kinesthetic_feedback_block(
    q: np.ndarray,
    f: np.ndarray,
    g: DeviceGeometry = DEFAULT_GEOMETRY,
    backend: Oracle | Hybrid = ORACLE,
) -> tuple[np.ndarray, Exception | None]:
    """``kinesthetic_feedback`` of each row of the (m, 3) arrays ``q`` and
    ``f``: an array of the torque rows before the first failing row, and the
    exception of that row (None when every row passes)."""
    jm, error = backend.jacobian_block(q, g)
    tau, tau_error = backend.run_block(_torque_circuit, TorqueVector, jm, f[: len(jm)])
    # A torque row that fails comes before the Jacobian's failing row.
    return tau, error if tau_error is None else tau_error


def feedback_force_block(
    obj: np.ndarray,
    env: np.ndarray,
    h: Elasticity,
    backend: Oracle | Hybrid = ORACLE,
) -> tuple[np.ndarray, Exception | None]:
    """``feedback_force`` of each row of the (m, 3) arrays ``obj`` and ``env``:
    an array of the force rows before the first failing row, and the
    exception of that row (None when every row passes)."""
    return backend.run_block(_fbf_circuit, ForceVector, obj, env, h)
