"""Closed-form forward and inverse kinematics of a 3-DoF pen-style haptic arm
(two equal arm segments on a rotating base).

Every operation runs on one of two interchangeable backends:

* ``Oracle``  - full double precision, the reference model.
* ``Hybrid``  - float32 arithmetic with fixed-point CORDIC trigonometry,
  matching the structure of the hardware circuits (TFB per trig term,
  float32 multipliers/adders, float32 geometry constants).

The hybrid modules are written once, as circuit functions (``_fk_circuit``,
``_ik_circuit``) over an arithmetic policy: the float32/CORDIC policy here
computes the numbers, and the recorder in ``tactilesim.latency_model`` runs
the same functions to build the latency DAGs.  A policy supplies the geometry
constants ``l1``..``l4``, ``const``, ``sincos``, ``atan2``, ``acos``,
``sqrt`` and ``reach``; ``+ - * /`` and unary minus are the operators of its
values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from tactilesim.numerics import (
    DEFAULT_CORDIC,
    CordicConfig,
    sqrt32,
    tfb_acos,
    tfb_atan2,
    tfb_sincos,
)

__all__ = [
    "SampleError",
    "Unreachable",
    "NonFiniteSignal",
    "DeviceGeometry",
    "JointAngles",
    "CartesianPosition",
    "IkIntermediates",
    "Backend",
    "Oracle",
    "Hybrid",
    "ORACLE",
    "DEFAULT_GEOMETRY",
    "EPS_REACH",
    "forward_kinematics",
    "inverse_kinematics",
    "ik_intermediates",
]

# Tolerance on the acos operands: |arg| <= 1 + EPS_REACH clamps to the domain
# edge, anything beyond is reported as unreachable.
EPS_REACH = 1e-6

# Range of the link lengths, [1 / _LINK_MAX, _LINK_MAX] m, and of the hybrid
# IK's input coordinates, |c| <= _COORD_MAX m.  A reachable point has no
# coordinate beyond l1 + l2 + max(l3, l4) <= 3 * _LINK_MAX, so none is
# refused.  Within these ranges every float32 intermediate of the hybrid FK,
# IK and Jacobian stays finite.  With L = 2^16, C = 2^18 and a sincos TFB
# output of magnitude at most 2 (it is at most 1; float32 rounding is
# covered by the margins):
# - FK: |x| <= 2 * (2L + 2L) = 8L, |y| <= 5L, |z| <= 8L + 8L + L = 17L.
# - Jacobian: every entry is at most 8L.
# - IK: |z + l4|, |y - l3| <= C + L < 2^18.4, so the sums of squares, r^2
#   and the acos numerators stay below 3 * 2^36.7 + 2^33 < 2^39.  Past the
#   r = 0 check, r >= 2^-74.5, the root of the smallest float32, so
#   2 * l1 * r >= 2^-89.5 and 2 * l1 * l2 >= 2^-31 never round to zero.
#   The gamma quotient (l1^2 - l2^2) / (2 l1 r) + r / (2 l1) is below
#   2^32 / 2^-89.5 + 2^19.2 / 2^-15 < 2^122, the alpha quotient below
#   2^39 / 2^-31 = 2^70; the float32 maximum is 2^128.
_LINK_MAX = 2.0**16
_COORD_MAX = 4 * _LINK_MAX


class SampleError(ValueError):
    """A loop signal failed a check; ``run_pipeline`` re-raises it with the
    sample index in the message and in ``sample_index``."""

    def __init__(self, message: str, sample_index: int | None = None):
        super().__init__(message)
        self.sample_index = sample_index


class Unreachable(SampleError):
    """Requested tool position lies outside the device workspace."""


class NonFiniteSignal(SampleError):
    """A signal value is NaN or infinite."""


def _require_finite(value, names: tuple[str, ...]) -> None:
    """Raise NonFiniteSignal naming the first field of ``value`` that is not
    finite."""
    for name in names:
        if not math.isfinite(getattr(value, name)):
            raise NonFiniteSignal(f"{name} must be finite")


@dataclass(frozen=True)
class DeviceGeometry:
    """Link lengths in meters. L4 is the vertical offset of the tool frame
    (first link plus base height)."""

    l1: float = 0.135
    l2: float = 0.135
    l3: float = 0.025
    l4: float = 0.170

    def __post_init__(self) -> None:
        for name in ("l1", "l2", "l3", "l4"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive")
            # The bound of the hybrid datapath; see _LINK_MAX.
            if value > _LINK_MAX:
                raise ValueError(f"{name} exceeds the largest link length {_LINK_MAX:g} m")
            if value < 1 / _LINK_MAX:
                raise ValueError(f"{name} is below the smallest link length {1 / _LINK_MAX:g} m")

    @cached_property
    def _f32(self) -> tuple[np.float32, np.float32, np.float32, np.float32]:
        # The hybrid datapath stores the link constants as 32-bit floats.
        return tuple(map(np.float32, (self.l1, self.l2, self.l3, self.l4)))


DEFAULT_GEOMETRY = DeviceGeometry()


@dataclass(frozen=True)
class JointAngles:
    theta1: float
    theta2: float
    theta3: float

    def __post_init__(self) -> None:
        if not (
            math.isfinite(self.theta1) and math.isfinite(self.theta2) and math.isfinite(self.theta3)
        ):
            _require_finite(self, ("theta1", "theta2", "theta3"))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.theta1, self.theta2, self.theta3)


@dataclass(frozen=True)
class CartesianPosition:
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            _require_finite(self, ("x", "y", "z"))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class IkIntermediates:
    """Intermediate quantities of the inverse solution: the horizontal reach R,
    the full reach r and the construction angles gamma, beta, alpha."""

    big_r: float
    r: float
    gamma: float
    beta: float
    alpha: float


class Backend:
    """Marker base for the numeric backend selection."""


@dataclass(frozen=True)
class Oracle(Backend):
    """Double-precision reference backend."""


@dataclass(frozen=True)
class Hybrid(Backend):
    """Float32 datapath with fixed-point CORDIC trigonometry."""

    cordic: CordicConfig = DEFAULT_CORDIC


ORACLE = Oracle()


class _Float32:
    """Arithmetic policy of the hybrid datapath: float32 constants and
    operators, a CORDIC TFB per trig function."""

    const = staticmethod(np.float32)
    sqrt = staticmethod(sqrt32)

    def __init__(self, g: DeviceGeometry, cfg: CordicConfig):
        self.l1, self.l2, self.l3, self.l4 = g._f32
        self.cfg = cfg

    def sincos(self, angle):
        return tfb_sincos(angle, self.cfg)

    def atan2(self, y, x):
        return tfb_atan2(y, x, self.cfg)

    def acos(self, arg, what: str):
        return tfb_acos(_acos_arg_check(float(arg), what), self.cfg)

    def reach(self, r):
        """The full reach ``r``, which must be nonzero."""
        if r == 0.0:
            raise Unreachable("tool position coincides with the shoulder center (r = 0)")
        return r


def _tfb_angles(q: JointAngles, cfg: CordicConfig) -> tuple[float, float, float]:
    """The joint angles as sincos TFB operands.  F2FP saturates an angle
    outside the format's range before the TFB reduces it, and the sine and
    cosine of the saturated angle would be silently wrong, so such an angle
    is a SampleError."""
    fmt = cfg.fmt
    angles = q.as_tuple()
    for name, a in zip(("theta1", "theta2", "theta3"), angles):
        if not fmt.min_value <= a <= fmt.max_value:
            raise SampleError(
                f"{name} = {a!r} rad is outside the range [{fmt.min_value}, "
                f"{fmt.max_value}] of the {fmt} sincos TFB"
            )
    return angles


def forward_kinematics(
    q: JointAngles,
    g: DeviceGeometry = DEFAULT_GEOMETRY,
    backend: Backend = ORACLE,
) -> CartesianPosition:
    """Tool position for the given joint angles.

    x = -sin(t1) (L2 sin(t3) + L1 cos(t2))
    y = -L2 cos(t3) + L1 sin(t2) + L3
    z =  L2 cos(t1) sin(t3) + L1 cos(t1) cos(t2) - L4
    """
    if isinstance(backend, Hybrid):
        x, y, z = _fk_circuit(_Float32(g, backend.cordic), _tfb_angles(q, backend.cordic))
        return CartesianPosition(float(x), float(y), float(z))
    s1, c1 = math.sin(q.theta1), math.cos(q.theta1)
    s2, c2 = math.sin(q.theta2), math.cos(q.theta2)
    s3, c3 = math.sin(q.theta3), math.cos(q.theta3)
    x = -s1 * (g.l2 * s3 + g.l1 * c2)
    y = -g.l2 * c3 + g.l1 * s2 + g.l3
    z = g.l2 * c1 * s3 + g.l1 * c1 * c2 - g.l4
    return CartesianPosition(x, y, z)


def _fk_circuit(p, theta):
    """FK circuit: one TFB per joint angle, then a circuit per coordinate.
    The angles enter the TFBs unrounded (F2FP quantizes them directly)."""
    s1, c1 = p.sincos(theta[0])
    s2, c2 = p.sincos(theta[1])
    s3, c3 = p.sincos(theta[2])
    x = -(s1 * (p.l2 * s3 + p.l1 * c2))
    y = (-(p.l2 * c3) + p.l1 * s2) + p.l3
    z = (p.l2 * (c1 * s3) + p.l1 * (c1 * c2)) + (-p.l4)
    return x, y, z


def _acos_arg_check(arg: float, what: str) -> float:
    # NaN fails the test too: it arises only when r overflows, and must raise
    # here rather than reach a TFB.
    if not abs(arg) <= 1.0 + EPS_REACH:
        raise Unreachable(f"{what} operand {arg!r} outside [-1, 1]: position not reachable")
    return min(max(arg, -1.0), 1.0)


def _ik_oracle(p: CartesianPosition, g: DeviceGeometry) -> tuple[float, IkIntermediates]:
    zz = p.z + g.l4
    theta1 = -math.atan2(p.x, zz)
    big_r = math.sqrt(p.x * p.x + zz * zz)
    yy = p.y - g.l3
    r_sq = p.x * p.x + zz * zz + yy * yy
    r = math.sqrt(r_sq)
    if r == 0.0:
        raise Unreachable("tool position coincides with the shoulder center (r = 0)")
    g_arg = _acos_arg_check((g.l1 * g.l1 - g.l2 * g.l2 + r_sq) / (2.0 * g.l1 * r), "gamma")
    a_arg = _acos_arg_check((g.l1 * g.l1 + g.l2 * g.l2 - r_sq) / (2.0 * g.l1 * g.l2), "alpha")
    gamma = math.acos(g_arg)
    beta = math.atan2(yy, big_r)
    alpha = math.acos(a_arg)
    return theta1, IkIntermediates(big_r, r, gamma, beta, alpha)


def _ik_circuit(p, pos):
    """IK circuit in three stages; returns the joint angles and the
    intermediates (R, r, gamma, beta, alpha)."""
    x, y, z = pos
    # First stage: theta1, R and r in parallel.
    zz = z + p.l4
    theta1 = -p.atan2(x, zz)
    sum_xz = x * x + zz * zz
    big_r = p.sqrt(sum_xz)
    # The hardware negates L3 and r^2 and adds: in float32, a + (-b) == a - b.
    yy = y + (-p.l3)
    r = p.reach(p.sqrt(sum_xz + yy * yy))

    # Second stage: gamma, beta and alpha in parallel.
    r_sq = r * r
    # The gamma and alpha circuits each square the link lengths themselves.
    two = p.const(2.0)
    g_num = (p.l1 * p.l1 - p.l2 * p.l2) + r_sq
    gamma = p.acos(g_num / (two * (p.l1 * r)), "gamma")
    beta = p.atan2(yy, big_r)
    a_num = (p.l1 * p.l1 + p.l2 * p.l2) + (-r_sq)
    alpha = p.acos(a_num / (two * (p.l1 * p.l2)), "alpha")

    # Third stage: theta2 and theta3.
    theta2 = gamma + beta
    theta3 = (theta2 + alpha) + p.const(-math.pi / 2.0)
    return (theta1, theta2, theta3), (big_r, r, gamma, beta, alpha)


def _ik_hybrid(p: CartesianPosition, g: DeviceGeometry, cfg: CordicConfig):
    pos = p.as_tuple()
    for name, v in zip("xyz", pos):
        if abs(v) > _COORD_MAX:
            raise Unreachable(
                f"{name} = {v!r} m is outside the input range of the hybrid "
                f"datapath (|{name}| <= {_COORD_MAX:g} m)"
            )
    return _ik_circuit(_Float32(g, cfg), tuple(np.array(pos, np.float32)))


def ik_intermediates(
    p: CartesianPosition,
    g: DeviceGeometry = DEFAULT_GEOMETRY,
    backend: Backend = ORACLE,
) -> IkIntermediates:
    """R, r, gamma, beta, alpha of the inverse solution for ``p``."""
    if isinstance(backend, Hybrid):
        return IkIntermediates(*map(float, _ik_hybrid(p, g, backend.cordic)[1]))
    return _ik_oracle(p, g)[1]


def inverse_kinematics(
    p: CartesianPosition,
    g: DeviceGeometry = DEFAULT_GEOMETRY,
    backend: Backend = ORACLE,
) -> JointAngles:
    """Joint angles that place the tool at ``p``.

    theta1 = -atan2(x, z + L4); theta2 = gamma + beta;
    theta3 = theta2 + alpha - pi/2.  Raises ``Unreachable`` when the acos
    operands leave [-1, 1] by more than ``EPS_REACH``.
    """
    if isinstance(backend, Hybrid):
        return JointAngles(*map(float, _ik_hybrid(p, g, backend.cordic)[0]))
    theta1, inter = _ik_oracle(p, g)
    theta2 = inter.gamma + inter.beta
    theta3 = theta2 + inter.alpha - math.pi / 2.0
    return JointAngles(theta1, theta2, theta3)
