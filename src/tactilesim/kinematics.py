"""Closed-form forward and inverse kinematics of a 3-DoF pen-style haptic arm
(two equal arm segments on a rotating base), and its Jacobian.

Every operation runs on one of two interchangeable backends, each a class
that carries its own module code in four entry points.  ``fk`` and ``ik``
take one sample; ``jacobian_block`` and ``run_block``, which runs the
circuits both backends share (J^T F and the spring law of
``tactilesim.force``), take one row per sample:

* ``Oracle``  - full double precision, the reference model.  Its
  Jacobian formula is written once, over ``np.sin``/``np.cos`` columns.
* ``Hybrid``  - float32 arithmetic with fixed-point CORDIC trigonometry,
  matching the structure of the hardware circuits (TFB per trig term,
  float32 multipliers/adders, float32 geometry constants).

The hybrid modules are the circuit functions of ``tactilesim.circuits``
(``_fk_circuit``, ``_ik_circuit``, ``_jacobian_circuit``), written once over
an arithmetic policy: ``Hybrid`` itself is the policy that computes FK and
IK, ``_HybridColumns`` the one that computes the Jacobian over float32
columns.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from math import acos, atan2, cos, isfinite, sin, sqrt

import numpy as np

from tactilesim.circuits import _fk_circuit, _ik_circuit, _jacobian_circuit
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
    "Oracle",
    "Hybrid",
    "ORACLE",
    "DEFAULT_GEOMETRY",
    "EPS_REACH",
    "forward_kinematics",
    "inverse_kinematics",
]

# Tolerance on the acos operands: |arg| <= 1 + EPS_REACH clamps to the domain
# edge, anything beyond is reported as unreachable.
EPS_REACH = 1e-6
_ACOS_BOUND = 1.0 + EPS_REACH

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

_HALF_PI = math.pi / 2.0
_FLOAT_MAX = float(np.finfo(float).max)

# namedtuple's own idiom: the tuple constructor without the class lookup.
_tuple_new = tuple.__new__


class SampleError(ValueError):
    """A loop signal failed a check; ``run_pipeline`` re-raises it with the
    sample index in the message and in ``sample_index``."""

    def __init__(self, message: str, sample_index: int | None = None):
        super().__init__(message)
        self.sample_index = sample_index


class Unreachable(SampleError):
    """Requested tool position lies outside the device workspace."""


class NonFiniteSignal(SampleError):
    """A signal value is NaN, infinite or an int beyond the float range."""


def _non_finite(value) -> NonFiniteSignal:
    """The NonFiniteSignal naming the first field of the named tuple
    ``value`` that is NaN, infinite or an int beyond the float range (one
    must be)."""
    for name, v in zip(value._fields, value):
        if not -_FLOAT_MAX <= v <= _FLOAT_MAX:
            return NonFiniteSignal(f"{name} must be finite")


class _Validated:
    """Base of the validated named tuples: their ``__new__`` checks the
    values.  namedtuple's ``_make`` (and ``_replace``, which calls it) would
    build the tuple without ``__new__``; here it calls the constructor.
    Pickle and ``copy`` rebuild through ``__new__`` already."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


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


class JointAngles(_Validated, namedtuple("JointAngles", "theta1 theta2 theta3")):
    """Joint angles in rad: a named tuple of finite values."""

    __slots__ = ()

    def __new__(cls, theta1, theta2, theta3):
        self = _tuple_new(cls, (theta1, theta2, theta3))
        try:
            if isfinite(theta1) and isfinite(theta2) and isfinite(theta3):
                return self
        except OverflowError:  # an int beyond the float range
            pass
        raise _non_finite(self)


class CartesianPosition(_Validated, namedtuple("CartesianPosition", "x y z")):
    """Tool position in meters: a named tuple of finite values."""

    __slots__ = ()

    def __new__(cls, x, y, z):
        self = _tuple_new(cls, (x, y, z))
        try:
            if isfinite(x) and isfinite(y) and isfinite(z):
                return self
        except OverflowError:  # an int beyond the float range
            pass
        raise _non_finite(self)


def _exception(check, *args) -> SampleError:
    """The SampleError that ``check(*args)`` raises for a failing row."""
    try:
        check(*args)
    except SampleError as exc:
        return exc
    raise AssertionError(f"{check.__qualname__} accepted a row its block refused")


def _valid_rows(vector, rows: np.ndarray, passes=None):
    """The rows of ``rows`` before the first one that fails the boolean
    array ``passes`` (by default: the non-finite one), and the exception
    ``vector`` raises on that row (None when every row passes)."""
    ok = (np.isfinite(rows) if passes is None else passes).all(axis=1)
    if ok.all():
        return rows, None
    k = int(ok.argmin())
    return rows[:k], _exception(vector, *rows[k].tolist())


def _run_block(self, circuit, vector, *operands):
    """``vector(*circuit(*row))`` for each row of the operands, an (m, k)
    array each or a constant tuple, in the backend's ``_dtype``.  Returns the
    output rows before the first one ``vector`` refuses, as an array, and
    the exception of that row (None when every row passes).  Both backends'
    ``run_block``."""
    # A value beyond the dtype's range becomes inf, as in the datapath.
    with np.errstate(over="ignore", invalid="ignore"):
        # One cast per operand block; iterating its transpose yields the
        # columns (or, for a constant operand, its values).
        out = circuit(*[np.asarray(x, self._dtype).T for x in operands])
    return _valid_rows(vector, np.array(out, float).T)


def _reach(r):
    """The full reach ``r``, which must be nonzero."""
    if r == 0.0:
        raise Unreachable("tool position coincides with the shoulder center (r = 0)")
    return r


def _acos_arg_check(arg: float, what: str) -> float:
    # NaN fails the test too: it arises only when r overflows, and must raise
    # here rather than reach a TFB.
    if not abs(arg) <= _ACOS_BOUND:
        raise Unreachable(f"{what} operand {arg!r} outside [-1, 1]: position not reachable")
    return min(max(arg, -1.0), 1.0)


def _oracle_jacobian(theta, g: DeviceGeometry) -> tuple:
    """The oracle Jacobian without J21, in row order, over the three angle
    columns ``theta``.  On the x86-64 hosts checked ``np.sin``/``np.cos``
    round as libm's and the operators as the float ones, so each row has the
    bits of the libm formula; the oracle trace digests pin them."""
    s1, c1 = np.sin(theta[0]), np.cos(theta[0])
    s2, c2 = np.sin(theta[1]), np.cos(theta[1])
    s3, c3 = np.sin(theta[2]), np.cos(theta[2])
    l1, l2 = g.l1, g.l2
    return (
        -c1 * (l2 * s3 + l1 * c2),
        l1 * s1 * s2,
        -l2 * s1 * c3,
        l1 * c2,
        l2 * s3,
        -(l1 * c2 * s1 + l2 * s3 * s1),
        -l1 * s2 * c1,
        l2 * c3 * c1,
    )


@dataclass(frozen=True)
class Oracle:
    """Double-precision reference backend.  Its formulas are its own, not the
    hybrid circuits: they associate differently, and the oracle trace digests
    pin them."""

    name = "oracle"
    _dtype = float
    run_block = _run_block

    def fk(self, theta, g: DeviceGeometry) -> tuple[float, float, float]:
        t1, t2, t3 = theta
        l1, l2, l3, l4 = g.l1, g.l2, g.l3, g.l4
        s1, c1 = sin(t1), cos(t1)
        s2, c2 = sin(t2), cos(t2)
        s3, c3 = sin(t3), cos(t3)
        x = -s1 * (l2 * s3 + l1 * c2)
        y = -l2 * c3 + l1 * s2 + l3
        z = l2 * c1 * s3 + l1 * c1 * c2 - l4
        return x, y, z

    def ik(self, pos, g: DeviceGeometry) -> tuple[float, float, float]:
        x, y, z = pos
        l1, l2, l3, l4 = g.l1, g.l2, g.l3, g.l4
        zz = z + l4
        theta1 = -atan2(x, zz)
        big_r = sqrt(x * x + zz * zz)
        yy = y - l3
        r_sq = x * x + zz * zz + yy * yy
        r = sqrt(r_sq)
        if r == 0.0:
            _reach(r)
        g_arg = (l1 * l1 - l2 * l2 + r_sq) / (2.0 * l1 * r)
        a_arg = (l1 * l1 + l2 * l2 - r_sq) / (2.0 * l1 * l2)
        # Written to refuse NaN too.  An operand outside [-1, 1] is clamped or
        # refused by the check, gamma's first.
        if not (-1.0 <= g_arg <= 1.0 and -1.0 <= a_arg <= 1.0):
            g_arg = _acos_arg_check(g_arg, "gamma")
            a_arg = _acos_arg_check(a_arg, "alpha")
        gamma = acos(g_arg)
        beta = atan2(yy, big_r)
        alpha = acos(a_arg)
        theta2 = gamma + beta
        theta3 = theta2 + alpha - _HALF_PI
        return theta1, theta2, theta3

    def jacobian_block(self, theta: np.ndarray, g: DeviceGeometry):
        """The Jacobian without J21 of each row of the (m, 3) array ``theta``:
        an array of the rows before the first with a non-finite angle, and
        that row's NonFiniteSignal (None when every row passes)."""
        theta, error = _valid_rows(JointAngles, theta)
        return np.array(_oracle_jacobian(theta.T, g)).T, error


@dataclass(frozen=True)
class Hybrid:
    """Float32 datapath with fixed-point CORDIC trigonometry, and the
    arithmetic policy its circuit functions run on: float32 constants and
    operators, a CORDIC TFB per trig function."""

    cordic: CordicConfig = DEFAULT_CORDIC

    name = "hybrid"
    _dtype = np.float32
    run_block = _run_block
    # One float32 per constant.  The circuits' constants are nonzero, so the
    # cache never confuses 0.0 with -0.0.
    const = staticmethod(lru_cache(maxsize=None)(np.float32))
    sqrt = staticmethod(sqrt32)
    reach = staticmethod(_reach)

    # The TFBs are looked up as module names on every call: the benchmark's
    # traced run spans them there.
    def sincos(self, angle):
        return tfb_sincos(angle, self.cordic)

    def atan2(self, y, x):
        return tfb_atan2(y, x, self.cordic)

    def acos(self, arg, what: str):
        # The TFB clamps the float32 operand itself, to the same value.  The
        # bound is compared in double precision, as `_acos_arg_check` does.
        a = float(arg)
        if not -_ACOS_BOUND <= a <= _ACOS_BOUND:
            _acos_arg_check(a, what)
        return tfb_acos(arg, self.cordic)

    @cached_property
    def _angle_range(self) -> tuple[float, float]:
        fmt = self.cordic.fmt
        return fmt.min_value, fmt.max_value

    def _angles(self, theta):
        """The joint angles as sincos TFB operands.  F2FP saturates an angle
        outside the format's range before the TFB reduces it, and the sine
        and cosine of the saturated angle would be silently wrong, so such an
        angle is a SampleError."""
        lo, hi = self._angle_range
        t1, t2, t3 = theta
        if lo <= t1 <= hi and lo <= t2 <= hi and lo <= t3 <= hi:
            return theta
        for name, a in zip(("theta1", "theta2", "theta3"), theta):
            if not lo <= a <= hi:
                raise SampleError(
                    f"{name} = {a!r} rad is outside the range [{lo}, {hi}] of the "
                    f"{self.cordic.fmt} sincos TFB"
                )

    def fk(self, theta, g: DeviceGeometry) -> tuple[float, float, float]:
        x, y, z = _fk_circuit(self, g._f32, self._angles(theta))
        return float(x), float(y), float(z)

    def ik(self, pos, g: DeviceGeometry) -> tuple[float, float, float]:
        x, y, z = pos
        # Written to refuse NaN too: a plain tuple reaches here unchecked.
        if not (
            -_COORD_MAX <= x <= _COORD_MAX
            and -_COORD_MAX <= y <= _COORD_MAX
            and -_COORD_MAX <= z <= _COORD_MAX
        ):
            for name, v in zip("xyz", pos):
                if not abs(v) <= _COORD_MAX:
                    raise Unreachable(
                        f"{name} = {v!r} m is outside the input range of the hybrid "
                        f"datapath (|{name}| <= {_COORD_MAX:g} m)"
                    )
        # One cast; indexing the array yields float32 scalars.
        operand = np.array(pos, np.float32)
        t1, t2, t3 = _ik_circuit(self, g._f32, (operand[0], operand[1], operand[2]))
        return float(t1), float(t2), float(t3)

    def jacobian_block(self, theta: np.ndarray, g: DeviceGeometry):
        """``Oracle.jacobian_block`` by the Jacobian circuit, which takes the
        double angles unrounded; an angle outside the sincos TFB's range
        fails its row with a SampleError."""
        lo, hi = self._angle_range
        # NaN fails the test too.
        inside = (lo <= theta) & (theta <= hi)
        theta, error = _valid_rows(lambda *row: self._angles(row), theta, inside)
        out = _jacobian_circuit(_HybridColumns(self.cordic), g._f32, theta.T)
        return np.array(out, float).T, error


@dataclass(frozen=True)
class _HybridColumns:
    """The hybrid arithmetic policy over float32 columns, for the circuits
    that need only ``sincos``: the sincos TFB mapped over a column of angles.
    """

    cordic: CordicConfig

    def sincos(self, angles: np.ndarray):
        # Looked up as a module name on every call, as in `Hybrid.sincos`.
        cfg = self.cordic
        pairs = [tfb_sincos(a, cfg) for a in angles.tolist()]
        # fromiter copies the float32 scalars; np.array converts each tuple.
        values = np.fromiter(chain.from_iterable(pairs), np.float32, 2 * len(pairs))
        return values.reshape(-1, 2).T


ORACLE = Oracle()


def forward_kinematics(
    q: JointAngles,
    g: DeviceGeometry = DEFAULT_GEOMETRY,
    backend: Oracle | Hybrid = ORACLE,
) -> CartesianPosition:
    """Tool position for the given joint angles.

    x = -sin(t1) (L2 sin(t3) + L1 cos(t2))
    y = -L2 cos(t3) + L1 sin(t2) + L3
    z =  L2 cos(t1) sin(t3) + L1 cos(t1) cos(t2) - L4
    """
    return CartesianPosition(*backend.fk(q, g))


def inverse_kinematics(
    p: CartesianPosition,
    g: DeviceGeometry = DEFAULT_GEOMETRY,
    backend: Oracle | Hybrid = ORACLE,
) -> JointAngles:
    """Joint angles that place the tool at ``p``.

    theta1 = -atan2(x, z + L4); theta2 = gamma + beta;
    theta3 = theta2 + alpha - pi/2.  Raises ``Unreachable`` when the acos
    operands leave [-1, 1] by more than ``EPS_REACH``.
    """
    return JointAngles(*backend.ik(p, g))
