"""Hybrid number system: signed Q-formats, the float-to-fixed converter and
a fixed-point CORDIC kernel for sin/cos and atan2, plus a single-precision
square root.

The trig functions mirror a hardware trigonometric function block (TFB): a
float32 operand is quantized to fixed point (F2FP), rotated by the integer
CORDIC datapath and converted back to float32 (FP2F).  Fixed-point values are
plain Python ints ("raw" values) in the format of the ``CordicConfig`` that
processes them.  All other arithmetic in the surrounding circuits stays in
32-bit floats; see `tfb_sincos` and friends for the float32-facing
composites.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "NegativeRadicand",
    "QFormat",
    "CordicConfig",
    "S16_13",
    "DEFAULT_CORDIC",
    "float_to_fixed",
    "cordic_sincos",
    "cordic_atan2",
    "sqrt32",
    "tfb_sincos",
    "tfb_atan2",
    "tfb_acos",
]

# Extra fractional bits carried inside the CORDIC datapath.  The I/O format
# stays at the configured Q-format; the internal registers are wider so that
# shift rounding noise stays below the output resolution.
_GUARD_BITS = 6

# The most fractional bits a CORDIC format may have.  sin/cos come from a ROM
# of every first-quadrant angle (see `_sincos_rom`); at this width the ROM
# holds about 10^5 entries, and the working precision (frac + guard bits)
# fits int64 with room to spare.
_ROM_MAX_FRAC_BITS = 16

_QFORMAT_RE = re.compile(r"^s(\d+)\.(\d+)$")


class NegativeRadicand(ValueError):
    """Square root requested for a negative operand."""


@dataclass(frozen=True)
class QFormat:
    """Signed fixed-point format with ``total_bits`` bits, ``frac_bits`` of
    which are fractional (written ``s<total>.<frac>``, e.g. ``s16.13``)."""

    total_bits: int
    frac_bits: int

    def __post_init__(self) -> None:
        if not 2 <= self.total_bits <= 64:
            raise ValueError(f"total_bits must be in [2, 64], got {self.total_bits}")
        if not 0 <= self.frac_bits <= self.total_bits - 1:
            raise ValueError(
                f"frac_bits must be in [0, {self.total_bits - 1}], got {self.frac_bits}"
            )

    # Computed once per instance: the converter and the kernels read them per
    # scalar.
    @cached_property
    def scale(self) -> int:
        return 1 << self.frac_bits

    @cached_property
    def raw_min(self) -> int:
        return -(1 << (self.total_bits - 1))

    @cached_property
    def raw_max(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @property
    def min_value(self) -> float:
        return self.raw_min / self.scale

    @property
    def max_value(self) -> float:
        return self.raw_max / self.scale

    @property
    def resolution(self) -> float:
        """Value of one least significant bit."""
        return 1.0 / self.scale

    @classmethod
    def from_string(cls, text: str) -> "QFormat":
        m = _QFORMAT_RE.match(text.strip())
        if m is None:
            raise ValueError(f"not a Q-format string: {text!r} (expected e.g. 's16.13')")
        return cls(int(m.group(1)), int(m.group(2)))

    def __str__(self) -> str:
        return f"s{self.total_bits}.{self.frac_bits}"


S16_13 = QFormat(16, 13)


def _cordic_gain(iterations: int) -> float:
    return math.prod(1.0 / math.sqrt(1.0 + 2.0 ** (-2 * i)) for i in range(iterations))


@dataclass(frozen=True)
class CordicConfig:
    """Rotation count and operand format of the CORDIC datapath; the gain
    compensation follows from the rotation count.  The format must hold pi,
    the largest angle the kernels return, and have at most
    ``_ROM_MAX_FRAC_BITS`` fractional bits, the widest the sin/cos ROM
    covers."""

    iterations: int = 16
    fmt: QFormat = S16_13

    def __post_init__(self) -> None:
        # Step i of the kernels adds the rounding offset 2**(i-1) to int64
        # values, which needs i <= 63.
        if not 1 <= self.iterations <= 64:
            raise ValueError(f"iterations must lie in [1, 64], got {self.iterations}")
        if self.fmt.raw_max < round(math.pi * self.fmt.scale):
            raise ValueError(f"format {self.fmt} cannot hold pi (max {self.fmt.max_value})")
        if self.fmt.frac_bits > _ROM_MAX_FRAC_BITS:
            raise ValueError(
                f"format {self.fmt} has more than {_ROM_MAX_FRAC_BITS} fractional bits"
            )


DEFAULT_CORDIC = CordicConfig()


def float_to_fixed(x: float, fmt: QFormat) -> int:
    """F2FP: the raw value of ``x`` in ``fmt``, rounded to nearest with ties
    to even and saturated instead of overflowing."""
    x = float(x)
    if math.isnan(x):
        raise ValueError("cannot quantize NaN")
    scaled = x * fmt.scale
    if math.isinf(scaled):
        return fmt.raw_max if scaled > 0 else fmt.raw_min
    return min(max(round(scaled), fmt.raw_min), fmt.raw_max)


@lru_cache(maxsize=16)
def _kernel_constants(iterations: int, frac_bits: int):
    """Integer constants of the CORDIC datapath: per rotation step its shift,
    the rounding offset of that shift and the step angle at working
    precision; the gain-compensated start value at working precision; pi and
    pi/2 at I/O precision."""
    work = frac_bits + _GUARD_BITS
    one = 1 << work
    # (1 << i) >> 1 is 0 for i = 0, where the shift is the identity.
    steps = tuple(
        (i, (1 << i) >> 1, round(math.atan(2.0 ** -i) * one)) for i in range(iterations)
    )
    x0 = round(_cordic_gain(iterations) * one)
    pi_io = round(math.pi * (1 << frac_bits))
    half_pi_io = round(math.pi / 2 * (1 << frac_bits))
    return steps, x0, pi_io, half_pi_io


def _round_shift(v: int, bits: int) -> int:
    """Arithmetic right shift with rounding to nearest."""
    if bits == 0:
        return v
    return (v + (1 << (bits - 1))) >> bits


def _vector_angle(xr: int, yr: int, steps) -> int:
    """Vectoring-mode CORDIC: rotate (xr, yr) with xr > 0, yr >= 0 onto the
    positive x axis; returns the accumulated angle at working precision."""
    x = xr << _GUARD_BITS
    y = yr << _GUARD_BITS
    z = 0
    for shift, half, a in steps:
        dx = (y + half) >> shift
        dy = (x + half) >> shift
        if y > 0:
            x, y, z = x + dx, y - dy, z + a
        else:
            x, y, z = x - dx, y + dy, z - a
    return z


@lru_cache(maxsize=16)
def _sincos_rom(iterations: int, frac_bits: int) -> tuple[array, array]:
    """(sin, cos) ROM of the rotation-mode CORDIC: for every reduced raw
    angle 0..pi/2 of the I/O format, the sine and cosine at working
    precision shifted back to I/O precision, before saturation.

    Built by running the rotation once over all angles as int64 arrays; the
    residual angle is driven to zero from the gain-compensated start vector.
    NumPy's shifts are arithmetic like Python's, and up to
    ``_ROM_MAX_FRAC_BITS`` no intermediate comes near the int64 range.
    """
    steps, x0, _pi_io, half_pi_io = _kernel_constants(iterations, frac_bits)
    z = np.arange(half_pi_io + 1, dtype=np.int64) << _GUARD_BITS
    x = np.full_like(z, x0)
    y = np.zeros_like(z)
    for shift, half, a in steps:
        dx = (y + half) >> shift
        dy = (x + half) >> shift
        down = z >= 0
        x = np.where(down, x - dx, x + dx)
        y = np.where(down, y + dy, y - dy)
        z = np.where(down, z - a, z + a)
    return array("q", _round_shift(y, _GUARD_BITS).tolist()), array(
        "q", _round_shift(x, _GUARD_BITS).tolist()
    )


def cordic_sincos(raw: int, cfg: CordicConfig = DEFAULT_CORDIC) -> tuple[int, int]:
    """Fixed-point sine and cosine of the raw angle ``raw`` in ``cfg.fmt``;
    returns (sin, cos) as raw values in the same format.

    The angle is reduced to the first quadrant before rotation; sign symmetry
    is applied on the outputs, so ``sincos(-a)`` mirrors ``sincos(a)`` exactly
    at the raw level.  With the default 16-iteration configuration the error
    stays within 4 LSB of the output format.  The rotation result comes from
    a ROM of the first quadrant, built on first use.
    """
    fmt = cfg.fmt
    _steps, _x0, pi_io, half_pi_io = _kernel_constants(cfg.iterations, fmt.frac_bits)

    # Reduce by whole turns: above pi into (-pi, pi], below -pi into [-pi, pi).
    two_pi = 2 * pi_io
    if raw > pi_io:
        raw = pi_io - (pi_io - raw) % two_pi
    elif raw < -pi_io:
        raw = (raw + pi_io) % two_pi - pi_io

    sign_sin = 1
    if raw < 0:
        raw = -raw
        sign_sin = -1
    sign_cos = 1
    if raw > half_pi_io:
        raw = pi_io - raw
        sign_cos = -1

    sin_rom, cos_rom = _sincos_rom(cfg.iterations, fmt.frac_bits)
    sin_raw, cos_raw = sin_rom[raw], cos_rom[raw]
    lo, hi = fmt.raw_min, fmt.raw_max
    return sign_sin * min(max(sin_raw, lo), hi), sign_cos * min(max(cos_raw, lo), hi)


def cordic_atan2(y: int, x: int, cfg: CordicConfig = DEFAULT_CORDIC) -> int:
    """Fixed-point four-quadrant arctangent of the raw operands ``y``, ``x``
    in ``cfg.fmt`` via vectoring-mode CORDIC; returns the raw angle.

    The result lies in [-pi, pi] at the resolution of the format; (0, 0) maps
    to 0 by convention.  Accuracy degrades for operands only a few LSB in
    magnitude, as in the hardware, where the datapath resolution limits the
    representable direction of short vectors.
    """
    steps, _x0, pi_io, half_pi_io = _kernel_constants(cfg.iterations, cfg.fmt.frac_bits)
    sign = 1
    if y < 0:
        y = -y
        sign = -1

    if y == 0:
        return 0 if x >= 0 else pi_io
    if x == 0:
        return sign * half_pi_io
    if x > 0:
        return sign * _round_shift(_vector_angle(x, y, steps), _GUARD_BITS)
    return sign * (pi_io - _round_shift(_vector_angle(-x, y, steps), _GUARD_BITS))


def sqrt32(x) -> np.float32:
    """Correctly rounded single-precision square root.

    The double-precision root of a float32 operand, rounded to float32, is
    the correctly rounded float32 root: 53 >= 2 * 24 + 2 bits make the double
    rounding innocuous.
    """
    xf = np.float32(x)
    if xf < 0:
        raise NegativeRadicand(f"sqrt of negative value {x!r}")
    return np.float32(math.sqrt(xf))


_F32_ONE = np.float32(1.0)
_F32_MINUS_ONE = np.float32(-1.0)


def tfb_sincos(angle, cfg: CordicConfig = DEFAULT_CORDIC) -> tuple[np.float32, np.float32]:
    """Float32-facing TFB: F2FP, CORDIC rotation, FP2F on both outputs."""
    scale = cfg.fmt.scale
    s, c = cordic_sincos(float_to_fixed(angle, cfg.fmt), cfg)
    return np.float32(s / scale), np.float32(c / scale)


def tfb_atan2(y, x, cfg: CordicConfig = DEFAULT_CORDIC) -> np.float32:
    """Float32-facing TFB for the four-quadrant arctangent.

    The operand pair is scaled by a common power of two so the larger
    magnitude lands in [1, 2) before quantization.  The arctangent is
    invariant under the scaling, so this input conditioning makes the angular
    resolution independent of the operand magnitude.  The float32 operands
    are scaled in double precision, where the scaling is exact even for
    subnormal operands; a float32 product would differ only where it is
    subnormal, and such values quantize to 0 in any Q-format either way.
    """
    yf = float(np.float32(y))
    xf = float(np.float32(x))
    m = max(abs(yf), abs(xf))
    if m > 0.0:
        e = 1 - math.frexp(m)[1]
        yf = math.ldexp(yf, e)
        xf = math.ldexp(xf, e)
    fmt = cfg.fmt
    raw = cordic_atan2(float_to_fixed(yf, fmt), float_to_fixed(xf, fmt), cfg)
    return np.float32(raw / fmt.scale)


def tfb_acos(t, cfg: CordicConfig = DEFAULT_CORDIC) -> np.float32:
    """Float32-facing TFB for the arccosine: sqrt(1 - t^2) in the float32
    domain, then the vectoring stage on (sqrt, t).  The operand is clamped
    to [-1, 1]; the result lies in [0, pi].

    Quantization happens after the square root, on the two vectoring
    operands; in that form the angle is well conditioned, whereas quantizing
    ``t`` before the square root would amplify the grid error near |t| = 1.
    """
    tf = min(max(np.float32(t), _F32_MINUS_ONE), _F32_ONE)
    s = sqrt32(_F32_ONE - tf * tf)
    fmt = cfg.fmt
    raw = cordic_atan2(float_to_fixed(s, fmt), float_to_fixed(tf, fmt), cfg)
    return np.float32(raw / fmt.scale)
