"""Hybrid number system: signed Q-formats, the float-to-fixed converter and
a fixed-point CORDIC kernel for sin/cos and atan2, plus a single-precision
square root.

The trig functions mirror a hardware trigonometric function block (TFB): a
float32 operand is quantized to fixed point (F2FP), rotated by the integer
CORDIC datapath and converted back to float32 (FP2F, a lookup in a table of
every raw value the kernels return).  Fixed-point values are plain Python
ints ("raw" values) in the format of the ``CordicConfig`` that processes
them.  All other arithmetic in the surrounding circuits stays in 32-bit
floats; see `tfb_sincos` and friends for the float32-facing composites.

The kernels are integers plus tables, each built on first use per
configuration and kept by the ``CordicConfig`` instance: sin/cos come from a
first-quadrant ROM (`_sincos_rom`), the first-quadrant vectoring pairs
`tfb_acos` feeds `cordic_atan2` from a unit-circle ROM (`_circle_rom`), and
FP2F from one float32 table (`_fp2f_table`).  One int64 array kernel
(`_cordic_rows`) builds both ROMs, and both keep C ints.  The scalar kernels
fold every operand into the first quadrant and unfold the result, so the
ROMs hold that quadrant only; other atan2 operand pairs run the vectoring
loop, whose results the unit-circle ROM holds.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isfinite

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
# The rounding offset of the shift from working back to I/O precision.
_GUARD_HALF = 1 << (_GUARD_BITS - 1)

# The most fractional bits a CORDIC format may have.  sin/cos come from a ROM
# of every first-quadrant angle (see `_sincos_rom`); at this width the ROM
# holds about 10^5 entries, and the working precision (frac + guard bits)
# fits int64 with room to spare.
_ROM_MAX_FRAC_BITS = 16

# Rows of a ROM built at a time (see `_cordic_rows`).
_ROM_CHUNK = 4096

_QFORMAT_RE = re.compile(r"^s(\d+)\.(\d+)$")

_F32 = np.float32


class NegativeRadicand(ValueError):
    """Square root requested for a negative operand."""


def int_text(value: int) -> str:
    """``value`` as an error message shows it: beyond 20 digits, their count."""
    digits = int(abs(value).bit_length() * math.log10(2))  # the count, or one less
    digits += abs(value) >= 10**digits
    sign = "a negative" if value < 0 else "an"
    return str(value) if digits <= 20 else f"{sign} integer of {digits} digits"


@dataclass(frozen=True)
class QFormat:
    """Signed fixed-point format with ``total_bits`` bits, ``frac_bits`` of
    which are fractional (written ``s<total>.<frac>``, e.g. ``s16.13``)."""

    total_bits: int
    frac_bits: int

    def __post_init__(self) -> None:
        if not 2 <= self.total_bits <= 64:
            raise ValueError(f"total_bits must be in [2, 64], got {int_text(self.total_bits)}")
        if not 0 <= self.frac_bits <= self.total_bits - 1:
            raise ValueError(
                f"frac_bits must be in [0, {self.total_bits - 1}], got {int_text(self.frac_bits)}"
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

    @cached_property
    def _f2fp(self) -> tuple[int, int, int]:
        """(scale, raw_min, raw_max): what `float_to_fixed` reads."""
        return self.scale, self.raw_min, self.raw_max

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
            raise ValueError(f"iterations must lie in [1, 64], got {int_text(self.iterations)}")
        if self.fmt.raw_max < round(math.pi * self.fmt.scale):
            raise ValueError(f"format {self.fmt} cannot hold pi (max {self.fmt.max_value})")
        if self.fmt.frac_bits > _ROM_MAX_FRAC_BITS:
            raise ValueError(
                f"format {self.fmt} has more than {_ROM_MAX_FRAC_BITS} fractional bits"
            )

    # The kernels and the TFBs read these on every call; each is built on
    # first use and then kept by the instance.
    @cached_property
    def _rotation(self) -> tuple[int, int, array, array]:
        """(pi, pi/2, sin ROM, cos ROM) of the rotation-mode kernel, the
        angles raw at I/O precision."""
        _steps, _x0, pi_io, half_pi_io = _kernel_constants(self.iterations, self.fmt.frac_bits)
        return (pi_io, half_pi_io, *_sincos_rom(self.iterations, self.fmt))

    @cached_property
    def _vectoring(self) -> tuple:
        """The rotation steps of the vectoring loop."""
        return _kernel_constants(self.iterations, self.fmt.frac_bits)[0]

    @cached_property
    def _circle(self) -> tuple[int, int, int, array, array, array, array]:
        """(one, pi, pi/2, low, high, base, angles) of the vectoring-mode
        kernel: the raw values of 1, pi and pi/2 at I/O precision, then the
        unit-circle ROM (see `_circle_rom`)."""
        _steps, _x0, pi_io, half_pi_io = _kernel_constants(self.iterations, self.fmt.frac_bits)
        rom = _circle_rom(self.iterations, self.fmt.frac_bits)
        return (self.fmt.scale, pi_io, half_pi_io, *rom)

    @cached_property
    def _fp2f(self) -> np.ndarray:
        """The FP2F table of the kernel outputs; see `_fp2f_table`."""
        return _fp2f_table(self.fmt.frac_bits)

    @cached_property
    def _tfb(self) -> tuple[QFormat, int, np.ndarray]:
        """(format, scale, FP2F table): what the TFBs read."""
        return self.fmt, self.fmt.scale, self._fp2f


DEFAULT_CORDIC = CordicConfig()


def float_to_fixed(x: float, fmt: QFormat) -> int:
    """F2FP: the raw value of ``x`` in ``fmt``, rounded to nearest with ties
    to even and saturated instead of overflowing.  NaN raises ValueError."""
    scale, raw_min, raw_max = fmt._f2fp
    scaled = float(x) * scale
    # The bounds are integers, so a value at or past one rounds to at least
    # that bound; comparing first also saturates infinities, which round()
    # rejects.  NaN passes both tests and round() rejects it.
    if scaled >= raw_max:
        return raw_max
    if scaled <= raw_min:
        return raw_min
    return round(scaled)


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


def _vector_angle(xr: int, yr: int, steps) -> int:
    """Vectoring-mode CORDIC: rotate (xr, yr) with xr > 0, yr >= 0 onto the
    positive x axis; returns the accumulated angle, rounded from working to
    I/O precision."""
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
    return (z + _GUARD_HALF) >> _GUARD_BITS


def _cordic_rows(x: np.ndarray, y: np.ndarray, z: np.ndarray, steps, vectoring: bool):
    """The CORDIC iterations over int64 arrays of rows (x, y, z) at working
    precision, ``_ROM_CHUNK`` rows at a time; returns the three results
    rounded to I/O precision, as one array.  Rotation mode turns each row
    towards z = 0 and vectoring mode towards y = 0, step by step as the
    scalar kernels do.  NumPy's shifts are arithmetic like Python's, and up
    to ``_ROM_MAX_FRAC_BITS`` no intermediate comes near the int64 range.
    """
    out = np.empty((3, len(z)), np.int64)
    # In chunks: the int64 temporaries of all rows at once would add about
    # 0.7 MiB to the peak resident memory of a `default` scenario run.
    for start in range(0, len(z), _ROM_CHUNK):
        rows = slice(start, start + _ROM_CHUNK)
        xr, yr, zr = x[rows], y[rows], z[rows]
        for shift, half, a in steps:
            dx = (yr + half) >> shift
            dy = (xr + half) >> shift
            turn = np.where(yr > 0 if vectoring else zr < 0, 1, -1)
            xr, yr, zr = xr + turn * dx, yr - turn * dy, zr + turn * a
        out[:, rows] = xr, yr, zr
    return (out + _GUARD_HALF) >> _GUARD_BITS


def _c_ints(v: np.ndarray) -> array:
    """``v`` as an array of C ints, which a Python index reads fastest."""
    return array("i", v.astype(np.intc).tobytes())


@lru_cache(maxsize=16)
def _sincos_rom(iterations: int, fmt: QFormat) -> tuple[array, array]:
    """(sin, cos) ROM of the rotation-mode CORDIC: for every reduced raw
    angle 0..pi/2 of ``fmt``, the sine and cosine rotated from the
    gain-compensated start vector, shifted back to I/O precision and
    saturated to the format."""
    steps, x0, _pi_io, half_pi_io = _kernel_constants(iterations, fmt.frac_bits)
    z = np.arange(half_pi_io + 1, dtype=np.int64) << _GUARD_BITS
    cos, sin, _z = _cordic_rows(np.full_like(z, x0), np.zeros_like(z), z, steps, vectoring=False)
    return tuple(_c_ints(np.clip(v, fmt.raw_min, fmt.raw_max)) for v in (sin, cos))


def _circle_band(frac_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """(low, high): for each raw value k = 0..2**frac_bits of a `tfb_acos`
    operand t in [0, 1], the raw square roots it pairs with lie in
    low[k]..high[k].

    F2FP maps the float32 operands in a cell around k / 2**frac_bits to k,
    and the raw root of a float32 t, rounded from sqrt(1 - t*t) taken in
    float32, falls as |t| grows (each float32 operation rounds
    monotonically).  So the roots of a cell lie between those of its two
    extreme float32 operands: the cell's edges, or their float32 neighbours
    inside the cell where F2FP sends a tie to the neighbouring raw value.
    The largest operand of the top cell is 1, where `tfb_acos` clamps.  A
    raw -k pairs with the roots of k.  tests/check_circle_band.py feeds
    every float32 t in [0, 1] through F2FP at 13 fractional bits and finds
    each root in its band.
    """
    scale = 1 << frac_bits
    k = np.arange(scale + 1)

    def f2fp(t: np.ndarray) -> np.ndarray:
        return np.rint(t.astype(np.float64) * scale).astype(np.int64)

    def raw_root(t: np.ndarray) -> np.ndarray:
        return f2fp(np.sqrt(_F32(1.0) - t * t))

    # Each edge (k -+ 1/2) / scale is a float32; F2FP rounds it to even.
    first = ((k - 0.5) / scale).astype(np.float32)
    first[0] = 0.0
    ties = f2fp(first) != k
    first[ties] = np.nextafter(first[ties], _F32(2.0))
    last = ((k + 0.5) / scale).astype(np.float32)
    last[-1] = 1.0
    ties = f2fp(last) != k
    last[ties] = np.nextafter(last[ties], _F32(0.0))
    return raw_root(last), raw_root(first)


@lru_cache(maxsize=16)
def _circle_rom(iterations: int, frac_bits: int) -> tuple[array, array, array, array]:
    """(low, high, base, angles): the unit-circle ROM of `cordic_atan2`,
    the vectoring loop's angle for every first-quadrant operand pair (y, x)
    that `tfb_acos` can feed it at ``iterations`` rotations and
    ``frac_bits`` fractional bits: x a raw t in [0, 1], y a raw root in its
    band (see `_circle_band`).  Pair (y, x) is in the ROM when
    low[x] <= y <= high[x], and its angle is angles[base[x] + y].  At 13
    fractional bits the ROM holds 16 379 angles.

    `cordic_atan2` folds a pair with x < 0 onto (y, -x), and answers the
    axes x = 0 and y = 0 itself, so it never reads those rows.  The angles
    lie within pi at no more than ``_ROM_MAX_FRAC_BITS`` fractional bits.
    """
    steps = _kernel_constants(iterations, frac_bits)[0]
    low, high = _circle_band(frac_bits)
    width = high - low + 1
    base = np.cumsum(width) - width - low
    # One row per pair, in order of x and then y.
    xs = np.repeat(np.arange(len(low)), width)
    ys = np.arange(len(xs)) - np.repeat(base, width)
    _x, _y, angles = _cordic_rows(
        xs << _GUARD_BITS, ys << _GUARD_BITS, np.zeros_like(xs), steps, vectoring=True
    )
    return _c_ints(low), _c_ints(high), _c_ints(base), _c_ints(angles)


@lru_cache(maxsize=None)  # one per frac_bits: at most _ROM_MAX_FRAC_BITS + 1
def _fp2f_table(frac_bits: int) -> np.ndarray:
    """FP2F as a table: the float32 value of every raw value the kernels can
    return at ``frac_bits`` fractional bits, whatever their iterations.
    Entry ``k`` holds raw value ``k`` and a negative raw value counts from
    the end, so a signed raw value indexes its own entry as a Python index
    does.

    The range is [-pi, pi]: `cordic_atan2` saturates its result to it, and
    sin and cos stay within 1.

    Each entry is ``np.float32(raw / 2**frac_bits)``.  The table is built
    in float32 with no rounding at all: every raw value lies below 2**18
    (at most ``_ROM_MAX_FRAC_BITS`` fractional bits), so it and its quotient
    by a power of two are float32 values.  Building it in wider types only
    raises the peak memory.  A negative entry comes from its own raw value,
    never from negating the positive one, so zero is +0.0 as on the integer
    path.
    """
    pi_io = round(math.pi * (1 << frac_bits))  # as in `_kernel_constants`
    table = np.arange(2 * pi_io + 1, dtype=np.float32)
    table[pi_io + 1 :] -= 2 * pi_io + 1
    table /= 1 << frac_bits
    return table


def cordic_sincos(raw: int, cfg: CordicConfig = DEFAULT_CORDIC) -> tuple[int, int]:
    """Fixed-point sine and cosine of the raw angle ``raw`` in ``cfg.fmt``;
    returns (sin, cos) as raw values in the same format.

    The angle is reduced to the first quadrant before rotation; sign symmetry
    is applied on the outputs, so ``sincos(-a)`` mirrors ``sincos(a)`` exactly
    at the raw level.  With the default 16-iteration configuration the error
    stays within 4 LSB of the output format.  The rotation result, saturated,
    comes from a ROM of the first quadrant, built on first use.
    """
    pi_io, half_pi_io, sin_rom, cos_rom = cfg._rotation

    # Reduce by whole turns: above pi into (-pi, pi], below -pi into [-pi, pi).
    if raw > pi_io:
        raw = pi_io - (pi_io - raw) % (2 * pi_io)
    elif raw < -pi_io:
        raw = (raw + pi_io) % (2 * pi_io) - pi_io

    # Fold into the first quadrant; the signs go on the outputs.
    if raw < 0:
        if raw < -half_pi_io:
            return -sin_rom[pi_io + raw], -cos_rom[pi_io + raw]
        return -sin_rom[-raw], cos_rom[-raw]
    if raw > half_pi_io:
        return sin_rom[pi_io - raw], -cos_rom[pi_io - raw]
    return sin_rom[raw], cos_rom[raw]


def cordic_atan2(y: int, x: int, cfg: CordicConfig = DEFAULT_CORDIC) -> int:
    """Fixed-point four-quadrant arctangent of the raw operands ``y``, ``x``
    in ``cfg.fmt`` via vectoring-mode CORDIC; returns the raw angle.

    The result lies in [-pi, pi] at the resolution of the format.  The
    vectoring error can carry pi - angle past pi (at 16 fractional bits and
    16 iterations, ``cordic_atan2(1, -96546)`` by 1 LSB), so the result
    saturates to pi.  (0, 0) maps to 0 by convention.  Accuracy degrades
    for operands only a few LSB in magnitude, as in the hardware, where the
    datapath resolution limits the representable direction of short
    vectors.

    The operands fold into the first quadrant: the sign of y goes on the
    result, the axes have their own cases, and x < 0 mirrors the angle of
    (y, -x) about the y axis.  The first-quadrant pairs `tfb_acos` feeds the
    kernel, on the unit circle, read their angle from a ROM built on first
    use (see `_circle_rom`); every other pair runs the vectoring.  Both give
    the same bits.
    """
    one, pi_io, half_pi_io, low, high, base, angles = cfg._circle
    negative = y < 0
    if negative:
        y = -y

    # On an axis; both operands are nonzero below.
    if not (y and x):
        if y:
            return -half_pi_io if negative else half_pi_io
        return 0 if x >= 0 else pi_io
    ax = x if x > 0 else -x
    if ax <= one and low[ax] <= y <= high[ax]:
        angle = angles[base[ax] + y]
    else:
        angle = _vector_angle(ax, y, cfg._vectoring)
    if x < 0:
        # min(pi - angle, pi): the saturation to pi.
        angle = pi_io - angle if angle > 0 else pi_io
    return -angle if negative else angle


def sqrt32(x) -> np.float32:
    """Correctly rounded single-precision square root.

    ``np.sqrt`` of a float32 is the IEEE 754 float32 root, which equals the
    double-precision root rounded to float32: 53 >= 2 * 24 + 2 bits make the
    double rounding innocuous.
    """
    xf = x if type(x) is _F32 else _F32(x)
    if xf < 0:
        raise NegativeRadicand(f"sqrt of negative value {x!r}")
    return np.sqrt(xf)


_F32_ONE = _F32(1.0)
_F32_MINUS_ONE = _F32(-1.0)
# The smallest double the float32 cast rounds to inf: the maximum + ULP / 2.
_F32_OVERFLOW = 2.0**128 - 2.0**103


def _atan2_operand(v, name: str) -> float:
    """A double ``tfb_atan2`` operand as its float32 value, a double; one
    the cast would carry to inf raises ValueError."""
    if isfinite(v) and abs(v) >= _F32_OVERFLOW:
        raise ValueError(f"tfb_atan2 operand {name} = {float(v)!r} is beyond the float32 range")
    return float(_F32(v))


def tfb_sincos(angle, cfg: CordicConfig = DEFAULT_CORDIC) -> tuple[np.float32, np.float32]:
    """Float32-facing TFB: F2FP, CORDIC rotation, FP2F on both outputs; NaN raises ValueError."""
    fmt, _scale, fp2f = cfg._tfb
    try:
        raw = float_to_fixed(angle, fmt)
    except ValueError:
        a = float(angle)
        raise ValueError(f"tfb_sincos operand must not be NaN, got angle = {a!r}") from None
    s, c = cordic_sincos(raw, cfg)
    return fp2f[s], fp2f[c]


def tfb_atan2(y, x, cfg: CordicConfig = DEFAULT_CORDIC) -> np.float32:
    """Float32-facing TFB for the four-quadrant arctangent.

    The operand pair is scaled by a common power of two so the larger
    magnitude lands in [1, 2) before quantization.  The arctangent is
    invariant under the scaling, so this input conditioning makes the angular
    resolution independent of the operand magnitude.  The float32 operands
    are scaled in double precision, where the scaling is exact even for
    subnormal operands; a float32 product would differ only where it is
    subnormal, and such values quantize to 0 in any Q-format either way.
    A NaN or infinite operand has no direction and raises ValueError, and
    so does a double beyond the float32 range.
    """
    yf = float(y) if type(y) is _F32 else _atan2_operand(y, "y")
    xf = float(x) if type(x) is _F32 else _atan2_operand(x, "x")
    if not (isfinite(yf) and isfinite(xf)):
        bad = ", ".join(f"{n} = {v!r}" for n, v in (("y", yf), ("x", xf)) if not isfinite(v))
        raise ValueError(f"tfb_atan2 operands must be finite, got {bad}")
    _fmt, scale, fp2f = cfg._tfb
    # The common power of two times the F2FP scale; both products are exact.
    # Scaled, both operands lie within 2 and the format holds pi, so F2FP
    # is a plain rounding: it cannot saturate.  (0, 0) stays (0, 0).
    k = math.ldexp(scale, 1 - math.frexp(max(abs(yf), abs(xf)))[1])
    return fp2f[cordic_atan2(round(yf * k), round(xf * k), cfg)]


def tfb_acos(t, cfg: CordicConfig = DEFAULT_CORDIC) -> np.float32:
    """Float32-facing TFB for the arccosine: sqrt(1 - t^2) in the float32
    domain, then the vectoring stage on (sqrt, t).  The operand is clamped
    to [-1, 1], NaN raises ValueError; the result lies in [0, pi].

    Quantization happens after the square root, on the two vectoring
    operands; in that form the angle is well conditioned, whereas quantizing
    ``t`` before the square root would amplify the grid error near |t| = 1.
    """
    _fmt, scale, fp2f = cfg._tfb
    # A double is clamped before its cast, which could overflow (+-1 are
    # float32 values; min and max keep a NaN).  The split is for speed: on a
    # float32, min and max cost 1.7 us a call, 3 % of the `default` workload.
    tf = t if type(t) is _F32 else _F32(min(max(t, -1.0), 1.0))
    if tf > _F32_ONE:
        tf = _F32_ONE
    elif tf < _F32_MINUS_ONE:
        tf = _F32_MINUS_ONE
    # |tf| <= 1: the float32 radicand is at least 0, so np.sqrt is `sqrt32`
    # without its check, and both operands lie within 1, which the format
    # holds (it holds pi), so F2FP is a plain rounding.
    s = np.sqrt(_F32_ONE - tf * tf)
    try:
        y, x = round(float(s) * scale), round(float(tf) * scale)
    except ValueError:
        raise ValueError(f"tfb_acos operand must not be NaN, got t = {float(t)!r}") from None
    return fp2f[cordic_atan2(y, x, cfg)]
