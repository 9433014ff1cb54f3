import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tactilesim import numerics
from tactilesim.kinematics import EPS_REACH
from tactilesim.numerics import (
    CordicConfig,
    NegativeRadicand,
    QFormat,
    S16_13,
    cordic_atan2,
    cordic_sincos,
    float_to_fixed,
    sqrt32,
    tfb_acos,
    tfb_atan2,
    tfb_sincos,
)

LSB = 2.0 ** -13


class TestQFormat:
    def test_string_round_trip(self):
        fmt = QFormat.from_string("s16.13")
        assert fmt == S16_13
        assert str(fmt) == "s16.13"
        assert QFormat.from_string("s32.21") == QFormat(32, 21)

    @pytest.mark.parametrize("text", ["16.13", "u16.13", "s16", "s16.13.2", "s-1.0"])
    def test_bad_strings(self, text):
        with pytest.raises(ValueError):
            QFormat.from_string(text)

    def test_invariants(self):
        with pytest.raises(ValueError):
            QFormat(1, 0)
        with pytest.raises(ValueError):
            QFormat(65, 13)
        with pytest.raises(ValueError):
            QFormat(16, 16)
        with pytest.raises(ValueError):
            QFormat(16, -1)

    def test_range(self):
        assert S16_13.raw_max == 32767
        assert S16_13.raw_min == -32768
        assert S16_13.max_value == 32767 / 8192
        assert S16_13.min_value == -4.0
        assert S16_13.resolution == LSB


class TestConversions:
    def test_float_to_fixed_examples(self):
        assert float_to_fixed(1.0, S16_13) == 8192
        assert float_to_fixed(0.5, S16_13) == 4096
        assert float_to_fixed(LSB, S16_13) == 1
        # Values beyond the format range saturate instead of wrapping.
        assert float_to_fixed(5.0, S16_13) == 32767
        assert float_to_fixed(-5.0, S16_13) == -32768
        assert float_to_fixed(math.inf, S16_13) == 32767
        assert float_to_fixed(-math.inf, S16_13) == -32768

    def test_ties_to_even(self):
        assert float_to_fixed(0.5 * LSB, S16_13) == 0
        assert float_to_fixed(1.5 * LSB, S16_13) == 2
        assert float_to_fixed(2.5 * LSB, S16_13) == 2

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            float_to_fixed(math.nan, S16_13)

    def test_round_trip_exhaustive(self):
        # Every representable s16.13 value must survive the round trip.
        scale = S16_13.scale
        for raw in range(S16_13.raw_min, S16_13.raw_max + 1):
            assert float_to_fixed(raw / scale, S16_13) == raw

    def test_monotone(self):
        rng = np.random.default_rng(11)
        xs = np.sort(rng.uniform(-6.0, 6.0, 2000))
        raws = [float_to_fixed(float(x), S16_13) for x in xs]
        assert all(a <= b for a, b in zip(raws, raws[1:]))


class TestCordicConfig:
    def test_default_gain(self):
        # The kernel's start value is the gain compensation of 16 rotations
        # at working precision.
        gain = math.prod(1.0 / math.sqrt(1.0 + 2.0 ** (-2 * i)) for i in range(16))
        x0 = numerics._kernel_constants(16, 13)[1]
        assert x0 == round(gain * 2 ** (13 + numerics._GUARD_BITS))

    def test_iterations_checked(self):
        with pytest.raises(ValueError):
            CordicConfig(iterations=0)

    @pytest.mark.parametrize(
        "iterations, message",
        [
            (10**300, "iterations must lie in [1, 64], got an integer of 301 digits"),
            (-(10**5000), "field 'iterations' is an integer beyond the float range"),
        ],
        ids=["fits-float", "beyond-str"],
    )
    def test_huge_iterations_message_shows_the_digit_count(self, iterations, message):
        # str() of a 5001-digit integer raises on its own (Python's 4300-digit
        # limit); neither message needs the string.
        with pytest.raises(ValueError) as err:
            CordicConfig(iterations=iterations)
        assert str(err.value) == message

    @pytest.mark.parametrize("text", ["s2.0", "s2.1", "s3.1", "s16.14"])
    def test_format_must_hold_pi(self, text):
        # The kernels return angles up to pi.
        with pytest.raises(ValueError, match=text):
            CordicConfig(fmt=QFormat.from_string(text))

    def test_format_holding_exactly_pi_accepted(self):
        # raw_max of s3.0 is 3 == round(pi).
        CordicConfig(fmt=QFormat(3, 0))

    @pytest.mark.parametrize("text", ["s20.17", "s32.20", "s64.17"])
    def test_fraction_wider_than_rom_rejected(self, text):
        # sin/cos come from a ROM of at most 16 fractional bits.
        with pytest.raises(ValueError, match=f"{text} has more than 16 fractional bits"):
            CordicConfig(fmt=QFormat.from_string(text))


def value(raw: int) -> float:
    """Real value of an s16.13 raw value."""
    return raw / S16_13.scale


class TestSinCos:
    def test_zero_is_exact(self):
        assert cordic_sincos(0) == (0, 8192)

    def test_quadrant_boundary(self):
        s, c = cordic_sincos(float_to_fixed(math.pi / 2, S16_13))
        assert abs(value(s) - 1.0) <= 4 * LSB
        assert abs(value(c) - 0.0) <= 4 * LSB

    def test_pi_over_six(self):
        s, _ = cordic_sincos(float_to_fixed(math.pi / 6, S16_13))
        assert abs(value(s) - math.sin(math.pi / 6)) <= 4 * LSB

    def test_symmetry_bit_exact(self):
        rng = np.random.default_rng(5)
        raws = list(rng.integers(0, 25736, 500)) + [0, 1, 12868, 25735, 25736]
        for raw in raws:
            sp, cp = cordic_sincos(int(raw))
            sn, cn = cordic_sincos(-int(raw))
            assert sn == -sp
            assert cn == cp

    def test_error_envelope_sample(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for a in rng.uniform(-math.pi, math.pi, 10_000):
            s, c = cordic_sincos(float_to_fixed(a, S16_13))
            worst = max(worst, abs(value(s) - math.sin(a)), abs(value(c) - math.cos(a)))
        assert worst <= 4 * LSB

    def test_error_envelope_exhaustive(self):
        # Every s16.13 raw angle, including those beyond pi that the kernel
        # reduces by a whole turn.
        worst = 0.0
        for raw in range(S16_13.raw_min, S16_13.raw_max + 1):
            s, c = cordic_sincos(raw)
            a = value(raw)
            worst = max(worst, abs(value(s) - math.sin(a)), abs(value(c) - math.cos(a)))
        assert worst <= 4 * LSB

    def test_argument_reduction(self):
        # Any representable angle (|a| <= 4 in s16.13) reduces internally; a
        # wrap adds at most a fraction of an LSB on top of the envelope.
        for a in (3.5, -3.6, 3.9, -3.99):
            s, c = cordic_sincos(float_to_fixed(a, S16_13))
            assert abs(value(s) - math.sin(a)) <= 5 * LSB
            assert abs(value(c) - math.cos(a)) <= 5 * LSB

    def test_out_of_range_angle_saturates_first(self):
        # Angles beyond the format range clip at the conversion stage, like
        # the hardware converter; the kernel then sees the clipped angle.
        sat = S16_13.max_value
        s, _ = cordic_sincos(float_to_fixed(2.0 * math.pi + 0.3, S16_13))
        assert abs(value(s) - math.sin(sat)) <= 5 * LSB

    def test_whole_turns_reduced_at_once(self):
        # s64.16 holds angles of 10^12 turns and more; reducing them must not
        # step through the turns one by one.
        fmt = QFormat(64, 16)
        cfg = CordicConfig(iterations=16, fmt=fmt)
        two_pi = 2 * round(math.pi * fmt.scale)
        for raw in (1000, -1000, two_pi // 2 - 1, 1 - two_pi // 2):
            expected = cordic_sincos(raw, cfg)
            for turns in (10**12, -(10**12)):
                assert cordic_sincos(raw + turns * two_pi, cfg) == expected


class TestAtan2:
    def test_axis_cases(self):
        assert cordic_atan2(0, float_to_fixed(1, S16_13)) == 0
        pi_raw = round(math.pi * 8192)
        assert cordic_atan2(0, float_to_fixed(-1, S16_13)) == pi_raw
        half = round(math.pi / 2 * 8192)
        assert cordic_atan2(float_to_fixed(1, S16_13), 0) == half
        assert cordic_atan2(float_to_fixed(-1, S16_13), 0) == -half

    def test_both_zero_defined(self):
        assert cordic_atan2(0, 0) == 0

    def test_diagonals(self):
        one = float_to_fixed(1, S16_13)
        neg = float_to_fixed(-1, S16_13)
        assert abs(value(cordic_atan2(one, one)) - math.pi / 4) <= 4 * LSB
        assert abs(value(cordic_atan2(one, neg)) - 3 * math.pi / 4) <= 4 * LSB

    def test_antisymmetry_bit_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            y = float_to_fixed(rng.uniform(0.05, 3.5), S16_13)
            x = float_to_fixed(rng.uniform(-3.5, 3.5), S16_13)
            assert cordic_atan2(-y, x) == -cordic_atan2(y, x)

    def test_range(self):
        rng = np.random.default_rng(29)
        pi_raw = round(math.pi * 8192)
        for _ in range(300):
            y = float_to_fixed(rng.uniform(-3.5, 3.5), S16_13)
            x = float_to_fixed(rng.uniform(-3.5, 3.5), S16_13)
            assert -pi_raw < cordic_atan2(y, x) <= pi_raw

    @pytest.mark.parametrize("iterations", [1, 10, 16])
    def test_range_exhaustive(self, iterations):
        # Every raw operand pair of s8.5: the result stays in [-pi, pi] at
        # the I/O precision, so it is always a value of the format.
        cfg = CordicConfig(iterations=iterations, fmt=QFormat(8, 5))
        pi_raw = round(math.pi * cfg.fmt.scale)
        operands = range(cfg.fmt.raw_min, cfg.fmt.raw_max + 1)
        angles = {cordic_atan2(y, x, cfg) for y in operands for x in operands}
        assert -pi_raw <= min(angles) and max(angles) <= pi_raw

    def test_accuracy_against_double(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(3000):
            ang = rng.uniform(-math.pi, math.pi)
            r = rng.uniform(0.5, 3.5)
            y = float_to_fixed(r * math.sin(ang), S16_13)
            x = float_to_fixed(r * math.cos(ang), S16_13)
            got = value(cordic_atan2(y, x))
            worst = max(worst, abs(got - math.atan2(value(y), value(x))))
        assert worst <= 4 * LSB


class TestAcos:
    # The arccosine TFB: float32 operand, float32 result.
    PI = np.float32(round(math.pi * 8192) / 8192)

    def test_endpoints(self):
        assert tfb_acos(np.float32(1.0)) == 0.0
        assert tfb_acos(np.float32(-1.0)) == self.PI

    def test_zero(self):
        a = tfb_acos(np.float32(0.0))
        assert abs(float(a) - math.pi / 2) <= 8 * LSB

    def test_mid_value(self):
        a = tfb_acos(np.float32(0.7071))
        assert abs(float(a) - math.acos(0.7071)) <= 8 * LSB

    def test_clamping(self):
        assert tfb_acos(np.float32(1.5)) == 0.0
        assert tfb_acos(np.float32(-1.4)) == self.PI

    def test_result_in_range(self):
        rng = np.random.default_rng(37)
        for t in rng.uniform(-1, 1, 500):
            assert 0.0 <= tfb_acos(np.float32(t)) <= self.PI


class TestSqrt32:
    def test_exact_cases(self):
        assert sqrt32(0.0) == 0.0
        assert sqrt32(4.0) == 2.0

    def test_correctly_rounded(self):
        # Such a small set of operations must agree with the double-precision
        # square root to within half an ULP of float32.
        rng = np.random.default_rng(41)
        for x in rng.uniform(0.0, 16.0, 2000):
            x32 = np.float32(x)
            got = sqrt32(x32)
            expected = math.sqrt(float(x32))
            assert abs(float(got) - expected) <= 0.5 * float(np.spacing(got))

    def test_home_pose_radicand(self):
        got = sqrt32(np.float32(0.03645))
        expected = math.sqrt(float(np.float32(0.03645)))
        assert abs(float(got) - expected) <= 0.5 * float(np.spacing(got))

    def test_negative_rejected(self):
        with pytest.raises(NegativeRadicand):
            sqrt32(-1e-6)

    def test_returns_float32(self):
        assert isinstance(sqrt32(2.0), np.float32)

    def test_equals_double_root_then_round(self):
        # 10^6 float32 bit patterns spread from the smallest subnormal to the
        # float32 maximum, plus both zeros: sqrt32 returns the same bytes as
        # the double-precision root rounded to float32.
        bits = np.linspace(1, 0x7F7FFFFF, 10**6).astype(np.uint32)
        xs = np.concatenate((bits.view(np.float32), np.float32([0.0, -0.0])))
        expected = np.array([math.sqrt(v) for v in xs.tolist()]).astype(np.float32)
        got = np.array([sqrt32(x) for x in xs], dtype=np.float32)
        assert got.tobytes() == expected.tobytes()


def test_float32_scalar_arithmetic_is_correctly_rounded():
    # The hybrid circuits run on numpy float32 scalars.  A double carries
    # more than twice float32's 24 bits plus two, so the double result of
    # +, -, * and / rounded to float32 is the correctly rounded float32
    # result: numpy's scalar operators must give those bytes.
    rng = np.random.default_rng(17)
    mantissas = rng.uniform(-2.0, 2.0, (2, 5000))
    exponents = rng.integers(-20, 21, (2, 5000))
    pairs = np.ldexp(mantissas, exponents).astype(np.float32).T.tolist()
    for a, b in pairs:
        x, y = np.float32(a), np.float32(b)
        for got, want in ((x + y, a + b), (x - y, a - b), (x * y, a * b), (x / y, a / b)):
            assert type(got) is np.float32
            assert got.tobytes() == np.float32(want).tobytes()


class TestTfbWrappers:
    def test_sincos(self):
        s, c = tfb_sincos(np.float32(0.5))
        assert isinstance(s, np.float32) and isinstance(c, np.float32)
        assert abs(float(s) - math.sin(0.5)) <= 5 * LSB
        assert abs(float(c) - math.cos(0.5)) <= 5 * LSB

    def test_atan2(self):
        a = tfb_atan2(np.float32(1.0), np.float32(1.0))
        assert abs(float(a) - math.pi / 4) <= 5 * LSB

    @pytest.mark.parametrize(
        "y, x, expected",
        [(1e-39, 0.0, math.pi / 2), (0.0, -1e-40, math.pi), (-1e-39, 1e-39, -math.pi / 4)],
    )
    def test_atan2_subnormal_operands(self, y, x, expected):
        # The common power of two for these is beyond the float32 range.
        a = tfb_atan2(np.float32(y), np.float32(x))
        assert abs(float(a) - expected) <= 5 * LSB

    def test_acos(self):
        a = tfb_acos(np.float32(0.5))
        assert abs(float(a) - math.acos(0.5)) <= 8 * LSB


# Float32 values, subnormals and both zeros included.
FLOAT32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
# One configuration per operand format the tests cover; each holds pi.
TFB_CONFIGS = [
    CordicConfig(iterations=6, fmt=QFormat(8, 5)),
    CordicConfig(iterations=10, fmt=S16_13),
    CordicConfig(iterations=16, fmt=QFormat(20, 16)),
]


def conditioned(y, x) -> tuple[float, float]:
    """The operand conditioning of `tfb_atan2`: the float32 pair as doubles,
    scaled by the common power of two that puts the larger magnitude in
    [1, 2)."""
    yf, xf = float(np.float32(y)), float(np.float32(x))
    m = max(abs(yf), abs(xf))
    if m > 0.0:
        e = 1 - math.frexp(m)[1]
        yf, xf = math.ldexp(yf, e), math.ldexp(xf, e)
    return yf, xf


def acos_operands(t) -> tuple[float, float]:
    """The vectoring operands (sqrt(1 - t^2), t) of `tfb_acos`, the float32
    operand clamped to [-1, 1]."""
    tf = np.float32(min(max(float(np.float32(t)), -1.0), 1.0))
    return float(sqrt32(np.float32(1.0) - tf * tf)), float(tf)


def saturating_tfb(operands, cfg: CordicConfig, kernel=cordic_atan2) -> np.float32:
    """A vectoring TFB on ``kernel`` with the saturating F2FP on its two
    operands."""
    y, x = operands
    return cfg._fp2f[kernel(float_to_fixed(y, cfg.fmt), float_to_fixed(x, cfg.fmt), cfg)]


def assert_plain_f2fp(operands, cfg: CordicConfig) -> None:
    """Each operand lies within +-2, so its F2FP never saturates: rounding
    ``v * scale`` gives the raw value `float_to_fixed` gives."""
    for v in operands:
        assert abs(v) <= 2.0
        assert round(v * cfg.fmt.scale) == float_to_fixed(v, cfg.fmt)


def half_lsb(k: int, frac_bits: int) -> float:
    """The tie (k + 1/2) LSB of a format with ``frac_bits`` fractional bits."""
    return (2 * k + 1) * 2.0 ** (-frac_bits - 1)


class TestTfbOperands:
    # The atan2 and acos TFBs feed the kernel operands within +-2, which
    # every configuration's format holds (it holds pi): their F2FP never
    # saturates, and the TFB output is the one with the saturating F2FP.

    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(y=FLOAT32, x=FLOAT32)
    @example(y=2.0**-149, x=1.0)
    @example(y=-(2.0**-149), x=2.0**-149)
    @example(y=2.0**-126, x=-(2.0**-127))
    @example(y=2.0**127, x=-(2.0**-149))
    @example(y=1.0, x=0.0)
    @example(y=-0.0, x=-0.0)
    @example(y=1.0, x=half_lsb(0, 13))
    @example(y=1.5, x=half_lsb(1, 13))
    @example(y=-1.0, x=half_lsb(2, 13))
    @example(y=1.0 + half_lsb(0, 13), x=-half_lsb(5, 13))
    @example(y=1.0, x=half_lsb(0, 5))
    @example(y=-1.75, x=half_lsb(3, 5))
    @example(y=1.0, x=-half_lsb(0, 16))
    @example(y=1.0 + half_lsb(0, 16), x=half_lsb(7, 16))
    def test_atan2_operands(self, y, x):
        operands = conditioned(y, x)
        for cfg in TFB_CONFIGS:
            assert_plain_f2fp(operands, cfg)
            got = tfb_atan2(np.float32(y), np.float32(x), cfg)
            assert got.tobytes() == saturating_tfb(operands, cfg).tobytes()

    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(t=st.floats(-1.5, 1.5, width=32))
    @example(t=1.0)
    @example(t=-1.0)
    @example(t=0.0)
    @example(t=-0.0)
    @example(t=2.0**-149)
    @example(t=half_lsb(0, 13))
    @example(t=-half_lsb(4, 13))
    @example(t=1.0 - half_lsb(0, 13))
    @example(t=half_lsb(2, 5))
    @example(t=-(1.0 - half_lsb(0, 5)))
    @example(t=half_lsb(9, 16))
    def test_acos_operands(self, t):
        operands = acos_operands(t)
        for cfg in TFB_CONFIGS:
            assert_plain_f2fp(operands, cfg)
            got = tfb_acos(np.float32(t), cfg)
            assert got.tobytes() == saturating_tfb(operands, cfg).tobytes()


class TestNonFiniteOperands:
    PI = np.float32(round(math.pi * 8192) / 8192)

    @pytest.mark.parametrize(
        "y, x, named",
        [
            (math.inf, 1.0, "y = inf"),
            (-math.inf, 1.0, "y = -inf"),
            (1.0, math.inf, "x = inf"),
            (0.0, -math.inf, "x = -inf"),
            (math.nan, 1.0, "y = nan"),
            (1.0, math.nan, "x = nan"),
            (math.inf, math.nan, "y = inf, x = nan"),
        ],
    )
    def test_atan2_refuses_non_finite(self, y, x, named):
        # An infinite operand has no direction: scaled alone, the finite
        # one would give a silently wrong angle.
        with pytest.raises(ValueError, match=re.escape(f"finite, got {named}")):
            tfb_atan2(np.float32(y), np.float32(x))

    @pytest.mark.parametrize("nan", [np.float32(math.nan), math.nan], ids=["float32", "double"])
    def test_acos_nan_refused(self, nan):
        with pytest.raises(ValueError, match="^tfb_acos operand must not be NaN, got t = nan$"):
            tfb_acos(nan)

    def test_acos_infinity_clamps(self):
        assert tfb_acos(np.float32(math.inf)) == 0.0
        assert tfb_acos(np.float32(-math.inf)) == self.PI

    @pytest.mark.parametrize("nan", [np.float32(math.nan), math.nan], ids=["float32", "double"])
    def test_sincos_nan_refused(self, nan):
        with pytest.raises(
            ValueError, match="^tfb_sincos operand must not be NaN, got angle = nan$"
        ):
            tfb_sincos(nan)

    def test_sincos_infinity_saturates(self):
        # F2FP saturates the angle before the kernel reduces it.
        for sign, edge in ((1, S16_13.max_value), (-1, S16_13.min_value)):
            got = tfb_sincos(np.float32(sign * math.inf))
            assert got == tfb_sincos(np.float32(edge))


class TestDoublesBeyondFloat32:
    # A double operand the float32 cast would carry to inf; the suite turns
    # the cast's overflow warning into an error.
    F32_MAX = float(np.finfo(np.float32).max)
    # The smallest double that rounds to inf in float32.
    OVERFLOW = 2.0**128 - 2.0**103

    @pytest.mark.parametrize("t", [1e300, OVERFLOW, math.inf])
    def test_acos_clamps(self, t):
        assert tfb_acos(t) == tfb_acos(np.float32(1.0)) == 0.0
        assert tfb_acos(-t) == tfb_acos(np.float32(-1.0)) == TestNonFiniteOperands.PI

    @pytest.mark.parametrize(
        "y, x, named",
        [
            (1e300, 1.0, "y = 1e+300"),
            (1.0, -1e300, "x = -1e+300"),
            (-OVERFLOW, 0.0, f"y = {-OVERFLOW!r}"),
        ],
        ids=["y", "x", "y-at-the-overflow-edge"],
    )
    def test_atan2_refuses(self, y, x, named):
        with pytest.raises(
            ValueError, match=f"^tfb_atan2 operand {re.escape(named)} is beyond the float32 range$"
        ):
            tfb_atan2(y, x)

    def test_atan2_takes_a_double_that_rounds_to_the_float32_maximum(self):
        below = math.nextafter(self.OVERFLOW, 0.0)
        assert np.float32(below) == self.F32_MAX
        assert tfb_atan2(below, 1.0) == tfb_atan2(np.float32(self.F32_MAX), np.float32(1.0))


class TestFp2f:
    # FP2F in the TFBs is a table lookup; each output must carry the bytes of
    # np.float32(raw / scale), the sign of zero included.

    @pytest.mark.parametrize("iterations", [10, 16])
    @pytest.mark.parametrize("fmt", [QFormat(4, 1), QFormat(12, 9), S16_13], ids=str)
    def test_sincos_bytes_every_raw_angle(self, fmt, iterations):
        cfg = CordicConfig(iterations=iterations, fmt=fmt)
        for raw in range(fmt.raw_min, fmt.raw_max + 1):
            s, c = cordic_sincos(raw, cfg)
            got = tfb_sincos(raw / fmt.scale, cfg)
            expected = (np.float32(s / fmt.scale), np.float32(c / fmt.scale))
            assert got[0].tobytes() + got[1].tobytes() == (
                expected[0].tobytes() + expected[1].tobytes()
            ), raw

    @pytest.mark.parametrize("iterations", [1, 10, 16])
    def test_atan2_bytes_every_output(self, iterations):
        # Every raw operand pair of s8.5, and at s20.16 the pairs (+-1, x)
        # that give the widest angles.
        small = CordicConfig(iterations=iterations, fmt=QFormat(8, 5))
        wide = CordicConfig(iterations=iterations, fmt=QFormat(20, 16))
        operands = range(small.fmt.raw_min, small.fmt.raw_max + 1)
        cases = [(small, {cordic_atan2(y, x, small) for y in operands for x in operands})]
        xs = range(-2 * wide.fmt.scale, 0, 7)
        cases.append((wide, {cordic_atan2(y, x, wide) for y in (-1, 1) for x in xs}))
        for cfg, outputs in cases:
            pi_io = round(math.pi * cfg.fmt.scale)
            for raw in outputs:
                assert -pi_io <= raw <= pi_io, raw
                got = cfg._fp2f[raw]
                assert got.tobytes() == np.float32(raw / cfg.fmt.scale).tobytes(), raw
        if iterations == 16:
            # The vectoring error carries this pair 1 LSB past pi; the
            # result saturates to pi.
            pi_io = round(math.pi * wide.fmt.scale)
            assert cordic_atan2(1, -96546, wide) == pi_io
            assert tfb_atan2(1 / wide.fmt.scale, -96546 / wide.fmt.scale, wide) == np.float32(
                pi_io / wide.fmt.scale
            )

    def test_table_is_shared_across_iterations(self):
        # The table depends on the format's fractional bits alone.
        configs = [CordicConfig(i, fmt) for i in (1, 10, 64) for fmt in (S16_13, QFormat(20, 13))]
        assert all(cfg._fp2f is configs[0]._fp2f for cfg in configs)

    @pytest.mark.parametrize("fmt", [QFormat(4, 1), S16_13, QFormat(20, 16)], ids=str)
    def test_whole_table(self, fmt):
        cfg = CordicConfig(iterations=16, fmt=fmt)
        table = cfg._fp2f
        top = len(table) // 2
        raws = np.arange(-top, top + 1)
        expected = np.array([np.float32(r / fmt.scale) for r in raws.tolist()], np.float32)
        assert table[raws].tobytes() == expected.tobytes()


class TestSincosResults:
    # tfb_sincos keeps the float32 (sin, cos) pair of each raw angle it has
    # quantized to, per configuration, under the angle reduced into
    # [-pi, pi].
    NAN_MESSAGE = "^tfb_sincos operand must not be NaN, got angle = nan$"

    @staticmethod
    def expected(angle, cfg: CordicConfig) -> bytes:
        s, c = cordic_sincos(float_to_fixed(angle, cfg.fmt), cfg)
        return cfg._fp2f[s].tobytes() + cfg._fp2f[c].tobytes()

    @staticmethod
    def pair_bytes(pair) -> bytes:
        assert type(pair) is tuple and len(pair) == 2
        assert all(type(v) is np.float32 for v in pair)
        return pair[0].tobytes() + pair[1].tobytes()

    @pytest.mark.parametrize("iterations", [10, 16])
    @pytest.mark.parametrize("fmt", [QFormat(4, 1), S16_13], ids=str)
    def test_every_raw_angle_cold_and_warm(self, fmt, iterations):
        cfg = CordicConfig(iterations=iterations, fmt=fmt)
        _fmt, pi_io, results = cfg._sincos_results
        assert pi_io == round(math.pi * fmt.scale) and results == {}
        with pytest.raises(ValueError, match=self.NAN_MESSAGE):
            tfb_sincos(math.nan, cfg)
        angles = [raw / fmt.scale for raw in range(fmt.raw_min, fmt.raw_max + 1)]
        angles += [math.inf, -math.inf, 1e300, -1e300, -0.0]
        for angle in angles:
            want = self.expected(angle, cfg)
            assert self.pair_bytes(tfb_sincos(angle, cfg)) == want, angle
            assert self.pair_bytes(tfb_sincos(angle, cfg)) == want, angle
        # Every reduced raw angle, each once.
        assert sorted(results) == list(range(-pi_io, pi_io + 1))
        with pytest.raises(ValueError, match=self.NAN_MESSAGE):
            tfb_sincos(np.float32(math.nan), cfg)
        assert len(results) == 2 * pi_io + 1

    def test_configs_differing_in_iterations_keep_their_own_entries(self):
        coarse, fine = CordicConfig(iterations=4), CordicConfig(iterations=16)
        angles = [raw / S16_13.scale for raw in range(-30000, 30000, 7)]
        for angle in angles:
            tfb_sincos(angle, coarse)
        assert fine._sincos_results[2] == {}
        differ = 0
        for angle in angles:
            got, want = tfb_sincos(angle, fine), self.expected(angle, fine)
            assert self.pair_bytes(got) == want, angle
            differ += self.pair_bytes(tfb_sincos(angle, coarse)) != want
        # The two grades give other bits for most angles, so a shared entry
        # would show.
        assert differ > len(angles) // 2
        coarse_table, fine_table = coarse._sincos_results[2], fine._sincos_results[2]
        assert coarse_table is not fine_table
        assert not {id(v) for v in coarse_table.values()} & {id(v) for v in fine_table.values()}


def rotate(z: int, steps, x0: int) -> tuple[int, int]:
    """Rotation-mode CORDIC on Python ints, one angle at a time: drive the
    residual angle ``z`` (working-precision raw, in [0, pi/2]) to zero;
    returns (cos, sin) at working precision.  The bit-exact reference of the
    ROM."""
    x = x0
    y = 0
    for shift, half, a in steps:
        dx = (y + half) >> shift
        dy = (x + half) >> shift
        if z >= 0:
            x, y, z = x - dx, y + dy, z - a
        else:
            x, y, z = x + dx, y - dy, z + a
    return x, y


def round_shift(v: int, bits: int) -> int:
    """Arithmetic right shift with rounding to nearest."""
    if bits == 0:
        return v
    return (v + (1 << (bits - 1))) >> bits


def rotated_sincos(raw: int, cfg: CordicConfig) -> tuple[int, int]:
    """`cordic_sincos` with the rotation run per call instead of read from
    the ROM: whole-turn reduction, quadrant folding, output signs and
    saturation written out again."""
    fmt = cfg.fmt
    steps, x0, pi_io, half_pi_io = numerics._kernel_constants(cfg.iterations, fmt.frac_bits)
    if raw > pi_io:
        raw = pi_io - (pi_io - raw) % (2 * pi_io)
    elif raw < -pi_io:
        raw = (raw + pi_io) % (2 * pi_io) - pi_io
    sign_sin = -1 if raw < 0 else 1
    raw = abs(raw)
    sign_cos = 1
    if raw > half_pi_io:
        raw = pi_io - raw
        sign_cos = -1
    cos_w, sin_w = rotate(raw << numerics._GUARD_BITS, steps, x0)

    def io(w: int) -> int:
        v = round_shift(w, numerics._GUARD_BITS)
        return min(max(v, fmt.raw_min), fmt.raw_max)

    return sign_sin * io(sin_w), sign_cos * io(cos_w)


class TestSinCosRom:
    @pytest.mark.parametrize("iterations", [10, 16])
    def test_rom_matches_scalar_kernel(self, iterations):
        # Every first-quadrant raw angle of s16.13.
        steps, x0, _pi_io, half_pi_io = numerics._kernel_constants(iterations, 13)
        sin_rom, cos_rom = numerics._sincos_rom(iterations, S16_13)
        assert len(sin_rom) == len(cos_rom) == half_pi_io + 1
        guard = numerics._GUARD_BITS
        for raw in range(half_pi_io + 1):
            cos_w, sin_w = rotate(raw << guard, steps, x0)
            assert sin_rom[raw] == round_shift(sin_w, guard)
            assert cos_rom[raw] == round_shift(cos_w, guard)

    @pytest.mark.parametrize("fmt", [QFormat(12, 9), QFormat(4, 1), S16_13])
    def test_rom_and_rotation_paths_agree(self, fmt):
        # Every raw angle of the format, through the reduction, signs and
        # saturation: the kernel against the rotation run per call.
        angles = range(fmt.raw_min, fmt.raw_max + 1)
        for iterations in (10, 16):
            cfg = CordicConfig(iterations=iterations, fmt=fmt)
            assert [cordic_sincos(a, cfg) for a in angles] == [
                rotated_sincos(a, cfg) for a in angles
            ]


def vectored_atan2(y: int, x: int, cfg: CordicConfig) -> int:
    """`cordic_atan2` with the vectoring run on every call instead of read
    from the unit-circle ROM: axis cases, signs and saturation written out
    again.  The bit-exact reference of the ROM."""
    steps, _x0, pi_io, half_pi_io = numerics._kernel_constants(cfg.iterations, cfg.fmt.frac_bits)
    if y == 0:
        return 0 if x >= 0 else pi_io
    if x == 0:
        return half_pi_io if y > 0 else -half_pi_io
    angle = numerics._vector_angle(abs(x), abs(y), steps)
    if x < 0:
        angle = min(pi_io - angle, pi_io)
    return angle if y > 0 else -angle


def vectored_acos(t, cfg: CordicConfig) -> np.float32:
    """`tfb_acos` on `vectored_atan2`, with the saturating F2FP."""
    return saturating_tfb(acos_operands(t), cfg, vectored_atan2)


def circle_arrays(cfg: CordicConfig) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The unit-circle ROM of ``cfg`` as numpy arrays."""
    one, _pi_io, _half_pi_io, *arrays = cfg._circle
    return (one, *(np.frombuffer(a, np.int32) for a in arrays))


def edge_neighbours(fmt: QFormat, ulps: int) -> np.ndarray:
    """Every float32 within ``ulps`` ULP of an F2FP cell edge (k + 1/2) LSB
    of ``fmt`` in [-1 - 1/2 LSB, 1 + 1/2 LSB]."""
    scale = fmt.scale
    edges = ((np.arange(-scale - 1, scale + 1) + 0.5) / scale).astype(np.float32)
    values = [edges]
    for toward in (np.float32(np.inf), np.float32(-np.inf)):
        t = edges
        for _ in range(ulps):
            t = np.nextafter(t, toward)
            values.append(t)
    return np.concatenate(values)


def circle_pairs(t: np.ndarray, scale: int) -> tuple[np.ndarray, np.ndarray]:
    """The raw vectoring operands (y, x) `tfb_acos` feeds the kernel for the
    float32 operands ``t``, in float32 array arithmetic."""
    t = np.clip(t, np.float32(-1.0), np.float32(1.0))
    root = np.sqrt(np.float32(1.0) - t * t)
    return (
        np.rint(root.astype(float) * scale).astype(np.int64),
        np.rint(t.astype(float) * scale).astype(np.int64),
    )


# The configurations the unit-circle ROM is checked at.
CIRCLE_CONFIGS = [
    CordicConfig(iterations=10, fmt=S16_13),
    CordicConfig(iterations=16, fmt=S16_13),
    CordicConfig(iterations=16, fmt=QFormat(20, 16)),
    CordicConfig(iterations=6, fmt=QFormat(8, 5)),
]


def cell_edge_operand(frac_bits: int):
    """A float32 operand within 2 ULP of an F2FP cell edge (k +- 1/2) LSB in
    [-1, 1] at ``frac_bits`` fractional bits."""
    scale = 1 << frac_bits

    def build(k, half, ulps):
        t = np.float32((k + half) / scale)
        toward = np.float32(np.inf if ulps > 0 else -np.inf)
        for _ in range(abs(ulps)):
            t = np.nextafter(t, toward)
        return float(t)

    return st.builds(
        build, st.integers(-scale, scale), st.sampled_from([-0.5, 0.5]), st.integers(-2, 2)
    )


class TestCircleRom:
    # `cordic_atan2` reads the pairs `tfb_acos` feeds it from a ROM; every
    # result must be the vectoring loop's.

    @pytest.mark.parametrize("cfg", CIRCLE_CONFIGS, ids=lambda c: f"{c.iterations}-{c.fmt}")
    def test_every_entry_is_the_loop(self, cfg):
        one, _pi_io, _half_pi_io, low, high, base, angles = cfg._circle
        assert len(low) == len(high) == len(base) == one + 1
        pairs = [(y, x) for x in range(one + 1) for y in range(low[x], high[x] + 1)]
        # Each angle belongs to one pair.
        assert sorted(base[x] + y for y, x in pairs) == list(range(len(angles)))
        steps = cfg._vectoring
        rom = [angles[base[x] + y] for y, x in pairs]
        assert rom == [numerics._vector_angle(x, y, steps) for y, x in pairs]
        # Each pair mirrored into all four quadrants, through the kernel's
        # fold of the operands.
        mirrored = [(sy * y, sx * x) for y, x in pairs for sy in (1, -1) for sx in (1, -1)]
        assert [cordic_atan2(y, x, cfg) for y, x in mirrored] == [
            vectored_atan2(y, x, cfg) for y, x in mirrored
        ]
        if cfg.fmt == S16_13:
            assert len(angles) == 16379

    @settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @given(
        t=st.floats(-1.5, 1.5, width=32) | cell_edge_operand(13) | cell_edge_operand(5)
    )
    @example(t=1.0)
    @example(t=-1.0)
    @example(t=0.0)
    @example(t=-0.0)
    @example(t=float(np.nextafter(np.float32(1 + EPS_REACH), np.float32(2))))
    @example(t=-float(np.nextafter(np.float32(1 + EPS_REACH), np.float32(2))))
    @example(t=float(np.nextafter(np.float32(1.0), np.float32(0.0))))
    @example(t=half_lsb(0, 13))
    @example(t=-half_lsb(8191, 13))
    @example(t=half_lsb(31, 5))
    def test_acos_equals_loop(self, t):
        for cfg in CIRCLE_CONFIGS:
            assert tfb_acos(np.float32(t), cfg).tobytes() == vectored_acos(t, cfg).tobytes()

    @pytest.mark.parametrize("fmt", [QFormat(8, 5), S16_13], ids=str)
    def test_cell_edges_hit(self, fmt):
        # Where F2FP changes its raw value, and 4 ULP either side.
        cfg = CordicConfig(iterations=10, fmt=fmt)
        _one, low, high, _base, _angles = circle_arrays(cfg)
        y, x = circle_pairs(edge_neighbours(fmt, 4), fmt.scale)
        # The kernel reads the band of |x|.
        x = abs(x)
        assert ((low[x] <= y) & (y <= high[x])).all()

    def test_cell_edges_never_run_the_loop(self, monkeypatch):
        # The same operands through `tfb_acos` itself, at s8.5.
        cfg = CordicConfig(iterations=6, fmt=QFormat(8, 5))
        expected = [vectored_acos(t, cfg) for t in edge_neighbours(cfg.fmt, 4).tolist()]

        def refused(*args):
            raise AssertionError("vectoring loop run")

        monkeypatch.setattr(numerics, "_vector_angle", refused)
        got = [tfb_acos(np.float32(t), cfg) for t in edge_neighbours(cfg.fmt, 4).tolist()]
        assert np.array(got).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("cfg", CIRCLE_CONFIGS[::3], ids=lambda c: f"{c.iterations}-{c.fmt}")
    def test_pairs_outside_the_band_run_the_loop(self, cfg):
        one, _pi_io, _half_pi_io, low, high, _base, _angles = cfg._circle
        xs = range(-one - 2, one + 3)
        pairs = []
        for x in xs:
            if -one <= x <= one:
                lo, hi = low[abs(x)], high[abs(x)]
                pairs += [(lo - 1, x), (hi + 1, x), (-lo, x), (-hi, x)]
            else:
                pairs += [(y, x) for y in (-one, -1, 0, 1, one // 2, one)]
        for y, x in pairs:
            assert cordic_atan2(y, x, cfg) == vectored_atan2(y, x, cfg), (y, x)

    def test_built_on_first_vectoring_call(self):
        cfg = CordicConfig(iterations=7, fmt=QFormat(12, 9))
        tfb_sincos(np.float32(0.5), cfg)
        assert "_circle" not in vars(cfg)
        tfb_acos(np.float32(0.5), cfg)
        assert "_circle" in vars(cfg)


class TestTfbKernelCalls:
    def test_kernels_called_through_module(self, monkeypatch):
        # The benchmark's traced run captures numerics.cordic_sincos and
        # cordic_atan2 by replacing the module attributes, and replays the
        # captured calls with the config as the last positional argument.
        calls = []

        def counting(name):
            kernel = getattr(numerics, name)

            def wrapper(*args, **kwargs):
                calls.append((name, args, kwargs))
                return kernel(*args, **kwargs)

            return wrapper

        for name in ("cordic_sincos", "cordic_atan2"):
            monkeypatch.setattr(numerics, name, counting(name))
        cfg = CordicConfig(iterations=10)
        tfb_sincos(np.float32(0.5), cfg)
        tfb_atan2(np.float32(0.3), np.float32(0.4), cfg)
        tfb_acos(np.float32(0.2), cfg)
        assert [name for name, _, _ in calls] == ["cordic_sincos", "cordic_atan2", "cordic_atan2"]
        assert all(args[-1] is cfg and not kwargs for _, args, kwargs in calls)
