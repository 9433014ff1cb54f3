import math

import numpy as np
import pytest

from tactilesim import numerics
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

    @pytest.mark.parametrize("text", ["s2.0", "s2.1", "s3.1", "s16.14"])
    def test_format_must_hold_pi(self, text):
        # The kernels return angles up to pi.
        with pytest.raises(ValueError, match=text):
            CordicConfig(fmt=QFormat.from_string(text))

    def test_format_holding_exactly_pi_accepted(self):
        # raw_max of s3.0 is 3 == round(pi).
        CordicConfig(fmt=QFormat(3, 0))


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


class TestSinCosRom:
    @pytest.mark.parametrize("iterations", [10, 16])
    def test_rom_matches_scalar_kernel(self, iterations):
        # Every first-quadrant raw angle of s16.13.
        steps, x0, _pi_io, half_pi_io = numerics._kernel_constants(iterations, 13)
        sin_rom, cos_rom = numerics._sincos_rom(iterations, 13)
        assert len(sin_rom) == len(cos_rom) == half_pi_io + 1
        guard = numerics._GUARD_BITS
        for raw in range(half_pi_io + 1):
            cos_w, sin_w = numerics._rotate(raw << guard, steps, x0)
            assert sin_rom[raw] == numerics._round_shift(sin_w, guard)
            assert cos_rom[raw] == numerics._round_shift(cos_w, guard)

    @pytest.mark.parametrize("fmt", [QFormat(12, 9), QFormat(4, 1)])
    def test_rom_and_rotation_paths_agree(self, fmt, monkeypatch):
        # Every raw angle of the format, through the reduction, signs and
        # saturation, once from the ROM and once rotated per call.
        cfg = CordicConfig(iterations=12, fmt=fmt)
        angles = range(fmt.raw_min, fmt.raw_max + 1)
        from_rom = [cordic_sincos(a, cfg) for a in angles]
        monkeypatch.setattr(numerics, "_ROM_MAX_FRAC_BITS", -1)
        rotated = [cordic_sincos(a, cfg) for a in angles]
        assert from_rom == rotated


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
