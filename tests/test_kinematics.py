import itertools
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sample_workspace_poses
from tactilesim.kinematics import (
    _COORD_MAX,
    CartesianPosition,
    DEFAULT_GEOMETRY,
    DeviceGeometry,
    Hybrid,
    JointAngles,
    NonFiniteSignal,
    ORACLE,
    SampleError,
    Unreachable,
    forward_kinematics,
    inverse_kinematics,
)
from tactilesim.force import jacobian
from tactilesim.numerics import S16_13, CordicConfig, QFormat, cordic_sincos
from tactilesim.pipeline import _trajectory_table
from tactilesim.scenario import load_scenario

SCENARIO_PATH = Path(__file__).resolve().parent.parent / "scenarios" / "default.yaml"


class TestGeometry:
    def test_defaults(self):
        g = DeviceGeometry()
        assert g.l1 == g.l2 == 0.135
        assert g.l3 == 0.025
        assert g.l4 == pytest.approx(g.l1 + 0.035)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            DeviceGeometry(l1=0.0)
        with pytest.raises(ValueError):
            DeviceGeometry(l3=-0.01)

    @pytest.mark.parametrize("name", ["l1", "l2", "l3", "l4"])
    def test_length_bounds(self, name):
        # The hybrid datapath stays finite for lengths in [2^-16, 2^16] m.
        DeviceGeometry(**{name: 2.0**16})
        DeviceGeometry(**{name: 2.0**-16})
        for value in (math.nextafter(2.0**16, math.inf), 3e38):
            with pytest.raises(ValueError, match=f"^{name} exceeds the largest link length"):
                DeviceGeometry(**{name: value})
        for value in (math.nextafter(2.0**-16, 0.0), 1e-300):
            with pytest.raises(ValueError, match=f"^{name} is below the smallest link length"):
                DeviceGeometry(**{name: value})


# Every geometry whose links sit at the ends of their range.
CORNER_GEOMETRIES = [
    DeviceGeometry(*lengths) for lengths in itertools.product((2.0**-16, 2.0**16), repeat=4)
]
CORNER_BACKENDS = [Hybrid(CordicConfig(iterations=i)) for i in (1, 10, 16)]


class TestHybridStaysFinite:
    # Each call either returns finite values or raises a SampleError; with
    # warnings turned into errors, a float32 overflow or a division by zero
    # would fail the test.

    @pytest.mark.parametrize("backend", CORNER_BACKENDS, ids=["i1", "i10", "i16"])
    def test_fk_and_jacobian_at_corner_geometries(self, backend):
        angles = (-4.0, -math.pi, -math.pi / 2, -0.3, 0.0, math.pi / 4, math.pi / 2, 3.999)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for g in CORNER_GEOMETRIES:
                for q in itertools.product(angles, repeat=3):
                    q = JointAngles(*q)
                    assert all(map(math.isfinite, forward_kinematics(q, g, backend)))
                    assert np.isfinite(jacobian(q, g, backend)).all()

    @pytest.mark.parametrize("backend", CORNER_BACKENDS, ids=["i1", "i10", "i16"])
    def test_ik_at_corner_geometries_and_coordinates(self, backend):
        big = 2.0**18
        for g in CORNER_GEOMETRIES:
            # The input range's corners, and points a tiny step away from
            # the shoulder center (0, l3, -l4), where r is smallest.
            coords = (-big, -1e-22, 0.0, 2e-45, big)
            points = [CartesianPosition(*p) for p in itertools.product(coords, repeat=3)]
            points += [
                CartesianPosition(dx, g.l3 + dy, -g.l4 + dz)
                for dx, dy, dz in itertools.product((0.0, 1e-22, -3e-23), repeat=3)
            ]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for p in points:
                    try:
                        q = inverse_kinematics(p, g, backend)
                    except SampleError:
                        continue
                    assert all(map(math.isfinite, q))


LINKS = st.floats(2.0**-16, 2.0**16)
GEOMETRIES = st.builds(DeviceGeometry, LINKS, LINKS, LINKS, LINKS)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# The range of the s16.13 sincos TFB, and the hybrid IK's input range.
TFB_ANGLES = st.floats(S16_13.min_value, S16_13.max_value)
COORDS = st.floats(-_COORD_MAX, _COORD_MAX)


def finite_or_refused(call, operand, g, backend):
    """``call(operand, g, backend)`` returns finite values or raises a
    SampleError."""
    try:
        result = call(operand, g, backend)
    except SampleError:
        return
    assert all(map(math.isfinite, result)), (operand, g, result)


class TestFiniteResults:
    # FK and IK return their backend's values unchecked: for finite
    # operands within the hybrid datapath's ranges, each must be finite.
    # With warnings turned into errors, a float32 overflow fails the test.

    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(g=GEOMETRIES, q=st.tuples(FINITE, FINITE, FINITE), p=st.tuples(FINITE, FINITE, FINITE))
    def test_oracle_on_any_finite_operand(self, g, q, p):
        finite_or_refused(forward_kinematics, q, g, ORACLE)
        finite_or_refused(inverse_kinematics, p, g, ORACLE)

    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(
        g=GEOMETRIES,
        backend=st.sampled_from(CORNER_BACKENDS),
        q=st.tuples(TFB_ANGLES, TFB_ANGLES, TFB_ANGLES),
        p=st.tuples(COORDS, COORDS, COORDS),
    )
    def test_hybrid_within_its_ranges(self, g, backend, q, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            finite_or_refused(forward_kinematics, q, g, backend)
            finite_or_refused(inverse_kinematics, p, g, backend)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hybrid_ik_refuses_a_non_finite_plain_tuple(bad):
    # A plain tuple is checked as a CartesianPosition on entry, before the
    # hybrid input range check or F2FP sees it.
    with pytest.raises(NonFiniteSignal, match="^y must be finite$"):
        inverse_kinematics((0.1, bad, 0.0), backend=Hybrid())


@pytest.mark.parametrize(
    "operand", [5, None, (0.1, 0.2), (0.1, 0.2, 0.3, 0.4)], ids=["int", "None", "two", "four"]
)
@pytest.mark.parametrize("fn", [forward_kinematics, jacobian], ids=["fk", "jacobian"])
def test_operand_that_is_not_three_values_is_refused(fn, operand):
    with pytest.raises(ValueError, match="^expected the three values theta1, theta2, theta3$"):
        fn(operand)


class TestForwardKinematics:
    def test_home_pose(self):
        g = DEFAULT_GEOMETRY
        p = forward_kinematics(JointAngles(0, 0, 0))
        assert p.x == 0.0
        assert p.y == pytest.approx(-g.l2 + g.l3, abs=1e-15)  # -0.110
        assert p.z == pytest.approx(g.l1 - g.l4, abs=1e-15)  # -0.035

    def test_quarter_turn(self):
        p = forward_kinematics(JointAngles(math.pi / 2, 0, 0))
        assert p.x == pytest.approx(-0.135, abs=1e-12)
        assert p.y == pytest.approx(-0.110, abs=1e-12)
        assert p.z == pytest.approx(-0.170, abs=1e-12)

    @pytest.mark.parametrize("backend", [ORACLE, Hybrid()])
    def test_zero_base_angle_zeroes_x(self, backend):
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = JointAngles(0.0, rng.uniform(0, 1.4), rng.uniform(-0.5, 1.2))
            assert forward_kinematics(q, backend=backend).x == 0.0

    def test_hybrid_rejects_angle_beyond_format_range(self):
        # s16.13 holds [-4, 4): F2FP would saturate 5 rad to 4 rad before
        # the quadrant reduction (z = -0.272 m instead of -0.126 m).
        q = JointAngles(5.0, 0.3, 0.2)
        with pytest.raises(SampleError, match="theta1 = 5.0 rad"):
            forward_kinematics(q, backend=Hybrid())
        with pytest.raises(SampleError, match="theta1 = 5.0 rad"):
            jacobian(q, backend=Hybrid())
        assert forward_kinematics(q).z == pytest.approx(-0.126, abs=1e-3)
        wide = Hybrid(CordicConfig(fmt=QFormat(18, 13)))
        assert forward_kinematics(q, backend=wide).z == pytest.approx(-0.126, abs=1e-3)

    def test_lipschitz_bound(self):
        # Each Jacobian column norm is at most L1 + L2, so the position moves
        # by at most (L1+L2) * ||delta||_1.
        rng = np.random.default_rng(7)
        bound = DEFAULT_GEOMETRY.l1 + DEFAULT_GEOMETRY.l2
        for q in sample_workspace_poses(rng, 200):
            delta = rng.uniform(-1e-3, 1e-3, 3)
            q2 = JointAngles(q.theta1 + delta[0], q.theta2 + delta[1], q.theta3 + delta[2])
            d = np.array(forward_kinematics(q2)) - np.array(
                forward_kinematics(q)
            )
            assert np.linalg.norm(d) <= bound * np.abs(delta).sum() * (1 + 1e-9)


class TestInverseKinematics:
    def test_home_position(self):
        q = inverse_kinematics(CartesianPosition(0, -0.110, -0.035))
        assert abs(q.theta1) < 1e-12
        assert abs(q.theta2) < 1e-12
        assert abs(q.theta3) < 1e-12

    def test_oracle_round_trip_example(self):
        q = JointAngles(0.3, 0.2, 0.5)
        back = inverse_kinematics(forward_kinematics(q))
        for a, b in zip(back, q):
            assert abs(a - b) <= 1e-9

    def test_round_trip_sampled(self):
        rng = np.random.default_rng(13)
        poses = sample_workspace_poses(rng, 300)
        hybrid = Hybrid()
        for q in poses:
            p = forward_kinematics(q)
            back = inverse_kinematics(p)
            assert max(
                abs(a - b) for a, b in zip(back, q)
            ) <= 1e-9
            p_h = forward_kinematics(q, backend=hybrid)
            back_h = inverse_kinematics(p_h, backend=hybrid)
            assert max(
                abs(a - b) for a, b in zip(back_h, q)
            ) <= 5e-3

    def test_theta1_ignores_y(self):
        p = CartesianPosition(0.05, -0.08, -0.04)
        p2 = CartesianPosition(0.05, -0.11, -0.04)
        for backend in (ORACLE, Hybrid()):
            a = inverse_kinematics(p, backend=backend).theta1
            b = inverse_kinematics(p2, backend=backend).theta1
            assert a == b

    def test_straight_arm_boundary(self):
        # theta3 - theta2 = pi/2 stretches the arm: r = L1 + L2, alpha = pi.
        p = forward_kinematics(JointAngles(0.0, 0.0, math.pi / 2))
        back = inverse_kinematics(p)
        assert back.theta3 - back.theta2 == pytest.approx(math.pi / 2, abs=1e-6)

    def test_degenerate_vertical_axis(self):
        # x = 0, z = -L4 puts the tool on the base axis: R = 0, theta1 = 0 and
        # beta degenerates to +-pi/2.
        p = CartesianPosition(0.0, 0.2, -0.170)
        assert inverse_kinematics(p).theta1 == 0.0
        assert inverse_kinematics(CartesianPosition(0.0, -0.15, -0.170)).theta1 == 0.0

    def test_unreachable(self):
        for backend in (ORACLE, Hybrid()):
            with pytest.raises(Unreachable):
                inverse_kinematics(CartesianPosition(0.5, 0.5, 0.5), backend=backend)

    @pytest.mark.parametrize("coord", ["x", "y", "z"])
    @pytest.mark.parametrize("value", [1e39, -1e20])
    def test_hybrid_rejects_float32_overflow(self, coord, value):
        # Rejected before the float32 cast, with no numpy overflow warning.
        p = CartesianPosition(**{"x": 0.05, "y": 0.0, "z": -0.1, coord: value})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Unreachable, match=f"^{coord} = "):
                inverse_kinematics(p, backend=Hybrid())

    def test_gamma_alpha_ranges(self):
        # alpha = theta3 - theta2 + pi/2, the elbow angle, lies in [0, pi].
        rng = np.random.default_rng(19)
        for q in sample_workspace_poses(rng, 200):
            back = inverse_kinematics(forward_kinematics(q))
            alpha = back.theta3 - back.theta2 + math.pi / 2
            assert -1e-12 <= alpha <= math.pi + 1e-12


class TestBackendConsistency:
    @pytest.mark.parametrize("iterations", [16, 10])
    def test_trajectory_deviation(self, iterations):
        hybrid = Hybrid(CordicConfig(iterations=iterations))
        worst = 0.0
        for q in _trajectory_table(load_scenario(SCENARIO_PATH).trajectory).tolist():
            po = forward_kinematics(q)
            ph = forward_kinematics(q, backend=hybrid)
            worst = max(
                worst,
                abs(po.x - ph.x),
                abs(po.y - ph.y),
                abs(po.z - ph.z),
            )
        assert worst <= 1e-3

    def test_hybrid_matches_oracle_on_random_points(self):
        rng = np.random.default_rng(23)
        hybrid = Hybrid()
        for q in sample_workspace_poses(rng, 100):
            p = forward_kinematics(q)
            qo = inverse_kinematics(p)
            qh = inverse_kinematics(p, backend=hybrid)
            assert max(
                abs(a - b) for a, b in zip(qo, qh)
            ) <= 5e-3


# Worst sin/cos error of the s16.13 TFB over every raw angle, in LSB, per
# iteration count (measured 16.12 and 0.82; test_worst_sincos_error checks
# the stated values).
WORST_SINCOS_LSB = {10: 16.2, 16: 0.9}


@pytest.mark.parametrize("iterations", [10, 16])
def test_worst_sincos_error(iterations):
    cfg = CordicConfig(iterations=iterations)
    worst = 0.0
    scale = S16_13.scale
    for raw in range(S16_13.raw_min, S16_13.raw_max + 1):
        s, c = cordic_sincos(raw, cfg)
        a = raw / scale
        worst = max(worst, abs(s - math.sin(a) * scale), abs(c - math.cos(a) * scale))
    assert worst <= WORST_SINCOS_LSB[iterations]


LINK = st.floats(2.0**-16, 2.0**16)


@pytest.mark.parametrize("iterations", [10, 16])
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    angles=st.tuples(*[st.floats(2 * S16_13.min_value, 2 * S16_13.max_value)] * 3),
    links=st.tuples(LINK, LINK, LINK, LINK),
)
def test_hybrid_fk_within_cordic_envelope(iterations, angles, links):
    # Joint angles over twice the s16.13 range and links over their whole
    # range.  An angle the format holds reaches the TFB with an F2FP rounding
    # error of at most 1/2 LSB, which moves its sine and cosine by as much,
    # so each TFB output is within e = (worst + 1/2) LSB of the oracle's.
    # x and z are sums of l1 and l2 times a product of two such outputs, each
    # at most 1 in magnitude, and y is a sum of l1 and l2 times one: every
    # coordinate is within 2 e (1 + e) (l1 + l2) of the oracle.  The float32
    # constants and the at most eight float32 roundings per coordinate add
    # less than 2^-20 (l1 + l2 + l3 + l4).
    g = DeviceGeometry(*links)
    q = JointAngles(*angles)
    backend = Hybrid(CordicConfig(iterations=iterations))
    outside = [
        (f"theta{i}", a)
        for i, a in enumerate(angles, 1)
        if not S16_13.min_value <= a <= S16_13.max_value
    ]
    if outside:
        name, a = outside[0]
        with pytest.raises(SampleError, match=f"^{name} = {re.escape(repr(a))} rad"):
            forward_kinematics(q, g, backend)
        return
    e = (WORST_SINCOS_LSB[iterations] + 0.5) * S16_13.resolution
    envelope = 2 * e * (1 + e) * (g.l1 + g.l2) + 2.0**-20 * sum(links)
    hybrid = forward_kinematics(q, g, backend)
    oracle = forward_kinematics(q, g)
    assert max(abs(h - o) for h, o in zip(hybrid, oracle)) <= envelope


def checked_oracle_ik(pos, g: DeviceGeometry):
    """`Oracle.ik` with each acos operand checked as it is computed, gamma's
    first, through the module's reach and operand checks: the reference of
    the inline checks."""
    from tactilesim.kinematics import _acos_arg_check, _reach

    x, y, z = pos
    zz = z + g.l4
    theta1 = -math.atan2(x, zz)
    big_r = math.sqrt(x * x + zz * zz)
    yy = y - g.l3
    r_sq = x * x + zz * zz + yy * yy
    r = _reach(math.sqrt(r_sq))
    g_arg = _acos_arg_check((g.l1 * g.l1 - g.l2 * g.l2 + r_sq) / (2.0 * g.l1 * r), "gamma")
    a_arg = _acos_arg_check((g.l1 * g.l1 + g.l2 * g.l2 - r_sq) / (2.0 * g.l1 * g.l2), "alpha")
    gamma = math.acos(g_arg)
    beta = math.atan2(yy, big_r)
    alpha = math.acos(a_arg)
    theta2 = gamma + beta
    theta3 = theta2 + alpha - math.pi / 2.0
    return theta1, theta2, theta3


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the type and message it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(
    angles=st.tuples(*[st.floats(-math.pi, math.pi)] * 3),
    stretch=st.sampled_from([1.0, 1.0 + 1e-7, 1.0 + 2e-6, 0.5, 3.0])
    | st.floats(0.999, 1.001),
    links=st.tuples(*[st.floats(0.01, 1.0)] * 4),
)
def test_oracle_ik_checks_as_the_reference(angles, stretch, links):
    # Reachable points, points pushed past the workspace edge by less and by
    # more than EPS_REACH, and points far outside: the same angles and
    # intermediates, or the same error.
    g = DeviceGeometry(*links)
    x, y, z = ORACLE.fk(angles, g)
    pos = (x * stretch, (y - g.l3) * stretch + g.l3, (z + g.l4) * stretch - g.l4)
    assert outcome(ORACLE.ik, pos, g) == outcome(checked_oracle_ik, pos, g)


@pytest.mark.parametrize(
    "pos, links, message",
    [
        ((0.5, 0.5, 0.5), (0.135, 0.135), "^gamma operand .* outside \\[-1, 1\\]"),
        ((0.0, 0.295 + 1.5e-7, -0.170), (0.135, 0.135), "^alpha operand .* outside \\[-1, 1\\]"),
        ((0.0, 0.025, -0.170), (0.135, 0.135), "^tool position coincides with the shoulder"),
    ],
)
def test_oracle_ik_error_order(pos, links, message):
    # Far beyond r = l1 + l2 both operands fail, and gamma's error comes
    # first.  1.5e-7 m beyond it, gamma's operand exceeds 1 by 5.6e-7 and
    # clamps, while alpha's exceeds it by 2.2e-6 > EPS_REACH.
    g = DeviceGeometry(*links, 0.025, 0.170)
    assert outcome(ORACLE.ik, pos, g) == outcome(checked_oracle_ik, pos, g)
    with pytest.raises(Unreachable, match=message):
        ORACLE.ik(pos, g)


@pytest.mark.parametrize("backend", [ORACLE, Hybrid()], ids=["oracle", "hybrid"])
def test_ik_returns_three_floats(backend):
    # The hybrid IK circuit computes float32 angles; Hybrid.ik converts them.
    p = forward_kinematics(JointAngles(0.2, 0.4, 0.3))
    angles = backend.ik(p, DEFAULT_GEOMETRY)
    assert len(angles) == 3
    assert all(type(v) is float for v in angles)
    assert all(type(v) is float for v in inverse_kinematics(p, backend=backend))


class FixedBackend:
    """A backend whose FK and IK return the given values as they are."""

    def __init__(self, values):
        self.values = values

    def fk(self, theta, g):
        return self.values

    def ik(self, pos, g):
        return self.values


@pytest.mark.parametrize(
    "fn, cls",
    [(forward_kinematics, CartesianPosition), (inverse_kinematics, JointAngles)],
    ids=["fk", "ik"],
)
class TestPublicReturns:
    # The public functions build their result without calling the class or
    # checking it: the backends return finite values for finite operands
    # (see TestFiniteResults).
    ARGS = ((0.1, 0.2, 0.3), DEFAULT_GEOMETRY)

    @pytest.mark.parametrize("values", [(0.5, -0.0, 2.0), [1, 2, 3]], ids=["tuple", "list"])
    def test_finite_result_is_the_value_type(self, fn, cls, values):
        got = fn(*self.ARGS, FixedBackend(values))
        assert type(got) is cls and got == tuple(values)
        assert [type(v) for v in got] == [type(v) for v in values]
        assert math.copysign(1.0, got[1]) == math.copysign(1.0, values[1])
