import math
import warnings

import numpy as np
import pytest

from conftest import sample_workspace_poses
from tactilesim.kinematics import (
    CartesianPosition,
    DEFAULT_GEOMETRY,
    DeviceGeometry,
    Hybrid,
    JointAngles,
    ORACLE,
    SampleError,
    Unreachable,
    forward_kinematics,
    ik_intermediates,
    inverse_kinematics,
)
from tactilesim.force import jacobian
from tactilesim.numerics import CordicConfig, QFormat
from tactilesim.pipeline import TrajectorySpec, generate_trajectory


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
            d = np.array(forward_kinematics(q2).as_tuple()) - np.array(
                forward_kinematics(q).as_tuple()
            )
            assert np.linalg.norm(d) <= bound * np.abs(delta).sum() * (1 + 1e-9)


class TestInverseKinematics:
    def test_home_position(self):
        q = inverse_kinematics(CartesianPosition(0, -0.110, -0.035))
        assert abs(q.theta1) < 1e-12
        assert abs(q.theta2) < 1e-12
        assert abs(q.theta3) < 1e-12

    def test_home_intermediates(self):
        inter = ik_intermediates(CartesianPosition(0, -0.110, -0.035))
        assert inter.big_r == pytest.approx(0.135, abs=1e-15)
        assert inter.r == pytest.approx(math.sqrt(0.03645), abs=1e-15)
        assert inter.gamma == pytest.approx(math.pi / 4, abs=1e-12)
        assert inter.beta == pytest.approx(-math.pi / 4, abs=1e-12)
        assert inter.alpha == pytest.approx(math.pi / 2, abs=1e-12)

    def test_oracle_round_trip_example(self):
        q = JointAngles(0.3, 0.2, 0.5)
        back = inverse_kinematics(forward_kinematics(q))
        for a, b in zip(back.as_tuple(), q.as_tuple()):
            assert abs(a - b) <= 1e-9

    def test_round_trip_sampled(self):
        rng = np.random.default_rng(13)
        poses = sample_workspace_poses(rng, 300)
        hybrid = Hybrid()
        for q in poses:
            p = forward_kinematics(q)
            back = inverse_kinematics(p)
            assert max(
                abs(a - b) for a, b in zip(back.as_tuple(), q.as_tuple())
            ) <= 1e-9
            p_h = forward_kinematics(q, backend=hybrid)
            back_h = inverse_kinematics(p_h, backend=hybrid)
            assert max(
                abs(a - b) for a, b in zip(back_h.as_tuple(), q.as_tuple())
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
        inter = ik_intermediates(p)
        assert inter.r == pytest.approx(0.27, abs=1e-12)
        assert inter.alpha == pytest.approx(math.pi, abs=1e-6)
        back = inverse_kinematics(p)
        assert back.theta3 - back.theta2 == pytest.approx(math.pi / 2, abs=1e-6)

    def test_degenerate_vertical_axis(self):
        # x = 0, z = -L4 puts the tool on the base axis: R = 0, theta1 = 0 and
        # beta degenerates to +-pi/2.
        p = CartesianPosition(0.0, 0.2, -0.170)
        inter = ik_intermediates(p)
        assert inter.big_r == 0.0
        assert inter.beta == pytest.approx(math.pi / 2, abs=1e-12)
        assert inverse_kinematics(p).theta1 == 0.0
        below = CartesianPosition(0.0, -0.15, -0.170)
        assert ik_intermediates(below).beta == pytest.approx(-math.pi / 2, abs=1e-12)

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
        rng = np.random.default_rng(19)
        for q in sample_workspace_poses(rng, 200):
            inter = ik_intermediates(forward_kinematics(q))
            assert 0.0 <= inter.gamma <= math.pi
            assert 0.0 <= inter.alpha <= math.pi
            assert inter.r > 0


class TestBackendConsistency:
    @pytest.mark.parametrize("iterations", [16, 10])
    def test_trajectory_deviation(self, iterations):
        hybrid = Hybrid(CordicConfig(iterations=iterations))
        worst = 0.0
        for q in generate_trajectory(TrajectorySpec.default()):
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
                abs(a - b) for a, b in zip(qo.as_tuple(), qh.as_tuple())
            ) <= 5e-3
