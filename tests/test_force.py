import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sample_workspace_poses
from tactilesim.force import (
    Elasticity,
    ForceVector,
    JacobianMatrix,
    feedback_force,
    jacobian,
    kinesthetic_feedback,
)
from tactilesim.kinematics import (
    CartesianPosition,
    DEFAULT_GEOMETRY,
    Hybrid,
    JointAngles,
    ORACLE,
    forward_kinematics,
)


def fd_jacobian(q: JointAngles, h: float = 1e-6) -> np.ndarray:
    """Independent oracle: central finite differences on the forward
    kinematics."""
    base = np.array(q.as_tuple())
    cols = []
    for j in range(3):
        plus = base.copy()
        plus[j] += h
        minus = base.copy()
        minus[j] -= h
        fp = np.array(forward_kinematics(JointAngles(*plus)).as_tuple())
        fm = np.array(forward_kinematics(JointAngles(*minus)).as_tuple())
        cols.append((fp - fm) / (2 * h))
    return np.stack(cols, axis=1)


class TestJacobian:
    def test_home_pose(self):
        jm = jacobian(JointAngles(0, 0, 0)).as_array()
        expected = np.array([[-0.135, 0, 0], [0, 0.135, 0], [0, 0, 0.135]])
        assert np.allclose(jm, expected, atol=1e-15)

    @pytest.mark.parametrize("backend", [ORACLE, Hybrid()])
    def test_j21_identically_zero(self, backend):
        rng = np.random.default_rng(3)
        for q in sample_workspace_poses(rng, 50):
            assert jacobian(q, backend=backend).j21 == 0.0

    def test_j21_invariant_enforced(self):
        with pytest.raises(ValueError):
            JacobianMatrix(0, 0, 0, j21=0.1, j22=0, j23=0, j31=0, j32=0, j33=0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for q in sample_workspace_poses(rng, 100):
            jm = jacobian(q).as_array()
            assert np.abs(jm - fd_jacobian(q)).max() <= 1e-6

    def test_entries_bounded_by_reach(self):
        rng = np.random.default_rng(11)
        bound = DEFAULT_GEOMETRY.l1 + DEFAULT_GEOMETRY.l2
        for q in sample_workspace_poses(rng, 100):
            assert np.abs(jacobian(q).as_array()).max() <= bound + 1e-12


class TestKinestheticFeedback:
    def test_zero_force(self):
        tau = kinesthetic_feedback(JointAngles(0.4, 0.2, 0.9), ForceVector(0, 0, 0))
        assert tau.as_tuple() == (0.0, 0.0, 0.0)

    def test_home_unit_forces(self):
        tau = kinesthetic_feedback(JointAngles(0, 0, 0), ForceVector(1, 0, 0))
        assert tau.tau1 == pytest.approx(-0.135, abs=1e-15)
        assert tau.tau2 == 0.0
        assert tau.tau3 == 0.0
        tau = kinesthetic_feedback(JointAngles(0, 0, 0), ForceVector(0, 1, 0))
        assert tau.tau1 == 0.0
        assert tau.tau2 == pytest.approx(0.135, abs=1e-15)
        assert tau.tau3 == 0.0

    def test_matches_matrix_product(self):
        rng = np.random.default_rng(13)
        for q in sample_workspace_poses(rng, 50):
            f = rng.uniform(-3, 3, 3)
            tau = np.array(
                kinesthetic_feedback(q, ForceVector(*f)).as_tuple()
            )
            expected = jacobian(q).as_array().T @ f
            assert np.allclose(tau, expected, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(17)
        q = JointAngles(0.5, 0.3, 0.6)
        hybrid = Hybrid()
        for _ in range(30):
            f1 = rng.uniform(-2, 2, 3)
            f2 = rng.uniform(-2, 2, 3)
            a, b = rng.uniform(-2, 2, 2)
            combo = kinesthetic_feedback(q, ForceVector(*(a * f1 + b * f2)))
            parts = a * np.array(
                kinesthetic_feedback(q, ForceVector(*f1)).as_tuple()
            ) + b * np.array(kinesthetic_feedback(q, ForceVector(*f2)).as_tuple())
            assert np.allclose(combo.as_tuple(), parts, atol=1e-12)
            combo_h = kinesthetic_feedback(q, ForceVector(*(a * f1 + b * f2)), backend=hybrid)
            parts_h = a * np.array(
                kinesthetic_feedback(q, ForceVector(*f1), backend=hybrid).as_tuple()
            ) + b * np.array(
                kinesthetic_feedback(q, ForceVector(*f2), backend=hybrid).as_tuple()
            )
            assert np.allclose(combo_h.as_tuple(), parts_h, atol=1e-5)

    def test_power_consistency(self):
        # tau . qdot == F . (J qdot): mechanical power must match on both
        # sides of the transpose.
        rng = np.random.default_rng(19)
        for q in sample_workspace_poses(rng, 100):
            qdot = rng.uniform(-1, 1, 3)
            f = rng.uniform(-3, 3, 3)
            tau = np.array(kinesthetic_feedback(q, ForceVector(*f)).as_tuple())
            jm = jacobian(q).as_array()
            assert abs(tau @ qdot - f @ (jm @ qdot)) <= 1e-9


class TestFeedbackForce:
    def test_zero_when_coincident(self):
        p = CartesianPosition(0.1, -0.05, -0.02)
        f = feedback_force(p, p, Elasticity(100, 100, 100))
        assert f.as_tuple() == (0.0, 0.0, 0.0)

    def test_unit_example(self):
        obj = CartesianPosition(0.06, 0.0, 0.0)
        env = CartesianPosition(0.05, 0.0, 0.0)
        f = feedback_force(obj, env, Elasticity(100, 50, 50))
        assert f.fx == pytest.approx(1.0, abs=1e-12)
        assert f.fy == 0.0
        assert f.fz == 0.0

    def test_axis_independence(self):
        h = Elasticity(80, 80, 80)
        env = CartesianPosition(0.02, 0.01, -0.03)
        a = feedback_force(CartesianPosition(0.05, 0.10, 0.07), env, h)
        b = feedback_force(CartesianPosition(0.05, 0.25, 0.07), env, h)
        assert a.fx == b.fx
        assert a.fz == b.fz
        assert a.fy != b.fy

    def test_hybrid_close_to_oracle(self):
        rng = np.random.default_rng(23)
        h = Elasticity(80, 80, 80)
        hybrid = Hybrid()
        for _ in range(50):
            obj = CartesianPosition(*rng.uniform(-0.2, 0.2, 3))
            env = CartesianPosition(*rng.uniform(-0.2, 0.2, 3))
            fo = np.array(feedback_force(obj, env, h).as_tuple())
            fh = np.array(feedback_force(obj, env, h, backend=hybrid).as_tuple())
            assert np.abs(fo - fh).max() <= 1e-5

    def test_elasticity_nonnegative(self):
        with pytest.raises(ValueError):
            Elasticity(-1.0, 0.0, 0.0)


def reference_fbf(obj: CartesianPosition, env: CartesianPosition, h: Elasticity):
    """The double-precision spring law written out per axis."""
    return (h.hx * (obj.x - env.x), h.hy * (obj.y - env.y), h.hz * (obj.z - env.z))


def reference_torque(jm: JacobianMatrix, f: ForceVector):
    """The double-precision tau = J^T F written out, J21 skipped."""
    tau1 = jm.j11 * f.fx + jm.j31 * f.fz
    tau2 = (jm.j12 * f.fx + jm.j22 * f.fy) + jm.j32 * f.fz
    tau3 = (jm.j13 * f.fx + jm.j23 * f.fy) + jm.j33 * f.fz
    return (tau1, tau2, tau3)


def _triple(lo: float, hi: float):
    return st.tuples(*[st.floats(lo, hi, allow_nan=False)] * 3)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    obj=_triple(-10.0, 10.0),
    env=_triple(-10.0, 10.0),
    h=_triple(0.0, 1e6),
    theta=_triple(-math.pi, math.pi),
    f=_triple(-1e3, 1e3),
)
def test_oracle_shared_circuits_match_reference(obj, env, h, theta, f):
    # The oracle runs the hybrid's J^T F and FBF circuits in double
    # precision; the written-out formulas pin their association bit for bit.
    obj, env, h = CartesianPosition(*obj), CartesianPosition(*env), Elasticity(*h)
    q, fv = JointAngles(*theta), ForceVector(*f)
    got = feedback_force(obj, env, h, ORACLE).as_tuple()
    assert list(map(float.hex, got)) == list(map(float.hex, reference_fbf(obj, env, h)))
    got = kinesthetic_feedback(q, fv, backend=ORACLE).as_tuple()
    want = reference_torque(jacobian(q, backend=ORACLE), fv)
    assert list(map(float.hex, got)) == list(map(float.hex, want))
