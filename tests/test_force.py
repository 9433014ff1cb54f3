import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import sample_workspace_poses
from tactilesim.force import (
    Elasticity,
    ForceVector,
    JacobianMatrix,
    feedback_force,
    feedback_force_block,
    jacobian,
    kinesthetic_feedback,
    kinesthetic_feedback_block,
)
from tactilesim.kinematics import (
    CartesianPosition,
    DEFAULT_GEOMETRY,
    DeviceGeometry,
    Hybrid,
    JointAngles,
    NonFiniteSignal,
    ORACLE,
    _jacobian_circuit,
    forward_kinematics,
)
from tactilesim.numerics import CordicConfig


def fd_jacobian(q: JointAngles, h: float = 1e-6) -> np.ndarray:
    """Independent oracle: central finite differences on the forward
    kinematics."""
    base = np.array(q)
    cols = []
    for j in range(3):
        plus = base.copy()
        plus[j] += h
        minus = base.copy()
        minus[j] -= h
        fp = np.array(forward_kinematics(JointAngles(*plus)))
        fm = np.array(forward_kinematics(JointAngles(*minus)))
        cols.append((fp - fm) / (2 * h))
    return np.stack(cols, axis=1)


class TestJacobian:
    def test_home_pose(self):
        jm = np.array(jacobian(JointAngles(0, 0, 0))).reshape(3, 3)
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
            jm = np.array(jacobian(q)).reshape(3, 3)
            assert np.abs(jm - fd_jacobian(q)).max() <= 1e-6

    def test_entries_bounded_by_reach(self):
        rng = np.random.default_rng(11)
        bound = DEFAULT_GEOMETRY.l1 + DEFAULT_GEOMETRY.l2
        for q in sample_workspace_poses(rng, 100):
            assert np.abs(np.array(jacobian(q)).reshape(3, 3)).max() <= bound + 1e-12


class TestKinestheticFeedback:
    def test_zero_force(self):
        tau = kinesthetic_feedback(JointAngles(0.4, 0.2, 0.9), ForceVector(0, 0, 0))
        assert tau == (0.0, 0.0, 0.0)

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
                kinesthetic_feedback(q, ForceVector(*f))
            )
            expected = np.array(jacobian(q)).reshape(3, 3).T @ f
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
                kinesthetic_feedback(q, ForceVector(*f1))
            ) + b * np.array(kinesthetic_feedback(q, ForceVector(*f2)))
            assert np.allclose(combo, parts, atol=1e-12)
            combo_h = kinesthetic_feedback(q, ForceVector(*(a * f1 + b * f2)), backend=hybrid)
            parts_h = a * np.array(
                kinesthetic_feedback(q, ForceVector(*f1), backend=hybrid)
            ) + b * np.array(
                kinesthetic_feedback(q, ForceVector(*f2), backend=hybrid)
            )
            assert np.allclose(combo_h, parts_h, atol=1e-5)

    def test_power_consistency(self):
        # tau . qdot == F . (J qdot): mechanical power must match on both
        # sides of the transpose.
        rng = np.random.default_rng(19)
        for q in sample_workspace_poses(rng, 100):
            qdot = rng.uniform(-1, 1, 3)
            f = rng.uniform(-3, 3, 3)
            tau = np.array(kinesthetic_feedback(q, ForceVector(*f)))
            jm = np.array(jacobian(q)).reshape(3, 3)
            assert abs(tau @ qdot - f @ (jm @ qdot)) <= 1e-9


class TestFeedbackForce:
    def test_zero_when_coincident(self):
        p = CartesianPosition(0.1, -0.05, -0.02)
        f = feedback_force(p, p, Elasticity(100, 100, 100))
        assert f == (0.0, 0.0, 0.0)

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
            fo = np.array(feedback_force(obj, env, h))
            fh = np.array(feedback_force(obj, env, h, backend=hybrid))
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


def _hex(values):
    return [float(v).hex() for v in values]


# Each backend, and the scalar type its shared circuits compute in.
PRECISIONS = {
    "oracle": (ORACLE, float),
    "hybrid-10": (Hybrid(CordicConfig(iterations=10)), np.float32),
    "hybrid-16": (Hybrid(), np.float32),
}


@pytest.mark.parametrize("backend", PRECISIONS)
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    obj=_triple(-10.0, 10.0),
    env=_triple(-10.0, 10.0),
    h=_triple(0.0, 1e6),
    theta=_triple(-math.pi, math.pi),
    f=_triple(-1e3, 1e3),
)
def test_shared_circuits_match_reference(backend, obj, env, h, theta, f):
    # Both backends run the J^T F and FBF circuits, the oracle in double
    # precision and the hybrid in float32; the written-out formulas on the
    # operands rounded to that precision pin their association bit for bit.
    backend, scalar = PRECISIONS[backend]
    obj, env, h = CartesianPosition(*obj), CartesianPosition(*env), Elasticity(*h)
    q, fv = JointAngles(*theta), ForceVector(*f)
    want = reference_fbf(*(type(v)(*map(scalar, v)) for v in (obj, env, h)))
    assert _hex(feedback_force(obj, env, h, backend)) == _hex(want)
    jm = jacobian(q, backend=backend)
    want = reference_torque(JacobianMatrix(*map(scalar, jm)), ForceVector(*map(scalar, fv)))
    assert _hex(kinesthetic_feedback(q, fv, backend=backend)) == _hex(want)


def per_sample(fn, rows, *consts):
    """``fn`` on each row's operands: the results before the first row that
    raises, and that row's exception (None when none raises)."""
    out = []
    for operands in rows:
        try:
            out.append(fn(*operands, *consts))
        except Exception as exc:
            return out, exc
    return out, None


@st.composite
def _block(draw, row, failing_row):
    """Rows of ``row``, with up to three of ``failing_row`` inserted."""
    rows = draw(st.lists(row, max_size=40))
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(failing_row))
    return rows


# Near or beyond the float32 range (3.4e38), where a float32 cast or
# product overflows; 1e303 times a spring constant of 1e6 overflows double
# precision.
_HUGE = st.sampled_from([1e37, -1e37, 3e38, -3e38, 1e39, -1e39, 1e303, -1e303])
# Angles beyond the s16.13 range [-4, 4 - 2^-13] of the sincos TFB.
_BEYOND = st.one_of(st.floats(4.0, 6.0), st.floats(-6.0, -4.0, exclude_max=True))


def _with_one(values, special):
    """A triple of ``values`` with one component drawn from ``special``."""
    return st.tuples(st.integers(0, 2), _triple(*values), special).map(
        lambda t: t[1][: t[0]] + (t[2],) + t[1][t[0] + 1 :]
    )


def _assert_same_outcome(got, want):
    (got_rows, got_exc), (want_rows, want_exc) = got, want
    assert got_rows.tobytes() == np.array(want_rows, float).reshape(-1, 3).tobytes()
    assert type(got_exc) is type(want_exc)
    assert str(got_exc) == str(want_exc)


BACKENDS = {"oracle": ORACLE, "hybrid": Hybrid(CordicConfig(iterations=10))}


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    rows=_block(
        st.tuples(_triple(-10.0, 10.0), _triple(-10.0, 10.0)),
        st.one_of(
            st.tuples(_with_one((-10.0, 10.0), _HUGE), _triple(-10.0, 10.0)),
            st.tuples(_triple(-10.0, 10.0), _with_one((-10.0, 10.0), _HUGE)),
        ),
    ),
    h=_triple(0.0, 1e6),
)
def test_feedback_force_block_is_the_per_sample_function(backend, rows, h):
    # Rows before the first failure are the per-sample forces bit for bit;
    # the failing row raises the same exception, and nothing after it runs.
    # The per-sample function is the block form on one row, so this checks
    # that rows do not interact; test_shared_circuits_match_reference checks
    # the spring law against a formula written in the test.
    backend, h = BACKENDS[backend], Elasticity(*h)
    obj = np.array([o for o, _ in rows]).reshape(-1, 3)
    env = np.array([e for _, e in rows]).reshape(-1, 3)
    want = per_sample(
        feedback_force,
        [(CartesianPosition(*o), CartesianPosition(*e)) for o, e in rows],
        h,
        backend,
    )
    _assert_same_outcome(feedback_force_block(obj, env, h, backend), want)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    rows=_block(
        st.tuples(_triple(-3.9, 3.9), _triple(-1e3, 1e3)),
        st.one_of(
            st.tuples(_with_one((-3.9, 3.9), _BEYOND), _triple(-1e3, 1e3)),
            st.tuples(_triple(-3.9, 3.9), _with_one((-1e3, 1e3), _HUGE)),
        ),
    )
)
# A hybrid torque row that overflows, before and after an angle beyond the
# TFB range: the earlier row's exception wins.
@example(rows=[((0.1, 0.2, 0.3), (1.0, 2.0, 3.0)), ((0.1, 0.2, 0.3), (1e39, 0.0, 0.0)),
               ((4.5, 0.0, 0.0), (1.0, 1.0, 1.0))])
@example(rows=[((0.1, 0.2, 0.3), (1.0, 2.0, 3.0)), ((4.5, 0.0, 0.0), (1.0, 1.0, 1.0)),
               ((0.1, 0.2, 0.3), (1e39, 0.0, 0.0))])
def test_kinesthetic_feedback_block_is_the_per_sample_function(backend, rows):
    backend = BACKENDS[backend]
    q = np.array([t for t, _ in rows]).reshape(-1, 3)
    f = np.array([v for _, v in rows]).reshape(-1, 3)
    want = per_sample(
        kinesthetic_feedback,
        [(JointAngles(*t), ForceVector(*v)) for t, v in rows],
        DEFAULT_GEOMETRY,
        backend,
    )
    _assert_same_outcome(kinesthetic_feedback_block(q, f, DEFAULT_GEOMETRY, backend), want)


_LINK = st.floats(1 / 2**16, 2.0**16)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    rows=st.lists(
        st.tuples(*[st.one_of(st.floats(-10.0, 10.0), st.sampled_from([-0.0, 1e6, -3e15]))] * 3),
        max_size=40,
    ),
    links=st.tuples(_LINK, _LINK, _LINK, _LINK),
)
def test_oracle_jacobian_block_is_the_per_sample_jacobian(rows, links):
    # np.sin and np.cos over a column, and over the one row of the
    # per-sample Jacobian, give math.sin and math.cos of each row, and the
    # column operators the float ones, bit for bit.
    g = DeviceGeometry(*links)
    table = np.zeros((len(rows), 5))
    table[:, 1:4] = np.array(rows).reshape(-1, 3)
    got, error = ORACLE.jacobian_block(table[:, 1:4], g)
    assert error is None
    want = np.array([libm_jacobian(row, g) for row in rows]).reshape(-1, 8)
    assert got.tobytes() == want.tobytes()
    for row, entries in zip(rows, want):
        jm = jacobian(JointAngles(*row), g)
        assert jm.j21 == 0.0
        assert _hex(jm[:3] + jm[4:]) == _hex(entries)


# The s16.13 range [-4, 4 - 2^-13] of the sincos TFB.
_INSIDE = st.floats(-4.0, 4.0 - 2.0**-13)


@pytest.mark.parametrize("iterations", [10, 16])
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    rows=st.lists(st.tuples(_INSIDE, _INSIDE, _INSIDE), max_size=40),
    links=st.tuples(_LINK, _LINK, _LINK, _LINK),
)
def test_hybrid_jacobian_block_is_the_scalar_circuit(iterations, rows, links):
    # The Jacobian circuit on the scalar Hybrid policy, one sincos TFB call
    # and one float32 scalar operation at a time, is the reference for the
    # column policy that jacobian_block runs, bit for bit.
    backend, g = Hybrid(CordicConfig(iterations=iterations)), DeviceGeometry(*links)
    want = np.array(
        [_jacobian_circuit(backend, g._f32, row) for row in rows], float
    ).reshape(-1, 8)
    got, error = backend.jacobian_block(np.array(rows).reshape(-1, 3), g)
    assert error is None
    assert got.tobytes() == want.tobytes()
    for row, entries in zip(rows, want):
        jm = jacobian(JointAngles(*row), g, backend)
        assert jm.j21 == 0.0
        assert _hex(jm[:3] + jm[4:]) == _hex(entries)


def libm_jacobian(theta, g: DeviceGeometry):
    """The oracle Jacobian without J21, in row order, on libm's sine and
    cosine of three floats."""
    s1, c1 = math.sin(theta[0]), math.cos(theta[0])
    s2, c2 = math.sin(theta[1]), math.cos(theta[1])
    s3, c3 = math.sin(theta[2]), math.cos(theta[2])
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


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("column", [0, 1, 2])
def test_oracle_jacobian_refuses_a_non_finite_angle(bad, column):
    # The rows before the first non-finite angle, and that row's
    # NonFiniteSignal; a later non-finite row is not reached.
    theta = np.array([[0.1, -0.2, 0.3], [1.0, 0.5, -2.0], [0.4, 0.6, 0.8], [0.2, 0.2, 0.2]])
    theta[2, column] = bad
    theta[3, 0] = math.nan
    rows, error = ORACLE.jacobian_block(theta, DEFAULT_GEOMETRY)
    want = np.array([libm_jacobian(row, DEFAULT_GEOMETRY) for row in theta[:2].tolist()])
    assert rows.tobytes() == want.tobytes()
    message = f"theta{column + 1} must be finite"
    assert type(error) is NonFiniteSignal
    assert str(error) == message
    # The per-sample functions take a plain tuple unchecked; they raise the
    # same error, with no warning and no NaN.
    q = tuple(theta[2].tolist())
    with pytest.raises(NonFiniteSignal, match=f"^{message}$"):
        jacobian(q)
    with pytest.raises(NonFiniteSignal, match=f"^{message}$"):
        kinesthetic_feedback(q, (1.0, 2.0, 3.0))
