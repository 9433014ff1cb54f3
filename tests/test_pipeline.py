import math

import numpy as np
import pytest

from tactilesim.channel import ChannelConfig, ConstantDelay
from tactilesim.force import Elasticity
from tactilesim.kinematics import Hybrid, JointAngles, NonFiniteSignal, ORACLE, Unreachable
from tactilesim.numerics import CordicConfig
from tactilesim.pipeline import (
    MODULE_SIGNALS,
    Scene,
    SeriesLengthMismatch,
    SimulationTrace,
    TrajectorySegment,
    TrajectorySpec,
    compute_mse,
    generate_trajectory,
    hardware_time_limit,
    mse_table,
    read_trace_csv,
    run_pipeline,
    speedup_report,
    write_trace_csv,
)


def transparent() -> ChannelConfig:
    return ChannelConfig.transparent()


class TestTrajectory:
    def test_default_spec(self):
        spec = TrajectorySpec.default()
        assert spec.q == 1200
        assert spec.sample_period == 0.01
        traj = generate_trajectory(spec)
        assert len(traj) == 1200
        assert traj[0].as_tuple() == (0.0, 0.0, 0.0)
        assert traj[399].as_tuple() == (math.pi / 2, 0.0, 0.0)
        assert traj[400].as_tuple() == (math.pi / 2, 0.0, 0.0)
        assert traj[1199].as_tuple() == (math.pi / 2, math.pi / 4, math.pi / 4)

    def test_ramp_midpoint(self):
        traj = generate_trajectory(TrajectorySpec.default())
        # halfway through the first segment
        assert traj[200].theta1 == pytest.approx(math.pi / 2 * 200 / 399)

    def test_q_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TrajectorySpec(
                segments=(TrajectorySegment(0, 0.0, 1.0, 100),),
                total_samples=99,
            )

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            TrajectorySegment(3, 0.0, 1.0, 10)
        with pytest.raises(ValueError):
            TrajectorySegment(0, 0.0, 1.0, 0)

    def test_single_sample_segment(self):
        spec = TrajectorySpec(segments=(TrajectorySegment(1, 0.0, 0.5, 1),))
        traj = generate_trajectory(spec)
        assert traj[0].theta2 == 0.5


class TestScene:
    def test_free_space_never_touches(self):
        scene = Scene.free_space(Elasticity(80, 80, 80))
        from tactilesim.kinematics import CartesianPosition

        tool = CartesianPosition(0.1, 0.0, -0.1)
        assert scene.object_position(5, tool) == tool

    def test_plane_projection(self):
        from tactilesim.kinematics import CartesianPosition

        scene = Scene.contact_plane((0, 0, 1.0), offset=0.0, elasticity=Elasticity(1, 1, 1))
        inside = CartesianPosition(0.0, 0.0, -0.1)
        assert scene.object_position(0, inside) == inside
        beyond = CartesianPosition(0.2, 0.1, 0.05)
        touch = scene.object_position(0, beyond)
        assert touch.x == beyond.x and touch.y == beyond.y
        assert touch.z == pytest.approx(0.0, abs=1e-15)

    def test_plane_projection_matches_array_form(self):
        # The projection p - depth * n on Python floats gives the bits of the
        # same expression on numpy arrays.
        from tactilesim.kinematics import CartesianPosition

        normal = np.array((-2.0, 2.0, 1.0)) / 3.0
        scene = Scene.contact_plane(normal, 0.01, Elasticity(1, 1, 1))
        nvec = normal / np.linalg.norm(normal)
        for p in np.random.default_rng(4).uniform(-0.3, 0.3, (2000, 3)):
            got = scene.object_position(0, CartesianPosition(*p.tolist())).as_tuple()
            depth = float(nvec @ p) - 0.01
            want = tuple(p - depth * nvec) if depth > 0 else tuple(p)
            assert got == want

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            Scene.contact_plane((0, 0, 0), 0.0, Elasticity(1, 1, 1))

    def test_overflowing_normal_rejected(self):
        with pytest.raises(ValueError, match="finite nonzero norm"):
            Scene.contact_plane((1e308, 1e308, 0.0), 0.0, Elasticity(1, 1, 1))


class TestBudget:
    def test_hardware_time_limit_exact(self):
        assert hardware_time_limit(1e-3) == 37.5e-6
        assert hardware_time_limit(10e-3) == 375e-6
        assert hardware_time_limit(0.0) == 0.0

    def test_linear(self):
        rng = np.random.default_rng(3)
        for t in rng.uniform(0, 0.1, 50):
            assert hardware_time_limit(2 * t) == pytest.approx(
                2 * hardware_time_limit(t), rel=1e-12
            )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hardware_time_limit(-1e-3)

    def test_speedups(self):
        assert speedup_report(403e-9, [1e-3, 10e-3]) == [(1e-3, 93), (10e-3, 930)]

    def test_speedup_of_exact_budget_is_one(self):
        limit = 1e-3
        assert speedup_report(hardware_time_limit(limit), [limit])[0][1] == 1

    def test_speedup_needs_positive_hardware_time(self):
        with pytest.raises(ValueError):
            speedup_report(0.0, [1e-3])


class TestMse:
    def test_identical_series(self):
        a = np.linspace(0, 1, 100)
        assert compute_mse(a, a) == 0.0

    def test_constant_offset(self):
        a = np.zeros(640)
        b = np.full(640, 1e-3)
        assert compute_mse(a, b) == pytest.approx(1e-6, rel=1e-12)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.uniform(-1, 1, 64)
            b = rng.uniform(-1, 1, 64)
            m = compute_mse(a, b)
            assert m >= 0
            assert m == compute_mse(b, a)
            assert compute_mse(a, a) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(SeriesLengthMismatch):
            compute_mse(np.zeros(3), np.zeros(4))
        with pytest.raises(SeriesLengthMismatch):
            compute_mse(np.zeros(0), np.zeros(0))


class TestRunPipeline:
    def test_loop_transparency(self):
        trace = run_pipeline(
            TrajectorySpec.default(), Scene.default(), transparent(), transparent(), ORACLE
        )
        l = np.stack([trace.signals[k] for k in ("l_x", "l_y", "l_z")])
        c = np.stack([trace.signals[k] for k in ("c_x", "c_y", "c_z")])
        assert np.abs(l - c).max() <= 1e-9

    def test_object_at_tool_gives_zero_force(self):
        scene = Scene.free_space(Elasticity(500, 500, 500))
        trace = run_pipeline(
            TrajectorySpec.default(), scene, transparent(), transparent(), ORACLE
        )
        for k in ("h_x", "h_y", "h_z"):
            assert np.array_equal(trace.signals[k], np.zeros(trace.q))

    def test_determinism(self):
        def once():
            return run_pipeline(
                TrajectorySpec.default(),
                Scene.default(),
                ChannelConfig(noise_variance=1e-8, seed=5),
                ChannelConfig(noise_variance=1e-8, seed=6),
                ORACLE,
                shadow=Hybrid(),
            )

        a, b = once(), once()
        for key in a.signals:
            assert np.array_equal(a.signals[key], b.signals[key])
        for key in a.shadow_signals:
            assert np.array_equal(a.shadow_signals[key], b.shadow_signals[key])

    def test_dual_backend_mse_table(self):
        trace = run_pipeline(
            TrajectorySpec.default(),
            Scene.default(),
            transparent(),
            transparent(),
            ORACLE,
            shadow=Hybrid(CordicConfig(iterations=10)),
        )
        rows = mse_table(trace)
        assert len(rows) == 15
        modules = {r["module"] for r in rows}
        assert modules == set(MODULE_SIGNALS)
        assert all(r["mse"] >= 0 for r in rows)

    def test_hybrid_driver_with_oracle_shadow(self):
        # With the hybrid driving, the FK comparison is unchanged (both
        # backends see the shared trajectory input), while the IK difference
        # shrinks: the vectoring stage retraces the micro-rotations that
        # synthesized the hybrid position, so those errors largely cancel.
        trace = run_pipeline(
            TrajectorySpec.default(),
            Scene.default(),
            transparent(),
            transparent(),
            Hybrid(CordicConfig(iterations=10)),
            shadow=ORACLE,
        )
        assert trace.driver == "hybrid" and trace.shadow == "oracle"
        rows = {(r["module"], r["signal"]): r["mse"] for r in mse_table(trace)}
        assert len(rows) == 15
        assert all(v >= 0.0 for v in rows.values())
        assert 1e-9 <= rows[("FK-HMD", "c_x")] <= 1e-7
        assert rows[("IK-HSD", "theta_hsd_1")] < 1e-7

    def test_single_backend_has_no_mse(self):
        trace = run_pipeline(
            TrajectorySpec.default(), Scene.default(), transparent(), transparent(), ORACLE
        )
        assert trace.shadow is None
        with pytest.raises(ValueError):
            mse_table(trace)

    def test_unreachable_reports_sample_index(self):
        # A heavily disturbed forward channel throws the commanded position
        # outside the workspace.
        fc = ChannelConfig(noise_variance=1.0, seed=3)
        with pytest.raises(Unreachable) as err:
            run_pipeline(
                TrajectorySpec.default(), Scene.default(), fc, transparent(), ORACLE
            )
        assert err.value.sample_index is not None
        assert "sample" in str(err.value)

    def test_non_finite_signal_reports_sample_index(self):
        # The held force overflows the hybrid's float32 cast: tau is inf.
        bc = ChannelConfig(delay=ConstantDelay(2), initial_hold=(1e308, 0.0, 0.0))
        with pytest.raises(NonFiniteSignal, match="^sample 0: tau1 must be finite$") as err:
            run_pipeline(
                TrajectorySpec.default(), Scene.default(), transparent(), bc, Hybrid()
            )
        assert err.value.sample_index == 0

    def test_fcs_lag(self):
        spec = TrajectorySpec.default()
        pole = 0.5
        trace = run_pipeline(
            spec, Scene.default(), transparent(), transparent(), ORACLE, fcs_pole=pole
        )
        theta_hsd = trace.signals["theta_hsd_1"]
        theta_sd = trace.signals["theta_sd_1"]
        expected = np.empty_like(theta_hsd)
        expected[0] = theta_hsd[0]
        for n in range(1, len(theta_hsd)):
            expected[n] = pole * expected[n - 1] + (1 - pole) * theta_hsd[n]
        assert np.allclose(theta_sd, expected, atol=1e-12)
        # the lagging slave trails the ramping command
        assert theta_sd[200] < theta_hsd[200]

    def test_delayed_channel_shifts_command(self):
        d = 5
        fc = ChannelConfig(delay=ConstantDelay(d))
        trace = run_pipeline(
            TrajectorySpec.default(), Scene.default(), fc, transparent(), ORACLE
        )
        c = trace.signals["c_x"]
        v = trace.signals["v_x"]
        assert np.array_equal(v[d:], c[:-d])

    def test_invalid_pole_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline(
                TrajectorySpec.default(),
                Scene.default(),
                transparent(),
                transparent(),
                ORACLE,
                fcs_pole=1.0,
            )

    def test_force_backends_agree_during_free_motion(self):
        # Mid-trajectory (sample 600) the tool is clear of the contact plane,
        # so both backends synthesize exactly zero force.
        trace = run_pipeline(
            TrajectorySpec.default(),
            Scene.default(),
            transparent(),
            transparent(),
            ORACLE,
            shadow=Hybrid(CordicConfig(iterations=10)),
        )
        for k in ("h_x", "h_y", "h_z"):
            assert abs(trace.signals[k][600] - trace.shadow_signals[k][600]) <= 1e-12


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        trace = run_pipeline(
            TrajectorySpec.default(), Scene.default(), transparent(), transparent(), ORACLE
        )
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path, "oracle")
        header, data = read_trace_csv(path)
        assert header[0] == "n"
        view = trace.view("oracle")
        for i, name in enumerate(header):
            assert np.array_equal(data[:, i], view[name])

    def test_view_of_unknown_backend(self):
        trace = run_pipeline(
            TrajectorySpec.default(), Scene.default(), transparent(), transparent(), ORACLE
        )
        with pytest.raises(KeyError):
            trace.view("hybrid")
