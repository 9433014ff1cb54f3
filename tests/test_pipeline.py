import errno
import importlib.util
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import sample_workspace_poses
from tactilesim import kinematics, pipeline
from tactilesim.channel import ChannelConfig, ConstantDelay, RandomWalkDelay
from tactilesim.force import Elasticity, ForceVector, feedback_force, kinesthetic_feedback
from tactilesim.kinematics import (
    DEFAULT_GEOMETRY,
    CartesianPosition,
    Hybrid,
    JointAngles,
    NonFiniteSignal,
    ORACLE,
    Oracle,
    SampleError,
    Unreachable,
    forward_kinematics,
    inverse_kinematics,
)
from tactilesim.numerics import CordicConfig
from tactilesim.pipeline import (
    MODULE_SIGNALS,
    Scene,
    SeriesLengthMismatch,
    SimulationTrace,
    TraceWriter,
    TrajectorySegment,
    TrajectorySpec,
    compute_mse,
    hardware_time_limit,
    mse_table,
    read_trace_csv,
    run_pipeline,
    speedup_report,
    write_trace_csv,
)
from tactilesim.scenario import load_scenario, parse_scenario


# The shipped validation scenario's trajectory and contact plane.
SHIPPED = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "default.yaml")


class TestTrajectory:
    def test_default_spec(self):
        spec = SHIPPED.trajectory
        assert spec.q == 1200
        assert spec.sample_period == 0.01
        traj = pipeline._trajectory_table(spec).tolist()
        assert len(traj) == 1200
        assert traj[0] == [0.0, 0.0, 0.0]
        assert traj[399] == [math.pi / 2, 0.0, 0.0]
        assert traj[400] == [math.pi / 2, 0.0, 0.0]
        assert traj[1199] == [math.pi / 2, math.pi / 4, math.pi / 4]

    def test_ramp_midpoint(self):
        traj = pipeline._trajectory_table(SHIPPED.trajectory)
        # halfway through the first segment
        assert traj[200, 0] == pytest.approx(math.pi / 2 * 200 / 399)

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

    @pytest.mark.parametrize(
        "joint, samples, name",
        [
            (True, 3, "joint"),
            (False, 3, "joint"),
            (1.0, 3, "joint"),
            (np.float64(2.0), 3, "joint"),
            (0, True, "samples"),
            (0, 2.5, "samples"),
            (0, 3.0, "samples"),
            (0, "3", "samples"),
        ],
    )
    def test_segment_refuses_a_bool_or_non_integer(self, joint, samples, name):
        value = joint if name == "joint" else samples
        with pytest.raises(ValueError) as err:
            TrajectorySegment(joint, 0.0, 1.0, samples)
        assert str(err.value) == f"{name} must be an integer, got {value!r}"

    @pytest.mark.parametrize("integer", [np.int64, np.int8, int])
    def test_segment_takes_any_index_integer(self, integer):
        spec = TrajectorySpec(segments=(TrajectorySegment(integer(2), 0.0, 1.0, integer(3)),))
        assert pipeline._trajectory_table(spec).tolist() == [
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 0.5],
            [0.0, 0.0, 1.0],
        ]

    @pytest.mark.parametrize("field", ["start", "end"])
    @pytest.mark.parametrize("big", [10**400, -(10**400)], ids=["positive", "negative"])
    def test_integer_beyond_the_float_range_rejected(self, field, big):
        # math.isfinite raised a raw OverflowError on it.
        values = {"start": 0, "end": 1, field: big}
        with pytest.raises(ValueError) as err:
            TrajectorySegment(0, values["start"], values["end"], 3)
        assert str(err.value) == f"{field} is an integer beyond the float range"

    def test_huge_counts_show_their_digit_count(self):
        segment = TrajectorySegment(0, 0.0, 1.0, 10**300)
        with pytest.raises(ValueError) as err:
            TrajectorySpec(segments=(segment,), total_samples=10**25)
        assert str(err.value) == (
            "total_samples is an integer of 26 digits but segments sum to an integer of 301 digits"
        )
        with pytest.raises(ValueError) as err:
            TrajectorySegment(-(10**300), 0.0, 1.0, 3)
        assert str(err.value) == "joint must be 0, 1 or 2, got a negative integer of 301 digits"

    def test_single_sample_segment(self):
        spec = TrajectorySpec(segments=(TrajectorySegment(1, 0.0, 0.5, 1),))
        traj = pipeline._trajectory_table(spec)
        assert traj[0, 1] == 0.5

    @pytest.mark.parametrize("field", ["start", "end"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_ramp_rejected(self, field, bad):
        # An infinite end used to build, and the run then failed with
        # "theta1 must be finite" and no sample index.
        values = {"start": 0.0, "end": 1.0, field: bad}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            TrajectorySegment(0, values["start"], values["end"], 3)

    def test_overflowing_ramp_rejected(self):
        with pytest.raises(ValueError, match="^end - start must be finite"):
            TrajectorySegment(0, -1e308, 1e308, 3)

    def test_ramp_rounding_past_the_float_range_names_its_sample(self):
        # end - start rounds down, a tie, and start + (end - start) then
        # ties at the overflow threshold: the ramp's last angle is inf.
        seg = TrajectorySegment(0, 3 * 2.0**970, sys.float_info.max, 2)
        with pytest.raises(NonFiniteSignal, match="^sample 1: theta1 must be finite$") as err:
            run_pipeline(
                TrajectorySpec(segments=(seg,)), SHIPPED.scene, ChannelConfig(), ChannelConfig()
            )
        assert err.value.sample_index == 1


class TestScene:
    def test_free_space_never_touches(self):
        scene = Scene(Elasticity(80, 80, 80))
        from tactilesim.kinematics import CartesianPosition

        tool = CartesianPosition(0.1, 0.0, -0.1)
        assert scene.object_position(tool) == tool

    def test_plane_projection(self):
        from tactilesim.kinematics import CartesianPosition

        scene = Scene(Elasticity(1, 1, 1), (0, 0, 1.0), 0.0)
        inside = CartesianPosition(0.0, 0.0, -0.1)
        assert scene.object_position(inside) == inside
        beyond = CartesianPosition(0.2, 0.1, 0.05)
        touch = scene.object_position(beyond)
        assert touch.x == beyond.x and touch.y == beyond.y
        assert touch.z == pytest.approx(0.0, abs=1e-15)

    def test_plane_projection_matches_array_form(self):
        # The projection p - depth * n on Python floats gives the bits of the
        # same expression on numpy arrays.
        from tactilesim.kinematics import CartesianPosition

        normal = np.array((-2.0, 2.0, 1.0)) / 3.0
        scene = Scene(Elasticity(1, 1, 1), normal, 0.01)
        nvec = normal / np.linalg.norm(normal)
        for p in np.random.default_rng(4).uniform(-0.3, 0.3, (2000, 3)):
            got = scene.object_position(CartesianPosition(*p.tolist()))
            depth = float(nvec @ p) - 0.01
            want = tuple(p - depth * nvec) if depth > 0 else tuple(p)
            assert got == want

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_offset_rejected(self, bad):
        # An infinite offset used to build a plane that never touches, a NaN
        # one a run that failed at sample 0.
        with pytest.raises(ValueError, match="^plane offset must be finite"):
            Scene(Elasticity(1, 1, 1), (0, 0, 1.0), bad)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            Scene(Elasticity(1, 1, 1), (0, 0, 0), 0.0)

    def test_overflowing_normal_rejected(self):
        with pytest.raises(ValueError, match="finite nonzero norm"):
            Scene(Elasticity(1, 1, 1), (1e308, 1e308, 0.0), 0.0)

    def test_scenario_loads_compare_equal(self):
        # A scene is data: two reads of one file give equal, hashable
        # scenarios.
        path = Path(__file__).resolve().parent.parent / "scenarios" / "default.yaml"
        a, b = load_scenario(path), load_scenario(path)
        assert a.scene == b.scene and a == b
        assert hash(a) == hash(b)

    def test_direct_construction_is_checked(self):
        # Every Scene normalises and checks its plane.
        h = Elasticity(1, 1, 1)
        plane = Scene(h, [0, 0, 2], 1)
        assert plane == Scene(h, (0.0, 0.0, 1.0), 1.0)
        assert plane.normal == (0.0, 0.0, 1.0) and type(plane.offset) is float
        assert Scene(h).normal is None and Scene(h).offset is None
        with pytest.raises(ValueError, match="^a plane needs both a normal and an offset$"):
            Scene(h, (0, 0, 1.0))
        with pytest.raises(ValueError, match="^a plane needs both a normal and an offset$"):
            Scene(h, offset=0.0)
        with pytest.raises(ValueError, match=r"^plane normal must have three components"):
            Scene(h, (0.0, 1.0), 0.0)
        with pytest.raises(ValueError, match="^plane offset must be finite"):
            Scene(h, (0, 0, 1.0), math.nan)
        # No surface callable: the normal must be numbers.
        with pytest.raises(TypeError):
            Scene(h, lambda tool: tool, 0.0)


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
            SHIPPED.trajectory, SHIPPED.scene, ChannelConfig(), ChannelConfig(), ORACLE
        )
        l = np.stack([trace.signals[k] for k in ("l_x", "l_y", "l_z")])
        c = np.stack([trace.signals[k] for k in ("c_x", "c_y", "c_z")])
        assert np.abs(l - c).max() <= 1e-9

    def test_object_at_tool_gives_zero_force(self):
        scene = Scene(Elasticity(500, 500, 500))
        trace = run_pipeline(
            SHIPPED.trajectory, scene, ChannelConfig(), ChannelConfig(), ORACLE
        )
        for k in ("h_x", "h_y", "h_z"):
            assert np.array_equal(trace.signals[k], np.zeros(trace.q))

    def test_determinism(self):
        def once():
            return run_pipeline(
                SHIPPED.trajectory,
                SHIPPED.scene,
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
            SHIPPED.trajectory,
            SHIPPED.scene,
            ChannelConfig(),
            ChannelConfig(),
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
            SHIPPED.trajectory,
            SHIPPED.scene,
            ChannelConfig(),
            ChannelConfig(),
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
            SHIPPED.trajectory, SHIPPED.scene, ChannelConfig(), ChannelConfig(), ORACLE
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
                SHIPPED.trajectory, SHIPPED.scene, fc, ChannelConfig(), ORACLE
            )
        assert err.value.sample_index is not None
        assert "sample" in str(err.value)

    def test_non_finite_signal_reports_sample_index(self):
        # The held force overflows the hybrid's float32 cast: tau is inf.
        bc = ChannelConfig(delay=ConstantDelay(2), initial_hold=(1e308, 0.0, 0.0))
        with pytest.raises(NonFiniteSignal, match="^sample 0: tau1 must be finite$") as err:
            run_pipeline(
                SHIPPED.trajectory, SHIPPED.scene, ChannelConfig(), bc, Hybrid()
            )
        assert err.value.sample_index == 0

    def test_fcs_lag(self):
        spec = SHIPPED.trajectory
        pole = 0.5
        trace = run_pipeline(
            spec, SHIPPED.scene, ChannelConfig(), ChannelConfig(), ORACLE, fcs_pole=pole
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
            SHIPPED.trajectory, SHIPPED.scene, fc, ChannelConfig(), ORACLE
        )
        c = trace.signals["c_x"]
        v = trace.signals["v_x"]
        assert np.array_equal(v[d:], c[:-d])

    def test_invalid_pole_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline(
                SHIPPED.trajectory,
                SHIPPED.scene,
                ChannelConfig(),
                ChannelConfig(),
                ORACLE,
                fcs_pole=1.0,
            )

    def test_force_backends_agree_during_free_motion(self):
        # Mid-trajectory (sample 600) the tool is clear of the contact plane,
        # so both backends synthesize exactly zero force.
        trace = run_pipeline(
            SHIPPED.trajectory,
            SHIPPED.scene,
            ChannelConfig(),
            ChannelConfig(),
            ORACLE,
            shadow=Hybrid(CordicConfig(iterations=10)),
        )
        for k in ("h_x", "h_y", "h_z"):
            assert abs(trace.signals[k][600] - trace.shadow_signals[k][600]) <= 1e-12


# Longer than one block of the stage pass and not a multiple of it.
LONG_SPEC = TrajectorySpec(
    segments=(
        TrajectorySegment(0, 0.0, math.pi / 2, 250),
        TrajectorySegment(1, 0.0, math.pi / 4, 250),
        TrajectorySegment(2, 0.0, math.pi / 4, 203),
    )
)

# Dual runs in both driver/shadow orders.
ORDERS = {
    "oracle-drives": (ORACLE, Hybrid(CordicConfig(iterations=10))),
    "hybrid-drives": (Hybrid(CordicConfig(iterations=10)), ORACLE),
}


def chain_rows(trace: SimulationTrace, first: str) -> list[tuple[float, ...]]:
    """Per sample, the three trace columns from ``first`` on."""
    names = pipeline.COLUMN_ORDER
    i = names.index(first)
    return list(zip(*(trace.signals[name].tolist() for name in names[i : i + 3])))


class TestShadowContract:
    @pytest.mark.parametrize("order", ORDERS)
    def test_shadow_columns_are_the_modules_on_the_recorded_chain(self, order):
        # Noise, a random-walk delay, FCS lag and contact: the shadow sees
        # the chain exactly as the driver recorded it.
        backend, shadow = ORDERS[order]
        fc = ChannelConfig(noise_variance=1e-8, delay=RandomWalkDelay(0, 5), seed=11)
        bc = ChannelConfig(noise_variance=1e-4, delay=RandomWalkDelay(0, 3), seed=12)
        scene = SHIPPED.scene
        trace = run_pipeline(LONG_SPEC, scene, fc, bc, backend, shadow=shadow, fcs_pole=0.5)
        alone = run_pipeline(LONG_SPEC, scene, fc, bc, backend, fcs_pole=0.5)
        for name in pipeline.COLUMN_ORDER:
            assert trace.signals[name].tobytes() == alone.signals[name].tobytes(), name

        b, v, theta_sd, l_pos, s_obj, f_in = (
            chain_rows(trace, first)
            for first in ("b1", "v_x", "theta_sd_1", "l_x", "s_obj_x", "q_x")
        )
        assert any(s != l for s, l in zip(s_obj, l_pos)), "no contact sample"
        g = DEFAULT_GEOMETRY
        expected = [
            (
                *forward_kinematics(JointAngles(*b[n]), g, shadow),
                *inverse_kinematics(CartesianPosition(*v[n]), g, shadow),
                *forward_kinematics(JointAngles(*theta_sd[n]), g, shadow),
                *feedback_force(
                    CartesianPosition(*s_obj[n]), CartesianPosition(*l_pos[n]),
                    scene.elasticity, shadow,
                ),
                *kinesthetic_feedback(JointAngles(*b[n]), ForceVector(*f_in[n]), g, shadow),
            )
            for n in range(trace.q)
        ]
        got = np.stack([trace.shadow_signals[name] for name in pipeline.MODULE_OUTPUT_SIGNALS])
        assert got.T.tobytes() == np.array(expected).tobytes()


class _Trips:
    """A backend that fails a module on the operands listed for it in
    ``trips``, as (module, operand tuple) pairs; the modules are "fk", "ik"
    and the names of the circuits that ``run_block`` takes.  A circuit trips
    per row, on the row's first operand: the tripped row fails as a row that
    the circuit's ``vector`` refuses does."""

    def _trip(self, module, operand):
        key = (module, tuple(operand))
        if key in self.trips:
            return SampleError(f"{module} tripped on {key[1]}")
        return None

    def fk(self, theta, g):
        if error := self._trip("fk", theta):
            raise error
        return super().fk(theta, g)

    def ik(self, pos, g):
        if error := self._trip("ik", pos):
            raise error
        return super().ik(pos, g)

    def run_block(self, circuit, vector, *operands):
        rows, error = super().run_block(circuit, vector, *operands)
        # The rows computed, and the failing row: a trip there comes first.
        for k, operand in enumerate(operands[0][: len(rows) + 1].tolist()):
            if trip := self._trip(circuit.__name__, operand):
                return rows[:k], trip
        return rows, error


@dataclass(frozen=True)
class OracleTrips(_Trips, Oracle):
    trips: frozenset = frozenset()


@dataclass(frozen=True)
class HybridTrips(_Trips, Hybrid):
    trips: frozenset = frozenset()


def tripping(base, trips=frozenset()):
    """A backend with ``base``'s arithmetic that trips on ``trips``."""
    if base is ORACLE:
        return OracleTrips(trips=trips)
    return HybridTrips(base.cordic, trips)


def fail_scene_at(monkeypatch, at: int | None) -> None:
    """Make x of sample ``at``'s object point NaN (None: never), which the
    scene stage refuses as non-finite at that sample.  Only the driver has
    a scene stage; it calls ``Scene.object_positions`` once per block, in
    sample order."""
    object_positions = Scene.object_positions
    done = 0

    def patched(self, tools):
        nonlocal done
        rows = object_positions(self, tools)
        if at is not None and done <= at < done + len(rows):
            rows = rows.copy()
            rows[at - done, 0] = math.nan
        done += len(rows)
        return rows

    monkeypatch.setattr(Scene, "object_positions", patched)


SHADOW_STAGES = ("fk_master", "ik", "fk_slave", "fbf", "kff")


def jacobian_row(backend, theta):
    """The Jacobian entries that ``backend`` hands J^T F for one sample."""
    rows, _ = backend.jacobian_block(np.array([theta]), DEFAULT_GEOMETRY)
    return tuple(rows[0].tolist())


def stage_keys(trace, shadow):
    """Per sample, the trip key of each shadow module by stage name, in
    module order."""
    rows = zip(*(chain_rows(trace, first) for first in ("b1", "v_x", "theta_sd_1", "s_obj_x")))
    return [
        dict(
            zip(
                SHADOW_STAGES,
                (
                    ("fk", b),
                    ("ik", v),
                    ("fk", theta_sd),
                    ("_fbf_circuit", s_obj),
                    ("_torque_circuit", jacobian_row(shadow, b)),
                ),
            )
        )
        for b, v, theta_sd, s_obj in rows
    ]


def first_failure(keys, trips, driver_at, driver_message="x must be finite"):
    """(sample, message) of the first failure in sample order: at each
    sample the driver's, then the shadow's modules in module order."""
    for n, sample_keys in enumerate(keys):
        if n == driver_at:
            return n, driver_message
        for module, operand in sample_keys.values():
            if (module, operand) in trips:
                return n, f"{module} tripped on {operand}"
    return None


class TestFirstFailureAcrossBackends:
    # Each case: the driver's failing sample (None: it runs through) and the
    # sample at which each listed shadow module trips.  256 rows make one
    # block of the stage pass.
    CASES = {
        "shadow-earlier": (400, {"ik": 300}),
        "driver-earlier": (100, {"fk_slave": 300}),
        "same-sample": (300, {"fbf": 300, "fk_master": 300}),
        "modules-tie": (None, {"kff": 256, "fk_master": 256, "ik": 256}),
        "later-module-earlier": (None, {"fk_master": 290, "kff": 260}),
        "across-blocks": (None, {"fk_master": 520, "fbf": 511, "ik": 700}),
        "block-edges": (600, {"fk_slave": 255, "ik": 256}),
        "last-sample": (None, {"kff": 702}),
    }
    # The two block stages failing at the same sample: FBF, the earlier
    # module, wins.
    BLOCK_STAGE_TIES = {
        "fbf-kff-tie": (None, {"kff": 380, "fbf": 380}),
        "fbf-kff-tie-at-block-start": (600, {"kff": 512, "fbf": 512}),
    }

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("case", [*CASES, *BLOCK_STAGE_TIES])
    def test_the_first_failing_sample_wins(self, order, case, monkeypatch):
        backend, base = ORDERS[order]
        driver_at, stages = {**self.CASES, **self.BLOCK_STAGE_TIES}[case]
        clean = run_pipeline(LONG_SPEC, SHIPPED.scene, ChannelConfig(), ChannelConfig(), backend)
        keys = stage_keys(clean, tripping(base))
        trips = frozenset(keys[n][stage] for stage, n in stages.items())
        n, message = first_failure(keys, trips, driver_at)
        shadow = tripping(base, trips)
        fail_scene_at(monkeypatch, driver_at)
        with pytest.raises(SampleError) as err:
            run_pipeline(
                LONG_SPEC, SHIPPED.scene, ChannelConfig(), ChannelConfig(), backend, shadow=shadow
            )
        assert str(err.value) == f"sample {n}: {message}"
        assert err.value.sample_index == n

    # Each case: the driver's failing stage and sample, the sample at which
    # each listed shadow module trips, and which backend's error the run
    # raises: the driver's at its sample, or the shadow's one sample before.
    # The driver's FBF and KFF trip in their block stages; "bc" is the
    # backwards channel's channel_step.
    DRIVER_STAGE_CASES = {
        "driver-fbf-ties": ("fbf", 302, {"ik": 302}, "driver"),
        "driver-kff-ties-at-block-end": ("kff", 255, {"kff": 255, "fbf": 302}, "driver"),
        "driver-bc-ties-at-block-start": ("bc", 256, {"fk_master": 256}, "driver"),
        "driver-fbf-after-shadow-at-block-edge": ("fbf", 256, {"fk_slave": 255}, "shadow"),
        "driver-kff-after-shadow": ("kff", 303, {"fbf": 302}, "shadow"),
        "driver-bc-after-shadow-at-block-end": ("bc", 512, {"kff": 511}, "shadow"),
        "driver-bc-after-shadow": ("bc", 303, {"ik": 302}, "shadow"),
    }

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("case", DRIVER_STAGE_CASES)
    def test_a_failing_driver_stage_against_the_shadow(self, order, case, monkeypatch):
        backend, base = ORDERS[order]
        stage, driver_at, modules, winner = self.DRIVER_STAGE_CASES[case]
        clean = run_pipeline(LONG_SPEC, SHIPPED.scene, ChannelConfig(), ChannelConfig(), backend)
        keys = stage_keys(clean, tripping(base))
        trips = frozenset(keys[n][module] for module, n in modules.items())
        bc = ChannelConfig()
        if stage == "bc":
            driver, driver_message = backend, "bc tripped"
            step, make_state = pipeline.channel_step, pipeline.ChannelState
            bc_states = []

            def channel_state(cfg):
                state = make_state(cfg)
                if cfg is bc:
                    bc_states.append(state)
                return state

            def channel_step(state, sample, n):
                if state in bc_states and n == driver_at:
                    raise SampleError(driver_message)
                return step(state, sample, n)

            monkeypatch.setattr(pipeline, "ChannelState", channel_state)
            monkeypatch.setattr(pipeline, "channel_step", channel_step)
        else:
            driver_keys = [sample_keys[stage] for sample_keys in stage_keys(clean, backend)]
            key = driver_keys[driver_at]
            assert driver_keys.index(key) == driver_at, "the trip would fire earlier"
            driver = tripping(backend, frozenset({key}))
            driver_message = f"{key[0]} tripped on {key[1]}"
        n, message = first_failure(keys, trips, driver_at, driver_message)
        assert n == (driver_at if winner == "driver" else driver_at - 1)
        with pytest.raises(SampleError) as err:
            run_pipeline(
                LONG_SPEC, SHIPPED.scene, ChannelConfig(), bc, driver, shadow=tripping(base, trips)
            )
        assert str(err.value) == f"sample {n}: {message}"
        assert err.value.sample_index == n

    # The trajectory's theta1 passes the s16.13 range [-4, 4) at sample 10.
    BEYOND = TrajectorySpec(segments=(TrajectorySegment(0, 3.9, 4.1, 21),))

    @pytest.mark.parametrize("driver_at, n", [(None, 10), (15, 10), (10, 10), (4, 4)])
    def test_angle_beyond_the_shadow_tfb_range(self, driver_at, n, monkeypatch):
        fail_scene_at(monkeypatch, driver_at)
        scene = SHIPPED.scene
        with pytest.raises(SampleError) as err:
            run_pipeline(
                self.BEYOND, scene, ChannelConfig(), ChannelConfig(), ORACLE, shadow=Hybrid()
            )
        if n == driver_at:
            assert str(err.value) == f"sample {n}: x must be finite"
        else:
            assert str(err.value).startswith(f"sample {n}: theta1 = 4.0 rad is outside the range")
        assert err.value.sample_index == n


def load_workloads():
    """The benchmark's workload inputs (``perfbench/workloads.py``)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


class TestCallGraph:
    # The benchmark's traced run counts calls through these module
    # attributes, and its self-check pins the counts per sample.
    @staticmethod
    def counting(monkeypatch) -> Counter:
        counts = Counter()

        def count(module, name, per_backend=False):
            fn = getattr(module, name)

            def counting(*args, **kwargs):
                counts[(name, args[2].name) if per_backend else name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        for name in ("tfb_sincos", "tfb_atan2", "tfb_acos"):
            count(kinematics, name)
        count(pipeline, "forward_kinematics", per_backend=True)
        count(pipeline, "inverse_kinematics", per_backend=True)
        count(pipeline, "channel_step")
        return counts

    def test_calls_per_sample_of_a_dual_run(self, monkeypatch):
        counts = self.counting(monkeypatch)
        spec = TrajectorySpec(
            segments=(
                TrajectorySegment(0, 0.0, 0.5, 7),
                TrajectorySegment(1, 0.0, 0.5, 7),
                TrajectorySegment(2, 0.0, 0.5, 6),
            )
        )
        run_pipeline(
            spec,
            SHIPPED.scene,
            ChannelConfig(),
            ChannelConfig(),
            ORACLE,
            shadow=Hybrid(CordicConfig(iterations=10)),
        )
        per_sample = {
            "tfb_sincos": 9,
            "tfb_atan2": 2,
            "tfb_acos": 2,
            ("forward_kinematics", "oracle"): 2,
            ("forward_kinematics", "hybrid"): 2,
            ("inverse_kinematics", "oracle"): 1,
            ("inverse_kinematics", "hybrid"): 1,
            "channel_step": 2,
        }
        assert counts == {key: 20 * n for key, n in per_sample.items()}

    def test_calls_per_sample_of_an_oracle_only_run(self, monkeypatch):
        # The self-check's 500-sample long_oracle run: noisy random-walk
        # channels, FCS lag and contact, across the 256-sample block edge.
        scenario = parse_scenario(load_workloads().long_oracle_scenario(0, 500))
        assert isinstance(scenario.fc.delay, RandomWalkDelay) and scenario.fcs_pole > 0
        driver, shadow = scenario.backend_objects()
        assert shadow is None
        counts = self.counting(monkeypatch)
        trace = run_pipeline(
            scenario.trajectory,
            scenario.scene,
            scenario.fc,
            scenario.bc,
            driver,
            geometry=scenario.geometry,
            fcs_pole=scenario.fcs_pole,
        )
        assert np.any(trace.signals["h_x"] != 0), "the run never touches the plane"
        per_sample = {
            "tfb_sincos": 0,
            "tfb_atan2": 0,
            "tfb_acos": 0,
            ("forward_kinematics", "oracle"): 2,
            ("inverse_kinematics", "oracle"): 1,
            "channel_step": 2,
        }
        assert counts == Counter({key: 500 * n for key, n in per_sample.items()})


def per_sample(fn, rows):
    """``fn`` on each row: the results before the first row that raises, as
    an (m, 3) array, and that row's exception (None when none raises)."""
    out = []
    for row in rows:
        try:
            out.append(tuple(fn(row)))
        except Exception as exc:
            return np.array(out, float).reshape(-1, 3), exc
    return np.array(out, float).reshape(-1, 3), None


def assert_same_outcome(got, want):
    (got_rows, got_exc), (want_rows, want_exc) = got, want
    assert got_rows.tobytes() == want_rows.tobytes()
    assert type(got_exc) is type(want_exc)
    assert str(got_exc) == str(want_exc)


def in_wide_table(rows: np.ndarray) -> np.ndarray:
    """``rows`` as the stage pass hands a block over: columns of a wider
    table, not a contiguous array."""
    table = np.zeros((len(rows), 7))
    table[:, 2:5] = rows
    return table[:, 2:5]


# Where a row stage's block holds a failing row: nowhere, or at its first,
# a middle and its last row.
FAIL_AT = [None, 0, 100, pipeline._BLOCK - 1]


def with_row(rows: np.ndarray, at: int | None, row) -> np.ndarray:
    """``rows`` with row ``at`` replaced by ``row`` (None: unchanged)."""
    rows = rows.copy()
    if at is not None:
        rows[at] = row
    return rows


@pytest.mark.parametrize("at", FAIL_AT)
@pytest.mark.parametrize("backend", [ORACLE, Hybrid()], ids=["oracle", "hybrid"])
@pytest.mark.parametrize("module", ["fk", "ik"])
def test_row_stage_is_the_per_sample_module(module, backend, at):
    thetas = np.array(sample_workspace_poses(np.random.default_rng(7), pipeline._BLOCK))
    if module == "fk":
        # A NaN angle: the oracle's output is not finite, the hybrid's TFB
        # refuses it.
        fn, rows = forward_kinematics, with_row(thetas, at, (math.nan, 0.1, 0.2))
    else:
        tools = np.array([forward_kinematics(t, DEFAULT_GEOMETRY, backend) for t in thetas.tolist()])
        fn, rows = inverse_kinematics, with_row(tools, at, (1.0, 1.0, 1.0))
    want = per_sample(lambda row: fn(row, DEFAULT_GEOMETRY, backend), rows.tolist())
    assert (want[1] is None) == (at is None)
    if module == "ik" and at is not None:
        assert type(want[1]) is Unreachable
    stage = pipeline._row_by_row(fn, DEFAULT_GEOMETRY, backend)
    assert_same_outcome(stage(in_wide_table(rows)), want)


def channel_delays(cfg: ChannelConfig, q: int, component: int) -> list[int]:
    """The delay of one output component at each of ``q`` samples; the walk
    does not depend on the signal."""
    state, delays = pipeline.ChannelState(cfg), []
    for n in range(q):
        delays.append(state.delays[component])
        pipeline.channel_step(state, (0.0, 0.0, 0.0), n)
    return delays


@pytest.mark.parametrize("at", FAIL_AT)
def test_channel_stage_is_the_per_sample_channel(at):
    # A clean first block, then a block whose output row ``at`` is the first
    # to take a non-finite signal value; the outputs are checked as force
    # vectors.  Seed 9's delay does not grow at any of those rows (it reads
    # 3, 1 and 5 there), so no earlier row reads the same signal row.
    cfg = ChannelConfig(noise_variance=1e-4, delay=RandomWalkDelay(0, 5), seed=9)
    q = 2 * pipeline._BLOCK
    signal = np.random.default_rng(5).uniform(-1.0, 1.0, (q, 3))
    if at is not None:
        delays = channel_delays(cfg, q, 1)
        out_row = pipeline._BLOCK + at
        signal[out_row - delays[out_row], 1] = math.inf
    state, n = pipeline.ChannelState(cfg), iter(range(q))
    want = per_sample(
        lambda row: ForceVector(*pipeline.channel_step(state, row, next(n))), signal.tolist()
    )
    assert len(want[0]) == (q if at is None else pipeline._BLOCK + at)
    stage = pipeline._channel(cfg, ForceVector)
    blocks = []
    for start in range(0, q, pipeline._BLOCK):
        block = signal[start : start + pipeline._BLOCK]
        rows, error = stage(in_wide_table(block), np.arange(start, start + len(block), dtype=float))
        blocks.append(rows)
        if error is not None:
            break
    assert_same_outcome((np.concatenate(blocks), error), want)


def reference_trajectory(spec: TrajectorySpec) -> list[tuple[float, float, float]]:
    """The trajectory one sample at a time, as the per-sample loop built it."""
    current = [0.0, 0.0, 0.0]
    first_seen: set[int] = set()
    for seg in spec.segments:
        if seg.joint not in first_seen:
            current[seg.joint] = seg.start
            first_seen.add(seg.joint)
    out = []
    for seg in spec.segments:
        for k in range(seg.samples):
            if seg.samples == 1:
                current[seg.joint] = seg.end
            else:
                current[seg.joint] = seg.start + (seg.end - seg.start) * (
                    k / (seg.samples - 1)
                )
            out.append(tuple(current))
    return out


_ANGLE = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([-0.0, 0.0, math.pi, -1e300, 1e300]))
_SEGMENTS = st.lists(
    st.builds(
        TrajectorySegment,
        joint=st.integers(0, 2),
        start=_ANGLE,
        end=_ANGLE,
        samples=st.one_of(st.just(1), st.integers(2, 300)),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(segments=_SEGMENTS)
# One-sample segments, a joint ramped twice, and a ramp that does not end
# on its ``end`` in the last bit.
@example(
    segments=[
        TrajectorySegment(1, 0.5, -0.0, 1),
        TrajectorySegment(0, 0.1, 0.7, 3),
        TrajectorySegment(1, 0.2, 0.3, 1),
        TrajectorySegment(0, -0.3, 0.1, 300),
    ]
)
def test_trajectory_table_is_the_per_sample_ramp(segments):
    spec = TrajectorySpec(segments=tuple(segments))
    want = reference_trajectory(spec)
    assert pipeline._trajectory_table(spec).tobytes() == np.array(want).tobytes()


def reference_plane(normal, offset):
    """The plane surface per point, as it was written before its block form:
    numpy's dot product for the depth, Python floats for the projection."""
    nvec = np.asarray(normal, dtype=float)
    nvec = nvec / np.linalg.norm(nvec)
    n_x, n_y, n_z = nvec.tolist()

    def surface(tool):
        with np.errstate(over="ignore", invalid="ignore"):
            depth = float(nvec.dot(tool)) - offset
        if depth <= 0:
            return tool
        x, y, z = tool
        return CartesianPosition(x - depth * n_x, y - depth * n_y, z - depth * n_z)

    return surface


_COORD = st.one_of(st.floats(-0.5, 0.5), st.just(-0.0))
# Coordinates whose depth or projection leaves the float range.
_HUGE = st.sampled_from([1.5e308, -1.5e308, 1e308, -1e308, 8e307])
_NORMALS = st.sampled_from(
    [(-2.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0), (0.0, 0.0, 1.0), (1.0, 1.0, 0.0), (0.0, -1.0, 0.0)]
)


@st.composite
def _tools(draw):
    """Tool rows, some of them huge, and an offset that puts one row exactly
    on the plane when ``on_plane`` is drawn."""
    rows = draw(st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=1, max_size=40))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(rows) - 1))
        i = draw(st.integers(0, 2))
        row = list(rows[k])
        row[i] = draw(_HUGE)
        rows[k] = tuple(row)
    return rows


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(normal=_NORMALS, tools=_tools(), offset=st.floats(-0.3, 0.3), on_plane=st.booleans())
# A depth of exactly 0 keeps the tool, -0.0 components included.
@example(normal=(0.0, 0.0, 1.0), tools=[(-0.0, 0.1, 0.2)], offset=0.2, on_plane=False)
@example(normal=(0.0, 0.0, 1.0), tools=[(-0.0, -0.0, 0.3)], offset=0.2, on_plane=False)
# The depth overflows, then the projection is inf and inf * 0 is NaN.
@example(normal=(1.0, 1.0, 0.0), tools=[(0.1, 0.0, 0.0), (1.5e308, 1.5e308, -0.0)],
         offset=0.0, on_plane=False)
def test_plane_block_is_the_per_point_surface(normal, tools, offset, on_plane):
    if on_plane:
        nvec = np.asarray(normal) / np.linalg.norm(normal)
        with np.errstate(over="ignore"):
            offset = float(nvec.dot(tools[0]))
        if not math.isfinite(offset):
            return
    scene = Scene(Elasticity(1.0, 1.0, 1.0), normal, offset)
    want = per_sample(reference_plane(normal, offset), tools)
    stage = pipeline._surface(scene)
    assert_same_outcome(stage(in_wide_table(np.array(tools))), want)
    # The per-point call is the block form on one row.
    rows, error = want
    for tool, expected in zip(tools, rows.tolist()):
        got = scene.object_position(CartesianPosition(*tool))
        assert np.array(got).tobytes() == np.array(expected).tobytes()
    if error is not None:
        with pytest.raises(type(error), match=f"^{error}$"):
            scene.object_position(tools[len(rows)])


def test_free_space_block_is_the_identity():
    tools = in_wide_table(np.array([(0.1, -0.0, 0.3), (-0.2, 0.0, 1e308)]))
    rows, error = pipeline._surface(Scene(Elasticity(1.0, 1.0, 1.0)))(tools)
    assert error is None and rows.tobytes() == tools.tobytes()


# Each scene with a tool row it refuses: the plane's depth overflows, and
# free space passes an infinite tool on unchanged.
SCENES = {
    "plane": (SHIPPED.scene, (-1.5e308, 1.5e308, 0.0)),
    "free": (Scene(SHIPPED.scene.elasticity), (math.inf, 0.1, 0.2)),
}


@pytest.mark.parametrize("at", FAIL_AT)
@pytest.mark.parametrize("name", SCENES)
def test_scene_stage_is_the_per_sample_scene(name, at):
    scene, bad = SCENES[name]
    clean = np.random.default_rng(9).uniform(-0.3, 0.3, (pipeline._BLOCK, 3))
    tools = with_row(clean, at, bad)
    if scene.normal is None:
        want = per_sample(lambda tool: CartesianPosition(*tool), tools.tolist())
    else:
        reference = reference_plane(scene.normal, scene.offset)
        want = per_sample(reference, tools.tolist())
        assert any(reference(tool) != tool for tool in clean.tolist()), "no contact row"
    assert (want[1] is None) == (at is None)
    assert_same_outcome(pipeline._surface(scene)(in_wide_table(tools)), want)


def reference_lag(pole, thetas):
    """The FCS lag one sample at a time, as the per-sample stage ran it; a
    zero pole passes the angles on as they are."""
    if pole == 0.0:
        return np.array(thetas)
    out, prev = [], None
    for theta in thetas:
        prev = theta if prev is None else [pole * p + (1.0 - pole) * t for p, t in zip(prev, theta)]
        out.append(tuple(prev))
    return np.array(out)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    pole=st.one_of(st.sampled_from([0.0, 0.5, 0.999, 1e-300]), st.floats(0.0, 1.0, exclude_max=True)),
    # Across the 255/256 and 511/512 block edges.
    q=st.sampled_from([1, 255, 256, 257, 511, 512, 513]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lag_stage_is_the_per_sample_lag(pole, q, seed):
    thetas = np.random.default_rng(seed).uniform(-3.0, 3.0, (q, 3))
    thetas[::7, 1] = -0.0
    stage = pipeline._lag(pole)
    blocks = []
    for start in range(0, q, pipeline._BLOCK):
        rows, error = stage(in_wide_table(thetas[start : start + pipeline._BLOCK]))
        assert error is None
        blocks.append(np.array(rows))
    assert np.concatenate(blocks).tobytes() == reference_lag(pole, thetas.tolist()).tobytes()


@pytest.mark.parametrize("pole", [0.0, 0.5])
def test_lag_stage_passes_an_empty_block(pole):
    stage = pipeline._lag(pole)
    for rows in (np.empty((0, 3)), np.ones((2, 3)), np.empty((0, 3))):
        out, error = stage(rows)
        assert error is None and out.tobytes() == rows.tobytes()


class TestFailureAtABlockStart:
    # The stage before the FCS lag fails at the first row of a block, so the
    # lag and every later stage get an empty block.
    @pytest.mark.parametrize("at", [0, 256])
    @pytest.mark.parametrize("module, chain_first", [("fk", "b1"), ("ik", "v_x")])
    def test_the_run_reports_the_failing_sample(self, at, module, chain_first):
        clean = run_pipeline(
            LONG_SPEC, SHIPPED.scene, ChannelConfig(), ChannelConfig(), ORACLE, fcs_pole=0.5
        )
        operands = chain_rows(clean, chain_first)
        key = (module, operands[at])
        assert operands.index(key[1]) == at, "the trip would fire earlier"
        with pytest.raises(SampleError) as err:
            run_pipeline(
                LONG_SPEC,
                SHIPPED.scene,
                ChannelConfig(),
                ChannelConfig(),
                tripping(ORACLE, frozenset({key})),
                fcs_pole=0.5,
            )
        assert str(err.value) == f"sample {at}: {module} tripped on {key[1]}"
        assert err.value.sample_index == at


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        trace = run_pipeline(
            SHIPPED.trajectory, SHIPPED.scene, ChannelConfig(), ChannelConfig(), ORACLE
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
            SHIPPED.trajectory, SHIPPED.scene, ChannelConfig(), ChannelConfig(), ORACLE
        )
        with pytest.raises(KeyError):
            trace.view("hybrid")


def written_by_trace_writer(paths, trace, counts):
    """Drive a TraceWriter as a run would: the hook with each row count of
    ``counts``, then close, then discard."""
    writer = TraceWriter(paths)
    try:
        for rows_done in counts:
            writer.on_block(trace, rows_done)
        writer.close()
    finally:
        writer.discard()


def assert_as_write_trace_csv(trace, paths, tmp_path):
    """Each file of ``paths`` (in trace.backends order) holds the bytes
    write_trace_csv writes, and the directory holds nothing else: no
    temporary file is left, and no formatter process either."""
    for backend, path in zip(trace.backends, paths):
        reference = tmp_path / "reference.csv"
        write_trace_csv(trace, reference, backend)
        assert path.read_bytes() == reference.read_bytes(), backend
        reference.unlink()
    assert sorted(tmp_path.iterdir()) == sorted(paths)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def synthetic_trace(q, dual, seed=0):
    """The SimulationTrace run_pipeline would return over a run's table of
    random finite values over many decades."""
    width = len(pipeline.COLUMN_ORDER)
    columns = width + (len(pipeline.MODULE_OUTPUT_SIGNALS) if dual else 0)
    rng = np.random.default_rng(seed)
    table = pipeline._shared_table(q, columns)
    table[:] = rng.standard_normal((q, columns)) * 10.0 ** rng.integers(-9, 9, (q, columns))
    return SimulationTrace(
        q=q,
        sample_period=0.01,
        driver="oracle",
        shadow="hybrid" if dual else None,
        signals=dict(zip(pipeline.COLUMN_ORDER, table.T)),
        shadow_signals=dict(zip(pipeline.MODULE_OUTPUT_SIGNALS, table.T[width:])),
    )


class TestTraceWriter:
    # The streamed writer against write_trace_csv, byte for byte.

    @pytest.mark.parametrize("q", [1, 127, 128, 255, 256, 257, 1200])
    @pytest.mark.parametrize("dual", [False, True], ids=["single", "dual"])
    def test_run_writes_what_write_trace_csv_writes(self, q, dual, tmp_path):
        spec = TrajectorySpec(segments=(TrajectorySegment(1, 0.0, 1.2, q),))
        fc = ChannelConfig(noise_variance=1e-8, delay=RandomWalkDelay(0, 5), seed=3)
        shadow = Hybrid(CordicConfig(iterations=10)) if dual else None
        paths = [tmp_path / "trace_oracle.csv"] + ([tmp_path / "trace_hybrid.csv"] if dual else [])
        writer = TraceWriter(paths)
        try:
            trace = run_pipeline(
                spec, SHIPPED.scene, fc, ChannelConfig(), ORACLE,
                shadow=shadow, fcs_pole=0.5, on_block=writer.on_block,
            )
            writer.close()
        finally:
            writer.discard()
        assert_as_write_trace_csv(trace, paths, tmp_path)

    @pytest.mark.parametrize("dual", [False, True], ids=["single", "dual"])
    def test_split_at_every_chunk_boundary(self, dual, tmp_path, monkeypatch):
        # The formatter has at most the first count's rows when the end mark
        # comes, so the forced split holds: it formats the rows before it,
        # and the parent the rows from it on.
        q = 1200
        trace = synthetic_trace(q, dual)
        paths = [tmp_path / f"trace_{backend}.csv" for backend in trace.backends]
        chunk = pipeline._CSV_CHUNK
        for split in [*range(chunk, q, chunk), q]:
            monkeypatch.setattr(pipeline, "_split_row", lambda formatted, rows: split)
            written_by_trace_writer(paths, trace, [min(split, q - 1), q])
            assert_as_write_trace_csv(trace, paths, tmp_path)

    def test_without_fork_the_parent_writes_every_row(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "fork")
        trace = synthetic_trace(1200, dual=True, seed=1)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        written_by_trace_writer(paths, trace, range(256, 1200 + 256, 256))
        assert_as_write_trace_csv(trace, paths, tmp_path)

    @pytest.mark.parametrize("call", ["pipe", "fork"])
    def test_formatter_that_cannot_start_leaves_the_rows_to_the_parent(
        self, call, tmp_path, monkeypatch
    ):
        # The temporary files exist by then; close starts them again.
        def refuse():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, call, refuse)
        trace = synthetic_trace(1200, dual=True, seed=3)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        written_by_trace_writer(paths, trace, [256, 1200])
        assert_as_write_trace_csv(trace, paths, tmp_path)

    @pytest.mark.parametrize("after_reply", [False, True], ids=["before", "after"])
    @pytest.mark.parametrize("how", ["dies", "raises OSError", "raises RuntimeError"])
    def test_formatter_that_fails_hands_every_row_to_the_parent(
        self, how, after_reply, tmp_path, monkeypatch
    ):
        # The formatter fails as it splits, before its reply, or at its
        # first chunk after its reply (its split row is the end of the run,
        # so it has rows left to format).  The parent then writes every row
        # itself, to fresh temporary files.
        real = pipeline._csv_rows
        replied = []  # only the formatter splits, so only its copy fills

        def fail():
            if how == "dies":
                os._exit(3)
            if how == "raises OSError":
                raise OSError(errno.ENOSPC, "No space left on device")
            raise RuntimeError("formatter bug")

        def split_at_the_end(formatted, rows):
            if not after_reply:
                fail()
            replied.append(formatted)
            return rows

        def failing(columns, start, stop):
            if replied:
                fail()
            return real(columns, start, stop)

        monkeypatch.setattr(pipeline, "_split_row", split_at_the_end)
        monkeypatch.setattr(pipeline, "_csv_rows", failing)
        trace = synthetic_trace(1200, dual=True, seed=2)
        paths = [tmp_path / f"trace_{backend}.csv" for backend in trace.backends]
        for path in paths:
            path.write_bytes(b"earlier\n")
        written_by_trace_writer(paths, trace, [256, 1200])
        assert not replied
        assert_as_write_trace_csv(trace, paths, tmp_path)
