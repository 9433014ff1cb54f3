"""Acceptance suite: every release criterion at its stated tolerance, one
pass/fail line per criterion (run with ``pytest -s`` to see them)."""

import math
import time
from pathlib import Path

import numpy as np

from conftest import sample_workspace_poses
from tactilesim.channel import ChannelConfig, ChannelState, channel_step
from tactilesim.cli import load_scenario
from tactilesim.force import jacobian
from tactilesim.kinematics import (
    Hybrid,
    JointAngles,
    ORACLE,
    forward_kinematics,
    inverse_kinematics,
)
from tactilesim.latency_model import DEFAULT_TARGETS_NS, calibrate
from tactilesim.numerics import (
    S16_13,
    cordic_atan2,
    cordic_sincos,
    float_to_fixed,
    tfb_acos,
)
from tactilesim.pipeline import (
    hardware_time_limit,
    mse_table,
    run_pipeline,
    speedup_report,
)

LSB = 2.0 ** -13
SCENARIO_PATH = Path(__file__).resolve().parent.parent / "scenarios" / "default.yaml"

MSE_BANDS = {
    "FK-HMD": (1e-9, 1e-7),
    "FK-HSD": (1e-9, 1e-7),
    "IK-HSD": (1e-7, 1e-5),
    "KFF-HMD": (1e-9, 1e-6),
    "FBF-HSD": (0.0, 1e-12),
}


def criterion(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_mse_validation_bands():
    scenario = load_scenario(SCENARIO_PATH)
    start = time.monotonic()
    trace = run_pipeline(
        scenario.trajectory,
        scenario.scene,
        scenario.fc,
        scenario.bc,
        ORACLE,
        geometry=scenario.geometry,
        shadow=Hybrid(scenario.cordic),
    )
    elapsed = time.monotonic() - start
    rows = mse_table(trace)
    assert len(rows) == 15
    failures = []
    for row in rows:
        lo, hi = MSE_BANDS[row["module"]]
        if not lo <= row["mse"] <= hi:
            failures.append(f"{row['module']}/{row['signal']}={row['mse']:.3e}")
    detail = (
        f"15 signals within bands, {elapsed:.2f}s"
        if not failures
        else "out of band: " + ", ".join(failures)
    )
    criterion("hybrid-vs-oracle MSE bands", not failures and elapsed < 5.0, detail)


def test_criterion_2_latency_budget_arithmetic():
    ok = (
        hardware_time_limit(1e-3) == 37.5e-6
        and hardware_time_limit(10e-3) == 375e-6
        and speedup_report(403e-9, [1e-3, 10e-3]) == [(1e-3, 93), (10e-3, 930)]
    )
    criterion(
        "latency budget arithmetic",
        ok,
        "limits 37.5us/375us exact, speedups 93x/930x",
    )


def test_criterion_3_calibrated_latency_model():
    result = calibrate(DEFAULT_TARGETS_NS)
    residual_ok = all(
        abs(result.residuals[name]) <= 0.2 * target
        for name, target in DEFAULT_TARGETS_NS.items()
    )
    cp = result.critical_paths
    order_ok = cp["FBF"] < cp["FK"] < cp["KFF"] < cp["IK"]
    total_ok = abs(result.t_hardware - 403.0) <= 0.2 * 403.0
    criterion(
        "calibrated latency model",
        residual_ok and order_ok and total_ok,
        f"residuals {result.residuals}, total {result.t_hardware:.1f} ns",
    )


def test_criterion_4_round_trip_suite():
    rng = np.random.default_rng(2024)
    poses = sample_workspace_poses(rng, 10_000)
    hybrid = Hybrid()
    start = time.monotonic()
    worst_oracle = 0.0
    worst_hybrid = 0.0
    for q in poses:
        back = inverse_kinematics(forward_kinematics(q))
        worst_oracle = max(
            worst_oracle,
            max(abs(a - b) for a, b in zip(back, q)),
        )
        back_h = inverse_kinematics(forward_kinematics(q, backend=hybrid), backend=hybrid)
        worst_hybrid = max(
            worst_hybrid,
            max(abs(a - b) for a, b in zip(back_h, q)),
        )
    elapsed = time.monotonic() - start
    ok = worst_oracle <= 1e-9 and worst_hybrid <= 5e-3 and elapsed < 10.0
    criterion(
        "FK/IK round-trip suite",
        ok,
        f"oracle max {worst_oracle:.2e} rad, hybrid max {worst_hybrid:.2e} rad, {elapsed:.2f}s",
    )


def test_criterion_5_jacobian_finite_difference():
    rng = np.random.default_rng(99)
    h = 1e-6
    worst = 0.0
    for q in sample_workspace_poses(rng, 1000):
        jm = jacobian(q).as_array()
        base = np.array(q)
        fd = np.empty((3, 3))
        for j in range(3):
            plus, minus = base.copy(), base.copy()
            plus[j] += h
            minus[j] -= h
            fp = np.array(forward_kinematics(JointAngles(*plus)))
            fm = np.array(forward_kinematics(JointAngles(*minus)))
            fd[:, j] = (fp - fm) / (2 * h)
        worst = max(worst, float(np.abs(jm - fd).max()))
    criterion(
        "Jacobian finite-difference oracle",
        worst <= 1e-6,
        f"max entry error {worst:.2e} over 1000 poses",
    )


def test_criterion_6_cordic_error_envelope():
    rng = np.random.default_rng(7)
    scale = S16_13.scale
    worst_sc = 0.0
    for a in rng.uniform(-math.pi, math.pi, 100_000):
        s, c = cordic_sincos(float_to_fixed(a, S16_13))
        worst_sc = max(worst_sc, abs(s / scale - math.sin(a)), abs(c / scale - math.cos(a)))

    worst_at = 0.0
    for _ in range(20_000):
        ang = rng.uniform(-math.pi, math.pi)
        r = rng.uniform(0.5, 3.5)
        y = float_to_fixed(r * math.sin(ang), S16_13)
        x = float_to_fixed(r * math.cos(ang), S16_13)
        worst_at = max(worst_at, abs(cordic_atan2(y, x) / scale - math.atan2(y, x)))

    # The arccosine TFB (float32 in and out).
    worst_ac = 0.0
    for t in rng.uniform(-0.98, 0.98, 20_000):
        worst_ac = max(worst_ac, abs(float(tfb_acos(t)) - math.acos(t)))

    ok = worst_sc <= 4 * LSB and worst_at <= 8 * LSB and worst_ac <= 8 * LSB
    criterion(
        "CORDIC error envelope",
        ok,
        f"sincos {worst_sc / LSB:.2f} LSB (<=4), atan2 {worst_at / LSB:.2f} LSB (<=8), "
        f"acos {worst_ac / LSB:.2f} LSB (<=8)",
    )


def test_criterion_7_channel_statistics():
    sigma2 = 1e-6
    n_samples = 100_000
    cfg = ChannelConfig(noise_variance=sigma2, seed=4242)

    def run() -> np.ndarray:
        state = ChannelState(cfg)
        zeros = (0.0, 0.0, 0.0)
        return np.stack(
            [channel_step(state, zeros, n) for n in range(n_samples)]
        )

    out = run()
    again = run()
    sigma = math.sqrt(sigma2)
    mean_ok = abs(out.mean()) <= 4 * sigma / math.sqrt(out.size)
    var_ok = abs(out.var() - sigma2) <= 0.05 * sigma2
    repeat_ok = np.array_equal(out, again)
    criterion(
        "channel statistics",
        mean_ok and var_ok and repeat_ok,
        f"mean {out.mean():.2e} (bound {4 * sigma / math.sqrt(out.size):.2e}), "
        f"var {out.var():.3e} vs {sigma2:.3e}, repeat bit-identical: {repeat_ok}",
    )


def test_criterion_8_loop_transparency():
    scenario = load_scenario(SCENARIO_PATH)
    trace = run_pipeline(
        scenario.trajectory, scenario.scene, ChannelConfig(), ChannelConfig(), ORACLE
    )
    l = np.stack([trace.signals[k] for k in ("l_x", "l_y", "l_z")])
    c = np.stack([trace.signals[k] for k in ("c_x", "c_y", "c_z")])
    worst = float(np.abs(l - c).max())
    criterion("loop transparency", worst <= 1e-9, f"max |l - c| = {worst:.2e} m")
