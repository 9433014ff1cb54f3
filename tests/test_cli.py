import contextlib
import copy
import errno
import hashlib
import importlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tactilesim.cli as cli
from conftest import field_name, schema_fields
from tactilesim.channel import OutOfOrderSample
from tactilesim.cli import ScenarioError, load_scenario, main
from tactilesim.kinematics import SampleError
from tactilesim.latency_model import CalibrationDegenerate
from tactilesim.scenario import STR, parse_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_PATH = ROOT / "scenarios" / "default.yaml"


def scenario_dict() -> dict:
    with open(SCENARIO_PATH) as fh:
        return yaml.safe_load(fh)


class TestScenarioParsing:
    def test_shipped_scenario_loads(self):
        sc = load_scenario(SCENARIO_PATH)
        assert sc.trajectory.q == 1200
        assert sc.backends == ("oracle", "hybrid")
        assert sc.cordic.iterations == 10
        assert str(sc.cordic.fmt) == "s16.13"

    def test_missing_seed(self):
        data = scenario_dict()
        del data["seed"]
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario(data)

    def test_bad_version(self):
        data = scenario_dict()
        data["version"] = 2
        with pytest.raises(ScenarioError, match="version"):
            parse_scenario(data)

    def test_q_mismatch_names_field(self):
        data = scenario_dict()
        data["trajectory"]["total_samples"] = 1100
        with pytest.raises(ScenarioError, match="trajectory.total_samples"):
            parse_scenario(data)

    def test_bad_backend(self):
        data = scenario_dict()
        data["backends"] = ["oracle", "fpga"]
        with pytest.raises(ScenarioError, match="backends"):
            parse_scenario(data)

    def test_bad_joint_index(self):
        data = scenario_dict()
        data["trajectory"]["segments"][0]["joint"] = 4
        with pytest.raises(ScenarioError, match="joint"):
            parse_scenario(data)

    def test_bad_cordic_format(self):
        data = scenario_dict()
        data["cordic"]["format"] = "q16.13"
        with pytest.raises(ScenarioError, match="cordic.format"):
            parse_scenario(data)

    def test_fcs_pole_bounds(self):
        data = scenario_dict()
        data["fcs"] = {"pole": 1.5}
        with pytest.raises(ScenarioError, match="fcs.pole"):
            parse_scenario(data)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("version",), True),
            (("seed",), False),
            (("trajectory", "sample_period"), math.nan),
            (("scene", "offset"), math.nan),
            (("scene", "elasticity", "hx"), math.inf),
        ],
        ids=["version", "seed", "sample_period", "offset", "hx"],
    )
    def test_bool_and_non_finite_numbers_rejected(self, path, value, tmp_path, capsys):
        data = scenario_dict()
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        scenario = tmp_path / "bad.yaml"
        scenario.write_text(yaml.safe_dump(data))
        assert main(["run", str(scenario), "--out-dir", str(tmp_path / "out")]) == 1
        assert f"field '{'.'.join(path)}'" in capsys.readouterr().err

    def test_random_walk_delay(self):
        data = scenario_dict()
        data["fc"]["delay"] = {"min": 2, "max": 8}
        sc = parse_scenario(data)
        assert sc.fc.delay.d_min == 2 and sc.fc.delay.d_max == 8

    def test_free_scene(self):
        data = scenario_dict()
        data["scene"] = {"type": "free", "elasticity": {"hx": 1.0, "hy": 1.0, "hz": 1.0}}
        sc = parse_scenario(data)
        from tactilesim.kinematics import CartesianPosition

        tool = CartesianPosition(0.0, 0.0, 0.0)
        assert sc.scene.object_position(tool) == tool


def short_scenario() -> dict:
    """The shipped scenario cut to 10 samples, with every optional field
    spelled out: noisy channels with both delay kinds, initial holds and a
    lagging slave."""
    data = scenario_dict()
    data["trajectory"]["total_samples"] = 10
    for seg, samples in zip(data["trajectory"]["segments"], (4, 3, 3)):
        seg["samples"] = samples
    data["fc"] = {
        "sigma2": 1e-10,
        "delay": {"min": 0, "max": 2},
        "initial_hold": [0.0, -0.11, -0.035],
    }
    data["bc"] = {"sigma2": [0.0, 1e-6, 0.0], "delay": 1, "initial_hold": [0.0, 0.0, 0.0]}
    data["fcs"] = {"pole": 0.5}
    return data


def leaf_paths(node, prefix=()):
    """Key/index paths of every scalar in a parsed YAML tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


SHORT_LEAVES = list(leaf_paths(short_scenario()))
ODD_VALUES = [
    True, math.nan, math.inf, -1, -1.0, 0, 0.0, "x", None, [], [1.0, 2.0], 1e308, 1e-320,
]


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(path=st.sampled_from(SHORT_LEAVES), value=st.sampled_from(ODD_VALUES))
def test_any_leaf_replacement_ends_cleanly(path, value):
    # A scenario either runs, or fails with one line on stderr: exit 1 for a
    # bad field, exit 2 for a runtime error.  Never a traceback.
    data = copy.deepcopy(short_scenario())
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "s.yaml"
        scenario.write_text(yaml.safe_dump(data))
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["run", str(scenario), "--out-dir", str(Path(tmp) / "out")])
    assert rc in (0, 1, 2)
    if rc != 0:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()


def schema_cases():
    """From the schema table: one change per field, to a value of the wrong
    kind, and one per section, adding an unknown key; each with how the
    error line must begin."""
    sections = {}
    for path, section, kind in schema_fields():
        sections[path[:-1]] = section
        yield path, 1.5 if kind is STR else "x", f"field '{field_name(path)}'"
    for path, section in sections.items():
        name = field_name(path) or "a scenario"
        key = path + ("bogus",)
        yield key, 0, f"field '{field_name(key)}' is unknown; {name} takes {', '.join(section)}"


SCHEMA_CASES = list(schema_cases())


@pytest.mark.parametrize(
    "path, value, message", SCHEMA_CASES, ids=[field_name(c[0]) for c in SCHEMA_CASES]
)
def test_schema_refuses_wrong_kinds_and_unknown_keys(path, value, message, tmp_path, capsys):
    # Every field path exists in the base, so each change reaches its field.
    data = short_scenario()
    data["bc"]["delay"] = {"min": 0, "max": 1}
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    scenario = tmp_path / "s.yaml"
    scenario.write_text(yaml.safe_dump(data))
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1, err
    assert not out.exists()


@pytest.mark.parametrize(
    "changes, message",
    [
        (
            {"cordic": {"iteration": 6}},
            "field 'cordic.iteration' is unknown; cordic takes format, iterations",
        ),
        (
            {"fc": {"sigma2": 1.0, "dealy": 5}},
            "field 'fc.dealy' is unknown; fc takes sigma2, delay, initial_hold",
        ),
        ({"cordic": {1: 6}}, "field 'cordic.1' is unknown; cordic takes format, iterations"),
        (
            {"trajectory": {"segments": []}},
            "field 'trajectory.segments': trajectory needs at least one segment",
        ),
    ],
    ids=["misspelled-iterations", "misspelled-delay", "key-not-a-string", "no-segment"],
)
def test_scenario_error_message(changes, message, tmp_path, capsys):
    scenario = tmp_path / "s.yaml"
    scenario.write_text(yaml.safe_dump({**scenario_dict(), **changes}))
    assert main(["run", str(scenario), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "changes, code, message",
    [
        ({("cordic", "iterations"): 65}, 1, "field 'cordic': iterations must lie in [1, 64], got 65"),
        # sin/cos come from a ROM of at most 16 fractional bits.
        (
            {("cordic", "format"): "s32.20"},
            1,
            "field 'cordic': format s32.20 has more than 16 fractional bits",
        ),
        ({("budget", "t_hardware"): 1e-320}, 1, "field 'budget.t_hardware'"),
        ({("budget", "t_latency_limits"): [1e308]}, 1, "field 'budget.t_latency_limits[0]'"),
        ({("scene", "normal"): [1e308, 1e308, 0.0]}, 1, "field 'scene.normal'"),
        ({("scene", "elasticity", "hx"): 1e308}, 1, "field 'scene.elasticity': hx exceeds"),
        ({("geometry", "l4"): 1e308}, 1, "field 'geometry': l4 exceeds"),
        # Links of 3e38 m overflowed the hybrid float32 FK sums (two numpy
        # warnings, then "x must be finite"); links below 2^-16 m can make
        # the IK's gamma quotient overflow or divide by zero.
        (
            {("geometry", "l1"): 3.0e38, ("geometry", "l2"): 3.0e38},
            1,
            "field 'geometry': l1 exceeds the largest link length 65536 m",
        ),
        ({("geometry", "l1"): 1e-30}, 1, "field 'geometry': l1 is below the smallest link length"),
        (
            {("bc", "initial_hold"): [1e308, 0.0, 0.0], ("bc", "delay"): 2},
            2,
            "runtime error: sample 0: tau1 must be finite",
        ),
        ({("scene", "offset"): -1e308}, 2, "runtime error: sample 0: fx must be finite"),
        # A contact depth of about 1e37 m: the float32 spring-law multiply
        # overflows.  At 1e39 m the float32 cast of the positions does.  The
        # dual run's hybrid shadow takes the block path, a hybrid-only run
        # the per-sample one.
        (
            {("scene", "offset"): -1e37, ("backends",): ["oracle", "hybrid"]},
            2,
            "runtime error: sample 0: fx must be finite",
        ),
        (
            {("scene", "offset"): -1e37, ("backends",): ["hybrid"]},
            2,
            "runtime error: sample 0: fx must be finite",
        ),
        (
            {("scene", "offset"): -1e39, ("backends",): ["oracle", "hybrid"]},
            2,
            "runtime error: sample 0: fx must be finite",
        ),
        (
            {("scene", "offset"): -1e39, ("backends",): ["hybrid"]},
            2,
            "runtime error: sample 0: fx must be finite",
        ),
        (
            {("trajectory", "segments", 0, "start"): 1e308,
             ("trajectory", "segments", 0, "end"): -1e308},
            1,
            "field 'trajectory.segments[0]': end - start is not finite",
        ),
    ],
    ids=["iterations", "format", "t_hardware", "t_latency_limits", "normal", "elasticity",
         "geometry", "long_links", "short_link", "hold", "offset",
         "offset-f32-multiply-dual", "offset-f32-multiply-hybrid",
         "offset-f32-cast-dual", "offset-f32-cast-hybrid", "segment"],
)
def test_huge_and_tiny_values_end_cleanly(changes, code, message, tmp_path, capsys):
    # Finite values whose arithmetic overflows: a configuration error names
    # the field before anything is written, a non-finite loop signal names
    # the sample.  No warning escapes (pytest turns RuntimeWarning into an
    # error).
    data = scenario_dict()
    for path, value in changes.items():
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    scenario = tmp_path / "s.yaml"
    scenario.write_text(yaml.safe_dump(data))
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out-dir", str(out)]) == code
    err = capsys.readouterr().err
    assert message in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "path",
    [
        ("trajectory", "segments", 0, "end"),
        ("geometry", "l1"),
        ("scene", "offset"),
        ("fcs", "pole"),
        ("budget", "t_hardware"),
        ("fc", "sigma2"),
        ("targets", "FK"),
        # Integer fields.
        ("version",),
        ("seed",),
        ("cordic", "iterations"),
        ("trajectory", "total_samples"),
        ("trajectory", "segments", 0, "samples"),
        ("fc", "delay"),
        ("bc", "delay"),
    ],
    ids=lambda path: "-".join(map(str, path)),
)
def test_integer_beyond_the_float_range_is_one_error_line(path, tmp_path, capsys):
    # 401 digits: YAML and JSON read it exactly, and float() of it raised a
    # raw OverflowError, or an integer field's message repeated it.  The
    # message does not repeat the digits.
    big = 10**400
    if path[0] == "targets":
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps({path[1]: big}))
        argv = ["latency", "--targets", str(targets)]
        field = "targets: field 'FK'"
    else:
        data = scenario_dict()
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = big
        scenario = tmp_path / "s.yaml"
        scenario.write_text(yaml.safe_dump(data))
        argv = ["run", str(scenario), "--out-dir", str(tmp_path / "out")]
        field = "field '" + ".".join(map(str, path)).replace(".0.", "[0].") + "'"
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {field} is an integer beyond the float range\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


# Integers that fit the float range but not their field, by field: (path,
# value, message).  The message shows the value's digit count, not its digits.
HUGE_IN_RANGE = {
    "version": (
        ("version",), 10**300,
        "field 'version': unsupported schema version an integer of 301 digits",
    ),
    "seed": (
        ("seed",), -(10**300),
        "field 'seed' must be nonnegative, got a negative integer of 301 digits",
    ),
    "cordic.iterations": (
        ("cordic", "iterations"), 10**300,
        "field 'cordic': iterations must lie in [1, 64], got an integer of 301 digits",
    ),
    "cordic.format": (
        ("cordic", "format"), "s" + "1" * 301 + ".13",
        "field 'cordic.format': total_bits must be in [2, 64], got an integer of 301 digits",
    ),
    "trajectory.total_samples": (
        ("trajectory", "total_samples"), 10**300,
        "field 'trajectory.total_samples': total_samples is an integer of 301 digits "
        "but segments sum to 1200",
    ),
    "segment samples": (
        ("trajectory", "segments", 0, "samples"), 10**300,
        "field 'trajectory.total_samples': total_samples is 1200 "
        "but segments sum to an integer of 301 digits",
    ),
    "fc.delay": (
        ("fc", "delay"), 10**300,
        "field 'fc.delay' must be below the trajectory's 1200 samples, "
        "got an integer of 301 digits",
    ),
    "bc.delay.max": (
        ("bc", "delay"), {"min": 0, "max": 10**300},
        "field 'bc.delay.max' must be below the trajectory's 1200 samples, "
        "got an integer of 301 digits",
    ),
}


@pytest.mark.parametrize("path, value, message", HUGE_IN_RANGE.values(), ids=HUGE_IN_RANGE)
def test_huge_integer_in_the_float_range_shows_its_digit_count(
    path, value, message, tmp_path, capsys
):
    data = scenario_dict()
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    scenario = tmp_path / "s.yaml"
    scenario.write_text(yaml.safe_dump(data))
    assert main(["run", str(scenario), "--out-dir", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_speedup_at_the_overflow_edge_runs(tmp_path, capsys):
    # A huge limit is accepted as long as its speedup over t_hardware is
    # finite.
    data = scenario_dict()
    data["budget"] = {"t_hardware": 1.0, "t_latency_limits": [1e308]}
    scenario = tmp_path / "s.yaml"
    scenario.write_text(yaml.safe_dump(data))
    assert main(["run", str(scenario), "--out-dir", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("backends", [["hybrid"], ["oracle", "hybrid"]])
def test_angle_beyond_cordic_format_rejected(backends, tmp_path, capsys):
    # s16.13 holds [-4, 4): the hybrid F2FP would saturate a larger angle.
    data = scenario_dict()
    data["backends"] = backends
    data["trajectory"]["segments"][1]["end"] = 5.0
    scenario = tmp_path / "s.yaml"
    scenario.write_text(yaml.safe_dump(data))
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "field 'trajectory.segments[1].end' = 5.0 rad" in err and len(err.splitlines()) == 1
    assert not out.exists()
    # The oracle alone has no format.
    data["backends"] = ["oracle"]
    scenario.write_text(yaml.safe_dump(data))
    assert main(["run", str(scenario), "--out-dir", str(out)]) == 0


def test_ik_angle_beyond_cordic_format_ends_cleanly(tmp_path, capsys):
    # With unequal links the IK's theta2 = gamma + beta passes 4 rad inside
    # the loop, although every commanded angle lies in the format's range;
    # the slave FK's sincos TFB refuses it.
    data = scenario_dict()
    data["backends"] = ["hybrid"]
    data["geometry"] = {"l1": 0.05, "l2": 0.135, "l3": 0.025, "l4": 0.17}
    data["trajectory"] = {
        "segments": [
            {"joint": 3, "start": 3.0, "end": 3.0, "samples": 1},
            {"joint": 2, "start": 0.0, "end": -1.7, "samples": 20},
        ]
    }
    scenario = tmp_path / "s.yaml"
    scenario.write_text(yaml.safe_dump(data))
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: sample 18: theta2 = 4.16") and len(err.splitlines()) == 1
    assert not out.exists()


def shadow_failure_scenario(tmp_path, hold: int) -> Path:
    """The run above with the oracle driving, after ``hold`` samples of its
    first pose: the hybrid shadow's slave FK refuses the oracle's theta2 at
    sample hold + 17, after the driver has run every sample."""
    data = scenario_dict()
    data["backends"] = ["oracle", "hybrid"]
    data["geometry"] = {"l1": 0.05, "l2": 0.135, "l3": 0.025, "l4": 0.17}
    data["trajectory"] = {
        "segments": [
            {"joint": 3, "start": 3.0, "end": 3.0, "samples": hold},
            {"joint": 2, "start": 0.0, "end": -1.7, "samples": 20},
        ]
    }
    scenario = tmp_path / "s.yaml"
    scenario.write_text(yaml.safe_dump(data))
    return scenario


def test_shadow_failure_ends_cleanly(tmp_path, capsys):
    scenario = shadow_failure_scenario(tmp_path, hold=1)
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: sample 18: theta2 = 4.159") and len(err.splitlines()) == 1
    assert not out.exists()


def forks_counted(monkeypatch) -> list[int]:
    """The pids os.fork returns in this process from now on."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


EARLIER = {"trace_oracle.csv": b"earlier oracle\n", "trace_hybrid.csv": b"earlier hybrid\n"}


def test_failure_after_the_fork_leaves_nothing(tmp_path, capsys, monkeypatch):
    # A 300-sample hold: the run fails past its first block, once the trace
    # formatter has started.
    forks = forks_counted(monkeypatch)
    scenario = shadow_failure_scenario(tmp_path, hold=300)
    kept, new = tmp_path / "kept", tmp_path / "new"
    kept.mkdir()
    for name, body in EARLIER.items():
        (kept / name).write_bytes(body)
    for out in (kept, new):
        assert main(["run", str(scenario), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: sample 317: theta2 = 4.159")
        assert len(err.splitlines()) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert len(forks) == 2
    assert {p.name: p.read_bytes() for p in kept.iterdir()} == EARLIER
    assert not new.exists()


def test_write_that_fails_in_both_processes_is_an_output_error(tmp_path, capsys, monkeypatch):
    # The disk has room for the traces' headers only: the forked formatter's
    # first rows fail, and so do the parent's when it writes every row
    # itself.  The parent reports it against the trace, exits 1 and leaves
    # the earlier traces as they were.
    from tactilesim import pipeline

    forks = forks_counted(monkeypatch)
    header, real = pipeline._CSV_HEADER.encode(), os.write

    def full(fd, data):
        if stat.S_ISREG(os.fstat(fd).st_mode) and bytes(data) != header:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(fd, data)

    monkeypatch.setattr(os, "write", full)
    for name, body in EARLIER.items():
        (tmp_path / name).write_bytes(body)
    assert main(["run", str(SCENARIO_PATH), "--out-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    path = tmp_path / "trace_oracle.csv"
    assert captured.err == f"error: cannot write {path}: No space left on device\n"
    assert captured.out == "" and len(forks) == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == EARLIER
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestRunCommand:
    def test_run_default_scenario(self, tmp_path, capsys):
        rc = main(["run", str(SCENARIO_PATH), "--out-dir", str(tmp_path)])
        assert rc == 0
        oracle = tmp_path / "trace_oracle.csv"
        hybrid = tmp_path / "trace_hybrid.csv"
        summary = tmp_path / "trace_summary.json"
        assert oracle.exists() and hybrid.exists() and summary.exists()
        report = json.loads(summary.read_text())
        assert len(report["mse"]) == 15
        speedups = {lim["t_latency"]: lim["speedup"] for lim in report["budget"]["limits"]}
        assert speedups == {0.001: 93, 0.01: 930}

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["run", str(SCENARIO_PATH), "--out-dir", str(a)]) == 0
        assert main(["run", str(SCENARIO_PATH), "--out-dir", str(b)]) == 0
        for name in ("trace_oracle.csv", "trace_hybrid.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_outdir_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "envdir"
        monkeypatch.setenv("TACTILESIM_OUTDIR", str(target))
        assert main(["run", str(SCENARIO_PATH)]) == 0
        assert (target / "trace_summary.json").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = scenario_dict()
        bad["trajectory"]["total_samples"] = 7
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(bad))
        rc = main(["run", str(path), "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "trajectory.total_samples" in capsys.readouterr().err

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        noisy = scenario_dict()
        noisy["fc"]["sigma2"] = 1.0
        path = tmp_path / "noisy.yaml"
        path.write_text(yaml.safe_dump(noisy))
        rc = main(["run", str(path), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "sample" in capsys.readouterr().err

    def test_single_backend_scenario(self, tmp_path):
        solo = scenario_dict()
        solo["backends"] = ["hybrid"]
        path = tmp_path / "solo.yaml"
        path.write_text(yaml.safe_dump(solo))
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "trace_hybrid.csv").exists()
        assert not (tmp_path / "trace_oracle.csv").exists()
        report = json.loads((tmp_path / "trace_summary.json").read_text())
        assert report["mse"] is None


@pytest.mark.parametrize("prefix", ["sub/x", "/abs/x", "../x"])
def test_prefix_with_a_path_is_refused_before_the_run(prefix, tmp_path, capsys, monkeypatch):
    data = scenario_dict()
    data["output"] = {"prefix": prefix}
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data))
    out = tmp_path / "out"
    monkeypatch.setattr("tactilesim.cli.run_pipeline", lambda *a, **k: pytest.fail("ran"))
    assert main(["run", str(path), "--out-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: field 'output.prefix' must not contain a path separator")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.yaml"]


class TestUnwritableOutputs:
    # An output that cannot be written ends in one error line and exit 1.

    def test_out_dir_below_a_file_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr("tactilesim.cli.run_pipeline", lambda *a, **k: pytest.fail("ran"))
        assert main(["run", str(SCENARIO_PATH), "--out-dir", str(blocker / "sub")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {blocker / 'sub'}: Not a directory\n"
        assert captured.out == ""

    @pytest.mark.parametrize("name", ["trace_oracle.csv", "trace_hybrid.csv", "trace_summary.json"])
    def test_output_file_that_is_a_directory(self, name, tmp_path, capsys):
        (tmp_path / name).mkdir()
        assert main(["run", str(SCENARIO_PATH), "--out-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {tmp_path / name}: Is a directory\n"
        assert captured.out == ""

    def test_failed_run_removes_the_directories_it_made(self, tmp_path, capsys):
        noisy = scenario_dict()
        noisy["fc"]["sigma2"] = 1.0
        path = tmp_path / "noisy.yaml"
        path.write_text(yaml.safe_dump(noisy))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "a" / "b" / "c")]) == 2
        assert "sample" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["noisy.yaml"]

    @pytest.mark.parametrize("command", ["latency", "mse"])
    def test_report_out_below_a_file(self, command, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "report.json"
        if command == "latency":
            argv = ["latency", "--out", str(out)]
        else:
            assert main(["run", str(SCENARIO_PATH), "--out-dir", str(tmp_path)]) == 0
            capsys.readouterr()
            trace = str(tmp_path / "trace_oracle.csv")
            argv = ["mse", trace, trace, "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out}: Not a directory\n"
        assert captured.out == ""


class TestLatencyCommand:
    def test_default_targets(self, capsys):
        assert main(["latency"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["speedups"] == {"0.001s": 93, "0.01s": 930}
        assert report["t_hardware_measured_ns"] == 403.0
        for name, target in (("FK", 47.0), ("KFF", 70.0), ("IK", 218.0), ("FBF", 21.0)):
            assert abs(report["residual_ns"][name]) <= 0.2 * target

    def test_targets_file(self, tmp_path, capsys):
        path = tmp_path / "targets.json"
        path.write_text(json.dumps({"FK": 47.0}))
        assert main(["latency", "--targets", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["residual_ns"]["FK"] == pytest.approx(0.0, abs=1e-9)

    def test_empty_targets_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert main(["latency", "--targets", str(path)]) == 1

    def test_malformed_targets_rejected(self, tmp_path):
        path = tmp_path / "nonsense.json"
        path.write_text("[1, 2")
        assert main(["latency", "--targets", str(path)]) == 1

    @pytest.mark.parametrize("limit", ["-1", "nan", "inf", "1e308"])
    def test_bad_limit_rejected(self, limit, capsys):
        # Negative, non-finite, or too large for a finite speedup over the
        # measured t_hardware.
        assert main(["latency", "--limits", "1e-3", limit]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: field '--limits[1]'")
        assert len(captured.err.splitlines()) == 1 and captured.out == ""

    def test_hardware_time_underflow_rejected(self, tmp_path, capsys):
        # A 1e-320 ns target is 0.0 s of hardware time: no speedup is finite.
        path = tmp_path / "targets.json"
        path.write_text('{"FK": 1e-320}')
        assert main(["latency", "--targets", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: field '--limits[0]'")

    @pytest.mark.parametrize("value", ["1e160", "1e20"])
    def test_target_at_solver_infinity_rejected(self, tmp_path, capsys, value):
        # 1e160 would overflow the squared residual; HiGHS reads a 1e20
        # bound as infinite and would report an unbounded LP.
        path = tmp_path / "targets.json"
        path.write_text('{"FBF": %s, "FK": 1}' % value)
        assert main(["latency", "--targets", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: target for FBF must be below 1e+20 ns")
        assert len(captured.err.splitlines()) == 1 and captured.out == ""

    def test_repeated_module_rejected(self, tmp_path, capsys):
        # json would keep the last value silently.
        path = tmp_path / "targets.json"
        path.write_text('{"FK": 47, "IK": 218, "FK": 48}')
        assert main(["latency", "--targets", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: targets: module 'FK' given twice\n"
        assert captured.out == ""

    # A numeric string or a boolean is no number either.
    @pytest.mark.parametrize("value", ['"abc"', "null", "[47]", '"47"', "true"])
    def test_non_numeric_target_rejected(self, tmp_path, capsys, value):
        path = tmp_path / "targets.json"
        path.write_text('{"FK": %s}' % value)
        assert main(["latency", "--targets", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: targets: field 'FK' must be float")
        assert len(captured.err.splitlines()) == 1 and captured.out == ""


class TestMseCommand:
    def test_trace_against_itself(self, tmp_path, capsys):
        assert main(["run", str(SCENARIO_PATH), "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        trace = tmp_path / "trace_oracle.csv"
        assert main(["mse", str(trace), str(trace)]) == 0
        table = json.loads(capsys.readouterr().out)
        assert all(v == 0.0 for v in table.values())

    def test_hybrid_vs_oracle(self, tmp_path, capsys):
        assert main(["run", str(SCENARIO_PATH), "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        rc = main(
            ["mse", str(tmp_path / "trace_hybrid.csv"), str(tmp_path / "trace_oracle.csv")]
        )
        assert rc == 0
        table = json.loads(capsys.readouterr().out)
        # shared chain columns agree exactly; module outputs differ
        assert table["b1"] == 0.0
        assert table["v_x"] == 0.0
        assert 1e-9 <= table["c_x"] <= 1e-7
        assert 1e-7 <= table["theta_hsd_1"] <= 1e-5

    def test_truncated_file_reports_row_counts(self, tmp_path, capsys):
        assert main(["run", str(SCENARIO_PATH), "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        full = tmp_path / "trace_oracle.csv"
        lines = full.read_text().splitlines()
        cut = tmp_path / "cut.csv"
        cut.write_text("\n".join(lines[:601]) + "\n")
        rc = main(["mse", str(full), str(cut)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "1200" in err and "600" in err

    @pytest.mark.parametrize(
        "body, message",
        [
            ("x,y\n", "trace has no rows"),
            ("x,y\n1.0,2.0\n3.0\n", "line 3: 1 fields, the header has 2"),
            ("x,y\n1.0,2.0,3.0\n", "line 2: 3 fields, the header has 2"),
            ("x,y\n1.0,nan\n", "line 2: values must be finite"),
            ("x,y\n1.0,-inf\n", "line 2: values must be finite"),
            ("x,y\n1.0,abc\n", "line 2: could not convert"),
            ("x,x\n1.0,2.0\n", "line 1: the header repeats a column name"),
            ("\n\n\n", "line 1: the header names no column"),
            ("x,\n1.0,2.0\n", "line 1: the header has an empty column name"),
        ],
        ids=[
            "header-only",
            "short-row",
            "long-row",
            "nan",
            "inf",
            "text",
            "repeated-name",
            "blank-lines",
            "empty-name",
        ],
    )
    def test_malformed_trace_rejected(self, tmp_path, capsys, body, message):
        good = tmp_path / "good.csv"
        good.write_text("x,y\n1.0,2.0\n")
        bad = tmp_path / "bad.csv"
        bad.write_text(body)
        assert main(["mse", str(good), str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}") and message in captured.err
        assert len(captured.err.splitlines()) == 1 and captured.out == ""

    def test_overflowing_mse_rejected(self, tmp_path, capsys):
        # Both traces are finite, but their difference squared is not.
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("x,y\n1e200,1.0\n")
        b.write_text("x,y\n-1e200,1.0\n")
        assert main(["mse", str(a), str(b)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: the MSE of column 'x' overflows\n"
        assert captured.out == ""

    def test_schema_mismatch(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("x,y\n1.0,2.0\n")
        b.write_text("x,z\n1.0,2.0\n")
        assert main(["mse", str(a), str(b)]) == 1


def _modules_after(code: str) -> tuple[bytes, set[str]]:
    """What ``code``, run in a fresh interpreter, wrote to stdout, and the
    modules loaded after it ran."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    code = "import json, sys\n" + code + "\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    output, _, modules = proc.stdout.rstrip(b"\n").rpartition(b"\n")
    return output + b"\n" if output else b"", set(json.loads(modules))


def test_latency_imports_only_what_it_runs():
    # The fit runs on scipy's HiGHS binding alone (the package inits of
    # scipy and scipy.optimize import numpy and most of scipy), the recorder
    # takes the circuits from their numpy-free module, and the report needs
    # neither the pipeline nor the scenario schema.
    stdout, modules = _modules_after(
        "from tactilesim.cli import main\nassert main(['latency']) == 0"
    )
    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    golden = digests["calibrate"]["*"]["cli"]["latency.json"]
    assert hashlib.sha256(stdout).hexdigest() == golden
    assert "tactilesim.latency_model" in modules
    unloaded = {"yaml", "numpy", "scipy", "scipy.optimize", "tactilesim.numerics",
                "tactilesim.kinematics", "tactilesim.force", "tactilesim.pipeline",
                "tactilesim.channel", "tactilesim.scenario"}
    assert not unloaded & modules


def test_run_imports_only_what_it_runs(tmp_path):
    _, modules = _modules_after(
        "from tactilesim.cli import main\n"
        f"assert main(['run', {str(SCENARIO_PATH)!r}, '--out-dir', {str(tmp_path)!r}]) == 0"
    )
    assert {"tactilesim.pipeline", "tactilesim.scenario", "yaml"} <= modules
    # The shipped scenario's channels are transparent: no stream is drawn.
    assert not {"scipy", "tactilesim.latency_model", "numpy.random"} & modules


def test_import_leaves_scipy_unloaded():
    # scipy is most of the package's import time and only calibration uses it.
    _, modules = _modules_after("import tactilesim.cli")
    assert "scipy" not in modules


def test_package_import_loads_no_submodule():
    _, modules = _modules_after("import tactilesim")
    assert "tactilesim" in modules
    assert [m for m in modules if m.startswith("tactilesim.")] == []


# Every name `tactilesim` exported when its __init__ imported each submodule,
# by the module it came from.
PACKAGE_EXPORTS = {
    "channel": "ChannelConfig ChannelState ConstantDelay OutOfOrderSample RandomWalkDelay "
    "channel_step",
    "force": "Elasticity ForceVector JacobianMatrix TorqueVector feedback_force jacobian "
    "kinesthetic_feedback",
    "kinematics": "CartesianPosition DEFAULT_GEOMETRY DeviceGeometry Hybrid JointAngles "
    "NonFiniteSignal ORACLE Oracle SampleError Unreachable forward_kinematics "
    "inverse_kinematics",
    "latency_model": "CalibrationDegenerate DataflowGraph OpLatencyTable builtin_graphs "
    "calibrate critical_path",
    "numerics": "CordicConfig NegativeRadicand QFormat S16_13 cordic_atan2 cordic_sincos "
    "float_to_fixed sqrt32",
    "pipeline": "Scene SeriesLengthMismatch SimulationTrace TrajectorySegment TrajectorySpec "
    "compute_mse hardware_time_limit mse_table run_pipeline "
    "speedup_report",
}


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in PACKAGE_EXPORTS.items() for name in names.split()],
)
def test_package_export_resolves(module, name):
    namespace: dict = {}
    exec(f"from tactilesim import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"tactilesim.{module}"), name)


def test_package_exports_are_listed():
    import tactilesim

    exported = {name for names in PACKAGE_EXPORTS.values() for name in names.split()}
    assert set(tactilesim.__all__) == exported and set(dir(tactilesim)) >= exported
    assert tactilesim.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        tactilesim.no_such_name


# Each global a command binds on first use, and a command line that calls it.
LAZY_CALLS = {
    "load_scenario": ["run", str(SCENARIO_PATH)],
    "run_pipeline": ["run", str(SCENARIO_PATH)],
    "TraceWriter": ["run", str(SCENARIO_PATH)],
    "summary_report": ["run", str(SCENARIO_PATH)],
    "calibrate": ["latency"],
}


@pytest.mark.parametrize("name", LAZY_CALLS)
def test_command_calls_a_replacement_set_before_first_use(name, tmp_path, capsys, monkeypatch):
    # As the benchmark's tracer and the tests' fakes do: the replacement is
    # set on the module before the command's first lookup, and is not
    # rebound over.
    monkeypatch.setenv("TACTILESIM_OUTDIR", str(tmp_path / "out"))
    monkeypatch.delitem(cli.__dict__, name, raising=False)
    calls = []

    def replacement(*args, **kwargs):
        calls.append(args)
        raise ScenarioError(f"replaced {name}")

    monkeypatch.setitem(cli.__dict__, name, replacement)
    assert main(LAZY_CALLS[name]) == 1
    assert len(calls) == 1 and cli.__dict__[name] is replacement
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"replaced {name}\n")


# No command calls write_trace_csv, but the benchmark's traced run spans
# `tactilesim.cli.write_trace_csv`, so the name must still bind.
@pytest.mark.parametrize("name", [*LAZY_CALLS, "Scenario", "write_trace_csv"])
def test_lookup_binds_a_global(name, monkeypatch):
    monkeypatch.delitem(cli.__dict__, name, raising=False)
    value = getattr(cli, name)
    assert cli.__dict__[name] is value
    assert value is getattr(importlib.import_module(cli._LAZY[name]), name)
    with pytest.raises(AttributeError):
        cli.no_such_name


@pytest.mark.parametrize(
    "name, error, code, line",
    [
        ("run_pipeline", SampleError("sample 3: off"), 2, "runtime error: sample 3: off"),
        ("run_pipeline", OutOfOrderSample("sample 4 of 2"), 2, "runtime error: sample 4 of 2"),
        ("calibrate", CalibrationDegenerate("no targets"), 1, "error: no targets"),
    ],
)
def test_errors_of_lazily_loaded_modules_are_mapped(
    name, error, code, line, tmp_path, capsys, monkeypatch
):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setenv("TACTILESIM_OUTDIR", str(tmp_path / "out"))
    monkeypatch.setattr(cli, name, fail)
    assert main(LAZY_CALLS[name]) == code
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize(
    "argv, line",
    [
        (["run"], "error: tactilesim run: the following arguments are required: scenario"),
        (
            ["latency", "--limits", "abc"],
            "error: tactilesim latency: argument --limits: invalid float value: 'abc'",
        ),
        ([], "error: tactilesim: the following arguments are required: command"),
        (["mse", "a", "b", "--bogus"], "error: tactilesim: unrecognized arguments: --bogus"),
    ],
)
def test_usage_error_exits_1_with_one_line(argv, line, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == line + "\n" and captured.out == ""


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["latency", "-h"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tactilesim")


def _scenario_with(**changes) -> bytes:
    """The shipped scenario as YAML bytes, with top-level fields replaced."""
    return yaml.safe_dump({**scenario_dict(), **changes}).encode()


NESTED = b"[" * 5000 + b"]" * 5000
RAISE_MEMORY_ERROR = (
    "import tactilesim.cli as cli\n"
    "def run_pipeline(*args, **kwargs):\n"
    "    raise MemoryError\n"
    "cli.run_pipeline = run_pipeline\n"
)

# Each case: the input files to write, the command line ({name} stands for
# the path of that file), code run before main(), and how stderr begins.
NEVER_A_TRACEBACK = {
    "scenario-not-utf8": (
        {"s.yaml": b"version: 1\nseed: \xff\n"},
        ["run", "{s.yaml}", "--out-dir", "{out}"],
        "",
        "error: cannot read scenario {s.yaml}: 'utf-8' codec can't decode byte 0xff",
    ),
    "targets-not-utf8": (
        {"t.json": b'{"FK": 47, "\xff": 1}'},
        ["latency", "--targets", "{t.json}"],
        "",
        "error: cannot read targets {t.json}: 'utf-8' codec can't decode byte 0xff",
    ),
    "scenario-malformed": (
        {"s.yaml": b"version: 1\nseed: [\n"},
        ["run", "{s.yaml}", "--out-dir", "{out}"],
        "",
        "error: cannot read scenario {s.yaml}: while parsing a flow node; expected the node",
    ),
    "scenario-nested-deeply": (
        {"s.yaml": NESTED},
        ["run", "{s.yaml}", "--out-dir", "{out}"],
        "",
        "error: cannot read scenario {s.yaml}: maximum recursion depth exceeded",
    ),
    "targets-nested-deeply": (
        {"t.json": NESTED},
        ["latency", "--targets", "{t.json}"],
        "",
        "error: cannot read targets {t.json}: maximum recursion depth exceeded",
    ),
    "prefix-with-nul": (
        {"s.yaml": _scenario_with(output={"prefix": "a\0b"})},
        ["run", "{s.yaml}", "--out-dir", "{out}"],
        "",
        "error: field 'output.prefix' must not contain a path separator or a NUL: 'a\\x00b'",
    ),
    "fc-delay-beyond-memory": (
        {"s.yaml": _scenario_with(fc={"delay": 100_000_000_000})},
        ["run", "{s.yaml}", "--out-dir", "{out}"],
        "",
        "error: field 'fc.delay' must be below the trajectory's 1200 samples, got 100000000000",
    ),
    "fc-delay-max-beyond-memory": (
        {"s.yaml": _scenario_with(fc={"delay": {"min": 0, "max": 100_000_000_000}})},
        ["run", "{s.yaml}", "--out-dir", "{out}"],
        "",
        "error: field 'fc.delay.max' must be below the trajectory's 1200 samples",
    ),
    "bc-delay-as-long-as-the-run": (
        {"s.yaml": _scenario_with(bc={"delay": 1200})},
        ["run", "{s.yaml}", "--out-dir", "{out}"],
        "",
        "error: field 'bc.delay' must be below the trajectory's 1200 samples, got 1200",
    ),
    "bc-delay-max-as-long-as-the-run": (
        {"s.yaml": _scenario_with(bc={"delay": {"min": 3, "max": 1200}})},
        ["run", "{s.yaml}", "--out-dir", "{out}"],
        "",
        "error: field 'bc.delay.max' must be below the trajectory's 1200 samples, got 1200",
    ),
    "run-out-of-memory": (
        {},
        ["run", str(SCENARIO_PATH), "--out-dir", "{out}/a/b"],
        RAISE_MEMORY_ERROR,
        "error: out of memory",
    ),
    "trace-not-utf8": (
        {"a.csv": b"x,y\n1.0,2.0\n", "b.csv": b"x,y\n1.0,\xff\n"},
        ["mse", "{a.csv}", "{b.csv}"],
        "",
        "error: {b.csv}: 'utf-8' codec can't decode byte 0xff",
    ),
    "report-out-with-nul": (
        {},
        ["latency", "--out", "{out}/a\0b"],
        "",
        "error: cannot write {out}/a\0b: embedded null byte",
    ),
    "out-dir-with-nul": (
        {},
        ["run", str(SCENARIO_PATH), "--out-dir", "{out}/a\0b"],
        "",
        "error: cannot write {out}/a\0b: embedded null byte",
    ),
    "run-without-scenario": (
        {},
        ["run"],
        "",
        "error: tactilesim run: the following arguments are required: scenario",
    ),
    "limits-not-a-number": (
        {},
        ["latency", "--limits", "abc"],
        "",
        "error: tactilesim latency: argument --limits: invalid float value: 'abc'",
    ),
    "latency-without-scipy": (
        {},
        ["latency"],
        "sys.modules['scipy'] = None\n",
        "error: import of scipy halted",
    ),
}


def fill(text: str, names: dict) -> str:
    """``text`` with each ``{name}`` replaced by that file's path."""
    for name, path in names.items():
        text = text.replace("{" + name + "}", path)
    return text


@pytest.mark.parametrize("case", NEVER_A_TRACEBACK)
def test_never_a_traceback(case, tmp_path):
    # Each input ends in exit 1 and one line on stderr, with nothing on
    # stdout and nothing left behind.  Each case runs in a fresh interpreter,
    # so that its stderr is all the process wrote, a traceback included; the
    # command line travels as JSON, since an argument cannot hold a NUL.
    files, argv, prelude, message = NEVER_A_TRACEBACK[case]
    names = {name: str(tmp_path / name) for name in files}
    names["out"] = str(tmp_path / "out")
    for name, body in files.items():
        (tmp_path / name).write_bytes(body)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    code = (
        "import json, sys\n" + prelude
        + "from tactilesim.cli import main\nsys.exit(main(json.loads(sys.argv[1])))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps([fill(a, names) for a in argv])],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(fill(message, names)), proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
