"""Command-line front end: run a scenario, calibrate the latency model,
compare trace files.

The commands raise; ``main`` alone turns an error into one line on stderr
and an exit code: 0 success; 1 an input, option or output a command cannot
use, the latency solver missing, or memory running out; 2 a runtime error
(e.g. an unreachable sample during simulation).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from tactilesim.channel import ChannelConfig, ConstantDelay, OutOfOrderSample, RandomWalkDelay
from tactilesim.force import Elasticity
from tactilesim.kinematics import DeviceGeometry, Hybrid, Oracle, SampleError
from tactilesim.latency_model import (
    CalibrationDegenerate,
    DEFAULT_TARGETS_NS,
    calibrate,
    hardware_time,
)
from tactilesim.numerics import CordicConfig, QFormat
from tactilesim.pipeline import (
    Scene,
    TrajectorySegment,
    TrajectorySpec,
    compute_mse,
    hardware_time_limit,
    read_trace_csv,
    run_pipeline,
    speedup_report,
    summary_report,
    write_trace_csv,
)

__all__ = ["Scenario", "ScenarioError", "load_scenario", "main"]

OUTDIR_ENV = "TACTILESIM_OUTDIR"
SCHEMA_VERSION = 1

# The shipped validation scenario uses a coarser trig grade than the library
# default; it reproduces the error magnitudes of the reference hardware.
SCENARIO_CORDIC_ITERATIONS = 10

# The paper's round-trip latency limits and hardware time in seconds: the
# defaults of a scenario's budget and of `latency --limits`.
BUDGET_LIMITS = (1e-3, 10e-3)
BUDGET_T_HARDWARE = 403e-9


class ScenarioError(ValueError):
    """An input, option or output a command cannot use; the message names the
    field or the file."""


@dataclass(frozen=True)
class Scenario:
    """Everything one run needs: trajectory, geometry, scene, channels,
    backend selection, trig configuration, seed and output naming."""

    trajectory: TrajectorySpec
    geometry: DeviceGeometry
    scene: Scene
    fc: ChannelConfig
    bc: ChannelConfig
    backends: tuple[str, ...]
    cordic: CordicConfig
    fcs_pole: float
    seed: int
    output_dir: str
    output_prefix: str
    budget_limits: tuple[float, ...]
    budget_t_hardware: float

    def backend_objects(self) -> tuple[Oracle | Hybrid, Hybrid | None]:
        """(driver, shadow): with both backends selected the oracle drives the
        chain and the hybrid is evaluated on the same module inputs."""
        hybrid = Hybrid(self.cordic)
        if set(self.backends) == {"oracle", "hybrid"}:
            return Oracle(), hybrid
        if self.backends == ("hybrid",):
            return hybrid, None
        return Oracle(), None


def _check(value, kind, name: str):
    """``value`` as a ``kind`` (an int reads as a float); a bool is never a
    number, and a float must be finite."""
    # YAML booleans are ints to Python: `seed: false` must not read as 0.
    if kind in (int, float) and isinstance(value, bool):
        raise ScenarioError(f"field '{name}' must be {kind.__name__}, got bool")
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ScenarioError(f"field '{name}' must be {kind.__name__}, got {type(value).__name__}")
    if kind is float and not math.isfinite(value):
        raise ScenarioError(f"field '{name}' must be finite, got {value!r}")
    return value


def _field(data: dict, key: str, kind, where: str, default=None, required: bool = False):
    if key not in data:
        if required:
            raise ScenarioError(f"missing required field '{where}{key}'")
        return default
    return _check(data[key], kind, where + key)


def _floats(
    data: dict,
    key: str,
    where: str,
    length: int | None = None,
    default=None,
    required: bool = False,
):
    """A list of numbers, each checked as `_field` checks one and named
    ``field[i]``; ``length`` fixes the item count."""
    values = _field(data, key, list, where, required=required)
    if values is None:
        return default
    if length is not None and len(values) != length:
        raise ScenarioError(f"field '{where}{key}' must be a list of {length} numbers")
    return tuple(_check(v, float, f"{where}{key}[{i}]") for i, v in enumerate(values))


@contextmanager
def _naming(name: str):
    """Re-raise a config constructor's ValueError as a ScenarioError naming
    the scenario field it came from."""
    try:
        yield
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"field '{name}': {exc}") from exc


def _check_limits(limits, t_hw: float, name: str) -> None:
    """Each round-trip latency limit must be finite and nonnegative, and its
    speedup ``hardware_time_limit(limit) / t_hw``, which the reports print as
    an integer, must be finite.  ``name`` is the field the limits came from."""
    for i, lim in enumerate(limits):
        if not (math.isfinite(lim) and lim >= 0):
            raise ScenarioError(f"field '{name}[{i}]' must be finite and nonnegative, got {lim!r}")
        if not (t_hw > 0 and math.isfinite(hardware_time_limit(lim) / t_hw)):
            raise ScenarioError(
                f"field '{name}[{i}]' is too large for a finite speedup "
                f"over t_hardware {t_hw!r} s: {lim!r} s"
            )


def _parse_trajectory(data: dict, fmt: QFormat | None) -> TrajectorySpec:
    """The trajectory.  With ``fmt`` set (a hybrid backend runs), every
    segment's start and end must lie in that format's range: F2FP saturates
    a larger angle before the sincos TFB reduces it, which would give a
    silently wrong result."""
    where = "trajectory."
    sample_period = _field(data, "sample_period", float, where, default=0.01)
    if sample_period <= 0:
        raise ScenarioError(f"field '{where}sample_period' must be positive")
    segments_raw = _field(data, "segments", list, where, required=True)
    segments = []
    for i, seg in enumerate(segments_raw):
        if not isinstance(seg, dict):
            raise ScenarioError(f"field 'trajectory.segments[{i}]' must be a mapping")
        sw = f"trajectory.segments[{i}]."
        joint = _field(seg, "joint", int, sw, required=True)
        if joint not in (1, 2, 3):
            raise ScenarioError(f"field '{sw}joint' must be 1, 2 or 3")
        start = _field(seg, "start", float, sw, required=True)
        end = _field(seg, "end", float, sw, required=True)
        # The ramp steps by (end - start) / (samples - 1).
        if not math.isfinite(end - start):
            raise ScenarioError(
                f"field 'trajectory.segments[{i}]': end - start is not finite "
                f"({end!r} - {start!r})"
            )
        if fmt is not None:
            for key, angle in (("start", start), ("end", end)):
                if not fmt.min_value <= angle <= fmt.max_value:
                    raise ScenarioError(
                        f"field '{sw}{key}' = {angle!r} rad is outside the range "
                        f"[{fmt.min_value}, {fmt.max_value}] of cordic.format {fmt}"
                    )
        with _naming(sw + "samples"):
            segments.append(
                TrajectorySegment(
                    joint=joint - 1,
                    start=start,
                    end=end,
                    samples=_field(seg, "samples", int, sw, required=True),
                )
            )
    total = _field(data, "total_samples", int, where)
    with _naming("trajectory.total_samples"):
        return TrajectorySpec(
            segments=tuple(segments), sample_period=sample_period, total_samples=total
        )


def _parse_channel(scenario: dict, name: str, seed: int, samples: int) -> ChannelConfig:
    """The channel ``name`` of a run of ``samples`` samples."""
    data = _field(scenario, name, dict, "", default={})
    where = f"{name}."
    if isinstance(data.get("sigma2"), list):
        sigma2 = _floats(data, "sigma2", where, length=3)
    else:
        sigma2 = _field(data, "sigma2", float, where, default=0.0)
    with _naming(where + "delay"):
        if isinstance(data.get("delay"), dict):
            delay = RandomWalkDelay(
                d_min=_field(data["delay"], "min", int, where + "delay.", required=True),
                d_max=_field(data["delay"], "max", int, where + "delay.", required=True),
            )
        else:
            delay = ConstantDelay(_field(data, "delay", int, where, default=0))
    # The channel holds max_delay + 1 samples; a delay as long as the run
    # would allocate that and never deliver one.
    if delay.max_delay >= samples:
        key = "delay.max" if isinstance(delay, RandomWalkDelay) else "delay"
        raise ScenarioError(
            f"field '{where}{key}' must be below the trajectory's {samples} samples, "
            f"got {delay.max_delay}"
        )
    hold = _floats(data, "initial_hold", where, length=3)
    with _naming(where + "sigma2"):
        return ChannelConfig(noise_variance=sigma2, delay=delay, seed=seed, initial_hold=hold)


def _parse_scene(data: dict) -> Scene:
    where = "scene."
    kind = _field(data, "type", str, where, default="plane")
    el_raw = _field(data, "elasticity", dict, where, required=True)
    with _naming(where + "elasticity"):
        elasticity = Elasticity(
            hx=_field(el_raw, "hx", float, where + "elasticity.", required=True),
            hy=_field(el_raw, "hy", float, where + "elasticity.", required=True),
            hz=_field(el_raw, "hz", float, where + "elasticity.", required=True),
        )
    if kind == "free":
        return Scene.free_space(elasticity)
    if kind == "plane":
        normal = _floats(data, "normal", where, length=3, required=True)
        offset = _field(data, "offset", float, where, required=True)
        with _naming(where + "normal"):
            return Scene.contact_plane(normal, offset, elasticity)
    raise ScenarioError(f"field 'scene.type' must be 'plane' or 'free', got {kind!r}")


def parse_scenario(data: dict, source: str = "<scenario>") -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError(f"{source}: scenario must be a mapping")
    version = _field(data, "version", int, "", required=True)
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"field 'version': unsupported schema version {version}")
    seed = _field(data, "seed", int, "", required=True)
    if seed < 0:
        raise ScenarioError(f"field 'seed' must be nonnegative, got {seed}")

    geo_raw = _field(data, "geometry", dict, "", default={})
    with _naming("geometry"):
        # A link the scenario leaves out keeps DeviceGeometry's default.
        links = ("l1", "l2", "l3", "l4")
        geometry = DeviceGeometry(
            **{k: _check(geo_raw[k], float, f"geometry.{k}") for k in links if k in geo_raw}
        )

    cordic_raw = _field(data, "cordic", dict, "", default={})
    fmt_text = _field(cordic_raw, "format", str, "cordic.", default="s16.13")
    with _naming("cordic.format"):
        fmt = QFormat.from_string(fmt_text)
    iterations = _field(
        cordic_raw, "iterations", int, "cordic.", default=SCENARIO_CORDIC_ITERATIONS
    )
    with _naming("cordic"):
        cordic = CordicConfig(iterations=iterations, fmt=fmt)

    backends_raw = data.get("backends", ["oracle", "hybrid"])
    if not isinstance(backends_raw, list) or not backends_raw:
        raise ScenarioError("field 'backends' must be a non-empty list")
    for b in backends_raw:
        if b not in ("oracle", "hybrid"):
            raise ScenarioError(f"field 'backends': unknown backend {b!r}")
    backends = tuple(dict.fromkeys(backends_raw))

    trajectory = _parse_trajectory(
        _field(data, "trajectory", dict, "", required=True),
        fmt if "hybrid" in backends else None,
    )
    scene = _parse_scene(_field(data, "scene", dict, "", required=True))

    fc = _parse_channel(data, "fc", 2 * seed, trajectory.q)
    bc = _parse_channel(data, "bc", 2 * seed + 1, trajectory.q)

    fcs_raw = _field(data, "fcs", dict, "", default={})
    fcs_pole = _field(fcs_raw, "pole", float, "fcs.", default=0.0)
    if not 0.0 <= fcs_pole < 1.0:
        raise ScenarioError("field 'fcs.pole' must lie in [0, 1)")

    budget_raw = _field(data, "budget", dict, "", default={})
    limits = _floats(budget_raw, "t_latency_limits", "budget.", default=BUDGET_LIMITS)
    t_hw = _field(budget_raw, "t_hardware", float, "budget.", default=BUDGET_T_HARDWARE)
    if t_hw <= 0:
        raise ScenarioError("field 'budget.t_hardware' must be positive")
    # t_hardware is judged against the paper's 1 ms limit first, then each
    # limit against t_hardware.
    if not math.isfinite(hardware_time_limit(1e-3) / t_hw):
        raise ScenarioError(
            f"field 'budget.t_hardware' is too small for a finite speedup: {t_hw!r} s"
        )
    _check_limits(limits, t_hw, "budget.t_latency_limits")

    out_raw = _field(data, "output", dict, "", default={})
    prefix = _field(out_raw, "prefix", str, "output.", default="trace")
    # The prefix names files inside the output directory; a separator would
    # put them elsewhere, or outside it altogether.  "/" separates on every
    # platform, os.sep also on Windows.  No file name holds a NUL.
    if "/" in prefix or os.sep in prefix or "\0" in prefix:
        raise ScenarioError(
            f"field 'output.prefix' must not contain a path separator or a NUL: {prefix!r}"
        )
    return Scenario(
        trajectory=trajectory,
        geometry=geometry,
        scene=scene,
        fc=fc,
        bc=bc,
        backends=backends,
        cordic=cordic,
        fcs_pole=fcs_pole,
        seed=seed,
        output_dir=_field(out_raw, "dir", str, "output.", default="out"),
        output_prefix=prefix,
        budget_limits=limits,
        budget_t_hardware=t_hw,
    )


def _read(path, parse, what: str):
    """``parse`` of the ``what`` file at ``path``, opened as UTF-8.  A file
    that cannot be read, decoded or parsed is a ScenarioError naming it, and
    a ScenarioError from ``parse`` gains ``what`` as its prefix."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh)
    except ScenarioError as exc:
        raise ScenarioError(f"{what}: {exc}") from None
    # ValueError covers UnicodeDecodeError and json's JSONDecodeError; a
    # deeply nested document exhausts either parser's recursion.
    except (OSError, ValueError, yaml.YAMLError, RecursionError) as exc:
        raise ScenarioError(f"cannot read {what} {path}: {exc}") from exc


@contextmanager
def _writing(path):
    """An output at ``path`` that cannot be written is a ScenarioError:
    ``cannot write <path>: <reason>``."""
    try:
        yield
    except (OSError, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ScenarioError(f"cannot write {path}: {reason}") from exc


def _emit(text: str, out) -> None:
    """Print a report, after writing it to ``out`` when that is given."""
    if out:
        with _writing(out):
            Path(out).write_text(text + "\n")
    print(text)


def load_scenario(path) -> Scenario:
    return parse_scenario(_read(path, yaml.safe_load, "scenario"), source=str(path))


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    out = Path(args.out_dir or os.environ.get(OUTDIR_ENV) or scenario.output_dir)
    # Made before the run, so that an unusable directory fails at once rather
    # than after the whole simulation.  A run that fails removes the
    # directories it made, and so leaves nothing behind.
    made = [p for p in (out, *out.parents) if not p.exists()]
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    try:
        driver, shadow = scenario.backend_objects()
        trace = run_pipeline(
            scenario.trajectory,
            scenario.scene,
            scenario.fc,
            scenario.bc,
            driver,
            geometry=scenario.geometry,
            shadow=shadow,
            fcs_pole=scenario.fcs_pole,
        )
    except BaseException:
        for p in made:
            p.rmdir()
        raise

    written = [out / f"{scenario.output_prefix}_{backend}.csv" for backend in trace.backends]
    for backend, path in zip(trace.backends, written):
        with _writing(path):
            write_trace_csv(trace, path, backend)
    report = summary_report(
        trace,
        budget_limits=scenario.budget_limits,
        t_hardware=scenario.budget_t_hardware,
    )
    report["traces"] = [p.name for p in written]
    summary_path = out / f"{scenario.output_prefix}_summary.json"
    with _writing(summary_path):
        summary_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {', '.join(str(p) for p in written)} and {summary_path}")
    return 0


def _unique_modules(pairs: list[tuple[str, object]]) -> dict:
    """A targets object as a dict; a module given twice is an error, where
    ``json`` would keep its last value."""
    targets: dict = {}
    for module, value in pairs:
        if module in targets:
            raise ScenarioError(f"module {module!r} given twice")
        targets[module] = value
    return targets


def _parse_targets(fh) -> dict:
    """A targets file: a non-empty JSON object of numbers, each module once."""
    raw = json.load(fh, object_pairs_hook=_unique_modules)
    if not isinstance(raw, dict) or not raw:
        raise ScenarioError("must be a non-empty JSON object")
    # Numbers as the scenario rules read them: no strings, no booleans.
    return {k: _check(v, float, k) for k, v in raw.items()}


def cmd_latency(args) -> int:
    if args.targets is None:
        targets = dict(DEFAULT_TARGETS_NS)
    else:
        targets = _read(args.targets, _parse_targets, "targets")
    result = calibrate(targets)

    # Speedups are quoted against the measured module times; the fitted
    # critical paths are the model's attribution of them.
    measured = hardware_time(targets)
    _check_limits(args.limits, measured * 1e-9, "--limits")
    report = result.to_dict()
    report["t_hardware_measured_ns"] = measured
    report["speedups"] = {
        f"{lim:g}s": speedup
        for lim, speedup in speedup_report(measured * 1e-9, args.limits)
    }
    report["hardware_time_limits"] = {
        f"{lim:g}s": hardware_time_limit(lim) for lim in args.limits
    }
    _emit(json.dumps(report, indent=2), args.out)
    return 0


def _read_trace(path) -> tuple[list[str], np.ndarray]:
    """``read_trace_csv``, its errors as ScenarioErrors naming the file."""
    try:
        return read_trace_csv(path)
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    except (OSError, ValueError) as exc:
        raise ScenarioError(str(exc)) from exc


def cmd_mse(args) -> int:
    header_a, data_a = _read_trace(args.trace_a)
    header_b, data_b = _read_trace(args.trace_b)
    if header_a != header_b:
        raise ScenarioError("trace schemas differ")
    if data_a.shape != data_b.shape:
        raise ScenarioError(
            f"trace lengths differ: {data_a.shape[0]} rows vs {data_b.shape[0]} rows"
        )
    # Finite values far apart still overflow the squared difference.
    with np.errstate(over="ignore"):
        table = {
            name: compute_mse(data_a[:, i], data_b[:, i]) for i, name in enumerate(header_a)
        }
    for name, mse in table.items():
        if not math.isfinite(mse):
            raise ScenarioError(f"the MSE of column {name!r} overflows")
    _emit(json.dumps(table, indent=2), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tactilesim",
        description="Deterministic teleoperation-pipeline simulator and latency model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file, emit trace CSVs and a summary")
    p_run.add_argument("scenario", help="path to the scenario YAML file")
    p_run.add_argument(
        "--out-dir",
        help=f"output directory (overrides ${OUTDIR_ENV} and the scenario setting)",
    )
    p_run.set_defaults(func=cmd_run)

    p_lat = sub.add_parser("latency", help="calibrate the latency model and report")
    p_lat.add_argument(
        "--targets",
        help="JSON file mapping module name (FK, IK, KFF, FBF) to target ns; "
        "defaults to the published module timings",
    )
    p_lat.add_argument(
        "--limits",
        type=float,
        nargs="+",
        default=BUDGET_LIMITS,
        help="round-trip latency limits in seconds for the speedup report",
    )
    p_lat.add_argument("--out", help="also write the report JSON to this path")
    p_lat.set_defaults(func=cmd_latency)

    p_mse = sub.add_parser("mse", help="per-column MSE between two trace CSVs")
    p_mse.add_argument("trace_a")
    p_mse.add_argument("trace_b")
    p_mse.add_argument("--out", help="also write the MSE JSON to this path")
    p_mse.set_defaults(func=cmd_mse)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the one place that maps an error to its exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SampleError, OutOfOrderSample) as exc:
        message, code = f"runtime error: {exc}", 2
    except (ScenarioError, CalibrationDegenerate, ImportError) as exc:
        message, code = f"error: {exc}", 1
    except MemoryError:
        message, code = "error: out of memory", 1
    # One line, although a YAML parse error spans several.
    print("; ".join(line.strip() for line in message.split("\n")), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
