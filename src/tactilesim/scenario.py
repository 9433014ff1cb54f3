"""The scenario file: the schema of what one ``tactilesim run`` takes, read
from YAML into a ``Scenario``.  ``SCHEMA`` declares every field once; one
walk reads the file through it and refuses any key it does not declare.
Every error is a ScenarioError naming the field or the file."""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import yaml

from tactilesim.budget import BUDGET_LIMITS, BUDGET_T_HARDWARE, hardware_time_limit
from tactilesim.channel import ChannelConfig, ConstantDelay, RandomWalkDelay
from tactilesim.force import Elasticity
from tactilesim.inputs import ScenarioError, check, check_limits, read_input
from tactilesim.kinematics import DEFAULT_GEOMETRY, DeviceGeometry, Hybrid, Oracle
from tactilesim.numerics import CordicConfig, QFormat, int_text
from tactilesim.pipeline import Scene, TrajectorySegment, TrajectorySpec

__all__ = ["SCHEMA", "Scenario", "ScenarioError", "load_scenario", "parse_scenario"]

SCHEMA_VERSION = 1

# The shipped validation scenario uses a coarser trig grade than the library
# default; it reproduces the error magnitudes of the reference hardware.
SCENARIO_CORDIC_ITERATIONS = 10


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


# A checker takes (value, name=field) and returns the value it reads.
INT = partial(check, kind=int)
FLOAT = partial(check, kind=float)
STR = partial(check, kind=str)


def _numbers(value, name: str, length: int | None = None) -> tuple[float, ...]:
    """A list of numbers, each checked as FLOAT and named ``name[i]``;
    ``length`` fixes the item count."""
    values = check(value, list, name)
    if length is not None and len(values) != length:
        raise ScenarioError(f"field '{name}' must be a list of {length} numbers")
    return tuple(check(v, float, f"{name}[{i}]") for i, v in enumerate(values))


VECTOR = partial(_numbers, length=3)


def _backends(value, name: str) -> tuple[str, ...]:
    if not (isinstance(value, list) and value):
        raise ScenarioError(f"field '{name}' must be a non-empty list")
    for b in value:
        if b not in ("oracle", "hybrid"):
            raise ScenarioError(f"field '{name}': unknown backend {b!r}")
    return tuple(dict.fromkeys(value))


# Each section maps its fields, in the order messages list them, to (kind,
# default).  A kind is a checker, a section (a dict), a list of sections (a
# list holding one), or a pair (checker, kind) that reads a mapping or a list
# through the second.  A field that must be present has the default
# REQUIRED; a section whose default is {} reads as {} when absent, so its
# fields take their defaults.
REQUIRED = object()
RANDOM_WALK = {"min": (INT, REQUIRED), "max": (INT, REQUIRED)}
CHANNEL = {
    "sigma2": ((FLOAT, VECTOR), 0.0),
    "delay": ((INT, RANDOM_WALK), 0),
    "initial_hold": (VECTOR, None),
}
SEGMENT = {
    "joint": (INT, REQUIRED),
    "start": (FLOAT, REQUIRED),
    "end": (FLOAT, REQUIRED),
    "samples": (INT, REQUIRED),
}
SCHEMA = {
    "version": (INT, REQUIRED),
    "seed": (INT, REQUIRED),
    "backends": (_backends, ("oracle", "hybrid")),
    "geometry": ({k: (FLOAT, getattr(DEFAULT_GEOMETRY, k)) for k in ("l1", "l2", "l3", "l4")}, {}),
    "cordic": ({"format": (STR, "s16.13"), "iterations": (INT, SCENARIO_CORDIC_ITERATIONS)}, {}),
    "trajectory": (
        {
            "sample_period": (FLOAT, 0.01),
            "total_samples": (INT, None),
            "segments": ([SEGMENT], REQUIRED),
        },
        REQUIRED,
    ),
    "scene": (
        {
            "type": (STR, "plane"),
            "normal": (VECTOR, None),
            "offset": (FLOAT, None),
            "elasticity": ({k: (FLOAT, REQUIRED) for k in ("hx", "hy", "hz")}, REQUIRED),
        },
        REQUIRED,
    ),
    "fc": (CHANNEL, {}),
    "bc": (CHANNEL, {}),
    "fcs": ({"pole": (FLOAT, 0.0)}, {}),
    "budget": (
        {"t_latency_limits": (_numbers, BUDGET_LIMITS), "t_hardware": (FLOAT, BUDGET_T_HARDWARE)},
        {},
    ),
    "output": ({"dir": (STR, "out"), "prefix": (STR, "trace")}, {}),
}


def _read(kind, value, name: str):
    """``value`` of field ``name`` read as ``kind``."""
    if isinstance(kind, tuple):
        kind = kind[1] if isinstance(value, (dict, list)) else kind[0]
    if isinstance(kind, dict):
        return _section(kind, value, name)
    if isinstance(kind, list):
        items = check(value, list, name)
        return [_section(kind[0], item, f"{name}[{i}]") for i, item in enumerate(items)]
    return kind(value, name=name)


def _section(fields: dict, data, name: str) -> dict:
    """The mapping ``data`` of section ``name`` read through ``fields``: each
    field it holds through its kind, each other one as its default."""
    data = check(data, dict, name)
    where = f"{name}." if name else ""
    for key in data:
        if key not in fields:
            raise ScenarioError(
                f"field '{where}{key}' is unknown; {name or 'a scenario'} takes {', '.join(fields)}"
            )
    values = {}
    for key, (kind, default) in fields.items():
        if key in data or isinstance(default, dict):
            values[key] = _read(kind, data.get(key, default), where + key)
        elif default is REQUIRED:
            raise ScenarioError(f"missing required field '{where}{key}'")
        else:
            values[key] = default
    return values


@contextmanager
def _naming(name: str):
    """Re-raise a config constructor's ValueError as a ScenarioError naming
    the scenario field it came from."""
    try:
        yield
    except ValueError as exc:
        raise ScenarioError(f"field '{name}': {exc}") from exc


def _trajectory(data: dict, fmt: QFormat | None) -> TrajectorySpec:
    """The trajectory.  With ``fmt`` set (a hybrid backend runs), every
    segment's start and end must lie in that format's range: F2FP saturates
    a larger angle before the sincos TFB reduces it, which would give a
    silently wrong result."""
    # TrajectorySpec refuses these too, but names neither field.
    if data["sample_period"] <= 0:
        raise ScenarioError("field 'trajectory.sample_period' must be positive")
    if not data["segments"]:
        raise ScenarioError("field 'trajectory.segments': trajectory needs at least one segment")
    segments = []
    for i, seg in enumerate(data["segments"]):
        sw = f"trajectory.segments[{i}]"
        if seg["joint"] not in (1, 2, 3):
            raise ScenarioError(f"field '{sw}.joint' must be 1, 2 or 3")
        start, end = seg["start"], seg["end"]
        # The ramp steps by (end - start) / (samples - 1).
        if not math.isfinite(end - start):
            raise ScenarioError(f"field '{sw}': end - start is not finite ({end!r} - {start!r})")
        if fmt is not None:
            for key, angle in (("start", start), ("end", end)):
                if not fmt.min_value <= angle <= fmt.max_value:
                    raise ScenarioError(
                        f"field '{sw}.{key}' = {angle!r} rad is outside the range "
                        f"[{fmt.min_value}, {fmt.max_value}] of cordic.format {fmt}"
                    )
        with _naming(sw + ".samples"):
            segments.append(TrajectorySegment(seg["joint"] - 1, start, end, seg["samples"]))
    with _naming("trajectory.total_samples"):
        return TrajectorySpec(tuple(segments), data["sample_period"], data["total_samples"])


def _channel(data: dict, name: str, seed: int, samples: int) -> ChannelConfig:
    """The channel ``name`` of a run of ``samples`` samples."""
    given = data["delay"]
    with _naming(name + ".delay"):
        if isinstance(given, dict):
            delay = RandomWalkDelay(d_min=given["min"], d_max=given["max"])
        else:
            delay = ConstantDelay(given)
    # The channel holds max_delay + 1 samples; a delay as long as the run
    # would allocate that and never deliver one.
    if delay.max_delay >= samples:
        key = "delay.max" if isinstance(given, dict) else "delay"
        raise ScenarioError(
            f"field '{name}.{key}' must be below the trajectory's {samples} samples, "
            f"got {int_text(delay.max_delay)}"
        )
    with _naming(name + ".sigma2"):
        return ChannelConfig(data["sigma2"], delay, seed, data["initial_hold"])


def _scene(data: dict) -> Scene:
    with _naming("scene.elasticity"):
        elasticity = Elasticity(**data["elasticity"])
    if data["type"] == "free":
        return Scene(elasticity)
    if data["type"] != "plane":
        raise ScenarioError(f"field 'scene.type' must be 'plane' or 'free', got {data['type']!r}")
    for key in ("normal", "offset"):
        if data[key] is None:
            raise ScenarioError(f"missing required field 'scene.{key}'")
    with _naming("scene.normal"):
        return Scene(elasticity, data["normal"], data["offset"])


def parse_scenario(data: dict, source: str = "<scenario>") -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError(f"{source}: scenario must be a mapping")
    s = _section(SCHEMA, data, "")
    if s["version"] != SCHEMA_VERSION:
        raise ScenarioError(f"field 'version': unsupported schema version {int_text(s['version'])}")
    seed = s["seed"]
    if seed < 0:
        raise ScenarioError(f"field 'seed' must be nonnegative, got {int_text(seed)}")
    with _naming("geometry"):
        geometry = DeviceGeometry(**s["geometry"])
    with _naming("cordic.format"):
        fmt = QFormat.from_string(s["cordic"]["format"])
    with _naming("cordic"):
        cordic = CordicConfig(iterations=s["cordic"]["iterations"], fmt=fmt)
    backends = s["backends"]
    trajectory = _trajectory(s["trajectory"], fmt if "hybrid" in backends else None)
    scene = _scene(s["scene"])
    fc = _channel(s["fc"], "fc", 2 * seed, trajectory.q)
    bc = _channel(s["bc"], "bc", 2 * seed + 1, trajectory.q)

    fcs_pole = s["fcs"]["pole"]
    if not 0.0 <= fcs_pole < 1.0:
        raise ScenarioError("field 'fcs.pole' must lie in [0, 1)")

    limits, t_hw = s["budget"]["t_latency_limits"], s["budget"]["t_hardware"]
    if t_hw <= 0:
        raise ScenarioError("field 'budget.t_hardware' must be positive")
    # t_hardware is judged against the paper's 1 ms limit first, then each
    # limit against t_hardware.
    if not math.isfinite(hardware_time_limit(1e-3) / t_hw):
        raise ScenarioError(
            f"field 'budget.t_hardware' is too small for a finite speedup: {t_hw!r} s"
        )
    check_limits(limits, t_hw, "budget.t_latency_limits")

    prefix = s["output"]["prefix"]
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
        output_dir=s["output"]["dir"],
        output_prefix=prefix,
        budget_limits=limits,
        budget_t_hardware=t_hw,
    )


def load_scenario(path) -> Scenario:
    data = read_input(path, yaml.safe_load, "scenario", (yaml.YAMLError,))
    return parse_scenario(data, source=str(path))
