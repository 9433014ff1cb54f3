"""The scenario file: the schema of what one ``tactilesim run`` takes, read
from YAML into a ``Scenario``.  Every error is a ScenarioError naming the
field or the file."""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import yaml

from tactilesim.budget import BUDGET_LIMITS, BUDGET_T_HARDWARE, hardware_time_limit
from tactilesim.channel import ChannelConfig, ConstantDelay, RandomWalkDelay
from tactilesim.force import Elasticity
from tactilesim.inputs import ScenarioError, check, check_limits, read_input
from tactilesim.kinematics import DeviceGeometry, Hybrid, Oracle
from tactilesim.numerics import CordicConfig, QFormat
from tactilesim.pipeline import Scene, TrajectorySegment, TrajectorySpec

__all__ = ["Scenario", "ScenarioError", "load_scenario", "parse_scenario"]

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


def _field(data: dict, key: str, kind, where: str, default=None, required: bool = False):
    if key not in data:
        if required:
            raise ScenarioError(f"missing required field '{where}{key}'")
        return default
    return check(data[key], kind, where + key)


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
    return tuple(check(v, float, f"{where}{key}[{i}]") for i, v in enumerate(values))


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
            **{k: check(geo_raw[k], float, f"geometry.{k}") for k in links if k in geo_raw}
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
    check_limits(limits, t_hw, "budget.t_latency_limits")

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


def load_scenario(path) -> Scenario:
    data = read_input(path, yaml.safe_load, "scenario", (yaml.YAMLError,))
    return parse_scenario(data, source=str(path))
