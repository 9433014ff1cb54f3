"""The full discrete teleoperation loop: trajectory generation, master-side
forward kinematics, forward channel, slave-side inverse kinematics, slave
tracking, contact force synthesis, backwards channel and master torque
rendering, plus trace recording, MSE evaluation and the latency budget
arithmetic.

Validation methodology: when a shadow backend is requested, the driving
backend computes the signal chain, and after the loop the shadow backend is
evaluated module by module on the same per-module inputs, read back from the
recorded chain: FK and IK per sample, FBF and KFF once per block of samples
over its columns.  The resulting per-module output pairs differ only by the
datapath arithmetic, which is what the hardware-vs-golden comparison
measures; a cascaded comparison would re-measure upstream error at every
stage and say nothing about the module under test.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from tactilesim.channel import ChannelConfig, ChannelState, channel_step
from tactilesim.force import (
    Elasticity,
    ForceVector,
    feedback_force,
    feedback_force_block,
    kinesthetic_feedback,
    kinesthetic_feedback_block,
)
from tactilesim.kinematics import (
    CartesianPosition,
    DEFAULT_GEOMETRY,
    DeviceGeometry,
    Hybrid,
    JointAngles,
    ORACLE,
    Oracle,
    SampleError,
    forward_kinematics,
    inverse_kinematics,
)

__all__ = [
    "SeriesLengthMismatch",
    "TrajectorySegment",
    "TrajectorySpec",
    "Scene",
    "SimulationTrace",
    "MODULE_SIGNALS",
    "generate_trajectory",
    "run_pipeline",
    "compute_mse",
    "mse_table",
    "hardware_time_limit",
    "speedup_report",
    "write_trace_csv",
    "read_trace_csv",
]


class SeriesLengthMismatch(ValueError):
    """MSE requested for series of different lengths."""


@dataclass(frozen=True)
class TrajectorySegment:
    """Linear ramp of one joint from ``start`` to ``end`` over ``samples``
    samples (both endpoints included); the other joints hold."""

    joint: int
    start: float
    end: float
    samples: int

    def __post_init__(self) -> None:
        if self.joint not in (0, 1, 2):
            raise ValueError(f"joint must be 0, 1 or 2, got {self.joint}")
        if self.samples < 1:
            raise ValueError("segment needs at least one sample")


@dataclass(frozen=True)
class TrajectorySpec:
    """Sequential piecewise-linear joint ramps sampled every ``sample_period``
    seconds."""

    segments: tuple[TrajectorySegment, ...]
    sample_period: float = 0.01
    total_samples: int | None = None

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("trajectory needs at least one segment")
        if self.sample_period <= 0:
            raise ValueError("sample_period must be positive")
        total = sum(s.samples for s in self.segments)
        if self.total_samples is None:
            object.__setattr__(self, "total_samples", total)
        elif self.total_samples != total:
            raise ValueError(
                f"total_samples is {self.total_samples} but segments sum to {total}"
            )

    @property
    def q(self) -> int:
        return int(self.total_samples)

    @classmethod
    def default(cls) -> "TrajectorySpec":
        """The validation trajectory: joint 1 to pi/2, then joint 2 to pi/4,
        then joint 3 to pi/4; 400 samples each, 10 ms sample period."""
        return cls(
            segments=(
                TrajectorySegment(0, 0.0, math.pi / 2, 400),
                TrajectorySegment(1, 0.0, math.pi / 4, 400),
                TrajectorySegment(2, 0.0, math.pi / 4, 400),
            ),
            sample_period=0.01,
        )


def generate_trajectory(spec: TrajectorySpec) -> list[JointAngles]:
    """Sampled joint-space trajectory, one JointAngles per sample."""
    current = [0.0, 0.0, 0.0]
    # Joints start at the first value their first segment gives them; joints
    # that never move stay at zero.
    first_seen: set[int] = set()
    for seg in spec.segments:
        if seg.joint not in first_seen:
            current[seg.joint] = seg.start
            first_seen.add(seg.joint)
    out: list[JointAngles] = []
    for seg in spec.segments:
        for k in range(seg.samples):
            if seg.samples == 1:
                current[seg.joint] = seg.end
            else:
                current[seg.joint] = seg.start + (seg.end - seg.start) * (
                    k / (seg.samples - 1)
                )
            out.append(JointAngles(*current))
    return out


SurfaceFn = Callable[[CartesianPosition], CartesianPosition]


@dataclass(frozen=True)
class Scene:
    """Environment model: the elasticity of the touched object and a surface
    function giving the nearest object point for a tool position (equal to
    the tool position when nothing is touched, which makes the contact force
    vanish)."""

    elasticity: Elasticity
    surface: SurfaceFn

    def object_position(self, tool: CartesianPosition) -> CartesianPosition:
        return self.surface(tool)

    @classmethod
    def free_space(cls, elasticity: Elasticity) -> "Scene":
        """No object anywhere: zero contact force for the whole run."""
        return cls(elasticity=elasticity, surface=lambda tool: tool)

    @classmethod
    def contact_plane(
        cls,
        normal: Sequence[float],
        offset: float,
        elasticity: Elasticity,
    ) -> "Scene":
        """A fixed plane {p : n.p = offset}; when the tool passes beyond it,
        the nearest surface point is the projection of the tool back onto the
        plane, so the spring force is proportional to the penetration depth."""
        nvec = np.asarray(normal, dtype=float)
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(nvec))
        if not (math.isfinite(norm) and norm > 0):
            raise ValueError(f"plane normal must have a finite nonzero norm, got {norm!r}")
        nvec = nvec / norm
        n_x, n_y, n_z = nvec.tolist()

        def surface(tool: CartesianPosition) -> CartesianPosition:
            # The depth stays numpy's dot product.  On x86-64 it rounds as
            # the fused multiply-add chain fma(n_z, z, fma(n_y, y, n_x * x));
            # a plain Python sum differs in the last bit on about 40 % of
            # points, and the golden trace digests pin those bits.
            depth = float(nvec.dot(tool)) - offset
            if depth <= 0:
                return tool
            x, y, z = tool
            return CartesianPosition(x - depth * n_x, y - depth * n_y, z - depth * n_z)

        return cls(elasticity=elasticity, surface=surface)

    @classmethod
    def default(cls) -> "Scene":
        """Default validation scene: a tilted plane the tool reaches during
        the final trajectory segment, with moderate elasticity."""
        return cls.contact_plane(
            normal=(-2.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0),
            offset=0.03,
            elasticity=Elasticity(80.0, 80.0, 80.0),
        )


def hardware_time_limit(t_latency: float) -> float:
    """Per-device compute budget: 30% of the round trip is device time, split
    over two devices and two directions each: 0.3 * t_latency / 8."""
    if t_latency < 0:
        raise ValueError("t_latency must be nonnegative")
    return 0.3 * t_latency / 8.0


def speedup_report(t_hardware: float, limits: Sequence[float]) -> list[tuple[float, int]]:
    """Speedup of the hardware against each latency limit's compute budget,
    with the fractional part truncated (reported as whole multiples)."""
    if not t_hardware > 0:
        raise ValueError("t_hardware must be positive")
    return [(lim, int(hardware_time_limit(lim) / t_hardware)) for lim in limits]


# Trace column layout.
COLUMN_ORDER = (
    "n",
    "b1",
    "b2",
    "b3",
    "c_x",
    "c_y",
    "c_z",
    "v_x",
    "v_y",
    "v_z",
    "theta_hsd_1",
    "theta_hsd_2",
    "theta_hsd_3",
    "theta_sd_1",
    "theta_sd_2",
    "theta_sd_3",
    "l_x",
    "l_y",
    "l_z",
    "s_obj_x",
    "s_obj_y",
    "s_obj_z",
    "h_x",
    "h_y",
    "h_z",
    "q_x",
    "q_y",
    "q_z",
    "p_1",
    "p_2",
    "p_3",
)

# Hardware module -> the trace signals it produces; the row set of the
# validation MSE report.
MODULE_SIGNALS = {
    "FK-HMD": ("c_x", "c_y", "c_z"),
    "KFF-HMD": ("p_1", "p_2", "p_3"),
    "FK-HSD": ("l_x", "l_y", "l_z"),
    "IK-HSD": ("theta_hsd_1", "theta_hsd_2", "theta_hsd_3"),
    "FBF-HSD": ("h_x", "h_y", "h_z"),
}

# The module outputs, in column order, exist once per backend; the other
# columns are chain signals, shared between backends in a dual-backend run.
MODULE_OUTPUT_SIGNALS = tuple(
    name for name in COLUMN_ORDER if any(name in sigs for sigs in MODULE_SIGNALS.values())
)


@dataclass
class SimulationTrace:
    """Per-sample record of every loop signal.

    ``signals`` holds the chain signals and the driving backend's module
    outputs; ``shadow_signals`` holds the other backend's module outputs,
    evaluated on the same chain inputs (present only for dual-backend runs).
    """

    q: int
    sample_period: float
    driver: str
    shadow: str | None
    signals: dict[str, np.ndarray]
    shadow_signals: dict[str, np.ndarray] = field(default_factory=dict)

    def view(self, backend: str) -> dict[str, np.ndarray]:
        """Full column set for one backend: chain signals plus that backend's
        module outputs."""
        if backend == self.driver:
            return {name: self.signals[name] for name in COLUMN_ORDER}
        if backend == self.shadow:
            out = {}
            for name in COLUMN_ORDER:
                if name in MODULE_OUTPUT_SIGNALS:
                    out[name] = self.shadow_signals[name]
                else:
                    out[name] = self.signals[name]
            return out
        raise KeyError(f"trace holds backends {self.driver!r}/{self.shadow!r}, not {backend!r}")

    @property
    def backends(self) -> tuple[str, ...]:
        return (self.driver,) if self.shadow is None else (self.driver, self.shadow)


def run_pipeline(
    spec: TrajectorySpec,
    scene: Scene,
    fc: ChannelConfig,
    bc: ChannelConfig,
    backend: Oracle | Hybrid = ORACLE,
    *,
    geometry: DeviceGeometry = DEFAULT_GEOMETRY,
    shadow: Oracle | Hybrid | None = None,
    fcs_pole: float = 0.0,
) -> SimulationTrace:
    """Simulate the loop for every sample of the trajectory.

    Per sample: b = trajectory angles; c = FK(b); v = forward channel(c);
    theta_hsd = IK(v); theta_sd = tracking(theta_hsd); l = FK(theta_sd);
    h = spring force(s_obj, l); q = backwards channel(h); p = J^T(b) q.

    The slave tracking is ideal by default; ``fcs_pole`` in (0, 1) enables a
    first-order lag for sensitivity studies.  With ``shadow`` set, the shadow
    backend's modules are evaluated after the loop on the recorded chain
    inputs (see `_shadow_pass`) and recorded alongside.

    A failing sample raises its SampleError with ``sample {n}: `` before the
    message and ``n`` in ``sample_index``.  In a dual run that is the first
    failing sample of either backend; at the same sample the driver's error
    comes first, then the shadow's in module order FK master, IK, FK slave,
    FBF, KFF.
    """
    if not 0.0 <= fcs_pole < 1.0:
        raise ValueError("fcs_pole must lie in [0, 1)")
    traj = generate_trajectory(spec)
    q_len = spec.q
    fc_state = ChannelState(fc)
    bc_state = ChannelState(bc)

    # One row per sample, one column per signal; each column becomes a trace
    # column.  A row is one contiguous store.
    table = np.empty((q_len, len(COLUMN_ORDER)))

    keep = 1.0 - fcs_pole
    theta_sd = None
    # The driver's first failure: the sample and its exception.
    stop, error = q_len, None
    for n in range(q_len):
        try:
            b = traj[n]
            c = forward_kinematics(b, geometry, backend)
            v = CartesianPosition(*channel_step(fc_state, fc, c, n))
            theta_hsd = inverse_kinematics(v, geometry, backend)
            if fcs_pole == 0.0 or theta_sd is None:
                theta_sd = theta_hsd
            else:
                theta_sd = JointAngles(
                    *[fcs_pole * prev + keep * cur for prev, cur in zip(theta_sd, theta_hsd)]
                )
            l_pos = forward_kinematics(theta_sd, geometry, backend)
            s_obj = scene.object_position(l_pos)
            h = feedback_force(s_obj, l_pos, scene.elasticity, backend)
            f_in = ForceVector(*channel_step(bc_state, bc, h, n))
            p = kinesthetic_feedback(b, f_in, geometry, backend)
        except Exception as exc:
            # Any exception, not only a SampleError: whichever backend fails
            # at the earlier sample raises, as when the backends alternated.
            stop, error = n, exc
            break
        # In COLUMN_ORDER.
        table[n] = (n, *b, *c, *v, *theta_hsd, *theta_sd, *l_pos, *s_obj, *h, *f_in, *p)

    shadow_table = None
    if shadow is not None:
        # The shadow's samples before the driver's failure come first: one of
        # them may fail earlier.
        shadow_table = np.empty((q_len, len(MODULE_OUTPUT_SIGNALS)))
        _shadow_pass(table, stop, shadow, scene.elasticity, geometry, shadow_table)
    if error is not None:
        _raise_at(error, stop)

    return SimulationTrace(
        q=q_len,
        sample_period=spec.sample_period,
        driver=backend.name,
        shadow=None if shadow is None else shadow.name,
        signals=dict(zip(COLUMN_ORDER, table.T)),
        shadow_signals={} if shadow is None else dict(zip(MODULE_OUTPUT_SIGNALS, shadow_table.T)),
    )


def _raise_at(exc: Exception, n: int):
    """Raise ``exc``, a SampleError as one that names sample ``n``."""
    if isinstance(exc, SampleError):
        raise type(exc)(f"sample {n}: {exc}", sample_index=n) from exc
    raise exc


def _columns(names: tuple[str, ...], first: str) -> slice:
    """The three columns from ``first`` on in a table laid out as ``names``."""
    i = names.index(first)
    return slice(i, i + 3)


# Rows per block of the shadow pass.
_SHADOW_BLOCK = 256


def _row_by_row(fn, *consts):
    """A stage of the shadow pass that calls ``fn`` on each row of its
    operand blocks, with ``consts`` after the row's operands.  It returns, as
    the block functions of ``tactilesim.force`` do, the results before the
    first failing row and that row's exception (None when no row fails)."""

    def stage(*blocks):
        results = []
        append = results.append
        try:
            for operands in zip(*[block.tolist() for block in blocks]):
                append(fn(*operands, *consts))
        except Exception as exc:
            return results, exc
        return results, None

    return stage


def _shadow_pass(
    table: np.ndarray,
    rows: int,
    shadow: Oracle | Hybrid,
    elasticity: Elasticity,
    geometry: DeviceGeometry,
    out: np.ndarray,
) -> None:
    """Evaluate the shadow's modules on the chain signals of the first
    ``rows`` rows of ``table`` and write their outputs to ``out``, in
    ``MODULE_OUTPUT_SIGNALS`` order.

    The table holds the chain signals as the driver passed them on, so each
    module sees the inputs it had inside the loop.  The pass runs
    ``_SHADOW_BLOCK`` rows at a time, one module over the whole block before
    the next.  FK master, IK and FK slave call the module's public function
    per sample; FBF and KFF make one call per block, over the block's
    columns (``feedback_force_block``, ``kinesthetic_feedback_block``).  A
    module that fails at a sample stops there, and later modules run only
    on the samples before it; the first failing sample is raised, the
    earlier module first.
    """
    chain = partial(_columns, COLUMN_ORDER)
    module = partial(_columns, MODULE_OUTPUT_SIGNALS)
    # Per module, in evaluation order: the stage, the signals of its
    # per-sample operands and its output signal.
    fk = _row_by_row(forward_kinematics, geometry, shadow)
    ik = _row_by_row(inverse_kinematics, geometry, shadow)
    fbf = partial(feedback_force_block, h=elasticity, backend=shadow)
    kff = partial(kinesthetic_feedback_block, g=geometry, backend=shadow)
    stages = (
        (fk, (chain("b1"),), module("c_x")),
        (ik, (chain("v_x"),), module("theta_hsd_1")),
        (fk, (chain("theta_sd_1"),), module("l_x")),
        (fbf, (chain("s_obj_x"), chain("l_x")), module("h_x")),
        (kff, (chain("b1"), chain("q_x")), module("p_1")),
    )
    for start in range(0, rows, _SHADOW_BLOCK):
        stop = min(start + _SHADOW_BLOCK, rows)
        error = None
        for stage, inputs, output in stages:
            block = table[start:stop]
            results, exc = stage(*[block[:, cols] for cols in inputs])
            if exc is not None:
                stop, error = start + len(results), exc
            if len(results):
                out[start:stop, output] = results
        if error is not None:
            _raise_at(error, stop)


def compute_mse(a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray) -> float:
    """Mean squared error (1/Q) sum (a_n - b_n)^2."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise SeriesLengthMismatch(f"series shapes differ: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise SeriesLengthMismatch("series must contain at least one sample")
    diff = a - b
    return float(np.mean(diff * diff))


def mse_table(trace: SimulationTrace) -> list[dict]:
    """Per-module, per-component MSE between the two backends of a
    dual-backend trace (15 rows: 5 modules x 3 components)."""
    if trace.shadow is None:
        raise ValueError("MSE table needs a dual-backend trace")
    hybrid = trace.view("hybrid")
    oracle = trace.view("oracle")
    rows = []
    for module, signals in MODULE_SIGNALS.items():
        for sig in signals:
            rows.append(
                {
                    "module": module,
                    "signal": sig,
                    "mse": compute_mse(hybrid[sig], oracle[sig]),
                }
            )
    return rows


# Rows converted to Python floats at a time by the trace writer.  Larger
# chunks are no faster and raise peak memory (2048 rows: about 7 MiB on a
# 10^4-sample trace).
_CSV_CHUNK = 128


def write_trace_csv(trace: SimulationTrace, path, backend: str) -> None:
    """One row per sample, one column per signal component; values rendered
    with full round-trip precision (``repr``, which never needs CSV
    quoting)."""
    columns = list(trace.view(backend).values())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(COLUMN_ORDER) + "\n")
        for start in range(0, trace.q, _CSV_CHUNK):
            rows = zip(*(col[start : start + _CSV_CHUNK].tolist() for col in columns))
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in rows))


def read_trace_csv(path) -> tuple[list[str], np.ndarray]:
    """Read a trace written by ``write_trace_csv``; returns (header, data).
    The header names each column once, every row holds one finite number per
    column, and there is at least one row; a ValueError names the file and
    the line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty trace file") from None
        if len(set(header)) != len(header):
            raise ValueError(f"{path}, line 1: the header repeats a column name")
        rows = []
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where}: {len(row)} fields, the header has {len(header)}")
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{where}: values must be finite")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: trace has no rows")
    return header, np.array(rows, dtype=float)


def summary_report(
    trace: SimulationTrace,
    budget_limits: Sequence[float] = (1e-3, 10e-3),
    t_hardware: float = 403e-9,
) -> dict:
    """JSON-ready run summary: the MSE table (for dual-backend runs) and the
    latency budget numbers."""
    report: dict = {
        "q": trace.q,
        "sample_period": trace.sample_period,
        "backends": list(trace.backends),
        "mse": mse_table(trace) if trace.shadow is not None else None,
        "budget": {
            "t_hardware": t_hardware,
            "limits": [
                {
                    "t_latency": lim,
                    "hardware_time_limit": hardware_time_limit(lim),
                    "speedup": speedup,
                }
                for lim, speedup in speedup_report(t_hardware, budget_limits)
            ],
        },
    }
    return report
