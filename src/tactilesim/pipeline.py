"""The full discrete teleoperation loop: trajectory generation, master-side
forward kinematics, forward channel, slave-side inverse kinematics, slave
tracking, contact force synthesis, backwards channel and master torque
rendering, plus trace recording, MSE evaluation and the run's summary with
its latency budget (the budget arithmetic is ``tactilesim.budget``).

The chain is feed-forward, so a run is one pass of stages over a table with
one row per sample, a block of samples at a time, each stage over the whole
block before the next (see ``run_pipeline``).  The table is one anonymous
shared mapping, so ``TraceWriter`` can fork a formatter after the first
block that writes the trace CSVs while the later blocks run.  The run's
configs and its ``SimulationTrace`` are validated named tuples.

Validation methodology: when a shadow backend is requested, the driving
backend computes the signal chain, and the shadow backend's modules are
further stages of the same pass, evaluated on the per-module inputs the
driver recorded in the chain.  The resulting per-module output pairs differ
only by the datapath arithmetic, which is what the hardware-vs-golden
comparison measures; a cascaded comparison would re-measure upstream error
at every stage and say nothing about the module under test.
"""

from __future__ import annotations

import csv
import math
import mmap
import os
import struct
import warnings
from collections import namedtuple
from functools import partial
from typing import Callable, Sequence

import numpy as np

from tactilesim.budget import hardware_time_limit, speedup_report
from tactilesim.channel import ChannelConfig, ChannelState, channel_step
from tactilesim.force import (
    Elasticity,
    ForceVector,
    feedback_force_block,
    kinesthetic_feedback_block,
)

# Not called here: the benchmark's traced run spans this module's
# `feedback_force` and `kinesthetic_feedback`, so the names must exist.
from tactilesim.force import feedback_force, kinesthetic_feedback  # noqa: F401
from tactilesim.inputs import Checked, ScenarioError, check, check_items
from tactilesim.kinematics import (
    CartesianPosition,
    DEFAULT_GEOMETRY,
    DeviceGeometry,
    Hybrid,
    JointAngles,
    ORACLE,
    Oracle,
    SampleError,
    _valid_rows,
    forward_kinematics,
    inverse_kinematics,
)
from tactilesim.numerics import int_text

__all__ = [
    "SeriesLengthMismatch",
    "TrajectorySegment",
    "TrajectorySpec",
    "Scene",
    "SimulationTrace",
    "MODULE_SIGNALS",
    "run_pipeline",
    "compute_mse",
    "mse_table",
    "hardware_time_limit",
    "speedup_report",
    "write_trace_csv",
    "TraceWriter",
    "read_trace_csv",
]


class SeriesLengthMismatch(ValueError):
    """MSE requested for series of different lengths."""


class TrajectorySegment(Checked, namedtuple("TrajectorySegment", "joint start end samples")):
    """Linear ramp of one joint from ``start`` to ``end`` over ``samples``
    samples (both endpoints included); the other joints hold."""

    __slots__ = ()

    def __new__(cls, joint: int, start: float, end: float, samples: int):
        joint = check(joint, int, "joint")
        start = check(start, float, "start")
        end = check(end, float, "end")
        samples = check(samples, int, "samples")
        if joint not in (0, 1, 2):
            raise ValueError(f"joint must be 0, 1 or 2, got {int_text(joint)}")
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {int_text(samples)}")
        # A non-finite ramp would fail the run only at its first sample.
        if not math.isfinite(end - start):
            raise ValueError(f"end - start must be finite ({end!r} - {start!r})")
        return tuple.__new__(cls, (joint, start, end, samples))


class TrajectorySpec(Checked, namedtuple("TrajectorySpec", "segments sample_period total_samples")):
    """Sequential piecewise-linear joint ramps sampled every ``sample_period``
    seconds; ``total_samples`` defaults to the segments' sum."""

    __slots__ = ()

    def __new__(cls, segments, sample_period=0.01, total_samples=None):
        segments = check_items(segments, TrajectorySegment, "segments")
        if not segments:
            raise ValueError("segments must hold at least one segment")
        sample_period = check(sample_period, float, "sample_period")
        if sample_period <= 0:
            raise ValueError(f"sample_period must be positive, got {sample_period!r}")
        total = sum(s.samples for s in segments)
        if total_samples is not None:
            total_samples = check(total_samples, int, "total_samples")
            if total_samples != total:
                raise ValueError(
                    f"total_samples is {int_text(total_samples)} "
                    f"but segments sum to {int_text(total)}"
                )
        return tuple.__new__(cls, (segments, sample_period, total))

    @property
    def q(self) -> int:
        return self.total_samples


def _trajectory_table(spec: TrajectorySpec) -> np.ndarray:
    """The sampled trajectory as a (q, 3) array, one row of joint angles per
    sample.  Sample k of a segment sets its joint to
    start + (end - start) * (k / (samples - 1)), or to ``end`` when the
    segment has one sample; the other joints hold."""
    table = np.empty((spec.q, 3))
    # Joints start at the first value their first segment gives them; joints
    # that never move stay at zero.
    current = [0.0, 0.0, 0.0]
    for seg in reversed(spec.segments):
        current[seg.joint] = seg.start
    start = 0
    for seg in spec.segments:
        rows = table[start : start + seg.samples]
        rows[:] = current
        if seg.samples == 1:
            rows[:, seg.joint] = seg.end
        else:
            ramp = np.arange(seg.samples) / (seg.samples - 1)
            # A sum beyond the float range becomes inf; the run refuses it as
            # a non-finite angle at its sample.
            with np.errstate(over="ignore"):
                rows[:, seg.joint] = seg.start + (seg.end - seg.start) * ramp
        current[seg.joint] = rows[-1, seg.joint]
        start += seg.samples
    return table


class Scene(Checked, namedtuple("Scene", "elasticity normal offset")):
    """Environment model: the elasticity of the touched object and the plane
    {p : normal . p = offset} that bounds it, or no plane (``normal`` and
    ``offset`` None) for free space.  A plane's normal must have a finite
    nonzero norm and is kept scaled to unit length; its offset must be
    finite."""

    __slots__ = ()

    def __new__(cls, elasticity, normal=None, offset=None):
        elasticity = check(elasticity, Elasticity, "elasticity")
        if normal is not None or offset is not None:
            if normal is None or offset is None:
                raise ValueError("a plane needs both a normal and an offset")
            nvec = np.array(check_items(normal, float, "normal", 3))
            # An infinite offset would never touch, a NaN one fail at sample 0.
            offset = check(offset, float, "offset")
            with np.errstate(over="ignore"):
                norm = float(np.linalg.norm(nvec))
            if not (math.isfinite(norm) and norm > 0):
                raise ValueError(f"plane normal must have a finite nonzero norm, got {norm!r}")
            normal = tuple((nvec / norm).tolist())
        return tuple.__new__(cls, (elasticity, normal, offset))

    def object_positions(self, tools: np.ndarray) -> np.ndarray:
        """The nearest object point of each row of the (m, 3) array of tool
        positions ``tools``: the tool itself in free space or in front of
        the plane, its projection onto the plane beyond it, so the spring
        force is proportional to the penetration depth."""
        if self.normal is None:
            return tools
        # The depth is numpy's matmul of each row with the normal, which on
        # x86-64 rounds as numpy's dot product of a point with it, the fused
        # multiply-add chain fma(n_z, z, fma(n_y, y, n_x * x)).  `tools @
        # normal` differs in the last bit on about a third of points, and the
        # golden trace digests pin those bits.
        nvec = np.array(self.normal)
        with np.errstate(over="ignore", invalid="ignore"):
            depth = np.matmul(tools[:, None, :], nvec[:, None])[:, 0] - self.offset
            # NaN takes the projection too, and fails there as non-finite.
            return np.where(depth <= 0, tools, tools - depth * nvec)

    def object_position(self, tool: CartesianPosition) -> CartesianPosition:
        """``object_positions`` of one tool position."""
        return CartesianPosition(*self.object_positions(np.array([tool], dtype=float))[0].tolist())


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


class SimulationTrace(
    Checked,
    namedtuple("SimulationTrace", "q sample_period driver shadow signals shadow_signals"),
):
    """Per-sample record of every loop signal.

    ``signals`` holds the chain signals and the driving backend's module
    outputs; ``shadow_signals`` holds the other backend's module outputs,
    evaluated on the same chain inputs (present only for dual-backend runs;
    None reads as a new empty mapping).
    """

    __slots__ = ()

    def __new__(cls, q, sample_period, driver, shadow, signals, shadow_signals=None):
        shadow_signals = {} if shadow_signals is None else shadow_signals
        return tuple.__new__(cls, (q, sample_period, driver, shadow, signals, shadow_signals))

    def view(self, backend: str) -> dict[str, np.ndarray]:
        """Full column set for one backend: chain signals plus that backend's
        module outputs."""
        if backend == self.driver:
            return {name: self.signals[name] for name in COLUMN_ORDER}
        if backend == self.shadow:
            return {
                name: (self.shadow_signals if name in MODULE_OUTPUT_SIGNALS else self.signals)[name]
                for name in COLUMN_ORDER
            }
        raise KeyError(f"trace holds backends {self.driver!r}/{self.shadow!r}, not {backend!r}")

    @property
    def backends(self) -> tuple[str, ...]:
        return (self.driver,) if self.shadow is None else (self.driver, self.shadow)


def check_fcs_pole(pole, name: str) -> float:
    """``pole``, the pole of the slave tracking's first-order lag, as a float
    in [0, 1); ``name`` is the field it came from."""
    pole = check(pole, float, name)
    if not 0.0 <= pole < 1.0:
        raise ScenarioError(f"field '{name}' must lie in [0, 1)")
    return pole


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
    on_block: Callable[[SimulationTrace, int], None] | None = None,
) -> SimulationTrace:
    """Simulate the loop for every sample of the trajectory.

    Per sample: b = trajectory angles; c = FK(b); v = forward channel(c);
    theta_hsd = IK(v); theta_sd = tracking(theta_hsd); l = FK(theta_sd);
    h = spring force(s_obj, l); q = backwards channel(h); p = J^T(b) q.

    The slave tracking is ideal by default; ``fcs_pole`` in (0, 1) enables a
    first-order lag for sensitivity studies.  With ``shadow`` set, the shadow
    backend's FK master, IK, FK slave, FBF and KFF are evaluated on the chain
    signals the driver recorded and recorded alongside.

    Only the FCS lag and the channels carry state from one sample to the
    next, so the run is one pass of stages over a table whose trajectory
    columns ``_trajectory_table`` fills, ``_BLOCK`` samples at a time: the
    trajectory check, the driver's FK master, forward channel, IK, FCS lag,
    FK slave, scene, FBF, backwards channel and KFF, then the shadow's five
    modules.  Column stages make one call per block: the trajectory check,
    the FCS lag (one float loop), the scene (``Scene.object_positions``),
    FBF and KFF.  FK and IK call their public function per sample
    (``_row_by_row``), each channel ``channel_step`` (``_channel``), and
    both gather a block's rows into one array.  A block is one view of the
    table, through which every stage reads its operands and writes its
    rows.  A stage that fails at a sample stops there, and later stages run
    only on the samples before it.  So the run raises the first failing
    sample's error, at that sample the earlier stage's: the driver's, then
    the shadow's in module order; a SampleError with ``sample {n}: ``
    before its message and ``n`` in ``sample_index``.

    The table is one anonymous shared mapping (``_shared_table``), so a
    process forked during the run sees every row written after the fork.
    The returned trace's columns are views of it, and the trace exists from
    the start: ``on_block(trace, rows_done)``, when given, is called after
    each block whose stages all succeeded, with the number of rows computed
    so far; ``TraceWriter.on_block`` formats the trace from it while the run
    goes on.
    """
    fcs_pole = check_fcs_pole(fcs_pole, "fcs_pole")
    # The trace keeps one set of module outputs per backend kind.
    if shadow is not None and shadow.name == backend.name:
        raise ValueError(f"shadow {shadow.name!r} is of the driving backend's kind")
    q_len = spec.q
    width = len(COLUMN_ORDER)

    def chain(first: str, names: tuple[str, ...] = COLUMN_ORDER, offset: int = 0) -> slice:
        """The three table columns from ``first`` on, of the signals laid out
        as ``names`` from column ``offset`` on."""
        i = offset + names.index(first)
        return slice(i, i + 3)

    def modules(be: Oracle | Hybrid, out: Callable[[str], slice]) -> tuple:
        """``be``'s FK master, IK, FK slave, FBF and KFF stages, writing to
        the columns ``out`` gives."""
        fk = _row_by_row(forward_kinematics, geometry, be)
        ik = _row_by_row(inverse_kinematics, geometry, be)
        fbf = partial(feedback_force_block, h=scene.elasticity, backend=be)
        kff = partial(kinesthetic_feedback_block, g=geometry, backend=be)
        return (
            (fk, (chain("b1"),), out("c_x")),
            (ik, (chain("v_x"),), out("theta_hsd_1")),
            (fk, (chain("theta_sd_1"),), out("l_x")),
            (fbf, (chain("s_obj_x"), chain("l_x")), out("h_x")),
            (kff, (chain("b1"), chain("q_x")), out("p_1")),
        )

    # Per stage, in evaluation order: the stage, the table columns of its
    # operands (0: the sample index n) and its output columns.  The shadow's
    # modules see the chain signals as the driver passed them on.
    fk_master, ik, fk_slave, fbf, kff = modules(backend, chain)
    stages = [
        (partial(_valid_rows, JointAngles), (chain("b1"),), chain("b1")),
        fk_master,
        (_channel(fc, CartesianPosition), (chain("c_x"), 0), chain("v_x")),
        ik,
        (_lag(fcs_pole), (chain("theta_hsd_1"),), chain("theta_sd_1")),
        fk_slave,
        (_surface(scene), (chain("l_x"),), chain("s_obj_x")),
        fbf,
        (_channel(bc, ForceVector), (chain("h_x"), 0), chain("q_x")),
        kff,
    ]
    if shadow is not None:
        stages += modules(shadow, partial(chain, names=MODULE_OUTPUT_SIGNALS, offset=width))

    # One row per sample: the chain signals and the driver's module outputs
    # in COLUMN_ORDER, then the shadow's in MODULE_OUTPUT_SIGNALS order.
    table = _shared_table(q_len, width + (0 if shadow is None else len(MODULE_OUTPUT_SIGNALS)))
    table[:, 0] = np.arange(q_len)
    table[:, chain("b1")] = _trajectory_table(spec)
    trace = SimulationTrace(
        q=q_len,
        sample_period=spec.sample_period,
        driver=backend.name,
        shadow=None if shadow is None else shadow.name,
        signals=dict(zip(COLUMN_ORDER, table.T)),
        shadow_signals=dict(zip(MODULE_OUTPUT_SIGNALS, table.T[width:])),
    )
    for start in range(0, q_len, _BLOCK):
        stop = min(start + _BLOCK, q_len)
        block = table[start:stop]
        error = None
        for stage, inputs, output in stages:
            results, exc = stage(*[block[:, cols] for cols in inputs])
            if exc is not None:
                stop, error = start + len(results), exc
                block = table[start:stop]
            if len(results):
                block[:, output] = results
        if isinstance(error, SampleError):
            raise type(error)(f"sample {stop}: {error}", sample_index=stop) from error
        if error is not None:
            raise error
        if on_block is not None:
            on_block(trace, stop)
    return trace


# Samples per block of the stage pass.
_BLOCK = 256


def _shared_table(rows: int, columns: int) -> np.ndarray:
    """A zeroed (rows, columns) float table in one anonymous shared mapping,
    which a forked process shares instead of copying.  A mapping the system
    cannot make is a MemoryError, as numpy's allocation failure is."""
    try:
        buffer = mmap.mmap(-1, rows * columns * 8)
    except (OSError, OverflowError) as exc:
        raise MemoryError(f"cannot map a table of {rows} x {columns} values") from exc
    return np.frombuffer(buffer, dtype=float).reshape(rows, columns)


def _flat_rows(flat: list) -> np.ndarray:
    """A flat list of floats, three per row, as an (m, 3) array.  A flat
    list, because numpy converts a list of tuples three times slower, and
    ``np.fromiter`` of it about twice as fast as ``np.reshape``."""
    return np.fromiter(flat, float, len(flat)).reshape(-1, 3)


def _row_by_row(fn, first, second):
    """The stage of FK or IK: ``fn(row, first, second)`` on each row of its
    one operand block, a list of three floats, taking the three values each
    call returns.  It returns, as the block functions of ``tactilesim.force``
    do, an (m, 3) array of the results before the first failing row and that
    row's exception (None when no row fails)."""

    def stage(block):
        flat = []
        extend = flat.extend
        try:
            for row in block.tolist():
                extend(fn(row, first, second))
        except Exception as exc:
            return _flat_rows(flat), exc
        return _flat_rows(flat), None

    return stage


def _channel(cfg: ChannelConfig, vector: type):
    """The stage of one channel: ``channel_step(state, row, k)`` per row of
    the signal, with ``k`` counted up from the block's first sample index
    ``n``, and the output rows checked as ``vector``.  A non-finite output
    row fails before the first row whose step raises."""
    state = ChannelState(cfg)
    step = channel_step

    def stage(signal, n):
        flat = []
        extend = flat.extend
        error = None
        k = int(n[0]) if len(n) else 0
        try:
            for row in signal.tolist():
                extend(step(state, row, k))
                k += 1
        except Exception as exc:
            error = exc
        rows, bad = _valid_rows(vector, _flat_rows(flat))
        return rows, error if bad is None else bad

    return stage


def _surface(scene: Scene):
    """The stage of the scene: its object points, checked as positions."""
    return lambda tools: _valid_rows(CartesianPosition, scene.object_positions(tools))


def _lag(pole: float):
    """The stage of the slave tracking: theta_sd = theta_hsd, or with a pole
    the first-order lag pole * theta_sd(n - 1) + (1 - pole) * theta_hsd(n),
    which starts at theta_hsd(0) and carries theta_sd across blocks."""
    if pole == 0.0:
        return lambda theta: (theta, None)
    keep = 1.0 - pole
    prev = None

    def lag(theta):
        nonlocal prev
        rows = theta.tolist()
        # An earlier stage that fails at the block's first row leaves none.
        if not rows:
            return theta, None
        flat = []
        if prev is None:
            prev = rows.pop(0)
            flat += prev
        p1, p2, p3 = prev
        for t1, t2, t3 in rows:
            p1 = pole * p1 + keep * t1
            p2 = pole * p2 + keep * t2
            p3 = pole * p3 + keep * t3
            flat += p1, p2, p3
        prev = p1, p2, p3
        return _valid_rows(JointAngles, _flat_rows(flat))

    return lag


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
    return [
        {"module": module, "signal": sig, "mse": compute_mse(hybrid[sig], oracle[sig])}
        for module, signals in MODULE_SIGNALS.items()
        for sig in signals
    ]


# Rows converted to Python floats at a time by the trace writers, and the
# step in which TraceWriter's formatter follows the run and polls for its
# end mark, so the parent waits at most one chunk for the split.  Larger
# chunks are no faster and raise peak memory (2048 rows: about 7 MiB on a
# 10^4-sample trace).
_CSV_CHUNK = 128

_CSV_HEADER = ",".join(COLUMN_ORDER) + "\n"


def _csv_rows(columns: Sequence[np.ndarray], start: int, stop: int) -> str:
    """Rows ``start`` to ``stop`` of the trace with these columns, one CSV
    line each; values rendered with full round-trip precision (``repr``,
    which never needs CSV quoting)."""
    rows = zip(*(col[start:stop].tolist() for col in columns))
    return "".join(",".join(map(repr, row)) + "\n" for row in rows)


def write_trace_csv(trace: SimulationTrace, path, backend: str) -> None:
    """One row per sample, one column per signal component (``_csv_rows``)."""
    columns = list(trace.view(backend).values())
    with open(path, "w", newline="") as fh:
        fh.write(_CSV_HEADER)
        for start in range(0, trace.q, _CSV_CHUNK):
            fh.write(_csv_rows(columns, start, start + _CSV_CHUNK))


# TraceWriter's tickets: the rows computed so far, or _END once the run is
# complete.  The formatter's one reply, its split row, is a ticket too.
_TICKET = struct.Struct("q")
_END = -1


def _split_row(formatted: int, rows: int) -> int:
    """Where the formatter stops and the parent takes over: halfway through
    the rows the formatter has not yet formatted."""
    return formatted + (rows - formatted) // 2


class TraceWriter:
    """Writes a run's trace CSVs, byte for byte as ``write_trace_csv`` does,
    while the run goes on.

    ``paths`` are the traces in ``trace.backends`` order: the driver's, then
    the shadow's.  Pass ``on_block`` to ``run_pipeline``; once it returns,
    ``close`` finishes the files.  Call ``discard`` in every case
    afterwards: it kills and reaps the formatter and removes the temporary
    files, so a failed run leaves an existing trace as it was, and after a
    successful ``close`` it has nothing left to do.

    At the first block that leaves rows to compute, ``on_block`` creates one
    temporary file per trace next to it and forks a formatter, which reads
    the trace's columns through the run's shared mapping.  The parent sends
    it each block's row count, and the formatter appends those rows to the
    files a ``_CSV_CHUNK`` at a time.  ``close`` sends the end mark; the
    formatter answers with a split row (``_split_row``) and formats up to it
    while the parent formats the rest.  The parent then reaps the formatter,
    appends its share and renames each file onto its trace.  Without
    ``os.fork``, or when the first block is the whole run, the parent
    formats every row at ``close``.

    A formatter that fails (any exception ends it with status 1) hands every
    row back: ``close`` starts the files again and formats them all, so only
    the parent reports a file it cannot write, as an OSError naming it.
    """

    def __init__(self, paths: Sequence) -> None:
        self.paths = [os.fspath(p) for p in paths]
        self._q: int | None = None  # the run's row count, from its first block
        self._columns: list[list[np.ndarray]] = []
        self._rows = 0
        self._temps: dict[int, str] = {}  # by trace, until renamed
        self._fds: dict[int, int] = {}  # by trace, open on its temporary file
        self._pid: int | None = None
        self._tickets: int | None = None  # the parent's end of each pipe
        self._replies: int | None = None

    def on_block(self, trace: SimulationTrace, rows_done: int) -> None:
        """The ``run_pipeline`` hook."""
        if self._q is None:
            self._q = trace.q
            self._columns = [list(trace.view(b).values()) for b in trace.backends]
            if rows_done < trace.q and hasattr(os, "fork"):
                self._fork(rows_done)
        elif self._pid is not None and rows_done < self._q:
            self._send(rows_done)  # the last block's count goes as the end mark
        self._rows = rows_done

    def _fork(self, rows_done: int) -> None:
        """Start the formatter.  If the files, the pipes or the process
        cannot be made, the parent formats every row at ``close`` instead,
        which reports a file it cannot write."""
        ends: list[int] = []
        try:
            self._open()
            ends += os.pipe()
            ends += os.pipe()
            # Python 3.12 warns that forking a process with threads (numpy's
            # BLAS pool) may deadlock the child; the formatter calls no BLAS.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:
            for fd in ends:
                os.close(fd)
            return
        tickets, self._tickets, self._replies, replies = ends
        if pid == 0:
            # The formatter leaves only through os._exit, never through the
            # parent's exit handlers or stdio flushes.
            try:
                os.close(self._tickets)
                os.close(self._replies)
                os._exit(self._follow(tickets, replies, rows_done))
            finally:
                os._exit(1)  # any exception
        self._pid = pid
        os.close(tickets)
        os.close(replies)

    def _follow(self, tickets: int, replies: int, ready: int) -> int:
        """Format the rows run so far, taking tickets between chunks and
        waiting for one when all are formatted, up to the end mark; then reply
        with the split row and format up to it.  Returns the exit status."""
        import select  # only the formatter polls

        done, pending = 0, b""
        while True:
            if done >= ready or select.select([tickets], [], [], 0)[0]:
                data = os.read(tickets, 4096)
                if not data:
                    return 1  # the parent has gone
                pending += data
                whole = len(pending) - len(pending) % _TICKET.size
                counts = [n for (n,) in _TICKET.iter_unpack(pending[:whole])]
                pending = pending[whole:]
                if _END in counts:
                    break
                ready = max([ready, *counts])
            if done < ready:
                stop = min(done + _CSV_CHUNK, ready)
                self._format(done, stop, self._put)
                done = stop
        split = _split_row(done, self._q)
        os.write(replies, _TICKET.pack(split))
        self._format(done, split, self._put)
        return 0

    def _send(self, count: int) -> None:
        try:
            os.write(self._tickets, _TICKET.pack(count))
        except BrokenPipeError:
            pass  # the formatter has ended; close formats every row

    def close(self) -> None:
        """Finish every trace and rename it into place, after the run."""
        if self._q is None or self._rows < self._q:
            raise RuntimeError("TraceWriter.close before the run's last block")
        rows, share, status = self._q, None, 0
        if self._pid is not None:
            self._send(_END)
            reply = os.read(self._replies, _TICKET.size)  # one atomic pipe write
            if reply:
                share = []
                self._format(*_TICKET.unpack(reply), rows, lambda *chunk: share.append(chunk))
            status = os.waitpid(self._pid, 0)[1]
            self._pid = None
        if share is None or status:  # no formatter, or a failed one: start again
            self.discard()
            self._open()
            self._format(0, rows, self._put)
        else:
            for chunk in share:
                self._put(*chunk)
        self._close_fds()
        for index in list(self._temps):
            try:
                os.replace(self._temps[index], self.paths[index])
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, self.paths[index]) from None
            del self._temps[index]

    def discard(self) -> None:
        """Kill and reap the formatter, and remove every temporary file."""
        if self._pid is not None:
            import signal  # only a failed run kills the formatter

            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        self._close_fds()
        for temp in self._temps.values():
            try:
                os.remove(temp)
            except FileNotFoundError:
                pass
        self._temps.clear()

    def _open(self) -> None:
        """Create the temporary file of each trace, next to the trace,
        holding the header."""
        for index, path in enumerate(self.paths):
            head, name = os.path.split(path)
            temp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
            flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND
            try:
                self._fds[index] = os.open(temp, flags | getattr(os, "O_BINARY", 0), 0o666)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
            self._temps[index] = temp
            self._put(index, _CSV_HEADER.encode())

    def _format(self, start: int, stop: int, sink: Callable[[int, bytes], None]) -> None:
        """Rows ``start`` to ``stop`` of every trace, a chunk at a time, each
        chunk's bytes to ``sink(trace index, data)``."""
        for begin in range(start, stop, _CSV_CHUNK):
            end = min(begin + _CSV_CHUNK, stop)
            for index, columns in enumerate(self._columns):
                sink(index, _csv_rows(columns, begin, end).encode())

    def _put(self, index: int, data: bytes) -> None:
        """Append ``data`` to the temporary file of trace ``index``."""
        view = memoryview(data)
        try:
            while view:
                view = view[os.write(self._fds[index], view) :]
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, self.paths[index]) from None

    def _close_fds(self) -> None:
        for fd in (self._tickets, self._replies, *self._fds.values()):
            if fd is not None:
                os.close(fd)
        self._tickets = self._replies = None
        self._fds.clear()


def read_trace_csv(path) -> tuple[list[str], np.ndarray]:
    """Read a UTF-8 trace written by ``write_trace_csv``; returns (header, data).
    The header names at least one column, each once and none with an empty
    name, every row holds one finite number per column, and there is at
    least one row; a ValueError names the file and the line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty trace file") from None
        if not header:
            raise ValueError(f"{path}, line 1: the header names no column")
        if "" in header:
            raise ValueError(f"{path}, line 1: the header has an empty column name")
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
    trace: SimulationTrace, budget_limits: Sequence[float], t_hardware: float
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
