"""Dataflow-graph latency estimation for the hardware modules.

Each module (FK, IK, KFF, FBF) is described as a DAG of primitive operators
(adders, multipliers, dividers, trig blocks, square root, format converters).
The DAGs are not written by hand: they are recorded by running the hybrid
datapath's own circuit functions (``tactilesim.kinematics``,
``tactilesim.force``) on a policy whose values are graph nodes, so the
datapath and its latency model cannot drift apart.  The module latency is
the longest latency-weighted input-to-output path; the per-operator latencies
come from a table that can be calibrated against measured module sample
periods.
"""

from __future__ import annotations

import functools
import math
import types
from collections.abc import Mapping
from dataclasses import dataclass, field, fields

import numpy as np

from tactilesim.force import _fbf_circuit, _torque_circuit
from tactilesim.kinematics import _fk_circuit, _ik_circuit, _jacobian_circuit

__all__ = [
    "CalibrationDegenerate",
    "OP_KINDS",
    "OpLatencyTable",
    "DataflowGraph",
    "CalibrationResult",
    "critical_path",
    "critical_path_nodes",
    "builtin_graphs",
    "calibrate",
    "hardware_time",
    "DEFAULT_TARGETS_NS",
]

# Measured per-module sample periods of the reference FPGA implementation,
# in nanoseconds; the default calibration targets.
DEFAULT_TARGETS_NS = {"FK": 47.0, "KFF": 70.0, "IK": 218.0, "FBF": 21.0}

# Cap on the fit-and-reselect rounds of `calibrate`.  The path selection
# mostly settles within four rounds, but can also cycle, and then stops here.
_MAX_ROUNDS = 20


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use: scipy is most of the
    package's import time, and only calibration needs it."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


class CalibrationDegenerate(ValueError):
    """Calibration is impossible (no targets, or graphs with no operators)."""


@dataclass(frozen=True)
class OpLatencyTable:
    """Latency in nanoseconds per operator kind."""

    add: float = 0.0
    mul: float = 0.0
    div: float = 0.0
    tfb_sincos: float = 0.0
    tfb_atan2: float = 0.0
    tfb_acos: float = 0.0
    sqrt: float = 0.0
    f2fp: float = 0.0
    fp2f: float = 0.0
    negate: float = 0.0

    def __post_init__(self) -> None:
        # A NaN would lose every comparison of the longest-path sweep and
        # drop its path silently.
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"latency of {f.name} must be finite and nonnegative, got {value}")

    def get(self, kind: str) -> float:
        if kind not in OP_KINDS:
            raise ValueError(f"unknown operator kind {kind!r}")
        return getattr(self, kind)

    def to_dict(self) -> dict[str, float]:
        return {k: getattr(self, k) for k in OP_KINDS}


# The operator kinds in field order, which is also the variable order of the
# calibration's linear program.
OP_KINDS = tuple(f.name for f in fields(OpLatencyTable))


@dataclass(frozen=True)
class DataflowGraph:
    """Operator DAG with designated input terminals and output nodes.

    ``nodes`` maps node id to operator kind, in a topological order (the
    order the recorder creates them in); ``edges`` are (producer, consumer)
    pairs where each producer is an input terminal name or an earlier node;
    ``outputs`` name the nodes whose results leave the module.

    A graph cannot change once built: ``nodes`` is a read-only copy of the
    mapping given and the other fields are tuples.  It compiles itself on
    construction into node positions (each node's kind index and the
    positions of its feeders), which the longest-path sweep runs on, and
    enumerates its path signatures on first use for `calibrate`.
    """

    name: str
    nodes: Mapping[str, str]
    edges: tuple[tuple[str, str], ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    # Per node in node order: its kind's index in OP_KINDS, and the positions
    # of the nodes feeding it, in edge order.
    _kinds: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _feeders: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _output_positions: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", types.MappingProxyType(dict(self.nodes)))
        object.__setattr__(self, "edges", tuple((src, dst) for src, dst in self.edges))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        for nid, kind in self.nodes.items():
            if kind not in OP_KINDS:
                raise ValueError(f"node {nid!r} has unknown kind {kind!r}")
        ins = set(self.inputs)
        if ins & self.nodes.keys():
            raise ValueError("input terminal names collide with node ids")
        # Every edge comes from an input or an earlier node: this rules out
        # cycles and makes the node order topological.
        position = {nid: i for i, nid in enumerate(self.nodes)}
        feeders: list[list[int]] = [[] for _ in position]
        for src, dst in self.edges:
            if dst not in position:
                raise ValueError(f"edge target {dst!r} is not a node")
            if src in position and position[src] < position[dst]:
                feeders[position[dst]].append(position[src])
            elif src not in ins:
                raise ValueError(
                    f"edge source {src!r} of {dst!r} is neither an input nor an earlier node"
                )
        for out in self.outputs:
            if out not in position:
                raise ValueError(f"output {out!r} is not a node")
        object.__setattr__(self, "_kinds", tuple(OP_KINDS.index(k) for k in self.nodes.values()))
        object.__setattr__(self, "_feeders", tuple(map(tuple, feeders)))
        object.__setattr__(self, "_output_positions", tuple(position[o] for o in self.outputs))

    @functools.cached_property
    def _path_signatures(self) -> tuple[np.ndarray, ...]:
        """`_all_path_signatures` of this graph, enumerated on first use; the
        arrays are read-only."""
        signatures = _all_path_signatures(self)
        for v in signatures:
            v.flags.writeable = False
        return tuple(signatures)

    @functools.cached_property
    def _longest_by_count(self) -> np.ndarray | None:
        """The first path signature with the most operators, `calibrate`'s
        starting selection; None without paths."""
        return max(self._path_signatures, key=lambda v: v.sum(), default=None)


def _longest_paths(g: DataflowGraph, t: OpLatencyTable) -> tuple[list[float], list[int]]:
    """Longest-path sweep over the node positions, in node order; returns per
    position the arrival latency including the node itself, and the position
    of its predecessor on the longest path (-1 at a path source).  Of equally
    long predecessors the first in edge order wins."""
    weights = [getattr(t, k) for k in OP_KINDS]
    arrival: list[float] = []
    via: list[int] = []
    for kind, feeders in zip(g._kinds, g._feeders):
        latest = 0.0
        pred = -1
        for p in feeders:
            a = arrival[p]
            if pred < 0 or a > latest:
                latest, pred = a, p
        arrival.append(latest + weights[kind])
        via.append(pred)
    return arrival, via


def critical_path(g: DataflowGraph, t: OpLatencyTable) -> float:
    """Longest weighted input-to-output path latency, in nanoseconds."""
    arrival, _ = _longest_paths(g, t)
    return max((arrival[o] for o in g._output_positions), default=0.0)


def critical_path_nodes(g: DataflowGraph, t: OpLatencyTable) -> list[str]:
    """Node ids along the critical path, input side first."""
    arrival, via = _longest_paths(g, t)
    if not g.outputs:
        return []
    cur = max(g._output_positions, key=arrival.__getitem__)
    ids = list(g.nodes)
    path = []
    while cur >= 0:
        path.append(ids[cur])
        cur = via[cur]
    path.reverse()
    return path


def _operator(kind: str):
    return lambda *operands: operands[0].rec.node(kind, *operands)


class _Signal:
    """A value in a recorded circuit: the node or input terminal producing it,
    or ``None`` for a constant.  Every operator becomes a node, also one on
    constants alone (``l1 * l1``), which is then a path source.  Subtraction
    runs on an adder."""

    # numpy scalars defer to the reflected operators instead of wrapping.
    __array_ufunc__ = None
    __slots__ = ("rec", "src")
    __add__ = __radd__ = __sub__ = __rsub__ = _operator("add")
    __mul__ = __rmul__ = _operator("mul")
    __truediv__ = _operator("div")
    __neg__ = _operator("negate")

    def __init__(self, rec: "_Recorder", src: str | None):
        self.rec = rec
        self.src = src


class _Recorder:
    """Arithmetic policy of the circuit functions that records their
    operators as a DataflowGraph.  A TFB is an F2FP per operand, the trig
    core and one FP2F; sincos delivers sine and cosine from one TFB."""

    def __init__(self, name: str):
        self.name = name
        self.inputs: list[str] = []
        self.nodes: dict[str, str] = {}
        self.edges: list[tuple[str, str]] = []
        # The link constants l1..l4 of the circuit functions.
        self.links = (_Signal(self, None),) * 4

    def terminals(self, *names: str) -> list[_Signal]:
        self.inputs.extend(names)
        return [_Signal(self, n) for n in names]

    def node(self, kind: str, *operands) -> _Signal:
        nid = f"{kind}{len(self.nodes)}"
        self.nodes[nid] = kind
        for x in operands:
            src = getattr(x, "src", None)
            if src is not None:
                self.edges.append((src, nid))
        return _Signal(self, nid)

    def const(self, value) -> _Signal:
        return _Signal(self, None)

    def _tfb(self, kind: str, *operands) -> _Signal:
        core = self.node(kind, *(self.node("f2fp", x) for x in operands))
        return self.node("fp2f", core)

    def sincos(self, angle) -> tuple[_Signal, _Signal]:
        out = self._tfb("tfb_sincos", angle)
        return out, out

    def atan2(self, y, x) -> _Signal:
        return self._tfb("tfb_atan2", y, x)

    def acos(self, arg, what: str) -> _Signal:
        return self._tfb("tfb_acos", arg)

    def sqrt(self, x) -> _Signal:
        return self.node("sqrt", x)

    def reach(self, r: _Signal) -> _Signal:
        return r

    def graph(self, outputs) -> DataflowGraph:
        return DataflowGraph(
            name=self.name,
            nodes=self.nodes,
            edges=tuple(self.edges),
            inputs=tuple(self.inputs),
            outputs=tuple(o.src for o in outputs),
        )


@functools.cache
def _recorded_graphs() -> dict[str, DataflowGraph]:
    fk, ik, kff, fbf = (_Recorder(name) for name in ("FK", "IK", "KFF", "FBF"))
    theta = kff.terminals("th1", "th2", "th3")
    force = kff.terminals("fx", "fy", "fz")
    obj = fbf.terminals("obj_x", "obj_y", "obj_z")
    env = fbf.terminals("env_x", "env_y", "env_z")
    return {
        "FK": fk.graph(_fk_circuit(fk, fk.links, fk.terminals("th1", "th2", "th3"))),
        "IK": ik.graph(_ik_circuit(ik, ik.links, ik.terminals("x", "y", "z"))[0]),
        "KFF": kff.graph(_torque_circuit(_jacobian_circuit(kff, kff.links, theta), force)),
        "FBF": fbf.graph(_fbf_circuit(obj, env, [fbf.const(None)] * 3)),
    }


def builtin_graphs() -> dict[str, DataflowGraph]:
    """Dataflow graphs of the four hardware modules, recorded from the hybrid
    datapath's circuit functions: FK, IK, KFF (the Jacobian, then J^T F) and
    FBF.  The graphs are recorded once per process; the dict is new on every
    call."""
    return dict(_recorded_graphs())


def hardware_time(critical_paths: dict[str, float]) -> float:
    """Total per-loop hardware latency: the FK module is instantiated twice
    (master and slave side), the others once."""
    total = 0.0
    for name, cp in critical_paths.items():
        total += 2.0 * cp if name == "FK" else cp
    return total


@dataclass(frozen=True)
class CalibrationResult:
    table: OpLatencyTable
    critical_paths: dict[str, float]
    residuals: dict[str, float]
    t_hardware: float

    def to_dict(self) -> dict:
        return {
            "op_latency_ns": self.table.to_dict(),
            "critical_path_ns": dict(self.critical_paths),
            "residual_ns": dict(self.residuals),
            "t_hardware_ns": self.t_hardware,
        }


def _all_path_signatures(g: DataflowGraph) -> list[np.ndarray]:
    """Distinct operator-count vectors over all input-to-output paths: per
    node in node order, the vectors of the paths ending there."""
    source = {(0,) * len(OP_KINDS)}
    vectors: list[set[tuple[int, ...]]] = []
    for i, feeders in zip(g._kinds, g._feeders):
        into = set().union(*(vectors[p] for p in feeders)) if feeders else source
        vectors.append({v[:i] + (v[i] + 1,) + v[i + 1 :] for v in into})
    result = set().union(*(vectors[o] for o in g._output_positions))
    return [np.array(v, dtype=float) for v in sorted(result)]


def calibrate(
    targets: dict[str, float],
    graphs: dict[str, DataflowGraph] | None = None,
) -> CalibrationResult:
    """Fit nonnegative per-operator latencies so that each module's critical
    path matches its target as closely as possible (least squares residual).

    The critical path is the max over all paths, so the fit keeps every path
    at or below its module's target while pushing one selected path per module
    up against it; the selection is refined until it coincides with the
    dominant path under the fitted table.

    The path signatures are each graph's own, enumerated once per graph
    object; every fit solves its linear programs anew.
    """
    if graphs is None:
        graphs = builtin_graphs()
    if not targets:
        raise CalibrationDegenerate("no calibration targets given")
    unknown = set(targets) - set(graphs)
    if unknown:
        raise CalibrationDegenerate(f"targets for unknown modules: {sorted(unknown)}")
    for name, value in targets.items():
        if not (value > 0 and math.isfinite(value)):
            raise CalibrationDegenerate(f"target for {name} must be positive, got {value}")
    names = sorted(targets)

    signatures = {name: graphs[name]._path_signatures for name in names}
    if all(not sigs for sigs in signatures.values()):
        raise CalibrationDegenerate("all target graphs are empty")

    a_ub = np.array([sig for name in names for sig in signatures[name]])
    b_ub = np.concatenate(
        [np.full(len(signatures[name]), targets[name]) for name in names]
    )

    # Start from the longest path by node count, then re-select the dominant
    # path under the fitted table until the selection is stable.
    selected = {name: graphs[name]._longest_by_count for name in names if signatures[name]}
    best: tuple[float, OpLatencyTable, dict[str, float]] | None = None
    for _ in range(_MAX_ROUNDS):
        objective = -np.sum([selected[name] for name in selected], axis=0)
        sol = linprog(objective, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
        if not sol.success:
            raise CalibrationDegenerate(f"latency fit failed: {sol.message}")
        # HiGHS may return a latency a rounding error (under 1e-9 ns) below
        # its zero bound; that reads as 0.
        if sol.x.min() <= -1e-9:
            raise CalibrationDegenerate(f"latency fit returned a negative latency: {sol.x}")
        x = np.where(sol.x < 0.0, 0.0, sol.x)
        table = OpLatencyTable(**{k: float(x[i]) for i, k in enumerate(OP_KINDS)})
        cps = {name: critical_path(graphs[name], table) for name in names}
        sq_err = sum((cps[name] - targets[name]) ** 2 for name in names)
        if best is None or sq_err < best[0]:
            best = (sq_err, table, cps)
        if sq_err == 0.0:
            break
        previous = {name: tuple(vec) for name, vec in selected.items()}
        selected = {
            name: max(signatures[name], key=lambda v: float(v @ x))
            for name in names
            if signatures[name]
        }
        if {name: tuple(vec) for name, vec in selected.items()} == previous:
            break

    _, table, cps = best
    residuals = {name: cps[name] - targets[name] for name in names}
    return CalibrationResult(
        table=table,
        critical_paths=cps,
        residuals=residuals,
        t_hardware=hardware_time(cps),
    )
