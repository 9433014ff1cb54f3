"""Dataflow-graph latency estimation for the hardware modules.

Each module (FK, IK, KFF, FBF) is described as a DAG of primitive operators
(adders, multipliers, dividers, trig blocks, square root, format converters).
The DAGs are not written by hand: they are recorded by running the hybrid
datapath's own circuit functions (``tactilesim.circuits``) on a policy whose
values are graph nodes, so the datapath and its latency model cannot drift
apart.  The module latency is the longest latency-weighted input-to-output
path; the per-operator latencies come from a table that can be calibrated
against measured module sample periods.

The module imports no numpy: path signatures are tuples of floats, the fit's
vectors are lists, and each LP reaches scipy's HiGHS binding through its
scalar calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.machinery
import importlib.util
import math
import operator
import os
import sys
import threading
import types
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields

from tactilesim.circuits import (
    _fbf_circuit,
    _fk_circuit,
    _ik_circuit,
    _jacobian_circuit,
    _torque_circuit,
)

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

# HiGHS reads a bound at or above this as infinite, so a target this large
# would leave its paths unbounded.
_HIGHS_INF = 1e20


# scipy's compiled HiGHS binding, a pybind11 module.
_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _highs():
    """scipy's HiGHS binding, loaded on first use without the package
    ``__init__`` of ``scipy.optimize``, which imports linalg, sparse, special
    and fft and took most of the wall time of ``tactilesim latency``, and
    without scipy's own, which imports numpy: scipy is only located.

    The binding is registered in ``sys.modules`` under its own name before it
    runs, as the import system does, so that a later ``import scipy.optimize``
    reuses it, and an earlier one is reused here: a pybind11 module must not
    be initialised twice."""
    module = sys.modules.get(_HIGHS_MODULE)
    if module is not None:
        return module
    scipy_spec = importlib.util.find_spec("scipy")
    spec = scipy_spec and importlib.machinery.PathFinder.find_spec(
        _HIGHS_MODULE,
        [os.path.join(scipy_spec.submodule_search_locations[0], "optimize", "_highspy")],
    )
    if spec is None:
        # Only here does scipy run: its import raises the error of a scipy
        # that cannot load, or gives the version to name.
        import scipy

        raise ImportError(
            f"the latency fit needs {_HIGHS_MODULE}, which scipy {scipy.__version__} "
            "does not ship",
            name=_HIGHS_MODULE,
        )
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_MODULE] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_HIGHS_MODULE]
        raise
    return module


class _Rows:
    """An `_upper_rows` model: the LP ``a_ub @ x <= b_ub`` over ``x >= 0`` in
    one HiGHS instance, and the row bounds ``b_ub`` it holds.  Its rows stay
    as built; `bound` rewrites the bounds, and `linprog` the costs."""

    __slots__ = ("highs", "b_ub")

    def __init__(self, highs, b_ub: list[float]):
        self.highs = highs
        self.b_ub = b_ub

    def bound(self, b_ub: Sequence[float]) -> None:
        """Hold the row bounds ``b_ub``: rewrites the rows whose bound
        differs."""
        for i, (old, new) in enumerate(zip(self.b_ub, b_ub)):
            if new != old:
                self.highs.changeRowBounds(i, -math.inf, new)
        self.b_ub = list(b_ub)


def _upper_rows(a_ub: Sequence[Sequence[float]], b_ub: Sequence[float]) -> _Rows:
    """The LP ``a_ub @ x <= b_ub`` over ``x >= 0``, with zero costs, on a
    new HiGHS instance with default options but for the console log, as
    ``scipy.optimize.milp`` makes it.  The rows go in as one ``HighsLp`` with
    no columns, then each column, with its entries, through ``addVar`` and
    ``changeCoeff``, in column order and ascending row order: the
    column-major matrix milp hands HiGHS.  A ``HighsLp``'s column fields and
    every ``_Highs`` method that takes arrays import numpy; the row bounds
    and the scalar calls do not."""
    h = _highs()
    lp = h.HighsLp()
    lp.num_row_ = len(b_ub)
    lp.row_lower_ = [-math.inf] * len(b_ub)
    lp.row_upper_ = list(b_ub)
    lp.a_matrix_.num_row_ = len(b_ub)
    highs = h._Highs()
    highs.setOptionValue("log_to_console", False)
    highs.passModel(lp)
    for j, column in enumerate(zip(*a_ub)):
        highs.addVar(0.0, math.inf)
        for i, a in enumerate(column):
            if a != 0:
                highs.changeCoeff(i, j, a)
    return _Rows(highs, list(b_ub))


# Cap on the `_MODELS` cache; all 15 module subsets of the built-in graphs
# fit.
_MODEL_CACHE_SIZE = 16

# The `_upper_rows` models that fits left behind, keyed by their rows, least
# recently returned first; `_MODELS_LOCK` guards the dict, not the models,
# which one fit at a time holds outside it.
_MODELS: dict[tuple[tuple[float, ...], ...], _Rows] = {}
_MODELS_LOCK = threading.Lock()


@contextlib.contextmanager
def _kept_rows(a_ub: Sequence[tuple[float, ...]], b_ub: Sequence[float]):
    """The `_upper_rows` model of the rows ``a_ub`` bound by ``b_ub``, taken
    out of `_MODELS` (or built) for the duration of a fit, and put back only
    after a fit that raised nothing: a failed solve's state never reaches a
    later fit, and two fits at once each hold their own model."""
    key = tuple(a_ub)
    with _MODELS_LOCK:
        model = _MODELS.pop(key, None)
    if model is None:
        model = _upper_rows(a_ub, b_ub)
    else:
        model.bound(b_ub)
    yield model
    with _MODELS_LOCK:
        _MODELS[key] = model
        if len(_MODELS) > _MODEL_CACHE_SIZE:
            del _MODELS[next(iter(_MODELS))]


def linprog(c: Sequence[float], model: _Rows) -> list[float]:
    """Minimise ``c @ x`` over the `_upper_rows` model, with HiGHS's dual
    simplex; returns the vertex ``x``.

    Each call writes the costs ``c`` and clears the solver before it runs,
    so that no basis or solution of an earlier LP carries over: a warm start
    from an earlier round's basis could return another vertex of the
    optimal face.  Solved cold on the same rows, bounds and costs, a kept
    model returns the vertex of a fresh one, which is milp's.  The function
    keeps the name ``linprog`` under which the benchmark traces the solver
    (``latency_model.linprog``)."""
    h = _highs()
    highs = model.highs
    for j, cost in enumerate(c):
        highs.changeColCost(j, cost)
    highs.clearSolver()
    highs.run()
    status = highs.getModelStatus()
    if status != h.HighsModelStatus.kOptimal:
        raise CalibrationDegenerate(
            f"latency fit failed: HiGHS model status {highs.modelStatusToString(status)}"
        )
    return highs.getSolution().col_value


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
    def _path_signatures(self) -> tuple[tuple[float, ...], ...]:
        """`_all_path_signatures` of this graph, enumerated on first use."""
        return tuple(_all_path_signatures(self))

    @functools.cached_property
    def _longest_by_count(self) -> tuple[float, ...] | None:
        """The first path signature with the most operators, `calibrate`'s
        starting selection; None without paths."""
        return max(self._path_signatures, key=sum, default=None)


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
        "IK": ik.graph(_ik_circuit(ik, ik.links, ik.terminals("x", "y", "z"))),
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


def _all_path_signatures(g: DataflowGraph) -> list[tuple[float, ...]]:
    """Distinct operator-count vectors over all input-to-output paths, in
    ascending order, as tuples of floats: per node in node order, the vectors
    of the paths ending there."""
    source = {(0,) * len(OP_KINDS)}
    vectors: list[set[tuple[int, ...]]] = []
    for i, feeders in zip(g._kinds, g._feeders):
        into = set().union(*(vectors[p] for p in feeders)) if feeders else source
        vectors.append({v[:i] + (v[i] + 1,) + v[i + 1 :] for v in into})
    result = set().union(*(vectors[o] for o in g._output_positions))
    return [tuple(map(float, v)) for v in sorted(result)]


def _fma_dot(v: Sequence[float], x: Sequence[float]) -> float:
    """``v @ x`` as numpy's float64 dot product computes vectors this short
    on the hosts checked: one fused multiply-add per term, in index order,
    from 0.0, each rounded once to the nearest double.  Computed exactly over
    integers (a double is an integer over a power of two), so that it needs
    neither numpy nor ``math.fma``, which Python 3.13 added."""
    acc = 0.0
    for a, b in zip(v, x):
        an, ad = a.as_integer_ratio()
        bn, bd = b.as_integer_ratio()
        cn, cd = acc.as_integer_ratio()
        d = max(ad * bd, cd)
        # int / int rounds the exact quotient once, to nearest, ties to even.
        acc = (an * bn * (d // (ad * bd)) + cn * (d // cd)) / d
    return acc


# Ulps of the largest plain path sum within which `_dominant` computes the
# fused chains.  Over ten non-negative terms the plain sum and the fused
# chain each lie within about 30 ulps of the exact dot product, so a path
# whose plain sum is more than about 60 ulps below the largest cannot have
# the largest chain.
_SHORTLIST_ULPS = 64


def _dominant(signatures: Sequence[tuple[float, ...]], x: list[float]) -> tuple[float, ...]:
    """The first of ``signatures`` with the largest `_fma_dot` with the
    table ``x``: what ``max(signatures, key=lambda v: v @ x)`` gave on
    numpy arrays.  Plain sums shortlist the signatures that can be largest,
    and only those get the exact dot product."""
    sums = [sum(map(operator.mul, v, x)) for v in signatures]
    top = max(sums)
    floor = top - _SHORTLIST_ULPS * math.ulp(top)
    shortlist = [v for v, s in zip(signatures, sums) if s >= floor]
    if len(shortlist) == 1:
        return shortlist[0]
    return max(shortlist, key=lambda v: _fma_dot(v, x))


def calibrate(
    targets: dict[str, float],
    graphs: dict[str, DataflowGraph] | None = None,
) -> CalibrationResult:
    """Fit nonnegative per-operator latencies so that each module's critical
    path matches its target as closely as possible (least squares residual).

    The critical path is the max over all paths, so the fit keeps every path
    at or below its module's target while pushing one selected path per module
    up against it; the selection is refined until it coincides with the
    dominant path under the fitted table.  "At or below" holds to HiGHS's
    absolute primal feasibility tolerance of 1e-7 ns: a path may exceed its
    target by up to that much (``calibrate({"IK": 1e-9})`` reports IK at
    4e-9 ns).

    The path signatures are each graph's own, enumerated once per graph
    object.  The linear programs are solved with HiGHS on one model per row
    set, one row per path signature of the target modules in sorted module
    order: built on the first fit of those rows, kept across fits (at most
    `_MODEL_CACHE_SIZE` row sets), and given each fit's targets as its row
    bounds.  Each LP sets its costs and solves cold (see `linprog`).  A
    target must lie below HiGHS's infinite bound of 1e20 ns.
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
        if value >= _HIGHS_INF:
            raise CalibrationDegenerate(
                f"target for {name} must be below {_HIGHS_INF:g} ns, the solver's "
                f"infinite bound, got {value}"
            )
    names = sorted(targets)

    signatures = {name: graphs[name]._path_signatures for name in names}
    if all(not sigs for sigs in signatures.values()):
        raise CalibrationDegenerate("all target graphs are empty")

    with _kept_rows(
        [sig for name in names for sig in signatures[name]],
        [targets[name] for name in names for _ in signatures[name]],
    ) as model:
        # Start from the longest path by node count, then re-select the dominant
        # path under the fitted table until the selection is stable.
        selected = {name: graphs[name]._longest_by_count for name in names if signatures[name]}
        best: tuple[float, OpLatencyTable, dict[str, float]] | None = None
        for _ in range(_MAX_ROUNDS):
            # Counts are whole numbers, so the sums are exact; a zero count
            # costs -0.0.
            objective = [-sum(counts) for counts in zip(*selected.values())]
            x = linprog(objective, model)
            # HiGHS may return a latency a rounding error (under 1e-9 ns) below
            # its zero bound; that reads as 0.
            if min(x) <= -1e-9:
                raise CalibrationDegenerate(f"latency fit returned a negative latency: {x}")
            x = [0.0 if v < 0.0 else float(v) for v in x]
            table = OpLatencyTable(**dict(zip(OP_KINDS, x)))
            cps = {name: critical_path(graphs[name], table) for name in names}
            sq_err = sum((cps[name] - targets[name]) ** 2 for name in names)
            if best is None or sq_err < best[0]:
                best = (sq_err, table, cps)
            if sq_err == 0.0:
                break
            previous = selected
            selected = {name: _dominant(signatures[name], x) for name in names if signatures[name]}
            if selected == previous:
                break

    _, table, cps = best
    residuals = {name: cps[name] - targets[name] for name in names}
    return CalibrationResult(
        table=table,
        critical_paths=cps,
        residuals=residuals,
        t_hardware=hardware_time(cps),
    )
