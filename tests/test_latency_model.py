import contextlib
import importlib.machinery
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog as scipy_linprog

from tactilesim import latency_model
from tactilesim.latency_model import (
    CalibrationDegenerate,
    DEFAULT_TARGETS_NS,
    DataflowGraph,
    OP_KINDS,
    OpLatencyTable,
    builtin_graphs,
    calibrate,
    critical_path,
    critical_path_nodes,
    hardware_time,
)

ROOT = Path(__file__).resolve().parent.parent


def table(**kwargs) -> OpLatencyTable:
    return OpLatencyTable(**kwargs)


class TestOpLatencyTable:
    def test_nonnegative_required(self):
        with pytest.raises(ValueError):
            OpLatencyTable(add=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("kind", ["add", "div"])
    def test_non_finite_rejected(self, kind, value):
        # A NaN div once built, and IK's critical path then read 21 ns: the
        # sweep dropped every path through a divider.
        with pytest.raises(ValueError, match=f"^latency of {kind} must be finite and "
                           f"nonnegative, got {value}$"):
            OpLatencyTable(**{"add": 8.0, "mul": 13.0, "div": 126.0, "negate": 13.0,
                              kind: value})

    @pytest.mark.parametrize("value", [10**400, -(10**400)])
    def test_int_beyond_float_range_rejected(self, value):
        # math.isfinite raises OverflowError on it; the message names the
        # kind and leaves out the digits.
        with pytest.raises(ValueError, match="^latency of div is an integer beyond the float "
                           "range$"):
            OpLatencyTable(add=8.0, div=value)

    def test_positional_in_op_kinds_order(self):
        values = [float(i + 1) for i in range(len(OP_KINDS))]
        t = OpLatencyTable(*values)
        assert t == OpLatencyTable(**dict(zip(OP_KINDS, values)))
        assert list(t) == values
        assert t.to_dict() == dict(zip(OP_KINDS, values))
        assert OpLatencyTable() == (0.0,) * len(OP_KINDS)

    def test_make_and_replace_check(self):
        with pytest.raises(ValueError, match="^latency of mul must be finite"):
            OpLatencyTable()._replace(mul=float("nan"))
        with pytest.raises(ValueError, match="^latency of add must be finite"):
            OpLatencyTable._make([-1.0] + [0.0] * 9)


class TestCriticalPath:
    def test_single_node(self):
        g = DataflowGraph(
            name="one",
            nodes={"a": "add"},
            edges=(("in", "a"),),
            inputs=("in",),
            outputs=("a",),
        )
        assert critical_path(g, table(add=5.0)) == 5.0

    def test_chain(self):
        g = DataflowGraph(
            name="chain",
            nodes={"a": "add", "m": "mul"},
            edges=(("in", "a"), ("a", "m")),
            inputs=("in",),
            outputs=("m",),
        )
        assert critical_path(g, table(add=5.0, mul=7.0)) == 12.0

    def test_parallel_branches_join(self):
        g = DataflowGraph(
            name="join",
            nodes={"b1": "mul", "b2": "div", "j": "add"},
            edges=(("in", "b1"), ("in", "b2"), ("b1", "j"), ("b2", "j")),
            inputs=("in",),
            outputs=("j",),
        )
        # branches of 10 and 12 joining at an add of 5
        assert critical_path(g, table(mul=10.0, div=12.0, add=5.0)) == 17.0

    def test_cycle_detected(self):
        with pytest.raises(ValueError, match="'b' of 'a' is neither an input nor an earlier"):
            DataflowGraph(
                name="loop",
                nodes={"a": "add", "b": "mul"},
                edges=(("a", "b"), ("b", "a")),
                inputs=(),
                outputs=("a",),
            )

    def test_chain_additivity(self):
        kinds = ["add", "mul", "sqrt", "div", "tfb_sincos", "negate"]
        nodes = {f"n{i}": k for i, k in enumerate(kinds)}
        edges = [("in", "n0")] + [(f"n{i}", f"n{i+1}") for i in range(len(kinds) - 1)]
        g = DataflowGraph(
            name="chain",
            nodes=nodes,
            edges=tuple(edges),
            inputs=("in",),
            outputs=(f"n{len(kinds)-1}",),
        )
        t = table(add=1, mul=2, sqrt=3, div=4, tfb_sincos=5, negate=6)
        assert critical_path(g, t) == 21.0

    def test_path_nodes_reported(self):
        g = DataflowGraph(
            name="join",
            nodes={"b1": "mul", "b2": "div", "j": "add"},
            edges=(("in", "b1"), ("in", "b2"), ("b1", "j"), ("b2", "j")),
            inputs=("in",),
            outputs=("j",),
        )
        assert critical_path_nodes(g, table(mul=10.0, div=12.0, add=5.0)) == ["b2", "j"]


class TestGraphValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DataflowGraph("bad", {"a": "fma"}, (), (), ("a",))

    def test_dangling_edge(self):
        with pytest.raises(ValueError):
            DataflowGraph("bad", {"a": "add"}, (("ghost", "missing"),), (), ("a",))

    def test_output_must_exist(self):
        with pytest.raises(ValueError):
            DataflowGraph("bad", {"a": "add"}, (), (), ("b",))

    def test_nodes_must_be_in_topological_order(self):
        # The chain in -> a -> m, with m listed before a.
        with pytest.raises(ValueError, match="'a' of 'm' is neither an input nor an earlier"):
            DataflowGraph(
                "bad", {"m": "mul", "a": "add"}, (("in", "a"), ("a", "m")), ("in",), ("m",)
            )

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="'a' of 'a'"):
            DataflowGraph("bad", {"a": "add"}, (("in", "a"), ("a", "a")), ("in",), ("a",))


def every_path(g: DataflowGraph) -> list[list[str]]:
    """Every input-to-output path as a list of node ids, input side first,
    found by walking the edges back from each output to a node that no other
    node feeds."""
    feeders = {nid: [] for nid in g.nodes}
    for src, dst in g.edges:
        if src in g.nodes:
            feeders[dst].append(src)

    def ending_at(nid):
        if not feeders[nid]:
            return [[nid]]
        return [path + [nid] for p in feeders[nid] for path in ending_at(p)]

    return [path for out in g.outputs for path in ending_at(out)]


def random_dag(rng: np.random.Generator, size: int) -> DataflowGraph:
    """A DAG of ``size`` random operators over two inputs; each node takes
    one to three operands from the inputs and earlier nodes, repeats
    allowed, and the outputs are two to four random nodes."""
    nodes = {f"n{i}": str(rng.choice(OP_KINDS)) for i in range(size)}
    edges = []
    for i in range(size):
        sources = ["x", "y"] + [f"n{j}" for j in range(i)]
        for src in rng.choice(sources, rng.integers(1, 4)):
            edges.append((str(src), f"n{i}"))
    outputs = rng.choice(list(nodes), min(size, rng.integers(2, 5)), replace=False)
    return DataflowGraph("random", nodes, tuple(edges), ("x", "y"), tuple(map(str, outputs)))


class TestAgainstPathEnumeration:
    @pytest.mark.parametrize("case", ["FK", "IK", "KFF", "FBF", "random"])
    def test_critical_path_and_signatures(self, case):
        rng = np.random.default_rng(43)
        if case == "random":
            graphs = [random_dag(rng, int(rng.integers(1, 12))) for _ in range(200)]
        else:
            graphs = [builtin_graphs()[case]]
        for g in graphs:
            paths = every_path(g)
            counts = {
                tuple(float([g.nodes[n] for n in path].count(k)) for k in OP_KINDS)
                for path in paths
            }
            assert [tuple(v) for v in latency_model._all_path_signatures(g)] == sorted(counts)
            assert [tuple(v) for v in g._path_signatures] == sorted(counts)
            # Small integer latencies make ties between paths common; uniform
            # ones round, so a sum taken by kind instead of along the path
            # would differ in the last bits.
            latencies = [rng.integers(0, 4, len(OP_KINDS)) * 1.0 for _ in range(10)]
            latencies += [rng.uniform(0, 200, len(OP_KINDS)) for _ in range(10)]
            for values in latencies:
                t = OpLatencyTable(**dict(zip(OP_KINDS, map(float, values))))
                # Float addition is monotone, so the longest sum taken in
                # path order equals the sweep's result exactly.
                longest = max(sum(getattr(t, g.nodes[n]) for n in path) for path in paths)
                assert critical_path(g, t) == longest
                # The reported path runs from a source node, also through
                # nodes that add no latency.
                nodes = critical_path_nodes(g, t)
                assert nodes in paths
                assert sum(getattr(t, g.nodes[n]) for n in nodes) == longest


class TestImmutableGraph:
    def test_fields_are_copied(self):
        nodes, edges, inputs, outputs = {"a": "add"}, [("in", "a")], ["in"], ["a"]
        g = DataflowGraph("copy", nodes, edges, inputs, outputs)
        nodes["m"] = "mul"
        edges.append(("a", "m"))
        outputs.append("m")
        assert dict(g.nodes) == {"a": "add"}
        assert (g.edges, g.inputs, g.outputs) == ((("in", "a"),), ("in",), ("a",))
        assert g == DataflowGraph("copy", {"a": "add"}, (("in", "a"),), ("in",), ("a",))
        assert critical_path(g, table(add=5.0, mul=7.0)) == 5.0

    def test_replace_builds_a_checked_graph(self):
        g = DataflowGraph("copy", {"a": "add", "m": "mul"}, (("in", "a"), ("a", "m")),
                          ("in",), ("a",))
        moved = g._replace(outputs=["m"])
        assert moved.outputs == ("m",) and moved.nodes == g.nodes
        assert critical_path(moved, table(add=5.0, mul=7.0)) == 12.0
        with pytest.raises(ValueError, match="output 'ghost' is not a node"):
            g._replace(outputs=("ghost",))

    def test_shared_graphs_cannot_be_changed(self):
        # builtin_graphs() hands out the process-wide recorded graphs; FK
        # once stayed empty after a caller cleared its nodes.
        before = calibrate(DEFAULT_TARGETS_NS).to_dict()
        g = builtin_graphs()["FK"]
        with pytest.raises(AttributeError):
            g.nodes.clear()
        with pytest.raises(TypeError):
            g.nodes["negate13"] = "add"
        with pytest.raises(TypeError):
            del g.nodes["negate13"]
        for name in DataflowGraph._fields:
            with pytest.raises(AttributeError):
                setattr(g, name, {} if name == "nodes" else ())
            with pytest.raises(AttributeError):
                delattr(g, name)
        assert all(type(f) is tuple for f in (g.edges, g.inputs, g.outputs))
        assert builtin_graphs()["FK"] is g and len(g.nodes) == 26
        assert calibrate(DEFAULT_TARGETS_NS).to_dict() == before


def chain(kind: str, length: int, name: str = "M") -> DataflowGraph:
    """``length`` operators of one kind in a row."""
    nodes = {f"n{i}": kind for i in range(length)}
    edges = (("in", "n0"),) + tuple((f"n{i}", f"n{i + 1}") for i in range(length - 1))
    return DataflowGraph(name, nodes, edges, ("in",), (f"n{length - 1}",))


class TestCompiledGraph:
    """The compiled positions and path signatures belong to the graph object:
    no other graph, whatever its name or id, sees them."""

    def test_graphs_sharing_a_name(self):
        for _ in range(2):
            for length, kind in enumerate(OP_KINDS, start=1):
                result = calibrate({"M": 60.0}, graphs={"M": chain(kind, length)})
                assert getattr(result.table, kind) == pytest.approx(60.0 / length)
                assert result.critical_paths["M"] == pytest.approx(60.0)

    def test_rebuilt_graphs_reusing_ids(self):
        # Each graph is dropped before the next is built, so CPython hands
        # out the same ids again.
        for i in range(40):
            kind, length = OP_KINDS[i % len(OP_KINDS)], i % 3 + 1
            g = chain(kind, length)
            assert getattr(calibrate({"M": 60.0}, graphs={"M": g}).table, kind) == pytest.approx(
                60.0 / length
            )
            assert critical_path(g, OpLatencyTable(**{kind: 2.5})) == 2.5 * length
            del g

    def test_signatures_enumerated_once_per_graph(self, monkeypatch):
        calls = []
        enumerate_paths = latency_model._all_path_signatures

        def counted(g):
            calls.append(id(g))
            return enumerate_paths(g)

        calibrate(DEFAULT_TARGETS_NS)
        monkeypatch.setattr(latency_model, "_all_path_signatures", counted)
        expected = calibrate(DEFAULT_TARGETS_NS).to_dict()
        assert calls == []
        graphs = {
            name: DataflowGraph(g.name, g.nodes, g.edges, g.inputs, g.outputs)
            for name, g in builtin_graphs().items()
        }
        for _ in range(3):
            assert calibrate(DEFAULT_TARGETS_NS, graphs=graphs).to_dict() == expected
            calibrate({"FK": 47.0, "IK": 218.0}, graphs=graphs)
        assert sorted(calls) == sorted(id(g) for g in graphs.values())

    def test_cached_signatures_are_read_only(self):
        g = chain("add", 2)
        with pytest.raises(TypeError):
            g._path_signatures[0][0] = 5.0
        assert [tuple(v) for v in g._path_signatures] == [(2.0,) + (0.0,) * 9]


class TestBuiltinGraphs:
    def test_fbf_two_ops_deep(self):
        g = builtin_graphs()["FBF"]
        t = table(add=1.0, mul=1.0)
        assert critical_path(g, t) == 2.0
        assert len(critical_path_nodes(g, t)) == 2

    def test_ik_deeper_than_fk_when_trig_dominates(self):
        graphs = builtin_graphs()
        rng = np.random.default_rng(5)
        for _ in range(20):
            base = rng.uniform(0.5, 5.0, 6)
            t = table(
                add=base[0],
                mul=base[1],
                div=base[2],
                sqrt=base[3],
                f2fp=base[4],
                fp2f=base[5],
                tfb_sincos=50.0,
                tfb_atan2=50.0,
                tfb_acos=50.0,
                negate=base[0],
            )
            assert critical_path(graphs["IK"], t) > critical_path(graphs["FK"], t)

    def test_torque_fan_in(self):
        # Each torque adder tree must see three Jacobian entries and all
        # three force inputs.
        g = builtin_graphs()["KFF"]
        preds = {nid: set() for nid in g.nodes}
        for src, dst in g.edges:
            preds[dst].add(src)

        def ancestors(nid):
            out = set()
            stack = [nid]
            while stack:
                cur = stack.pop()
                for p in preds.get(cur, ()):
                    if p not in out:
                        out.add(p)
                        if p in g.nodes:
                            stack.append(p)
            return out

        anc = ancestors(g.outputs[1])  # tau2
        forces = {"fx", "fy", "fz"}
        assert forces <= anc
        # The other factor of each force product is a Jacobian entry.
        entries = {p for nid in anc & g.nodes.keys() if preds[nid] & forces
                   for p in preds[nid] - forces}
        assert len(entries) == 3 and entries <= g.nodes.keys()

    def test_monotone_in_op_latency(self):
        graphs = builtin_graphs()
        rng = np.random.default_rng(11)
        base = {
            k: float(v)
            for k, v in zip(
                (
                    "add",
                    "mul",
                    "div",
                    "tfb_sincos",
                    "tfb_atan2",
                    "tfb_acos",
                    "sqrt",
                    "f2fp",
                    "fp2f",
                    "negate",
                ),
                rng.uniform(1, 20, 10),
            )
        }
        t0 = table(**base)
        for kind in base:
            bumped = dict(base)
            bumped[kind] = base[kind] + 5.0
            t1 = table(**bumped)
            for g in graphs.values():
                assert critical_path(g, t1) >= critical_path(g, t0)


class TestCalibration:
    def test_default_targets(self):
        result = calibrate(DEFAULT_TARGETS_NS)
        for name, target in DEFAULT_TARGETS_NS.items():
            assert abs(result.residuals[name]) <= 0.2 * target
        cp = result.critical_paths
        assert cp["FBF"] < cp["FK"] < cp["KFF"] < cp["IK"]
        assert abs(result.t_hardware - 403.0) <= 0.2 * 403.0

    def test_exact_targets_by_construction(self):
        graphs = {
            "A": DataflowGraph(
                "A", {"a": "add"}, (("in", "a"),), ("in",), ("a",)
            ),
            "B": DataflowGraph(
                "B",
                {"a": "add", "m": "mul"},
                (("in", "a"), ("a", "m")),
                ("in",),
                ("m",),
            ),
        }
        result = calibrate({"A": 5.0, "B": 12.0}, graphs=graphs)
        assert result.residuals["A"] == pytest.approx(0.0, abs=1e-9)
        assert result.residuals["B"] == pytest.approx(0.0, abs=1e-9)

    def test_single_module_target(self):
        result = calibrate({"FK": 47.0})
        assert result.residuals["FK"] == pytest.approx(0.0, abs=1e-9)

    def test_empty_targets_rejected(self):
        with pytest.raises(CalibrationDegenerate):
            calibrate({})

    def test_nonpositive_target_rejected(self):
        with pytest.raises(CalibrationDegenerate):
            calibrate({"FK": 0.0})

    @pytest.mark.parametrize(
        "bad, message",
        [
            (True, "field 'FK' must be float, got bool"),
            ("47", "field 'FK' must be float, got str"),
            (None, "field 'FK' must be float, got NoneType"),
            (10**400, "field 'FK' is an integer beyond the float range"),
            (math.nan, "field 'FK' must be finite, got nan"),
            (math.inf, "field 'FK' must be finite, got inf"),
        ],
        ids=["bool", "str", "None", "int-1e400", "nan", "inf"],
    )
    def test_target_must_be_a_finite_number(self, bad, message):
        with pytest.raises(ValueError) as err:
            calibrate({"IK": 218.0, "FK": bad})
        assert str(err.value) == message

    def test_integer_target_fits_as_its_float(self):
        assert calibrate({"FK": 47}) == calibrate({"FK": 47.0})

    def test_unknown_module_rejected(self):
        with pytest.raises(CalibrationDegenerate):
            calibrate({"DMA": 10.0})

    def test_empty_graph_rejected(self):
        graphs = {"E": DataflowGraph("E", {}, (), ("in",), ())}
        with pytest.raises(CalibrationDegenerate):
            calibrate({"E": 5.0}, graphs=graphs)

    def test_solver_rounding_below_zero_reads_as_zero(self):
        # HiGHS returns an operator latency of about -1e-13 for these targets.
        targets = {"KFF": 77.175, "IK": 181.088, "FBF": 22.348}
        result = calibrate(targets)
        assert all(v >= 0.0 for v in result.table.to_dict().values())
        for name in targets:
            assert result.residuals[name] == pytest.approx(0.0, abs=1e-9)

    def test_negative_solver_latency_rejected(self, monkeypatch):
        x = np.zeros(len(OP_KINDS))
        x[0] = -1e-6
        monkeypatch.setattr(latency_model, "linprog", lambda *a, **k: x)
        with pytest.raises(CalibrationDegenerate):
            calibrate({"FK": 47.0})

    def test_tiny_target_holds_to_solver_tolerance(self):
        # HiGHS keeps a row within its primal feasibility tolerance of 1e-7
        # ns of its bound, not below it.
        result = calibrate({"IK": 1e-9})
        assert 1e-9 < result.critical_paths["IK"] <= 1e-9 + 1e-7

    def test_non_optimal_status_named(self):
        # The first column has a negative cost and no row bounds it.
        rows = latency_model._upper_rows(np.array([[0.0, 1.0]]), np.array([1.0]))
        with pytest.raises(CalibrationDegenerate, match="HiGHS model status Unbounded"):
            latency_model.linprog(np.array([-1.0, 0.0]), rows)

    @pytest.mark.parametrize("targets", [{"FBF": 1e160, "FK": 1.0}, {"IK": 1e20}])
    def test_target_at_solver_infinity_rejected(self, targets):
        # HiGHS reads a row bound of 1e20 as infinite; 1e160 would overflow
        # the squared residual.
        name = next(iter(targets))
        message = f"target for {name} must be below 1e\\+20 ns"
        with pytest.raises(CalibrationDegenerate, match=message):
            calibrate(targets)

    def test_target_below_solver_infinity_fits(self):
        result = calibrate({"FBF": 9.99e19, "FK": 1.0})
        assert result.residuals["FK"] == pytest.approx(0.0, abs=1e-9)
        assert result.critical_paths["FBF"] <= 9.99e19

    def test_hardware_time_counts_fk_twice(self):
        assert hardware_time({"FK": 47.0, "KFF": 70.0, "IK": 218.0, "FBF": 21.0}) == 403.0


# The benchmark's target sets: the published timings, then each module left
# out in turn.
PUBLISHED = {"FK": 47.0, "KFF": 70.0, "IK": 218.0, "FBF": 21.0}
TARGET_SETS = [dict(PUBLISHED)] + [
    {m: t for m, t in PUBLISHED.items() if m != left_out} for left_out in PUBLISHED
]


def scaled_subsets(count: int) -> list[dict[str, float]]:
    """``count`` target sets cycling through the 15 non-empty module subsets,
    each published timing scaled by its own factor in [0.05, 20]."""
    rng = random.Random(18)
    subsets = [
        combo for r in range(1, 5) for combo in itertools.combinations(PUBLISHED, r)
    ]
    return [
        {m: PUBLISHED[m] * 20.0 ** rng.uniform(-1.0, 1.0) for m in subsets[i % len(subsets)]}
        for i in range(count)
    ]


def dense_rows(model) -> tuple[np.ndarray, list[float]]:
    """The rows and row bounds that the HiGHS instance of an `_upper_rows`
    model holds, as a dense matrix and a list."""
    lp = model.highs.getLp()
    matrix = lp.a_matrix_
    assert matrix.format_ == latency_model._highs().MatrixFormat.kColwise
    a_ub = np.zeros((lp.num_row_, lp.num_col_))
    for j in range(lp.num_col_):
        for k in range(matrix.start_[j], matrix.start_[j + 1]):
            a_ub[matrix.index_[k], j] = matrix.value_[k]
    return a_ub, lp.row_upper_


def reference_linprog(c, model):
    """The fit's LP through ``scipy.optimize.linprog(method="highs")`` on the
    dense rows and row bounds of the `_upper_rows` model: the reference that
    the direct binding must match."""
    a_ub, b_ub = dense_rows(model)
    sol = scipy_linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=(0, None),
        method="highs",
    )
    assert sol.success, sol.message
    return sol.x


class TestAgainstLinprog:
    """`latency_model.linprog` solves through scipy's HiGHS binding; every
    fit must print the same bytes, a negative zero included, as through
    ``scipy.optimize.linprog``."""

    @staticmethod
    def fits(target_sets, monkeypatch) -> tuple[list[str], list[str]]:
        def dump() -> list[str]:
            return [json.dumps(calibrate(t).to_dict()) for t in target_sets]

        fitted = dump()
        monkeypatch.setattr(latency_model, "linprog", reference_linprog)
        return fitted, dump()

    def test_benchmark_target_sets(self, monkeypatch):
        fitted, reference = self.fits(TARGET_SETS, monkeypatch)
        assert fitted == reference
        # The fit without IK reports a negative zero.
        assert '"negate": -0.0' in fitted[3]

    def test_scaled_module_subsets(self, monkeypatch):
        target_sets = scaled_subsets(200)
        fitted, reference = self.fits(target_sets, monkeypatch)
        for targets, got, want in zip(target_sets, fitted, reference):
            assert got == want, targets


def test_fit_and_reselect_loop(monkeypatch):
    # Each round's vertex, recorded where calibrate() solves, replayed
    # against the loop's rules: round 1 fits the longest path by node count,
    # each later round the dominant path under the table before it (the
    # first signature with the largest `_fma_dot`); the loop stops after a
    # round with no residual, at a selection it fitted already, or after
    # `_MAX_ROUNDS`; and the fit is the round with the smallest sum of
    # squared residuals, the first on ties.
    from test_golden import sweep_target_sets

    graphs = builtin_graphs()
    rounds = []

    def recording(c, model, solve=latency_model.linprog):
        x = solve(c, model)
        rounds.append((list(c), [0.0 if v < 0.0 else float(v) for v in x]))
        return x

    monkeypatch.setattr(latency_model, "linprog", recording)
    for targets in TARGET_SETS + sweep_target_sets(200):
        rounds.clear()
        fit = calibrate(targets)
        names = sorted(targets)
        selected = {name: graphs[name]._longest_by_count for name in names}
        fits = []
        for k, (objective, x) in enumerate(rounds):
            assert objective == [-sum(col) for col in zip(*selected.values())], targets
            table = OpLatencyTable(*x)
            cps = {name: critical_path(graphs[name], table) for name in names}
            sq_err = sum((cps[name] - targets[name]) ** 2 for name in names)
            fits.append((sq_err, table))
            previous, selected = selected, {
                name: max(graphs[name]._path_signatures, key=partial(latency_model._fma_dot, x=x))
                for name in names
            }
            last = sq_err == 0.0 or selected == previous or k + 1 == latency_model._MAX_ROUNDS
            assert last == (k + 1 == len(rounds)), (targets, k)
        best = min(range(len(fits)), key=lambda k: fits[k][0])
        assert fit.table == fits[best][1], targets


@contextlib.contextmanager
def fresh_rows(a_ub, b_ub):
    """In place of `latency_model._kept_rows`: each fit's rows as a new
    ``HighsLp`` of the rows alone, and per column its nonzero entries as
    (row, value) pairs in ascending row order, for `fresh_linprog`."""
    lp = latency_model._highs().HighsLp()
    lp.num_row_ = len(b_ub)
    lp.row_lower_ = [-math.inf] * len(b_ub)
    lp.row_upper_ = list(b_ub)
    lp.a_matrix_.num_row_ = len(b_ub)
    yield lp, [[(i, a) for i, a in enumerate(column) if a != 0] for column in zip(*a_ub)]


def fresh_linprog(c, model):
    """In place of `latency_model.linprog`: every LP on a fresh solver, the
    rows passed as one model, then each column with its cost and entries
    through ``addVar``, ``changeColCost`` and ``changeCoeff``."""
    h = latency_model._highs()
    lp, columns = model
    highs = h._Highs()
    highs.setOptionValue("log_to_console", False)
    highs.passModel(lp)
    for j, (cost, column) in enumerate(zip(c, columns)):
        highs.addVar(0.0, math.inf)
        highs.changeColCost(j, cost)
        for i, a in column:
            highs.changeCoeff(i, j, a)
    highs.run()
    assert highs.getModelStatus() == h.HighsModelStatus.kOptimal
    return highs.getSolution().col_value


def fit_json(target_sets) -> list[str]:
    return [json.dumps(calibrate(t).to_dict()) for t in target_sets]


def fresh_fits(target_sets, monkeypatch) -> list[str]:
    """`fit_json` with every LP solved on a fresh solver, leaving the kept
    models alone."""
    with monkeypatch.context() as patch:
        patch.setattr(latency_model, "_kept_rows", fresh_rows)
        patch.setattr(latency_model, "linprog", fresh_linprog)
        return fit_json(target_sets)


SUBSETS = [combo for r in range(1, 5) for combo in itertools.combinations(PUBLISHED, r)]
TARGET_DRAWS = (
    lambda rng, m: PUBLISHED[m] * 20.0 ** rng.uniform(-1.0, 1.0),
    # Whole nanoseconds, where paths and vertices tie.
    lambda rng, m: float(rng.randint(1, 300)),
    lambda rng, m: 10.0 ** rng.uniform(-3.0, 6.0),
)


def interleaved_target_sets(count: int, seed: int = 27) -> list[dict[str, float]]:
    """``count`` target sets over the 15 module subsets in random order, each
    set's targets drawn by one of `TARGET_DRAWS`.  About one set in five
    repeats the set before it, one in ten the subset before it with new
    targets, and one in ten an earlier set, after other subsets."""
    rng = random.Random(seed)
    sets: list[dict[str, float]] = []
    while len(sets) < count:
        roll = rng.random()
        if sets and roll < 0.2:
            sets.append(dict(sets[-1]))
        elif sets and roll < 0.3:
            sets.append(dict(rng.choice(sets)))
        else:
            draw = rng.choice(TARGET_DRAWS)
            subset = sets[-1] if sets and roll < 0.4 else rng.choice(SUBSETS)
            sets.append({m: draw(rng, m) for m in subset})
    return sets


class TestKeptModels:
    """`calibrate` keeps one HiGHS model per row set across fits and solves
    each LP on it cold, with new row bounds and costs; every fit must print
    the bytes of a fresh solver per LP."""

    @pytest.fixture(autouse=True)
    def no_kept_models(self, monkeypatch):
        monkeypatch.setattr(latency_model, "_MODELS", {})

    def test_interleaved_fits_match_fresh_solver(self, monkeypatch):
        target_sets = interleaved_target_sets(2000)
        assert {tuple(sorted(t)) for t in target_sets} == {tuple(sorted(s)) for s in SUBSETS}
        kept = fit_json(target_sets)
        assert len(latency_model._MODELS) == len(SUBSETS)
        fresh = fresh_fits(target_sets, monkeypatch)
        for targets, got, want in zip(target_sets, kept, fresh):
            assert got == want, targets

    @pytest.mark.parametrize("failure", ["non-optimal", "raises"])
    def test_failed_fit_drops_its_model(self, failure, monkeypatch):
        targets = {"FBF": 21.0, "FK": 47.0}
        calibrate(targets)
        ((rows, model),) = latency_model._MODELS.items()
        # A column that no row bounds: a negative cost there is unbounded.
        free = next(j for j in range(len(OP_KINDS)) if not any(sig[j] for sig in rows))
        solve = latency_model.linprog

        def failing(c, held):
            assert held is model
            if failure == "non-optimal":
                return solve([-1.0 if j == free else v for j, v in enumerate(c)], held)
            solve(c, held)
            raise RuntimeError("interrupted")

        with monkeypatch.context() as patch:
            patch.setattr(latency_model, "linprog", failing)
            error = CalibrationDegenerate if failure == "non-optimal" else RuntimeError
            with pytest.raises(error):
                calibrate({"FBF": 30.0, "FK": 40.0})
        assert latency_model._MODELS == {}
        after = [{"FBF": 21.0, "FK": 47.0}, {"FBF": 30.0, "FK": 40.0}]
        assert fit_json(after) == fresh_fits(after, monkeypatch)
        assert latency_model._MODELS[rows] is not model

    def test_cache_holds_at_most_its_cap(self):
        cap = latency_model._MODEL_CACHE_SIZE
        assert cap >= len(SUBSETS)
        fit_json({m: PUBLISHED[m] for m in subset} for subset in SUBSETS)
        assert len(latency_model._MODELS) == len(SUBSETS)
        lengths = range(1, cap + 4)
        for n in lengths:
            calibrate({"M": 5.0}, graphs={"M": chain("add", n)})
            assert len(latency_model._MODELS) <= cap
        # The least recently returned models go first.
        assert list(latency_model._MODELS) == [
            ((float(n),) + (0.0,) * (len(OP_KINDS) - 1),) for n in lengths[-cap:]
        ]

    def test_concurrent_fits_give_serial_bytes(self, monkeypatch):
        # Both threads fit every row set, so they also take and return the
        # same models.
        target_sets = interleaved_target_sets(400, seed=2)
        halves = [target_sets[0::2], target_sets[1::2]]
        serial = [fit_json(half) for half in halves]
        monkeypatch.setattr(latency_model, "_MODELS", {})
        start = threading.Barrier(len(halves))
        results: list = [None] * len(halves)

        def fit(i):
            start.wait(timeout=60)
            try:
                results[i] = fit_json(halves[i])
            except BaseException as exc:
                results[i] = exc
                raise

        threads = [threading.Thread(target=fit, args=(i,)) for i in range(len(halves))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == serial


def fraction_chain(v, x) -> float:
    """One fused multiply-add per term from 0.0: each step exact over
    rationals, then rounded once to the nearest double."""
    acc = 0.0
    for a, b in zip(v, x):
        acc = float(Fraction(a) * Fraction(b) + Fraction(acc))
    return acc


finite = st.floats(-1e150, 1e150)
# The re-selection's operands: operator counts, and latencies that HiGHS
# returns, subnormal ones included.
counts = st.lists(st.integers(0, 40).map(float), min_size=10, max_size=10)
latencies = st.lists(
    st.floats(0.0, 1e20) | st.integers(0, 300).map(float), min_size=10, max_size=10
)


class TestFmaDot:
    """`_fma_dot` is the path latency the re-selection compares; it must be
    numpy's ``v @ x``, which the recorded fits were taken with."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        v=st.lists(finite, min_size=1, max_size=12),
        x=st.lists(finite, min_size=12, max_size=12),
    )
    def test_exact_fused_chain(self, v, x):
        assert latency_model._fma_dot(v, x) == fraction_chain(v, x)

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(v=counts, x=latencies)
    def test_numpy_dot(self, v, x):
        assert latency_model._fma_dot(v, x) == float(np.array(v) @ np.array(x))

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(x=latencies)
    def test_dominant_path_as_numpy_chose_it(self, x):
        # The first signature with the largest numpy dot product, also
        # where whole-number latencies tie paths.
        for g in builtin_graphs().values():
            signatures = g._path_signatures
            want = max(signatures, key=lambda v: float(np.array(v) @ np.array(x)))
            assert latency_model._dominant(signatures, x) == want


def test_paths_within_solver_tolerance_of_target():
    # Every path of a fitted module stays at or below its target, to HiGHS's
    # absolute primal feasibility tolerance of 1e-7 ns.
    graphs = builtin_graphs()
    for targets in scaled_subsets(200):
        fitted = calibrate(targets).table.to_dict()
        x = np.array([fitted[k] for k in OP_KINDS])
        for name, target in targets.items():
            for signature in graphs[name]._path_signatures:
                assert signature @ x <= target + 1e-7, (targets, name)


def test_missing_binding_named(monkeypatch):
    # With the binding neither loaded nor found in scipy's tree, the loader
    # names it and scipy's version.
    import scipy

    monkeypatch.delitem(sys.modules, latency_model._HIGHS_MODULE)
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", lambda *a: None)
    message = f"{latency_model._HIGHS_MODULE}, which scipy {scipy.__version__} does not ship"
    with pytest.raises(ImportError, match=re.escape(message)):
        latency_model._highs()


# Fits with calibrate() before `import scipy.optimize` (argv[1] is
# "binding-first"), which must leave the binding in sys.modules for that
# import, or only after it: every binding calibrate used must be the module
# scipy.optimize imported, and scipy's own linprog must still solve through
# it.
IMPORT_ORDER = """
import sys
import numpy as np
from tactilesim import latency_model

load = latency_model._highs
used = []
latency_model._highs = lambda: used.append(load()) or used[-1]
if sys.argv[1] == "binding-first":
    latency_model.calibrate(latency_model.DEFAULT_TARGETS_NS)
    assert "scipy.optimize" not in sys.modules
    assert sys.modules.get(latency_model._HIGHS_MODULE) is used[-1]
import scipy.optimize
import scipy.optimize._highspy._core as core
latency_model.calibrate(latency_model.DEFAULT_TARGETS_NS)
assert used and all(m is core for m in used), (used, core)
sol = scipy.optimize.linprog([-1.0, -1.0], A_ub=[[1.0, 2.0]], b_ub=[4.0], method="highs")
assert sol.success and np.allclose(sol.x, [4.0, 0.0]), sol
"""


@pytest.mark.parametrize("order", ["binding-first", "scipy-first"])
def test_binding_shared_with_scipy_optimize(order):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_ORDER, order],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
