import dataclasses

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

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


def table(**kwargs) -> OpLatencyTable:
    return OpLatencyTable(**kwargs)


class TestOpLatencyTable:
    def test_nonnegative_required(self):
        with pytest.raises(ValueError):
            OpLatencyTable(add=-1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            table().get("fma")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("kind", ["add", "div"])
    def test_non_finite_rejected(self, kind, value):
        # A NaN div once built, and IK's critical path then read 21 ns: the
        # sweep dropped every path through a divider.
        with pytest.raises(ValueError, match=f"^latency of {kind} must be finite and "
                           f"nonnegative, got {value}$"):
            OpLatencyTable(**{"add": 8.0, "mul": 13.0, "div": 126.0, "negate": 13.0,
                              kind: value})


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
                longest = max(sum(t.get(g.nodes[n]) for n in path) for path in paths)
                assert critical_path(g, t) == longest
                # The reported path runs from a source node, also through
                # nodes that add no latency.
                nodes = critical_path_nodes(g, t)
                assert nodes in paths
                assert sum(t.get(g.nodes[n]) for n in nodes) == longest


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
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.nodes = {}
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
                assert result.table.get(kind) == pytest.approx(60.0 / length)
                assert result.critical_paths["M"] == pytest.approx(60.0)

    def test_rebuilt_graphs_reusing_ids(self):
        # Each graph is dropped before the next is built, so CPython hands
        # out the same ids again.
        for i in range(40):
            kind, length = OP_KINDS[i % len(OP_KINDS)], i % 3 + 1
            g = chain(kind, length)
            assert calibrate({"M": 60.0}, graphs={"M": g}).table.get(kind) == pytest.approx(
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
        with pytest.raises(ValueError):
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
        monkeypatch.setattr(
            latency_model, "linprog", lambda *a, **k: OptimizeResult(success=True, x=x)
        )
        with pytest.raises(CalibrationDegenerate):
            calibrate({"FK": 47.0})

    def test_hardware_time_counts_fk_twice(self):
        assert hardware_time({"FK": 47.0, "KFF": 70.0, "IK": 218.0, "FBF": 21.0}) == 403.0
