"""One input contract for the scenario file and the library.

Every value a field can take ends one of three ways: a run that writes its
traces and a finite summary; one ``error:`` line naming the field, exit 1;
or a runtime error naming the sample, exit 2.  In the library a config
constructor refuses a value with a ValueError naming the field, and a run
of accepted values ends in a finite trace or a SampleError.  A per-sample
module call refuses an operand component that is no finite number with a
ValueError whose message starts with the component's field name, and ends
any other operand in a finite result or a SampleError.

A value not of its field's kind is refused, never run: a bool is no
number, an integer field takes only an integer, a float field a finite
float or an integer, and no integer lies beyond the float range."""

import contextlib
import copy
import io
import json
import math
import numbers
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import field_name
from tactilesim.channel import ChannelConfig
from tactilesim.cli import main
from tactilesim.force import (
    Elasticity,
    ForceVector,
    feedback_force,
    jacobian,
    kinesthetic_feedback,
)
from tactilesim.kinematics import (
    DEFAULT_GEOMETRY,
    CartesianPosition,
    DeviceGeometry,
    Hybrid,
    JointAngles,
    NonFiniteSignal,
    Oracle,
    SampleError,
    forward_kinematics,
    inverse_kinematics,
)
from tactilesim.numerics import S16_13, CordicConfig, QFormat, sqrt32, tfb_atan2
from tactilesim.pipeline import (
    COLUMN_ORDER,
    Scene,
    TrajectorySegment,
    TrajectorySpec,
    run_pipeline,
)

ROOT = Path(__file__).resolve().parent.parent

# The values a field is set to: a bool, the integers around zero and past
# int64 and the float range, the float range's ends, the non-finite floats,
# a subnormal, a fraction, a string, an empty list and mapping, and null.
BOUNDARY = [
    True, False, 0, -1, 2**63, 10**400, 1e308, -1e308, math.nan, math.inf, -math.inf,
    1e-320, 0.5, "text", [], {}, None,
]


# scenarios/default.yaml at 30 samples, 10 per segment.
SHORT = yaml.safe_load((ROOT / "scenarios" / "default.yaml").read_text())
for _segment in SHORT["trajectory"]["segments"]:
    _segment["samples"] = 10
SHORT["trajectory"]["total_samples"] = 30
# libyaml's writer where PyYAML has it: the scenario is written once per value.
DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def key_paths(node, path=()):
    """Every key path of a parsed YAML tree, a list or mapping before its
    items."""
    items = enumerate(node) if isinstance(node, list) else node.items()
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (list, dict)):
            yield from key_paths(value, path + (key,))


def _node(data, path: tuple):
    """The node of the parsed YAML tree ``data`` at key path ``path``."""
    for key in path:
        data = data[key]
    return data


# Every field, and the leaves: the fields that hold no list or mapping.
PATHS = list(key_paths(SHORT))
LEAVES = [path for path in PATHS if not isinstance(_node(SHORT, path), (list, dict))]


def of_kind(value, base) -> bool:
    """Whether ``value`` is of the kind of the field whose valid value is
    ``base``."""
    if isinstance(value, bool):
        return False
    if isinstance(value, int) and isinstance(base, (int, float)):
        return isinstance(base, float) or abs(value) < 2**1024
    if isinstance(base, float):
        return isinstance(value, float) and math.isfinite(value)
    return isinstance(value, type(base))


def finite(node) -> bool:
    """Whether every number in a parsed JSON tree is finite."""
    if isinstance(node, dict):
        return all(map(finite, node.values()))
    if isinstance(node, list):
        return all(map(finite, node))
    return not isinstance(node, float) or math.isfinite(node)


def check_run(path: tuple, value) -> None:
    """`tactilesim run` in-process on the short scenario with the field at
    ``path`` set to ``value``: its exit code, its stderr and its outputs."""
    data = copy.deepcopy(SHORT)
    _node(data, path[:-1])[path[-1]] = copy.deepcopy(value)
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "s.yaml"
        scenario.write_text(yaml.dump(data, Dumper=DUMPER))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", str(scenario), "--out-dir", str(out)])
        where = f"{field_name(path)} = {value!r}"
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2), where
        if not of_kind(value, _node(SHORT, path)):
            assert code == 1, (where, lines)
        assert len(lines) <= 1, (where, lines)
        assert not any(re.search("field '.*field '", line) for line in lines), (where, lines)
        if code != 0:
            assert lines and not out.exists(), where
            return
        assert lines == [], where
        (summary,) = [p for p in out.iterdir() if p.name.endswith("_summary.json")]
        report = json.loads(summary.read_text())
        assert finite(report), where
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [summary.name, *report["traces"]]
        ), where


def test_short_scenario_runs():
    check_run(("seed",), 2024)


@pytest.mark.parametrize("path", LEAVES, ids=map(field_name, LEAVES))
def test_scenario_leaf_boundary_values(path):
    for value in BOUNDARY:
        check_run(path, value)


# Arbitrary YAML scalars in any field.
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=8),
)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(path=st.sampled_from(PATHS), value=SCALARS)
def test_scenario_field_arbitrary_scalars(path, value):
    check_run(path, value)


# The library: each exported config constructor, its arguments for the
# short scenario, and the run that takes what it builds.  A run pairs the
# oracle with the hybrid shadow, so every config reaches both datapaths.
NORMAL = (-0.6666666666666666, 0.6666666666666666, 0.3333333333333333)
ELASTICITY = Elasticity(80.0, 80.0, 80.0)
SEGMENTS = (
    TrajectorySegment(0, 0.0, 1.5707963267948966, 10),
    TrajectorySegment(1, 0.0, 0.7853981633974483, 10),
    TrajectorySegment(2, 0.0, 0.7853981633974483, 10),
)


def run(
    spec=TrajectorySpec(SEGMENTS),
    scene=Scene(ELASTICITY, NORMAL, 0.03),
    fc=ChannelConfig(),
    bc=ChannelConfig(),
    geometry=DEFAULT_GEOMETRY,
    cordic=CordicConfig(10),
    fcs_pole=0.0,
) -> None:
    trace = run_pipeline(
        spec, scene, fc, bc, Oracle(),
        geometry=geometry, shadow=Hybrid(cordic), fcs_pole=fcs_pole,
    )
    for backend in trace.backends:
        view = trace.view(backend)
        assert all(np.isfinite(view[name]).all() for name in COLUMN_ORDER)


CONSTRUCTORS = {
    "QFormat": (
        QFormat, {"total_bits": 16, "frac_bits": 13}, lambda q: run(cordic=CordicConfig(10, q))
    ),
    "CordicConfig": (CordicConfig, {"iterations": 10, "fmt": S16_13}, lambda c: run(cordic=c)),
    "DeviceGeometry": (
        DeviceGeometry,
        {name: getattr(DEFAULT_GEOMETRY, name) for name in ("l1", "l2", "l3", "l4")},
        lambda g: run(geometry=g),
    ),
    "Elasticity": (
        Elasticity, ELASTICITY._asdict(), lambda h: run(scene=Scene(h, NORMAL, 0.03))
    ),
    "TrajectorySegment": (
        TrajectorySegment,
        {"joint": 0, "start": 0.0, "end": 1.5707963267948966, "samples": 10},
        lambda s: run(spec=TrajectorySpec((s,) + SEGMENTS[1:])),
    ),
    "TrajectorySpec": (
        TrajectorySpec,
        {"segments": SEGMENTS, "sample_period": 0.01, "total_samples": 30},
        lambda s: run(spec=s),
    ),
    "Scene": (
        Scene,
        {"elasticity": ELASTICITY, "normal": NORMAL, "offset": 0.03},
        lambda s: run(scene=s),
    ),
    "ChannelConfig": (
        ChannelConfig,
        {"noise_variance": (0.0, 0.0, 0.0), "delay": (0, 0), "seed": 0},
        lambda c: run(fc=c, bc=c),
    ),
    "run_pipeline": (dict, {"fcs_pole": 0.0}, lambda kwargs: run(**kwargs)),
}

# (constructor, field, item): each field, and each item of a tuple field.
TARGETS = [
    (name, field, item)
    for name, (_, kwargs, _) in CONSTRUCTORS.items()
    for field, base in kwargs.items()
    for item in (None, *(range(len(base)) if type(base) is tuple else ()))
]
# The fields that also take a value of another kind, and a valid one of it:
# None for the segments' sum, a scalar for every component's variance.
ALSO = {("TrajectorySpec", "total_samples"): None, ("ChannelConfig", "noise_variance"): 0.0}


def check_constructor(name: str, field: str, item, value) -> None:
    """``name``'s constructor with ``field`` (or its item ``item``) set to
    ``value``, then a run: a ValueError naming the field, or a finite trace,
    a SampleError, or a count too large to hold."""
    build, kwargs, use = CONSTRUCTORS[name]
    kwargs = dict(kwargs)
    if item is None:
        base = kwargs[field]
        kwargs[field] = value
    else:
        items = list(kwargs[field])
        base, items[item] = items[item], value
        kwargs[field] = tuple(items)
    where = f"{name}({field}{'' if item is None else f'[{item}]'}={value!r})"
    try:
        use(build(**kwargs))
    except SampleError as exc:
        assert exc.sample_index is not None, where
    except MemoryError:
        # A run too long to hold in memory: the command's "out of memory".
        assert isinstance(value, int) and value >= 2**31, where
    except ValueError as exc:
        assert field in str(exc), (where, str(exc))
        return
    also = item is None and (name, field) in ALSO and of_kind(value, ALSO[name, field])
    assert of_kind(value, base) or also, f"{where} accepted"


@pytest.mark.parametrize(
    "name, field, item",
    TARGETS,
    ids=[f"{n}.{f}" + ("" if i is None else f"[{i}]") for n, f, i in TARGETS],
)
def test_constructor_field_boundary_values(name, field, item):
    for value in BOUNDARY:
        check_constructor(name, field, item, value)


# A run allocates its table by its length and each channel its ring buffer
# by its delay, so arbitrary counts stay small here; among the boundary
# values, 2**63 is the count no memory holds.
SMALL_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1000, 1000),
    st.floats(),
    st.text(max_size=8),
)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(target=st.sampled_from(TARGETS), value=SMALL_SCALARS)
def test_constructor_field_arbitrary_scalars(target, value):
    check_constructor(*target, value)


# The per-sample module calls: each takes a backend and its operands, each
# given by its parameter name, its value type and a valid value.
Q = (0.1, 0.2, 0.3)
P = tuple(forward_kinematics(Q))
MODULE_CALLS = {
    "forward_kinematics": (
        lambda b, q: forward_kinematics(q, backend=b), [("q", JointAngles, Q)]
    ),
    "inverse_kinematics": (
        lambda b, p: inverse_kinematics(p, backend=b), [("p", CartesianPosition, P)]
    ),
    "jacobian": (lambda b, q: jacobian(q, backend=b), [("q", JointAngles, Q)]),
    "kinesthetic_feedback": (
        lambda b, q, f: kinesthetic_feedback(q, f, backend=b),
        [("q", JointAngles, Q), ("f", ForceVector, (1.0, -2.0, 3.0))],
    ),
    "feedback_force": (
        lambda b, obj, env: feedback_force(obj, env, ELASTICITY, backend=b),
        [("obj", CartesianPosition, P), ("env", CartesianPosition, (0.0, -0.1, -0.05))],
    ),
}
# (call, operand, component): each component of each operand.
COMPONENTS = [
    (name, i, j)
    for name, (_, operands) in MODULE_CALLS.items()
    for i in range(len(operands))
    for j in range(3)
]
BACKENDS = [Oracle(), Hybrid(CordicConfig(10))]


def finite_number(value) -> bool:
    """Whether ``value`` is a number a float holds finitely (a bool too)."""
    if not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
@pytest.mark.parametrize(
    "name, operand, component",
    COMPONENTS,
    ids=[
        f"{n}.{MODULE_CALLS[n][1][i][0]}.{MODULE_CALLS[n][1][i][1]._fields[j]}"
        for n, i, j in COMPONENTS
    ],
)
def test_module_operand_boundary_values(name, operand, component, backend):
    call, operands = MODULE_CALLS[name]
    field = operands[operand][1]._fields[component]
    for value in BOUNDARY:
        args = [list(base) for _, _, base in operands]
        args[operand][component] = copy.deepcopy(value)
        where = f"{name} {field} = {value!r} on {backend.name}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = call(backend, *args)
            except ValueError as exc:
                if finite_number(value):
                    # The backend's own range or reach error, or a block
                    # form's result check; never the operand's refusal.
                    assert isinstance(exc, SampleError), (where, repr(exc))
                    assert not str(exc).startswith(f"{field} must"), (where, str(exc))
                else:
                    assert str(exc).startswith(f"{field} must be "), (where, str(exc))
                    if isinstance(value, numbers.Real):
                        assert isinstance(exc, NonFiniteSignal), where
                        assert str(exc) == f"{field} must be finite", where
                continue
        assert finite_number(value), f"{where} accepted"
        assert all(map(math.isfinite, result)), (where, result)


@pytest.mark.parametrize(
    "value", [1e39, -1e39, 10**400, -(10**400)], ids=["1e39", "-1e39", "1e400", "-1e400"]
)
@pytest.mark.parametrize(
    "call, operand",
    [
        (sqrt32, "sqrt32 operand x"),
        (lambda v: tfb_atan2(v, 1.0), "tfb_atan2 operand y"),
        (lambda v: tfb_atan2(1.0, v), "tfb_atan2 operand x"),
    ],
    ids=["sqrt32", "tfb_atan2.y", "tfb_atan2.x"],
)
def test_float32_operand_beyond_its_range(call, operand, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            call(value)
    assert err.type is ValueError
    assert re.fullmatch(f"{operand} = .* is beyond the float32 range", str(err.value))
