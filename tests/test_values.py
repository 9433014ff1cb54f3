"""The signal value types and the configs are validated named tuples: every
way of building one runs the constructor's checks, fields are read-only, and
a value equals the plain tuple of its fields.  An integer beyond the float
range is refused or saturated wherever a number goes in."""

import copy
import math
import pickle
import re

import numpy as np
import pytest

from tactilesim.channel import ChannelConfig, ChannelState, channel_step
from tactilesim.force import (
    Elasticity,
    ForceVector,
    JacobianMatrix,
    TorqueVector,
    feedback_force,
    jacobian,
    kinesthetic_feedback,
)
from tactilesim.kinematics import (
    CartesianPosition,
    DeviceGeometry,
    Hybrid,
    JointAngles,
    NonFiniteSignal,
    ORACLE,
    Oracle,
    Unreachable,
    _HybridColumns,
    forward_kinematics,
    inverse_kinematics,
)
from tactilesim.numerics import (
    S16_13,
    CordicConfig,
    QFormat,
    float_to_fixed,
    sqrt32,
    tfb_atan2,
    tfb_sincos,
)
from tactilesim.pipeline import Scene, SimulationTrace, TrajectorySegment, TrajectorySpec
from tactilesim.scenario import Scenario

VECTORS = [JointAngles, CartesianPosition, ForceVector, TorqueVector]


def unchecked(cls, values):
    """An instance built around the constructor, as a corrupt pickle could
    hold one."""
    return tuple.__new__(cls, values)


# Every way of building an instance from a tuple of field values.
BUILDERS = {
    "positional": lambda cls, v: cls(*v),
    "keyword": lambda cls, v: cls(**dict(zip(cls._fields, v))),
    "_make": lambda cls, v: cls._make(v),
    "_replace": lambda cls, v: cls(*[0.0] * len(v))._replace(**dict(zip(cls._fields, v))),
    "pickle": lambda cls, v: pickle.loads(pickle.dumps(unchecked(cls, v))),
    "copy": lambda cls, v: copy.copy(unchecked(cls, v)),
    "deepcopy": lambda cls, v: copy.deepcopy(unchecked(cls, v)),
}


@pytest.mark.parametrize("how", BUILDERS)
@pytest.mark.parametrize("cls", VECTORS, ids=lambda c: c.__name__)
def test_every_builder_checks_each_field(cls, how):
    build = BUILDERS[how]
    good = build(cls, (0.5, -0.0, 2.0))
    assert type(good) is cls and good == (0.5, -0.0, 2.0)
    for i, name in enumerate(cls._fields):
        for bad in (math.nan, math.inf, -math.inf):
            values = [0.5, -0.0, 2.0]
            values[i] = bad
            with pytest.raises(NonFiniteSignal, match=f"^{name} must be finite$"):
                build(cls, tuple(values))


@pytest.mark.parametrize("how", BUILDERS)
@pytest.mark.parametrize("cls", VECTORS, ids=lambda c: c.__name__)
def test_integer_beyond_the_float_range_is_not_finite(cls, how):
    # math.isfinite raises OverflowError on it; no float holds it.
    build = BUILDERS[how]
    for i, name in enumerate(cls._fields):
        for big in (10**400, -(10**400)):
            values = [0.5, -0.0, 2.0]
            values[i] = big
            with pytest.raises(NonFiniteSignal, match=f"^{name} must be finite$"):
                build(cls, tuple(values))
    first, second = cls._fields[:2]
    with pytest.raises(NonFiniteSignal, match=f"^{first} must be finite$"):
        build(cls, (10**400, math.nan, 0.0))
    with pytest.raises(NonFiniteSignal, match=f"^{second} must be finite$"):
        build(cls, (0.0, 10**400, math.nan))


@pytest.mark.parametrize("cls", VECTORS, ids=lambda c: c.__name__)
def test_first_bad_field_is_named(cls):
    first, second = cls._fields[:2]
    with pytest.raises(NonFiniteSignal, match=f"^{first} must be finite$"):
        cls(math.nan, math.inf, 0.0)
    with pytest.raises(NonFiniteSignal, match=f"^{second} must be finite$"):
        cls(0.0, math.inf, math.nan)


@pytest.mark.parametrize("cls", VECTORS, ids=lambda c: c.__name__)
def test_wrong_field_count_is_refused(cls):
    for how in ("positional", "_make"):
        with pytest.raises(TypeError):
            BUILDERS[how](cls, (1.0, 2.0))
    with pytest.raises(ValueError, match="unexpected field names"):
        cls(1.0, 2.0, 3.0)._replace(w=1.0)


@pytest.mark.parametrize("cls", VECTORS + [Elasticity], ids=lambda c: c.__name__)
def test_fields_are_read_only(cls):
    value = cls(1.0, 2.0, 3.0)
    with pytest.raises(AttributeError):
        setattr(value, cls._fields[0], 5.0)
    with pytest.raises(AttributeError):
        value.other = 5.0
    assert value == (1.0, 2.0, 3.0)


@pytest.mark.parametrize("cls", VECTORS, ids=lambda c: c.__name__)
def test_equal_to_the_plain_tuple(cls):
    value = cls(1.0, 2.0, 3.0)
    assert value == (1.0, 2.0, 3.0) and hash(value) == hash((1.0, 2.0, 3.0))
    assert tuple(value) == (1.0, 2.0, 3.0)
    a, b, c = value
    assert (a, b, c) == tuple(getattr(value, name) for name in cls._fields)
    fields = ", ".join(f"{name}={v!r}" for name, v in zip(cls._fields, (1.0, 2.0, 3.0)))
    assert repr(value) == f"{cls.__name__}({fields})"


JACOBIAN = (1.5, -2.0, 0.25, 0.0, 3.0, -0.5, 7.0, 1e-9, -4.0)


@pytest.mark.parametrize("how", BUILDERS)
def test_jacobian_rejects_nonzero_j21(how):
    build = BUILDERS[how]
    assert build(JacobianMatrix, JACOBIAN) == JACOBIAN
    for j21 in (1e-300, -1.0, math.nan):
        values = JACOBIAN[:3] + (j21,) + JACOBIAN[4:]
        with pytest.raises(ValueError, match="^J21 must be identically zero$"):
            build(JacobianMatrix, values)


@pytest.mark.parametrize("how", BUILDERS)
def test_elasticity_checks_each_builder(how):
    build = BUILDERS[how]
    assert build(Elasticity, (80.0, 0.0, 3e38)) == (80.0, 0.0, 3e38)
    for i, name in enumerate(Elasticity._fields):
        values = [1.0, 1.0, 1.0]
        values[i] = -1.0
        with pytest.raises(ValueError, match=f"^{name} must be nonnegative$"):
            build(Elasticity, tuple(values))
        values[i] = 1e39
        with pytest.raises(ValueError, match=f"^{name} exceeds the float32 maximum"):
            build(Elasticity, tuple(values))
        # Refused when built, not at the first contact sample.
        values[i] = math.nan
        with pytest.raises(ValueError, match=f"^field '{name}' must be finite, got nan$"):
            build(Elasticity, tuple(values))


# The configs, each with the repr its frozen dataclass gave, and a field
# value its constructor refuses (None: it has no rules).
SEGMENT = TrajectorySegment(1, -0.5, 0.25, 3)
SPEC = TrajectorySpec((SEGMENT, TrajectorySegment(0, 0.0, 1.0, 2)), 0.001)
SPEC_REPR = (
    "TrajectorySpec(segments=(TrajectorySegment(joint=1, start=-0.5, end=0.25, samples=3), "
    "TrajectorySegment(joint=0, start=0.0, end=1.0, samples=2)), sample_period=0.001, "
    "total_samples=5)"
)
CORDIC_REPR = "CordicConfig(iterations=16, fmt=QFormat(total_bits=16, frac_bits=13))"
CONFIGS = {
    "QFormat": (QFormat(12, 9), "QFormat(total_bits=12, frac_bits=9)", ("frac_bits", 12)),
    "CordicConfig": (
        CordicConfig(10),
        "CordicConfig(iterations=10, fmt=QFormat(total_bits=16, frac_bits=13))",
        ("iterations", 0),
    ),
    "ChannelConfig": (
        ChannelConfig(1e-6, (1, 3), 7),
        "ChannelConfig(noise_variance=(1e-06, 1e-06, 1e-06), delay=(1, 3), seed=7)",
        ("seed", -1),
    ),
    "DeviceGeometry": (
        DeviceGeometry(l4=0.5),
        "DeviceGeometry(l1=0.135, l2=0.135, l3=0.025, l4=0.5)",
        ("l3", 0.0),
    ),
    "TrajectorySegment": (
        SEGMENT,
        "TrajectorySegment(joint=1, start=-0.5, end=0.25, samples=3)",
        ("samples", 0),
    ),
    "TrajectorySpec": (SPEC, SPEC_REPR, ("total_samples", 6)),
    "Scene": (
        Scene(Elasticity(80.0, 0.0, 3.5), (0.0, 0.0, 2.0), 0.5),
        "Scene(elasticity=Elasticity(hx=80.0, hy=0.0, hz=3.5), normal=(0.0, 0.0, 1.0), "
        "offset=0.5)",
        ("offset", math.nan),
    ),
    "SimulationTrace": (
        SimulationTrace(2, 0.01, "oracle", None, {"n": np.arange(2.0)}),
        "SimulationTrace(q=2, sample_period=0.01, driver='oracle', shadow=None, "
        "signals={'n': array([0., 1.])}, shadow_signals={})",
        None,
    ),
    "Scenario": (
        Scenario(
            SPEC, DeviceGeometry(), Scene(Elasticity(1.0, 1.0, 1.0)), ChannelConfig(),
            ChannelConfig(0.5, (2, 2), 1), ("oracle",), CordicConfig(), 0.5, 3, "out", "trace",
            (0.001,), 4e-07,
        ),
        f"Scenario(trajectory={SPEC_REPR}, "
        "geometry=DeviceGeometry(l1=0.135, l2=0.135, l3=0.025, l4=0.17), "
        "scene=Scene(elasticity=Elasticity(hx=1.0, hy=1.0, hz=1.0), normal=None, offset=None), "
        "fc=ChannelConfig(noise_variance=(0.0, 0.0, 0.0), delay=(0, 0), seed=0), "
        "bc=ChannelConfig(noise_variance=(0.5, 0.5, 0.5), delay=(2, 2), seed=1), "
        f"backends=('oracle',), cordic={CORDIC_REPR}, fcs_pole=0.5, seed=3, "
        "output_dir='out', output_prefix='trace', budget_limits=(0.001,), "
        "budget_t_hardware=4e-07)",
        None,
    ),
    "Hybrid": (
        Hybrid(CordicConfig(12)),
        "Hybrid(cordic=CordicConfig(iterations=12, fmt=QFormat(total_bits=16, frac_bits=13)))",
        ("cordic", "s16.13"),
    ),
    "_HybridColumns": (
        _HybridColumns(CordicConfig()), f"_HybridColumns(cordic={CORDIC_REPR})", ("cordic", None)
    ),
}


@pytest.mark.parametrize("name", CONFIGS)
def test_config_is_a_checked_named_tuple(name):
    config, text, bad = CONFIGS[name]
    assert type(config).__name__ == name and repr(config) == text
    assert isinstance(config, tuple) and config._fields
    if name != "SimulationTrace":  # its fields hold arrays
        assert config == tuple(config) and hash(config) == hash(tuple(config))
        for rebuilt in (
            pickle.loads(pickle.dumps(config)), copy.copy(config), copy.deepcopy(config)
        ):
            assert type(rebuilt) is type(config) and rebuilt == config
    with pytest.raises(AttributeError):
        setattr(config, config._fields[0], None)
    if bad is not None:
        field, value = bad
        with pytest.raises(ValueError, match=field):
            config._replace(**{field: value})


def test_equal_cordic_configs_keep_their_own_sincos_tables():
    # A config's cached tables live in its own __dict__, not in the tuple.
    a, b = CordicConfig(10), CordicConfig(10)
    assert a == b and hash(a) == hash(b)
    tfb_sincos(0.5, a)
    assert a._sincos_results[2] and b._sincos_results[2] == {}


def test_oracle_is_a_plain_class():
    # No fields: its instances compare by identity.
    assert repr(Oracle()) == "Oracle()" and not isinstance(ORACLE, tuple)
    assert ORACLE == ORACLE and Oracle() != Oracle()


# Each entry point that takes a number, called with the int ``v`` beyond
# the float range: (call, the exception, its message; None: the call
# saturates as with an infinity of the int's sign).  ``{int}`` is the int
# as numerics.int_text shows it.
HYBRID = Hybrid()
ENTRY_POINTS = {
    "float_to_fixed": (lambda v: float_to_fixed(v, S16_13), None, None),
    "tfb_sincos": (lambda v: tfb_sincos(v), None, None),
    "tfb_atan2.y": (
        lambda v: tfb_atan2(v, 1.0), ValueError,
        "tfb_atan2 operand y = {int} is beyond the float32 range",
    ),
    "tfb_atan2.x": (
        lambda v: tfb_atan2(1.0, v), ValueError,
        "tfb_atan2 operand x = {int} is beyond the float32 range",
    ),
    "sqrt32": (
        lambda v: sqrt32(v), ValueError, "sqrt32 operand x = {int} is beyond the float32 range"
    ),
    "fk.oracle": (
        lambda v: forward_kinematics((0.1, v, 0.2)), NonFiniteSignal, "theta2 must be finite"
    ),
    "ik.oracle": (
        lambda v: inverse_kinematics((0.1, v, 0.2)), NonFiniteSignal, "y must be finite"
    ),
    "fk.hybrid": (
        lambda v: forward_kinematics((0.1, v, 0.2), backend=HYBRID), NonFiniteSignal,
        "theta2 must be finite",
    ),
    "ik.hybrid": (
        lambda v: inverse_kinematics((0.1, v, 0.2), backend=HYBRID), NonFiniteSignal,
        "y must be finite",
    ),
    "channel_step": (
        lambda v: channel_step(ChannelState(ChannelConfig()), (math.inf, v, math.nan), 0),
        ValueError, r"sample\[1\] = {int} is beyond the float range",
    ),
    "jacobian.oracle": (
        lambda v: jacobian((0.1, v, 0.2)), NonFiniteSignal, "theta2 must be finite"
    ),
    "jacobian.hybrid": (
        lambda v: jacobian((0.1, v, 0.2), backend=HYBRID), NonFiniteSignal,
        "theta2 must be finite",
    ),
    "feedback_force": (
        lambda v: feedback_force((0.1, v, 0.2), (0.0, 0.0, 0.0), Elasticity(1.0, 1.0, 1.0)),
        NonFiniteSignal, "y must be finite",
    ),
    "kinesthetic_feedback": (
        lambda v: kinesthetic_feedback((0.1, 0.2, 0.3), (0.1, v, 0.2)),
        NonFiniteSignal, "fy must be finite",
    ),
}


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_integer_beyond_the_float_range_at_each_entry_point(entry, sign):
    call, error, message = ENTRY_POINTS[entry]
    big = sign * 10**400
    if error is None:
        assert call(big) == call(sign * math.inf)
        return
    text = f"{'an' if sign > 0 else 'a negative'} integer of 401 digits"
    with pytest.raises(error) as err:
        call(big)
    assert err.type is error
    assert re.fullmatch(message.format(int=text), str(err.value)), str(err.value)


def test_an_int_whose_square_is_beyond_the_float_range_is_a_position():
    # The oracle IK squares its operands: 10**200 reads as 1e200, out of
    # reach as that float is.
    for pos in ((10**200, 0, 0), (1e200, 0.0, 0.0)):
        with pytest.raises(Unreachable, match="^gamma operand nan outside"):
            inverse_kinematics(pos)
