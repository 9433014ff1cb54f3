"""The signal value types are validated named tuples: every way of building
one runs the constructor's checks, fields are read-only, and a value equals
the plain tuple of its fields."""

import copy
import math
import pickle

import pytest

from tactilesim.force import Elasticity, ForceVector, JacobianMatrix, TorqueVector
from tactilesim.kinematics import CartesianPosition, JointAngles, NonFiniteSignal

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
        with pytest.raises(ValueError, match=f"^{name} must be nonnegative$"):
            build(Elasticity, tuple(values))
